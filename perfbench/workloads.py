"""The in-process workloads and what every workload shares.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come from `random.Random(seed)`;
ewflab sees only the generated inputs.  An operation is timed around the
ewflab calls alone; its answer is checked afterwards, outside the timed
region.

Between operations, and around each set-up, the loop times a fixed
reference kernel that calls no ewflab code.  The shared machines this runs
on change speed by up to 1.7x for stretches of seconds to minutes, and the
kernel slows with them.  A time divided by the median kernel time within a
second of it, and multiplied by REF_MS, is a time at reference speed: it
follows changes to ewflab, not the machine's state.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ewflab import bellbohm, born, histories
from ewflab.protocol import OUTCOME_LABELS, Protocol, StageId

#: Set-up is measured this many times before the loop and as many after it;
#: `setup_s` is the median.
SETUP_REPEATS = 4

#: Probabilities are exact small rationals; float error stays far below this.
TOL = 1e-12

#: Median time of one reference kernel run, in ms, on the machine the
#: README's figures come from (2-vCPU x86-64 VM, Python 3.11.7, numpy 2.4.6)
#: in its fast state.  It sets the scale of the times at reference speed.
REF_MS = 0.6

#: An operation or set-up is scaled by the kernel runs from this long
#: before it starts to this long after it ends.
REF_WINDOW_S = 1.0

#: Kernel runs beside each set-up and each CLI process: a few hundred
#: milliseconds of work would otherwise have few runs in its window.
REF_REPEATS = 5

_REF_MATRIX = np.full((324, 324), 1 / 324, dtype=complex)
_REF_VECTOR = np.ones(324, dtype=complex)

H1 = (("r", "tail"), ("z", "+"), ("w1", "ok"), ("w2", "ok"))
H1PRIME = (("r", "tail"), ("w2", "ok"))


def reference_ms() -> float:
    """Time in ms of one run of the reference kernel.

    The kernel is what ewflab's own work is made of, at a small scale:
    eight 324-dimensional complex matrix-vector products and a Python loop.
    """
    t0 = time.perf_counter()
    v = _REF_VECTOR
    for _ in range(8):
        v = _REF_MATRIX @ v
    s = 0
    for i in range(5000):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Result:
    """What one run measured, before it is turned into metrics."""

    latencies_ms: list[float] = field(default_factory=list)  # wall time of each operation
    op_spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) of each operation
    crashed: int = 0  # operations that raised or ended in a traceback
    wrong: int = 0  # operations whose answer failed a check
    known_defects: int = 0  # cli-mix invocations that ended in a known traceback
    setup_s: list[float] = field(default_factory=list)  # wall time of each set-up
    setup_spans: list[tuple[float, float]] = field(default_factory=list)
    ref_at: list[float] = field(default_factory=list)  # when each kernel run started
    ref_ms: list[float] = field(default_factory=list)  # how long it took
    peak_rss_mb: float = 0.0
    repeat_share: float = 0.0  # share of operations whose input appeared earlier
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return self.crashed + self.wrong

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def measure_ref(self, runs: int) -> None:
        for _ in range(runs):
            self.ref_at.append(time.perf_counter())
            self.ref_ms.append(reference_ms())

    def at_reference_speed(self, values: list[float], spans: list[tuple[float, float]]) -> list[float]:
        """Each value scaled by REF_MS over the median kernel time in its window."""
        scaled = []
        for value, (start, end) in zip(values, spans):
            lo = bisect.bisect_left(self.ref_at, start - REF_WINDOW_S)
            hi = bisect.bisect_right(self.ref_at, end + REF_WINDOW_S)
            scaled.append(value * REF_MS / statistics.median(self.ref_ms[lo:hi]))
        return scaled


def closed_loop(result: Result, setup, ops, run_op, seconds: float, tracer=None, ref_runs: int = 1) -> None:
    """Run `run_op(op)` on successive inputs until `seconds` have passed.

    `setup()` returns the seconds one set-up took.  It runs SETUP_REPEATS
    times before the loop and as many times after it, so that set-up is
    sampled at both ends of the run.

    `run_op` returns (elapsed ms, list of problems); it raises when ewflab
    raised.  A raising operation still counts as attempted, with its time.
    The reference kernel runs `ref_runs` times after each operation, and
    REF_REPEATS times before and after each set-up.
    """
    def timed_setup() -> None:
        result.measure_ref(REF_REPEATS)
        start = time.perf_counter()
        result.setup_s.append(setup())
        result.setup_spans.append((start, time.perf_counter()))
        result.measure_ref(REF_REPEATS)

    for _ in range(SETUP_REPEATS):
        timed_setup()
    if tracer is not None:
        tracer.start_run()
    seen: set = set()
    repeats = 0
    deadline = time.perf_counter() + seconds
    for key, op in ops:
        if time.perf_counter() >= deadline:
            break
        repeats += key in seen
        seen.add(key)
        t0 = time.perf_counter()
        problems = []
        try:
            elapsed_ms, problems = run_op(op)
        except Exception as exc:  # ewflab failed on this input: count it, keep going
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            result.crashed += 1
            result.note(f"{key}: {type(exc).__name__}: {exc}")
        result.latencies_ms.append(elapsed_ms)
        result.op_spans.append((t0, time.perf_counter()))
        result.measure_ref(ref_runs)
        if problems:
            result.wrong += 1
            result.note(f"{key}: {'; '.join(problems)}")
    result.repeat_share = repeats / max(result.attempted, 1)
    if tracer is not None:
        tracer.end_run()
    for _ in range(SETUP_REPEATS):
        timed_setup()


def import_wall_s(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy and ewflab."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ewflab"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def import_times(env: dict) -> dict[str, float]:
    """Median start-up and import costs in ms, from fresh interpreters.

    `python` is the wall time of an interpreter that imports nothing;
    `numpy` and `ewflab` come from `-X importtime` (ewflab's own share
    excludes the numpy it imports).
    """
    python, numpy, own = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=120)
        python.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ewflab"],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        if "ewflab" not in cumulative:
            raise RuntimeError("-X importtime reported no import of ewflab")
        # numpy's cost as ewflab's import pays it: a measured 0 once ewflab
        # stops importing numpy eagerly
        numpy_us = cumulative.get("numpy", 0)
        numpy.append(numpy_us / 1e3)
        own.append((cumulative["ewflab"] - numpy_us) / 1e3)
    return {"python": statistics.median(python), "numpy": statistics.median(numpy),
            "ewflab": statistics.median(own)}


def self_rss_mb() -> float:
    """This process's peak RSS (VmHWM).

    Not ru_maxrss: that also holds the high-water mark of whatever process
    started this one, when it was started by vfork and exec.
    """
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0


def random_family(rng: random.Random, i: int) -> list[tuple[str, tuple[tuple[str, str], ...]]]:
    """The i-th family of a stream: 2-4 histories of 1-4 events at recording stages.

    The shape (how many histories, which variables each constrains) cycles
    with i and only the labels are drawn, so every run meets the same mix of
    small and large families.  The peak memory of a run is set by its
    largest family, so drawn shapes would make it move with the seed.  One
    family in six holds h1 and one in six h1prime, whose probabilities are
    known.
    """
    variables = list(OUTCOME_LABELS)
    family = []
    for j in range(2 + i % 3):
        if j == 0 and i % 6 == 0:
            family.append(("h1", H1))
        elif j == 0 and i % 6 == 3:
            family.append(("h1prime", H1PRIME))
        else:
            # a given size recurs every fourth step of i + j; each recurrence
            # takes the next subset of that size
            subsets = list(itertools.combinations(variables, 1 + (i + j) % 4))
            chosen = subsets[(i + j) // 4 % len(subsets)]
            family.append((f"q{j}", tuple((v, rng.choice(OUTCOME_LABELS[v])) for v in chosen)))
    return family


def check_history_probability(name: str, p: float, coin_b2: float | None = None) -> list[str]:
    """Range check, plus the closed forms P(h1) = |b|^2/8 and P(h1prime) = 0."""
    problems = []
    if not -TOL <= p <= 1 + TOL:
        problems.append(f"P[{name}] = {p} outside [0, 1]")
    if name == "h1" and coin_b2 is not None and abs(p - coin_b2 / 8) > TOL:
        problems.append(f"P[h1] = {p}, expected {coin_b2 / 8}")
    if name == "h1prime" and abs(p) > TOL:
        problems.append(f"P[h1prime] = {p}, expected 0")
    return problems


# -- coin-sweep -----------------------------------------------------------------


def _coin_angles(rng: random.Random):
    """Seeded coin angles; both amplitudes at least 0.05 in magnitude.

    Degenerate coins (an amplitude of 0) are cli-mix's edge inputs.
    """
    while True:
        theta = rng.uniform(0.0, 2 * math.pi)
        if min(abs(math.cos(theta)), abs(math.sin(theta))) >= 0.05:
            yield round(theta, 9), theta


def _sweep_item(theta: float, corrupt: bool):
    t0 = time.perf_counter()
    protocol = Protocol((math.cos(theta), math.sin(theta)), corrupt_preparation=corrupt)
    protocol.pilot_state_after(StageId.MEAS4)
    collapse = born.joint_distribution(protocol, born.CollapsePolicy.SEQUENTIAL_PROJECTION)
    marginal = born.joint_distribution(protocol, born.CollapsePolicy.NO_COLLAPSE_MARGINAL)
    table = bellbohm.exact_chain(protocol)
    h1 = histories.okok_fine_history(protocol)
    h1prime = histories.okok_coarse_history(protocol)
    p_h1 = histories.history_probability(protocol, h1)
    p_h1prime = histories.history_probability(protocol, h1prime)
    report = histories.chain_consistency_report(protocol, [h1, h1prime])
    final = born.final_record_marginal(protocol)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    problems = []
    if max(abs(a - b) for (_, a), (_, b) in zip(collapse.outcomes, marginal.outcomes)) > TOL:
        problems.append("collapse and marginal joints differ")
    if abs(table.total_probability - 1.0) > TOL:
        problems.append(f"exact_chain total {table.total_probability}")
    final_cells = final.as_dict()
    beable = table.final_record_marginal()
    joint_w = collapse.marginal(("w1", "w2")).as_dict()
    if any(abs(beable.get(k, 0.0) - v) > TOL for k, v in final_cells.items()):
        problems.append("beable final marginal differs from final_record_marginal")
    if any(abs(joint_w[k] - v) > TOL for k, v in final_cells.items()):
        problems.append("joint (w1, w2) marginal differs from final_record_marginal")
    problems += check_history_probability("h1", p_h1, math.sin(theta) ** 2)
    problems += check_history_probability("h1prime", p_h1prime)
    if len(report.pairs) != 1:
        problems.append(f"consistency report has {len(report.pairs)} pairs")
    return elapsed_ms, problems


def coin_sweep(seed: int, seconds: float, env: dict, corrupt: bool, tracer=None) -> Result:
    result = Result()
    closed_loop(result, lambda: import_wall_s(env), _coin_angles(random.Random(seed)),
                lambda theta: _sweep_item(theta, corrupt), seconds, tracer)
    result.peak_rss_mb = self_rss_mb()
    return result


# -- warm-histories ---------------------------------------------------------------


def _families(rng: random.Random):
    i = 0
    while True:
        family = random_family(rng, i)
        yield tuple(family), family
        i += 1


def _history_query(protocol: Protocol, family) -> tuple[float, list[str]]:
    t0 = time.perf_counter()
    built = [histories.history(protocol, name, list(events)) for name, events in family]
    probs = [histories.history_probability(protocol, h) for h in built]
    report = histories.chain_consistency_report(protocol, built)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    b2 = abs(protocol.coin_amplitudes[1]) ** 2
    problems = []
    for (name, _), p in zip(family, probs):
        problems += check_history_probability(name, p, b2)
    if report.family != tuple(name for name, _ in family):
        problems.append(f"report covers {report.family}")
    if any(not 0.0 <= d <= 1.0 for d in report.additivity_defect.values()):
        problems.append(f"additivity defects {report.additivity_defect}")
    return elapsed_ms, problems


def warm_histories(seed: int, seconds: float, env: dict, corrupt: bool, tracer=None) -> Result:
    """Set-up is imports plus one built Protocol; the queries go to the first one built."""
    result = Result()
    built: list[Protocol] = []

    def setup() -> float:
        imports = import_wall_s(env)
        t0 = time.perf_counter()
        protocol = Protocol(corrupt_preparation=corrupt)
        protocol.pilot_state_after(StageId.MEAS4)
        elapsed = time.perf_counter() - t0
        built.append(protocol)
        return imports + elapsed

    closed_loop(result, setup, _families(random.Random(seed)), lambda family: _history_query(built[0], family),
                seconds, tracer)
    result.peak_rss_mb = self_rss_mb()
    return result

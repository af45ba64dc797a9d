"""cli-mix: sequential fresh `ewflab` processes over a seeded mix.

The mix is cut into blocks of twelve invocations with a fixed make-up, so
every seed runs the same share of each subcommand; the seed picks the
arguments and the order inside each block.  Per block:

* nine default-coin invocations: simulate, verify, the default histories
  pair, a custom `--define` family, bellbohm, argue by name, argue with a
  `--profile` file, audit and report;
* two invocations at a seeded coin, walking through the seven subcommands;
* one edge input: `--coin 1,0`, `--coin 0,1`, duplicate `--define` names or
  an event at PREP1, in turn.

Text and JSON output alternate across slots and blocks.  An invocation
fails when it ends in a traceback, exits with a code its input does not
allow, prints output that fails a check, or prints different bytes for an
input it has answered before.

The one exception are the known defects of ROADMAP item 5: the edge inputs,
and `audit` or `report` at a seeded coin, end in a traceback at the commit
that added the benchmark.  A traceback there whose last line is the known
error is counted apart, as a known defect, and printed; it does not fail
the invocation, so `failed` is 0 on a correct run and repeats between runs.
Any other traceback, on these inputs too, fails it.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ewflab import epistemics
from ewflab.protocol import OUTCOME_LABELS

from workloads import REF_REPEATS, TOL, Result, check_history_probability, closed_loop, random_family

#: What the installed `ewflab` console script runs, plus a report of the
#: process's own peak RSS.  The peak that wait4 returns is no use here: a
#: child started by vfork inherits the benchmark process's high-water mark
#: at exec.  VmHWM belongs to the child's own address space.
CLI_ENTRY = """import sys, os
try:
    from ewflab.cli import main
    sys.exit(main())
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
TRACED_ENTRY = Path(__file__).resolve().parent / "traced_cli.py"

SUBCOMMANDS = ("simulate", "verify", "histories", "bellbohm", "argue", "audit", "report")
DERIVING = ("verify", "argue", "audit", "report")
EDGE_KINDS = ("coin-1,0", "coin-0,1", "duplicate-names", "event-at-PREP1")
DEFAULT_B2 = 2.0 / 3.0
CHILD_TIMEOUT_S = 120

Check = Callable[[str], list[str]]


@dataclass(frozen=True)
class Finished:
    elapsed_ms: float
    returncode: int
    stdout: bytes
    stderr: bytes
    rss_mb: float | None  # the child's VmHWM; not reported by traced children


#: The last stderr line of each known defect's traceback (see the docstring).
ZERO_WEIGHT = r"ValueError: (head|tail) branch has zero weight"
NO_GROUNDING = r"ewflab\.epistemics\.QuantumFactError: quantum grounding failed"
DUPLICATE_NAMES = r"ValueError: family members need distinct names"
EPOCH_MISMATCH = r"ewflab\.histories\.EpochMismatchError: stage PREP1 records nothing"


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    allowed_rc: frozenset[int]
    check: Check | None = None  # applied to stdout when the exit code is 0
    known_defect: str | None = None  # regex of the last line of a known traceback


# -- output checks ----------------------------------------------------------------


def _problem(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def _history_rows(out: str, fmt: str) -> list[tuple[str, float]]:
    if fmt == "json":
        return [(h["name"], h["probability"]) for h in json.loads(out)["histories"]]
    rows = []
    for line in out.splitlines():
        m = re.match(r"P\[([^:\]]+):.*\] = (\S+)", line)
        if m:
            rows.append((m.group(1), float(m.group(2))))
    return rows


def _check_histories(fmt: str, b2: float, default_pair: bool) -> Check:
    def check(out: str) -> list[str]:
        rows = _history_rows(out, fmt)
        problems = _problem(bool(rows), "no history probabilities printed")
        for name, p in rows:
            problems += check_history_probability(name, p, b2)
        if default_pair:
            problems += _problem([n for n, _ in rows] == ["h1", "h1prime"], "default pair not printed")
            if fmt == "json":
                problems += _problem(json.loads(out)["consistency"]["consistent"] is False,
                                     "default pair reported consistent")
            else:
                problems += _problem("NOT JOINTLY CONSIDERABLE" in out, "default pair reported consistent")
        return problems

    return check


def _check_simulate(fmt: str, default: bool) -> Check:
    def check(out: str) -> list[str]:
        if fmt == "json":
            data = json.loads(out)
            cells = [o["probability"] for o in data["joint"]["outcomes"]]
            problems = _problem(all(-TOL <= p <= 1 + TOL for p in cells) and abs(sum(cells) - 1) <= 1e-9,
                                "joint is not a distribution")
            if default:
                exacts = {o["exact"] for o in data["record_marginal"]["outcomes"]}
                problems += _problem(exacts == {"1/12", "3/4"}, f"record marginal exacts {exacts}")
            return problems
        ok_ok = [line for line in out.splitlines() if line.startswith("(ok, ok)")]
        return _problem(bool(ok_ok) and (not default or all("1/12" in line for line in ok_ok)),
                        "(ok, ok) cell missing or not 1/12")

    return check


def _check_verify(fmt: str) -> Check:
    def check(out: str) -> list[str]:
        if fmt == "json":
            return _problem(json.loads(out)["all_passed"] is True, "all_passed is not true")
        return _problem(not any(line.startswith("[FAIL]") for line in out.splitlines()), "FAIL line with exit 0")

    return check


def _check_bellbohm(fmt: str) -> Check:
    def check(out: str) -> list[str]:
        if fmt == "json":
            data = json.loads(out)
            return _problem(data["reference_trajectory"]["exact"] == "1/48"
                            and abs(data["total_probability"] - 1) <= TOL, "reference trajectory is not 1/48")
        return _problem("1/48" in out, "1/48 missing")

    return check


def _check_argue(fmt: str, contradiction: bool) -> Check:
    def check(out: str) -> list[str]:
        got = json.loads(out)["contradiction"] if fmt == "json" else "verdict: ContradictionDerived" in out
        return _problem(got == contradiction, f"contradiction={got}, escape rule says {not contradiction}")

    return check


def _check_audit(fmt: str) -> Check:
    def check(out: str) -> list[str]:
        if fmt == "json":
            flagged = json.loads(out)["discrepancies"]
            return _problem(flagged == ["consistent-histories"], f"discrepancies {flagged}")
        return _problem("discrepancies: 1" in out and "Consistent histories" in out, "audit rows wrong")

    return check


def _check_report(golden: str) -> Check:
    def check(out: str) -> list[str]:
        return (_problem(golden in out, "assumption tables differ from the golden file")
                + _problem("1/12" in out and "1/48" in out, "1/12 or 1/48 missing"))

    return check


def _check_parses(fmt: str) -> Check | None:
    if fmt != "json":
        return None
    return lambda out: _problem(isinstance(json.loads(out), dict), "JSON is not an object")


# -- the mix ----------------------------------------------------------------------


class Mix:
    """Generates blocks of invocations from one seed."""

    def __init__(self, seed: int, workdir: Path, golden: str) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.golden = golden
        self.edge_offset = self.rng.randrange(len(EDGE_KINDS))

    def __iter__(self):
        block = 0
        while True:
            slots = self.block(block)
            self.rng.shuffle(slots)
            for inv in slots:
                yield inv.args, inv
            block += 1

    def block(self, b: int) -> list[Invocation]:
        fmt = ["json" if (b + i) % 2 else "text" for i in range(12)]
        bellbohm_args = (("bellbohm", "--format", fmt[4]), ("bellbohm", "--reference"))[b % 2]
        return [
            self.simulate(fmt[0]),
            Invocation(("verify", "--format", fmt[1]), frozenset({0}), _check_verify(fmt[1])),
            Invocation(("histories", "--format", fmt[2]), frozenset({0}), _check_histories(fmt[2], DEFAULT_B2, True)),
            self.custom_histories(fmt[3]),
            Invocation(bellbohm_args, frozenset({0}), _check_bellbohm(fmt[4] if b % 2 == 0 else "text")),
            self.argue_by_name(fmt[5]),
            self.argue_with_file(fmt[6]),
            Invocation(("audit", "--format", fmt[7]), frozenset({0}), _check_audit(fmt[7])),
            Invocation(("report",), frozenset({0}), _check_report(self.golden)),
            self.seeded_coin(SUBCOMMANDS[(2 * b) % 7], fmt[9]),
            self.seeded_coin(SUBCOMMANDS[(2 * b + 1) % 7], fmt[10]),
            self.edge(EDGE_KINDS[(b + self.edge_offset) % len(EDGE_KINDS)]),
        ]

    def simulate(self, fmt: str) -> Invocation:
        policy = self.rng.choice(("collapse", "marginal"))
        return Invocation(("simulate", "--policy", policy, "--format", fmt), frozenset({0}),
                          _check_simulate(fmt, default=True))

    def custom_histories(self, fmt: str) -> Invocation:
        # one family per block: too few for a cycle of shapes, so draw one
        args = ["histories", "--format", fmt]
        for name, events in random_family(self.rng, self.rng.randrange(6)):
            args += ["--define", f"{name}: " + ", ".join(f"{v}={label}" for v, label in events)]
        return Invocation(tuple(args), frozenset({0}), _check_histories(fmt, DEFAULT_B2, False))

    def argue_by_name(self, fmt: str) -> Invocation:
        name = self.rng.choice(sorted(epistemics.PROFILES))
        contradiction = not epistemics.escape_rule(epistemics.PROFILES[name])
        return Invocation(("argue", "--interpretation", name, "--format", fmt), frozenset({0}),
                          _check_argue(fmt, contradiction))

    def argue_with_file(self, fmt: str) -> Invocation:
        flags = {a: self.rng.random() < 0.8 for a in epistemics.PROFILE_ASSUMPTIONS}
        name = "bench-" + "".join("y" if flags[a] else "n" for a in epistemics.PROFILE_ASSUMPTIONS)
        profile = epistemics.InterpretationProfile(name, name, flags)
        text = f"# seeded profile\nname: {name}\n" + "".join(
            f"{a.value} = {'check' if flags[a] else 'cross'}\n"
            for a in self.rng.sample(epistemics.PROFILE_ASSUMPTIONS, len(flags))
        )
        path = self.workdir / f"profile-{hashlib.sha256(text.encode()).hexdigest()[:12]}.txt"
        path.write_text(text, encoding="utf-8")
        return Invocation(("argue", "--profile", str(path), "--format", fmt), frozenset({0}),
                          _check_argue(fmt, not epistemics.escape_rule(profile)))

    def seeded_coin(self, sub: str, fmt: str) -> Invocation:
        a = self.rng.uniform(0.1, 0.99)
        b = (1 - a * a) ** 0.5
        coin = ("--coin", f"{a!r},{b!r}")
        if sub == "argue":
            args = (sub, "--interpretation", self.rng.choice(sorted(epistemics.PROFILES))) + coin
        elif sub == "report":
            return Invocation((sub,) + coin, frozenset({0, 1}), known_defect=NO_GROUNDING)
        else:
            args = (sub,) + coin
        args += ("--format", fmt)
        if sub == "simulate":
            return Invocation(args, frozenset({0}), _check_simulate(fmt, default=False))
        if sub == "histories":
            return Invocation(args, frozenset({0}), _check_histories(fmt, b * b, True))
        if sub == "verify":
            return Invocation(args, frozenset({0, 1}), _check_verify(fmt))
        if sub == "bellbohm":
            return Invocation(args, frozenset({0}), _check_parses(fmt))
        return Invocation(args, frozenset({0, 1}), _check_parses(fmt),
                          known_defect=NO_GROUNDING if sub == "audit" else None)

    def edge(self, kind: str) -> Invocation:
        """ROADMAP item 5 inputs: any documented exit code passes, or the known traceback."""
        if kind.startswith("coin-"):
            sub = self.rng.choice(DERIVING)
            args = (sub, "--coin", kind[len("coin-"):])
            if sub == "argue":
                args += ("--interpretation", self.rng.choice(sorted(epistemics.PROFILES)))
            return Invocation(args, frozenset({0, 1, 2}), known_defect=ZERO_WEIGHT)
        var, other = self.rng.sample(list(OUTCOME_LABELS), 2)
        label = lambda v: self.rng.choice(OUTCOME_LABELS[v])
        if kind == "duplicate-names":
            # the ROADMAP's documented answer is a usage error
            return Invocation(("histories", "--define", f"d: {var}={label(var)}",
                               "--define", f"d: {other}={label(other)}"), frozenset({2}),
                              known_defect=DUPLICATE_NAMES)
        return Invocation(("histories", "--define", f"p: r@PREP1={label('r')}",
                           "--define", f"o: {other}={label(other)}"), frozenset({0, 1, 2}),
                          known_defect=EPOCH_MISMATCH)


# -- the loop ---------------------------------------------------------------------


class Runner:
    """Runs invocations as fresh processes and checks what they print."""

    def __init__(self, env: dict, root: Path, workdir: Path, corrupt: bool, tracer) -> None:
        self.env = env
        self.root = root
        self.workdir = workdir
        self.extra = ("--corrupt-preparation",) if corrupt else ()
        self.tracer = tracer
        self.outputs: dict[tuple[str, ...], bytes] = {}
        self.rss_mb: list[float] = []  # peak RSS of each measured invocation
        self.known_defects = 0  # invocations that ended in their known traceback

    def spawn(self, args: tuple[str, ...], traced: bool) -> Finished:
        """Run one invocation; wall time covers process start to exit."""
        trace_out = self.workdir / "trace.json"
        if traced:
            argv = [sys.executable, str(TRACED_ENTRY), str(trace_out), *args, *self.extra]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *args, *self.extra]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        hwm_path = self.workdir / "vmhwm"
        hwm_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env={**self.env, "PERFBENCH_HWM": str(hwm_path)},
                                    stdout=out, stderr=err)
            # a blocking wait: Popen.wait with a timeout polls in steps of up
            # to 50 ms, which would quantize every wall time
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            elapsed_ms = (time.perf_counter() - t0) * 1e3
        if traced:
            self.tracer.run.merge(json.loads(trace_out.read_text()))
            trace_out.unlink()
        rss_mb = None
        if not traced:
            if not hwm_path.is_file():
                raise RuntimeError(f"exit {proc.returncode} without reporting its peak memory")
            rss_mb = int(hwm_path.read_text()) / 1024.0
        return Finished(elapsed_ms, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), rss_mb)

    def __call__(self, inv: Invocation) -> tuple[float, list[str]]:
        proc = self.spawn(inv.args, self.tracer is not None)
        if proc.rss_mb is not None:
            self.rss_mb.append(proc.rss_mb)
        if b"Traceback (most recent call last)" in proc.stderr:
            last = proc.stderr.decode(errors="replace").strip().splitlines()[-1]
            if inv.known_defect is None or not re.match(inv.known_defect, last) or proc.returncode != 1:
                raise RuntimeError(f"traceback, exit {proc.returncode}: {last}")
            self.known_defects += 1
            return proc.elapsed_ms, []
        problems = _problem(proc.returncode in inv.allowed_rc, f"exit code {proc.returncode}")
        if inv.args in self.outputs and self.outputs[inv.args] != proc.stdout:
            problems.append("stdout differs from an earlier run of the same input")
        self.outputs.setdefault(inv.args, proc.stdout)
        if proc.returncode == 0 and inv.check is not None and not problems:
            try:
                problems += inv.check(proc.stdout.decode())
            except (ValueError, KeyError, TypeError) as exc:  # unparsable or malformed output
                problems.append(f"output does not parse: {exc}")
        return proc.elapsed_ms, problems


def cli_mix(seed: int, seconds: float, env: dict, corrupt: bool, tracer, root: Path, workdir: Path) -> Result:
    result = Result()
    golden = (root / "tests" / "golden" / "assumption_tables.txt").read_text(encoding="utf-8")
    runner = Runner(env, root, workdir, corrupt, tracer)
    # set-up: a warm-up invocation, untraced and not counted as an operation
    closed_loop(result, lambda: runner.spawn(("simulate",), False).elapsed_ms / 1e3,
                Mix(seed, workdir, golden), runner, seconds, ref_runs=REF_REPEATS)
    # the largest process depends on which families the seed drew; the
    # median process does not.  Traced children report no peak.
    result.peak_rss_mb = statistics.median(runner.rss_mb) if runner.rss_mb else float("nan")
    result.known_defects = runner.known_defects
    return result

"""Write a BENCH_<n>.json record of this checkout's performance.

Usage, from the repository root:

    python3 tools/bench_record.py BENCH_3.json [--seconds 28] [--seed 1]

The record holds, for each benchmark workload, the result of an untraced
and a traced run of `perfbench/run.py` (its `#` lines and its JSON result
line); the wall time of the tier-1 test suite with the time pytest spends
collecting it listed separately; and, under `fresh_process`, the median
wall time in ms of FRESH_RUNS fresh processes for `python -c pass`,
`--help` and each of the seven subcommands at the default coin; and, under
`exact_sweep`, the exact engine's coin-sweep item in process; and, under
`src_lines`, the line count of each module of `src/ewflab`; and, under
`history_caches`, the size of every history cache on both engines.  Runs
are sequential, so the record takes about six benchmark runs, two suite
runs, 63 short processes and about a minute of in-process work to write.

`fresh_process` is what a user pays per command, split by subcommand.
Neither of the other two views shows it: `python -X importtime` does not
list the submodules that handlers load through `ewflab.__getattr__` and
`importlib.import_module` (for `argue` it shows only `ewflab`,
`ewflab.cli`, `ewflab.linalg` and `ewflab.exact`), and the traced cli-mix
run imports every module before `cli.main` starts.  Each process starts as
cli-mix starts its children: the same interpreter with `-c`, from the
repository root, pinned to one CPU, with the environment `perfbench/run.py`
passes on (`src` on PYTHONPATH, one BLAS thread, PYTHONDONTWRITEBYTECODE
set, so every process compiles ewflab from source as cli-mix's do).  The
commands run round-robin, and each median is also given at reference speed,
scaled by perfbench's reference kernel as cli-mix's times are
(`perfbench/workloads.py`): a shared machine's speed drifts by more than
the differences this table is read for.

`src_lines` is the size of the design that produces these numbers:
lines per module, and their total.

`exact_sweep` is what the benchmark does not run: the engine the command
line computes with.  An item is `perfbench/workloads._sweep_item`, its body
and checks unchanged, with `ExactProtocol` as its engine, at the float coin
(cos θ, sin θ) for EXACT_ANGLES seeded angles θ in [0.1, 1.4].  The record
gives the median µs of EXACT_ROUNDS rounds of those items (each item timed
as the workload times it, wall and at reference speed), and the calls per
item of `Surd._cmp`, of `Surd.__init__` (numbers constructed), of
`math.gcd`, of `StageMap.linear` (stage maps applied) and of
`SparseState.inner` (inner products), counted by cProfile over one more
round, checks included.  By then the process holds the items' coin forms,
so the last two count what each item repeats, not the per-process basis.

`history_caches` states what `histories` keeps and what it costs, on each
engine: the entries and the `tracemalloc` KB of each per-process cache
(`_pair_form`, `_form`, `_basis`, `_stage_bits`, `_ordered_events`) and of
the per-engine P[h] memo (`probability_memo`), with its bound.  It reads
them after CACHE_QUERIES queries of the warm-histories stream (seed
CACHE_SEED) on one engine, and again, from empty caches, after a cold sweep
of CACHE_COINS coin-sweep items, whose last engine's memo is read.  A
cache's KB is the traced memory freed as it is emptied, the engine's memo
first, then in the order above: what one holds of what another holds too is
counted where it is freed, so a form's basis chains count under `_form`,
the only cache that holds them; `_basis` counts its engines' pilot states.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

#: Label -> ewflab arguments of each fresh process; None runs `python -c pass`.
FRESH = {
    "python -c pass": None,
    "--help": ["--help"],
    "simulate": ["simulate"],
    "verify": ["verify"],
    "histories": ["histories"],
    "bellbohm": ["bellbohm"],
    "argue": ["argue", "--interpretation", "all"],
    "audit": ["audit"],
    "report": ["report"],
}
FRESH_RUNS = 7
#: Rounds and seeded angles of the exact-engine sweep, and their seed.
EXACT_ROUNDS, EXACT_ANGLES, EXACT_SEED = 3, 200, 11
#: Warm queries, cold sweep items and the warm stream's seed of `history_caches`.
CACHE_QUERIES, CACHE_COINS, CACHE_SEED = 35_000, 200, 1
#: What the `ewflab` console script runs.
ENTRY = "import sys\nfrom ewflab.cli import main\nsys.exit(main())\n"


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return {"command": argv, "comments": [line for line in lines if line.startswith("#")],
            "result": json.loads(lines[-1])}


def timed(argv: list[str]) -> tuple[float, str]:
    """Wall seconds of one run, and its last output line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env)
    return time.perf_counter() - start, (proc.stdout.strip().splitlines() or [""])[-1]


def _perfbench_on_path() -> None:
    """Make perfbench's modules and this checkout's ewflab importable, with one BLAS thread."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from run import BLAS_THREAD_VARS

    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before workloads imports numpy


def exact_sweep() -> dict:
    """Median µs of the coin-sweep item on the exact engine, and its Surd work per item."""
    _perfbench_on_path()
    import workloads
    from ewflab.exact import ExactProtocol, SparseState, StageMap, Surd

    workloads.Protocol = ExactProtocol  # the item's engine; its body and checks are the workload's
    rng = random.Random(EXACT_SEED)
    angles = [rng.uniform(0.1, 1.4) for _ in range(EXACT_ANGLES)]
    result = workloads.Result()
    result.measure_ref(workloads.REF_REPEATS)
    for _ in range(EXACT_ROUNDS):
        for theta in angles:
            start = time.perf_counter()
            ms, problems = workloads._sweep_item(theta, False)
            result.latencies_ms.append(ms)
            result.op_spans.append((start, time.perf_counter()))
            result.wrong += bool(problems)
            result.measure_ref(1)
    profile = cProfile.Profile()
    profile.runcall(lambda: [workloads._sweep_item(theta, False) for theta in angles])
    stats = pstats.Stats(profile).stats  # (file, first line, name) -> (primitive calls, calls, ...)

    def per_item(fn) -> float:
        code = fn.__code__
        calls = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]  # absent: never called
        return round(calls / len(angles), 1)

    gcd = sum(v[1] for (_, _, name), v in stats.items() if name == "<built-in method math.gcd>")
    scaled = result.at_reference_speed(result.latencies_ms, result.op_spans)
    rounds = [result.latencies_ms[k * len(angles) : (k + 1) * len(angles)] for k in range(EXACT_ROUNDS)]
    return {
        "rounds": EXACT_ROUNDS, "angles": EXACT_ANGLES, "seed": EXACT_SEED, "failed": result.wrong,
        "median_us": round(statistics.median(result.latencies_ms) * 1e3, 1),
        "median_us_at_reference_speed": round(statistics.median(scaled) * 1e3, 1),
        "round_median_us": [round(statistics.median(r) * 1e3, 1) for r in rounds],
        "calls_per_item": {"Surd._cmp": per_item(Surd._cmp), "Surd.__init__": per_item(Surd.__init__),
                           "math.gcd": round(gcd / len(angles), 1), "StageMap.linear": per_item(StageMap.linear),
                           "SparseState.inner": per_item(SparseState.inner)},
    }


def history_caches() -> dict:
    """Entries and retained KB of each history cache, after the warm stream and after a cold sweep, per engine."""
    _perfbench_on_path()
    import tracemalloc

    import workloads
    from ewflab import histories
    from ewflab.exact import ExactProtocol
    from ewflab.protocol import Protocol, StageId

    process = {"_pair_form": histories.PAIR_FORMS, "_form": histories.FORM_MEMBERS,
               "_basis": histories.BASIS_SETTINGS, "_stage_bits": histories.EVENT_TUPLES,
               "_ordered_events": histories.EVENT_TUPLES}

    def emptied(size, clear, bound) -> dict:
        before = tracemalloc.get_traced_memory()[0]
        entries = size()
        clear()
        return {"entries": entries, "bound": bound, "kb": round((before - tracemalloc.get_traced_memory()[0]) / 1e3, 1)}

    def read(protocol) -> dict:
        """Empties every cache it reads: the engine's memo, then the process's, each as it is read."""
        memo = protocol.probability_memo
        engine = {"probability": emptied(memo.__len__, memo.clear, histories.PROBABILITY_MEMO_HISTORIES)}
        cached = {name: getattr(histories, name) for name in process}
        return {"engine": engine,
                "process": {name: emptied(lambda: f.cache_info().currsize, f.cache_clear, process[name])
                            for name, f in cached.items()}}

    def measured(run) -> dict:
        for name in process:
            getattr(histories, name).cache_clear()
        tracemalloc.start()
        try:
            return read(run())
        finally:
            tracemalloc.stop()

    def warm(engine):
        protocol = engine()
        protocol.pilot_state_after(StageId.MEAS4)
        rng = random.Random(CACHE_SEED)
        for i in range(CACHE_QUERIES):
            family = workloads.random_family(rng, i)
            built = [histories.history(protocol, name, list(events)) for name, events in family]
            [histories.history_probability(protocol, h) for h in built]
            histories.chain_consistency_report(protocol, built)
        return protocol

    def sweep(engine):
        last = []

        def recorded(*args, **kwargs):
            last[:] = [engine(*args, **kwargs)]
            return last[0]

        rng = random.Random(EXACT_SEED)
        workloads.Protocol = recorded  # the item's body and checks are the workload's
        try:
            for _ in range(CACHE_COINS):
                workloads._sweep_item(rng.uniform(0.1, 1.4), False)
        finally:
            workloads.Protocol = Protocol
        return last[0]

    return {"queries": CACHE_QUERIES, "coins": CACHE_COINS, "seed": CACHE_SEED, "unit": "kB",
            **{label: {"warm": measured(lambda: warm(engine)), "sweep": measured(lambda: sweep(engine))}
               for label, engine in (("dense", Protocol), ("exact", ExactProtocol))}}


def fresh_process() -> dict:
    """Median ms of FRESH_RUNS fresh processes per FRESH entry, wall and at reference speed.

    Pins this process, and so every process it starts from now on, to one CPU.
    """
    _perfbench_on_path()
    from workloads import REF_REPEATS, Result

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result, labels = Result(), []
    result.measure_ref(REF_REPEATS)
    for _ in range(FRESH_RUNS):
        for label, args in FRESH.items():
            argv = [sys.executable, "-c", "pass"] if args is None else [sys.executable, "-c", ENTRY, *args]
            start = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
            end = time.perf_counter()
            result.latencies_ms.append((end - start) * 1e3)
            result.op_spans.append((start, end))
            labels.append(label)
            result.measure_ref(REF_REPEATS)

    def medians(ms: list[float]) -> dict[str, float]:
        return {label: round(statistics.median(m for m, l in zip(ms, labels) if l == label), 1) for label in FRESH}

    return {"runs": FRESH_RUNS, "unit": "ms", "median_ms": medians(result.latencies_ms),
            "median_ms_at_reference_speed": medians(result.at_reference_speed(result.latencies_ms, result.op_spans))}


def src_lines() -> dict[str, int]:
    """Lines per module under src/ewflab, by file name, and their total."""
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines())
              for path in sorted((ROOT / "src" / "ewflab").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file to write, such as BENCH_2.json")
    parser.add_argument("--seconds", type=float, default=28.0, help="length of each benchmark run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = {w: {f"trace{t}": perfbench(w, args.seed, args.seconds, t) for t in (0, 1)} for w in WORKLOADS}
    collect_s, collected = timed(TIER1 + ["--collect-only"])
    suite_s, summary = timed(TIER1)
    caches = history_caches()
    exact = exact_sweep()
    fresh = fresh_process()  # last: it pins this process to one CPU
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine()},
        "perfbench": runs,
        "tier1": {"command": " ".join(TIER1[1:]), "wall_s": round(suite_s, 2), "summary": summary,
                  "collection_wall_s": round(collect_s, 2), "collected": collected},
        "fresh_process": fresh,
        "exact_sweep": exact,
        "src_lines": src_lines(),
        "history_caches": caches,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

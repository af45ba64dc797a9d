"""ewflab benchmark: run one workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 28 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` the run
records spans around calls into each ewflab module and the metrics are the
per-layer ones.  The lines before it describe the machine and the run.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("cli-mix", "coin-sweep", "warm-histories")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: runs ewflab with its sign-flipped spin preparation, which
    # every workload's checks must catch.
    parser.add_argument("--corrupt-preparation", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def end_to_end(result) -> tuple[dict, dict]:
    """The end-to-end metrics of BENCHMARK.json, and further ones only printed.

    Times are gated at reference speed (see workloads.py): the wall-clock
    figures of a run move by up to 1.7x with the state of a shared machine,
    the scaled ones by a few percent.  The rate is operations per second of
    time spent in ewflab.  The 90th percentile is printed, not gated: on
    cli-mix a run has about seventy invocations, too few beyond the 90th
    percentile to fix it, and it falls between the costliest subcommands.
    """
    scaled_ms = result.at_reference_speed(result.latencies_ms, result.op_spans)
    scaled_setup_s = result.at_reference_speed(result.setup_s, result.setup_spans)
    scaled, wall = (statistics.quantiles(v * (3 - min(len(v), 2)), n=10, method="inclusive")
                    for v in (scaled_ms, result.latencies_ms))  # a lone sample is its own deciles
    gated = {
        "setup_s": (statistics.median(scaled_setup_s), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "op_ms.p50": (scaled[4], "ms"),
        "ops_per_s": (1e3 / statistics.fmean(scaled_ms), "1/s"),
    }
    printed = {
        "op_ms.p90": (scaled[8], "ms"),
        "wall.setup_s": (statistics.median(result.setup_s), "s"),
        "wall.op_ms.p50": (wall[4], "ms"),
        "wall.op_ms.p90": (wall[8], "ms"),
        "wall.ops_per_s": (1e3 / statistics.fmean(result.latencies_ms), "1/s"),
        "ref_ms": (statistics.median(result.ref_ms), "ms"),
    }
    return gated, printed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for the benchmark and every process it starts.  The CPUs of a
    # shared VM change speed independently of each other, and the reference
    # kernel (workloads.py) only tracks the speed of the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "ewflab" / "__init__.py").is_file():
        print(f"perfbench: no ewflab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    import numpy
    import ewflab

    if Path(ewflab.__file__).resolve().parent != SRC / "ewflab":
        print(f"perfbench: imported ewflab from {ewflab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads
    from cli_mix import cli_mix

    env = dict(os.environ)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        # cli-mix children install their own; installing here too checks
        # the targets before any child starts
        try:
            spans.install(tracer)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli-mix":
            result = cli_mix(args.seed, args.seconds, env, args.corrupt_preparation, tracer, ROOT, workdir)
        else:
            run = {"coin-sweep": workloads.coin_sweep, "warm-histories": workloads.warm_histories}[args.workload]
            result = run(args.seed, args.seconds, env, args.corrupt_preparation, tracer)
        imports = workloads.import_times(env) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} machine={platform.machine()}")
    print(f"# attempted={result.attempted} failed={result.failed} (traceback or exception "
          f"{result.crashed}, wrong answer {result.wrong}) failed_ratio={result.failed / result.attempted:.4f} "
          f"repeat_share={result.repeat_share:.4f}")
    if args.workload == "cli-mix":
        print(f"# known defects (ROADMAP item 5 tracebacks, not failed): {result.known_defects} "
              f"share={result.known_defects / result.attempted:.4f}")
    for problem in result.problems:
        print(f"# failed: {problem}")
    gated, printed = end_to_end(result)
    traced = " (traced)" if tracer is not None else ""
    print(f"# end-to-end{traced}, n={result.attempted}: "
          + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in {**gated, **printed}.items()))
    if tracer is None:
        metrics = gated
    else:
        for name in sorted(tracer.run.calls):
            print(f"# span {name}: calls={tracer.run.calls[name]} incl_ms={tracer.run.incl_ns[name] / 1e6:.3f} "
                  f"self_ms={tracer.run.self_ns[name] / 1e6:.3f}")
        metrics = spans.per_layer_metrics(tracer.run, tracer.setup, result.attempted, imports)
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

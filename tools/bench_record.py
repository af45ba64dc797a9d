"""Write a BENCH_<n>.json record of this checkout's performance.

Usage, from the repository root:

    python3 tools/bench_record.py BENCH_2.json [--seconds 28] [--seed 1]

The record holds, for each benchmark workload, the result of an untraced
and a traced run of `perfbench/run.py` (its `#` lines and its JSON result
line), and the wall time of the tier-1 test suite with the time pytest
spends collecting it listed separately.  Runs are sequential, so the
record takes about six benchmark runs plus two suite runs to write.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file to write, such as BENCH_2.json")
    parser.add_argument("--seconds", type=float, default=28.0, help="length of each benchmark run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = {w: {f"trace{t}": perfbench(w, args.seed, args.seconds, t) for t in (0, 1)} for w in WORKLOADS}
    collect_s, collected = timed(TIER1 + ["--collect-only"])
    suite_s, summary = timed(TIER1)
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine()},
        "perfbench": runs,
        "tier1": {"command": " ".join(TIER1[1:]), "wall_s": round(suite_s, 2), "summary": summary,
                  "collection_wall_s": round(collect_s, 2), "collected": collected},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

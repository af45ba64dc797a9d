"""Tests of the benchmark itself; they take about two minutes.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(*args: str) -> dict:
    code, lines = bench(*args)
    assert code == 0, lines
    return json.loads(lines[-1])


class ResultLine(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res = result("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(res["failed"], 0)


class ChecksBite(unittest.TestCase):
    def test_corrupt_preparation_fails_operations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--seed", "3", "--seconds", "4", "--trace", "0",
                             "--corrupt-preparation")
                # failed is 0 uncorrupted (ResultLine)
                self.assertGreater(res["failed"], 0)
                if workload == "cli-mix":  # wrong answers, not only tracebacks
                    self.assertFalse(res["correct"])


class Tracing(unittest.TestCase):
    def test_missing_target_fails_instead_of_reading_zero(self):
        import spans
        from ewflab import histories

        original = histories.chain_vector
        del histories.chain_vector
        try:
            with self.assertRaisesRegex(RuntimeError, "histories.chain_vector"):
                spans.install(spans.Tracer())
        finally:
            histories.chain_vector = original


class Inputs(unittest.TestCase):
    def test_same_seed_same_invocations(self):
        from cli_mix import Mix

        def first(seed: int, n: int = 40) -> list:
            with tempfile.TemporaryDirectory() as tmp:
                mix = iter(Mix(seed, Path(tmp), golden=""))
                return [tuple(a.replace(tmp, "") for a in next(mix)[0]) for _ in range(n)]

        self.assertEqual(first(5), first(5))
        self.assertNotEqual(first(5), first(6))

    def test_edge_share_is_fixed(self):
        from cli_mix import Mix

        with tempfile.TemporaryDirectory() as tmp:
            mix = Mix(1, Path(tmp), golden="")
            for b in range(8):
                # only edge inputs allow the usage-error exit code
                self.assertEqual(sum(2 in inv.allowed_rc for inv in mix.block(b)), 1)


class NoSources(unittest.TestCase):
    def test_fails_without_ewflab(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                                cwd=Path(tmp))
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the detector benchmark, on shrunken (--tiny) streams.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests -v

Checks that every workload of BENCHMARK.json runs untraced and traced, that
each run prints exactly the metrics BENCHMARK.json names with their units,
that a perturbed committed digest is reported as failed intervals, and that
the benchmark refuses to run without the library sources.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
DIGESTS = os.path.join(BENCH, "reference_digests.txt")


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def run_tiny(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--tiny", *extra)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def failed_pct(stdout: str) -> float:
    match = re.search(r"^# failed_intervals_pct (\S+)", stdout, re.M)
    assert match, "no failed_intervals_pct line"
    return float(match.group(1))


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check_result(self, result: dict, metrics: list[dict]) -> None:
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in metrics}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_workload_prints_every_metric(self) -> None:
        for workload in self.spec["workloads"]:
            with self.subTest(workload=workload["name"], trace=0):
                result, stdout = run_tiny(workload["name"], 0)
                self.check_result(result, self.spec["end_to_end"])
                self.assertEqual(failed_pct(stdout), 0.0)
                for metric in self.spec["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0.0)
            with self.subTest(workload=workload["name"], trace=1):
                result, stdout = run_tiny(workload["name"], 1)
                self.check_result(result, self.spec["per_layer"])
                self.assertIn("# trace_check:", stdout)

    def test_perturbed_digest_raises_failed_intervals(self) -> None:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            perturbed = os.path.join(tmp, "digests.txt")
            with open(DIGESTS, encoding="utf-8") as src, \
                    open(perturbed, "w", encoding="utf-8") as dst:
                for line in src:
                    if line.startswith("large_replay tiny 1 "):
                        fields = line.split()
                        last = int(fields[-1], 16) ^ 1
                        fields[-1] = f"{last:016x}"
                        line = " ".join(fields) + "\n"
                    dst.write(line)
            result, stdout = run_tiny("large_replay", 0, "--digests", perturbed)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(failed_pct(stdout), 0.0)

    def test_refuses_to_run_without_library_sources(self) -> None:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "small_arima", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

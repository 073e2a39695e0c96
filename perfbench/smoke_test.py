"""Smoke test of the benchmark harness at (2,2) sizes.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Runs every workload with `--smoke`, traced and untraced, and checks that the
result line names exactly the metrics of BENCHMARK.json with their units,
that every metric the summary promises is printed with a unit, and that the
harness refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Summary lines of the untraced runs, by the names the metrics were
# specified under.
SUMMARY_NAMES = {
    "labels_per_s",
    "table_wall_s",
    "chars_per_s",
    "op_p50_ms",
    "op_p99_ms",
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "peak_rss_mb",
    "fail_ratio",
}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, spec) -> None:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout + proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_workloads(self) -> None:
        printed = {}
        for workload in BENCHMARK["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name, trace=0):
                proc = bench("--workload", name, "--trace", "0", "--smoke")
                self.check_result(proc, BENCHMARK["end_to_end"])
                for line in proc.stdout.splitlines()[1:-1]:
                    fields = line.split()
                    if len(fields) >= 3 and fields[0] in SUMMARY_NAMES:
                        printed[fields[0]] = fields[2]
            with self.subTest(workload=name, trace=1):
                proc = bench("--workload", name, "--trace", "1", "--smoke")
                self.check_result(proc, BENCHMARK["per_layer"])
        self.assertEqual(set(printed), SUMMARY_NAMES)
        self.assertTrue(all(unit for unit in printed.values()))

    def test_refuses_without_sources(self) -> None:
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "chi-sweep", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark, on tiny versions of its workloads.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workloads(seed: int = 3) -> list[run.Workload]:
    return [
        run.fuzz_workload(seed, traces=3, steps=4),
        run.replay_workload(seed, events=30),
        run.enumerate_workload(1, 1, 1),
    ]


def measure(w: run.Workload, trace: bool):
    with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=run.ROOT) as work:
        return run.measure(w, 0, trace, Path(work))


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class TinyRuns(unittest.TestCase):
    def test_each_workload_prints_every_end_to_end_metric(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for w in tiny_workloads():
            with self.subTest(workload=w.name):
                result, details = measure(w, trace=False)
                self.assertTrue(result["correct"], details["problems"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(units(result), want)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_each_workload_prints_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for w in tiny_workloads():
            with self.subTest(workload=w.name):
                result, details = measure(w, trace=True)
                self.assertTrue(result["correct"], details["problems"])
                self.assertEqual(units(result), want)
                self.assertEqual(details["spawns"]["traced"], details["spawns"]["plain"])

    def test_a_fault_presented_as_passing_raises_failed_ratio(self):
        # forward-to-self is caught by the checker (exit 1, an unsound step),
        # and the none control exits 0 but checks 32 steps, not the 1 the
        # judge expects: a wrong exit code, then a right one with wrong totals
        for fault in ("forward-to-self", "none"):
            with self.subTest(fault=fault):
                args = ["mutate", "--fault", fault, "--report", run.REPORT]
                w = run.Workload("fault-as-pass", args, run.judge_check_report(1), pairs=1)
                result, details = measure(w, trace=False)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreater(details["failed_ratio"], 0)
                self.assertEqual(result["metrics"], {})

    def test_runs_fail_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=run.ROOT) as tmp:
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fuzz-churn",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Definition(unittest.TestCase):
    def test_benchmark_json_names_runnable_workloads(self):
        self.assertEqual(BENCHMARK["command"], ["python3", f"{run.HERE.name}/run.py"])
        self.assertEqual(BENCHMARK["paths"], [run.HERE.name])
        for entry in BENCHMARK["workloads"]:
            self.assertIn(entry["name"], run.WORKLOADS)

    def test_replay_input_is_a_function_of_the_seed(self):
        a, b, c = (run.replay_workload(s, events=50).inputs[run.SCENARIO] for s in (5, 5, 6))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the frame-budget benchmark itself.

    python3 framebench/test_framebench.py      (from the repository root)

Each test runs framebench/run.py with short timed windows, so the suite
takes a few minutes; the first run also builds the harness.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def values(lines):
    """The harness's beside-the-metrics values (the 'values ' line)."""
    line = next(l for l in lines if l.startswith("values "))
    return json.loads(line[len("values "):])


class EveryMetricPrints(unittest.TestCase):
    def check(self, trace):
        expected = SPEC["per_layer" if trace else "end_to_end"]
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                lines, result = run(workload, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in expected})
                for m in expected:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    # The human-readable line names the metric and its unit.
                    self.assertTrue(
                        any(l.split()[:1] == [m["name"]] and
                            l.split()[-1] == m["unit"] for l in lines),
                        m["name"])

    def test_end_to_end_metrics(self):
        self.check(trace=0)

    def test_per_layer_metrics(self):
        self.check(trace=1)


class WrongDetectionFails(unittest.TestCase):
    def test_pixel_workload(self):
        lines, result = run("dark_1080p", 0, "--inject-wrong-detection")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(values(lines)["failed_frac"], 0.0)

    def test_serving_workload(self):
        lines, result = run("drive_serve_360p", 0, "--inject-wrong-detection")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(values(lines)["failed_frac"], 0.0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_program_sources(self):
        import shutil
        import tempfile
        build_root = ROOT / ".bench_build"
        build_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "hog_1080p", "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)

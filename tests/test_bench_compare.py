#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py's failure modes.

The perf gate must exit NON-zero on malformed or empty reports — a
truncated artifact that "compares 0 entries" and passes would defeat
the gate's whole purpose.  Exit-code contract: 0 ok, 1 perf regression,
2 malformed input.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "bench_compare.py")


def write(directory, name, content):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        if isinstance(content, str):
            f.write(content)
        else:
            json.dump(content, f)
    return path


def run_gate(*args):
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True)


def good_report(wall_ns=2_000_000):
    return {"bench": "bench_demo",
            "entries": [{"name": "n=64", "wall_ns": wall_ns}]}


def baseline_for(wall_ns=2_000_000):
    return {"schema": 1, "entries": {"bench_demo/n=64": wall_ns}}


class BenchCompareTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.addCleanup(self.tmp.cleanup)
        self.baseline = write(self.dir, "baseline.json", baseline_for())

    def test_ok_on_matching_report(self):
        report = write(self.dir, "BENCH_demo.json", good_report())
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("bench gate: ok", proc.stdout)

    def test_regression_fails_with_exit_1(self):
        report = write(self.dir, "BENCH_demo.json", good_report(9_000_000))
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSIONS", proc.stdout)

    def test_malformed_json_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json", "{ not json !")
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("malformed JSON", proc.stderr)

    def test_empty_file_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json", "")
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)

    def test_empty_entries_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json",
                       {"bench": "bench_demo", "entries": []})
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("non-empty", proc.stderr)

    def test_missing_wall_ns_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json",
                       {"bench": "bench_demo", "entries": [{"name": "n=64"}]})
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("wall_ns", proc.stderr)

    def test_non_numeric_wall_ns_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json",
                       {"bench": "bench_demo",
                        "entries": [{"name": "n=64", "wall_ns": "fast"}]})
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)

    def test_missing_bench_field_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json",
                       {"entries": [{"name": "n=64", "wall_ns": 1}]})
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)

    def test_malformed_baseline_fails_with_exit_2(self):
        report = write(self.dir, "BENCH_demo.json", good_report())
        bad_baseline = write(self.dir, "bad_baseline.json", "not json")
        proc = run_gate(report, "--baseline", bad_baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)

    def test_one_bad_report_among_good_ones_still_fails(self):
        good = write(self.dir, "BENCH_good.json", good_report())
        bad = write(self.dir, "BENCH_bad.json", "[]")
        proc = run_gate(good, bad, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)

    def test_checked_in_baseline_still_parses(self):
        # Guard the real baseline file against accidental corruption.
        path = os.path.join(REPO_ROOT, "bench", "baseline.json")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertIsInstance(doc["entries"], dict)
        self.assertGreater(len(doc["entries"]), 0)


class MemoryGateTests(unittest.TestCase):
    """The --memory-gate peak-RSS budget checks (bench/report.h emits
    peak_rss_bytes on Linux; budgets are hard caps that exit 2)."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.addCleanup(self.tmp.cleanup)
        self.baseline = write(self.dir, "baseline.json", baseline_for())

    def report_with_rss(self, rss):
        doc = good_report()
        if rss is not None:
            doc["entries"][0]["peak_rss_bytes"] = rss
        return write(self.dir, "BENCH_demo.json", doc)

    def budget(self, limit):
        return write(self.dir, "budget.json",
                     {"schema": 1, "budgets": {"bench_demo/n=64": limit}})

    def test_under_budget_passes(self):
        report = self.report_with_rss(50_000_000)
        proc = run_gate(report, "--baseline", self.baseline,
                        "--memory-gate", self.budget(100_000_000))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("bench gate: ok", proc.stdout)

    def test_over_budget_fails_with_exit_2(self):
        # A memory blowup is never runner jitter: hard failure, exit 2.
        report = self.report_with_rss(200_000_000)
        proc = run_gate(report, "--baseline", self.baseline,
                        "--memory-gate", self.budget(100_000_000))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("MEMORY BUDGET VIOLATIONS", proc.stdout)

    def test_missing_rss_is_tolerated_with_warning(self):
        # Non-Linux runners cannot measure RSS; the budgeted entry is
        # reported as ungated but the run still passes.
        report = self.report_with_rss(None)
        proc = run_gate(report, "--baseline", self.baseline,
                        "--memory-gate", self.budget(100_000_000))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("no peak_rss_bytes", proc.stderr)

    def test_unmeasured_budget_entry_warns_but_passes(self):
        report = self.report_with_rss(50_000_000)
        stale = write(self.dir, "stale_budget.json",
                      {"schema": 1, "budgets": {"bench_demo/gone": 1}})
        proc = run_gate(report, "--baseline", self.baseline,
                        "--memory-gate", stale)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("not", proc.stderr)

    def test_negative_rss_in_report_fails_with_exit_2(self):
        report = self.report_with_rss(-5)
        proc = run_gate(report, "--baseline", self.baseline)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("peak_rss_bytes", proc.stderr)

    def test_malformed_budget_fails_with_exit_2(self):
        report = self.report_with_rss(50_000_000)
        bad = write(self.dir, "bad_budget.json", {"budgets": "nope"})
        proc = run_gate(report, "--baseline", self.baseline,
                        "--memory-gate", bad)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_nonpositive_budget_value_fails_with_exit_2(self):
        report = self.report_with_rss(50_000_000)
        proc = run_gate(report, "--baseline", self.baseline,
                        "--memory-gate", self.budget(0))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)

    def test_checked_in_memory_budget_still_parses(self):
        path = os.path.join(REPO_ROOT, "bench", "memory_budget.json")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertIsInstance(doc["budgets"], dict)
        self.assertGreater(len(doc["budgets"]), 0)
        for key, limit in doc["budgets"].items():
            self.assertTrue(
                key.startswith(("bench_scaling/", "bench_connectivity/",
                                "bench_churn/", "bench_shard/",
                                "bench_repair/")), key)
            self.assertGreater(limit, 0)


class MergeOutTests(unittest.TestCase):
    """--merge-out writes the bench-trend document CI uploads."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.addCleanup(self.tmp.cleanup)
        self.baseline = write(self.dir, "baseline.json", baseline_for())

    def test_merges_best_wall_and_worst_rss(self):
        run1 = write(self.dir, "BENCH_r1.json",
                     {"bench": "bench_demo", "git_sha": "abc1234",
                      "entries": [{"name": "n=64", "wall_ns": 3_000_000,
                                   "peak_rss_bytes": 10}]})
        run2 = write(self.dir, "BENCH_r2.json",
                     {"bench": "bench_demo",
                      "entries": [{"name": "n=64", "wall_ns": 2_000_000,
                                   "peak_rss_bytes": 20}]})
        out = os.path.join(self.dir, "trend.json")
        proc = run_gate(run1, run2, "--baseline", self.baseline,
                        "--merge-out", out)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["git_sha"], "abc1234")
        entry = doc["entries"]["bench_demo/n=64"]
        self.assertEqual(entry["wall_ns"], 2_000_000)   # best run
        self.assertEqual(entry["peak_rss_bytes"], 20)   # worst run


if __name__ == "__main__":
    unittest.main()

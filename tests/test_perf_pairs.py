#!/usr/bin/env python3
"""Unit tests for scripts/perf_pairs.py.

The script runs two benchmark binaries in alternating pairs; here both are
small stand-in programs that print scripted metric values, so every verdict
of the gain rule (>= 9/10 wins and a median gap above the parent's IQR) can
be checked exactly.  Exit-code contract: 0 ok, 1 claim not met or an
operation failed, 2 bad input.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "perf_pairs.py")

# A stand-in benchmark binary: the i-th call prints the i-th entry of
# <name>.json (a list of {"metrics": {...}, "failed": n}) as its result line,
# after a meta line, and appends its name to order.log.
FAKE = """#!{python}
import json, os, sys
here = os.path.dirname(os.path.abspath(__file__))
name = os.path.basename(__file__)
counter = os.path.join(here, name + ".count")
i = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(i + 1))
with open(os.path.join(here, "order.log"), "a") as f:
    f.write(name + "\\n")
run = json.load(open(os.path.join(here, name + ".json")))[i]
if run.get("crash"):
    sys.exit(3)
print(json.dumps({{"meta": {{"args": sys.argv[1:],
                             "LHG_THREADS": os.environ.get("LHG_THREADS")}}}}))
print(json.dumps({{"correct": True, "attempted": 5,
                  "failed": run.get("failed", 0),
                  "metrics": {{k: {{"value": v, "unit": "ms"}}
                              for k, v in run["metrics"].items()}}}}))
"""

SPEC = {"end_to_end": [{"name": "op_ms", "better": "lower"},
                       {"name": "rate", "better": "higher"}]}


class PerfPairsTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.addCleanup(self.tmp.cleanup)
        self.spec = os.path.join(self.dir, "spec.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)

    def fake(self, name, runs):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            f.write(FAKE.format(python=sys.executable))
        os.chmod(path, os.stat(path).st_mode | stat.S_IEXEC)
        with open(path + ".json", "w") as f:
            json.dump(runs, f)
        return path

    def run_pairs(self, parent, change, *extra, pairs=10):
        parent_bin = self.fake("parent", parent)
        change_bin = self.fake("change", change)
        return subprocess.run(
            [sys.executable, SCRIPT, "--parent", parent_bin, "--change",
             change_bin, "--workload", "flood_fixed", "--pairs", str(pairs),
             "--spec", self.spec, *extra],
            capture_output=True, text=True)

    @staticmethod
    def runs(values, key="op_ms", failed=0):
        return [{"metrics": {key: v}, "failed": failed} for v in values]

    def test_clear_gain_meets_the_claim(self):
        parent = self.runs([100 + i for i in range(10)])
        change = self.runs([80 + i for i in range(10)])
        proc = self.run_pairs(parent, change, "--claim", "op_ms")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("wins 10/10", proc.stdout)
        self.assertIn("claim met", proc.stdout)

    def test_eight_wins_of_ten_is_not_a_gain(self):
        parent = self.runs([100] * 10)
        change = self.runs([50] * 8 + [150] * 2)
        proc = self.run_pairs(parent, change, "--claim", "op_ms")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("wins 8/10", proc.stdout)
        self.assertIn("claim not met", proc.stdout)

    def test_gap_inside_the_parent_iqr_is_not_a_gain(self):
        # The change wins every pair, but by less than the parent's own
        # spread: medians 104.5 vs 103.5, parent IQR 102.25..106.75.
        parent = self.runs([100 + i for i in range(10)])
        change = self.runs([99 + i for i in range(10)])
        proc = self.run_pairs(parent, change, "--claim", "op_ms")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("wins 10/10", proc.stdout)
        self.assertIn("claim not met", proc.stdout)

    def test_ties_count_for_neither_side(self):
        parent = self.runs([100] * 10)
        change = self.runs([100] * 10)
        proc = self.run_pairs(parent, change)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("wins 0/10", proc.stdout)

    def test_higher_is_better_metric_counts_upward_wins(self):
        parent = self.runs([10 + i for i in range(10)], key="rate")
        change = self.runs([30 + i for i in range(10)], key="rate")
        proc = self.run_pairs(parent, change, "--claim", "rate")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("rate:", proc.stdout)
        self.assertIn("wins 10/10", proc.stdout)

    def test_pairs_alternate_which_side_runs_first(self):
        self.run_pairs(self.runs([1] * 4), self.runs([1] * 4), pairs=4)
        with open(os.path.join(self.dir, "order.log")) as f:
            order = f.read().split()
        self.assertEqual(order, ["parent", "change", "change", "parent",
                                 "parent", "change", "change", "parent"])

    def test_out_file_collects_sets_and_runs(self):
        out = os.path.join(self.dir, "BENCH_demo.json")
        for _ in range(2):
            for name in ("parent", "change"):
                counter = os.path.join(self.dir, name + ".count")
                if os.path.exists(counter):
                    os.remove(counter)
            proc = self.run_pairs(self.runs([100] * 3), self.runs([90] * 3),
                                  "--out", out, "--topic", "demo", pairs=3)
            self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(out) as f:
            doc = json.load(f)
        self.assertEqual(doc["topic"], "demo")
        self.assertEqual(len(doc["sets"]), 2)
        first = doc["sets"][0]
        self.assertEqual(first["workload"], "flood_fixed")
        self.assertEqual(len(first["runs"]), 6)
        self.assertEqual(first["summary"]["op_ms"]["parent"]["median"], 100)
        self.assertEqual(first["summary"]["op_ms"]["change"]["median"], 90)
        self.assertEqual(first["summary"]["op_ms"]["change_wins"], "3/3")
        self.assertEqual(first["runs"][0]["meta"]["args"][:2],
                         ["--workload", "flood_fixed"])
        self.assertIsNotNone(first["runs"][0]["meta"]["LHG_THREADS"])

    def test_failed_operations_fail_the_run(self):
        parent = self.runs([100 + i for i in range(10)])
        change = self.runs([80 + i for i in range(10)], failed=1)
        proc = self.run_pairs(parent, change, "--claim", "op_ms")
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("operations failed", proc.stdout)

    def test_crashing_binary_is_bad_input(self):
        proc = self.run_pairs([{"crash": True}], self.runs([1]), pairs=1)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("exited with code 3", proc.stderr)

    def test_unknown_claim_metric_is_bad_input(self):
        proc = self.run_pairs(self.runs([1]), self.runs([1]), "--claim",
                              "no_such_metric", pairs=1)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("not an end-to-end metric", proc.stderr)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests for scripts/lint_determinism.py.

Each fixture under tests/lint_fixtures/ encodes one rule's contract:
the linter must flag it exactly once with the expected rule id, honor
justified `// lint: allow(...)` escapes, and report unjustified ones.
The suite also asserts the real tree stays clean (src/ exits 0 with
every escape justified) and that --explain works for every rule.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "scripts", "lint_determinism.py")
RULES = os.path.join(REPO_ROOT, "scripts", "determinism_rules.toml")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

# fixture file -> (expected findings, expected rule, expected escapes)
EXPECTATIONS = {
    "unordered_iteration.cc": (1, "unordered-iteration", 0),
    "unordered_begin_walk.cc": (1, "unordered-iteration", 0),
    "random_device.cc": (1, "random-device", 0),
    "rand_call.cc": (1, "rand-call", 0),
    "time_call.cc": (1, "time-call", 0),
    "clock_now.cc": (1, "clock-now", 0),
    "sleep.cc": (1, "sleep", 0),
    "pointer_comparator.cc": (1, "pointer-comparator", 0),
    "unseeded_rng.cc": (1, "unseeded-rng", 0),
    "cross_shard_state.cc": (1, "cross-shard-state", 0),
    "test_oracle_include.cc": (1, "test-oracle-include", 0),
    "allow_ok.cc": (0, None, 1),
    "allow_missing_justification.cc": (1, "unjustified-allow", 0),
}


def run_linter(*args):
    """Runs the linter, returning (exit code, parsed JSON report)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        proc = subprocess.run(
            [sys.executable, LINTER, "--quiet", "--json", out, *args],
            capture_output=True, text=True, cwd=REPO_ROOT)
        report = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as f:
                report = json.load(f)
        return proc, report


class FixtureTests(unittest.TestCase):
    def test_every_fixture_has_an_expectation(self):
        on_disk = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".cc"))
        self.assertEqual(on_disk, sorted(EXPECTATIONS))

    def test_fixtures(self):
        for name, (n_findings, rule, n_allowed) in EXPECTATIONS.items():
            with self.subTest(fixture=name):
                proc, report = run_linter(
                    os.path.join("tests", "lint_fixtures", name))
                self.assertIsNotNone(report, proc.stderr)
                self.assertEqual(len(report["findings"]), n_findings,
                                 report["findings"])
                self.assertEqual(len(report["allowed"]), n_allowed,
                                 report["allowed"])
                if n_findings:
                    self.assertEqual(report["findings"][0]["rule"], rule)
                    self.assertEqual(proc.returncode, 1, proc.stderr)
                else:
                    self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_justified_escape_records_its_justification(self):
        _, report = run_linter(
            os.path.join("tests", "lint_fixtures", "allow_ok.cc"))
        self.assertIn("justified escape", report["allowed"][0]["justification"])


class TreeTests(unittest.TestCase):
    def test_src_is_clean_and_every_escape_is_justified(self):
        proc, report = run_linter("src")
        self.assertEqual(proc.returncode, 0,
                         f"src/ has lint findings:\n{proc.stdout}{proc.stderr}")
        self.assertEqual(report["findings"], [])
        for escape in report["allowed"]:
            self.assertTrue(escape["justification"].strip(),
                            f"unjustified escape: {escape}")

    def test_explain_works_for_every_configured_rule(self):
        if sys.version_info < (3, 11):
            self.skipTest("tomllib requires python >= 3.11")
        import tomllib
        with open(RULES, "rb") as f:
            rules = tomllib.load(f)["rules"]
        self.assertGreaterEqual(len(rules), 8)
        for rule_id in rules:
            proc = subprocess.run(
                [sys.executable, LINTER, "--explain", rule_id],
                capture_output=True, text=True, cwd=REPO_ROOT)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertIn(rule_id, proc.stdout)

    def test_unknown_rule_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, LINTER, "--explain", "no-such-rule"],
            capture_output=True, text=True, cwd=REPO_ROOT)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()

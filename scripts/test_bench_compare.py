#!/usr/bin/env python3
"""Tests for bench_compare.py: verdicts, exit codes and the context refusal.

    python3 scripts/test_bench_compare.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")
CONTEXT = {"num_cpus": 4, "library_build_type": "release", "host_name": "a"}


def bench_file(times_ms, **context):
    """A google-benchmark JSON document with one median per benchmark."""
    return {"context": dict(CONTEXT, **context), "benchmarks": [
        {"name": f"{n}_median", "run_name": n, "run_type": "aggregate",
         "aggregate_name": "median", "real_time": t, "time_unit": "ms"}
        for n, t in times_ms.items()]}


class BenchCompareTest(unittest.TestCase):
    def run_compare(self, base, cand):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, doc in (("base.json", base), ("cand.json", cand)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            p = subprocess.run([sys.executable, SCRIPT, *paths],
                               capture_output=True, text=True)
        return p.returncode, p.stdout + p.stderr

    def test_same_context_within_threshold_passes(self):
        # host_name is not a context key: another host of the same kind.
        code, out = self.run_compare(bench_file({"BM_A": 100.0}),
                                     bench_file({"BM_A": 103.0}, host_name="b"))
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)

    def test_slowdown_beyond_threshold_is_a_regression(self):
        code, out = self.run_compare(bench_file({"BM_A": 100.0, "BM_B": 10.0}),
                                     bench_file({"BM_A": 120.0, "BM_B": 10.0}))
        self.assertEqual(code, 1, out)
        self.assertIn("BM_A: +20.0%", out)

    def test_cross_context_diff_is_refused(self):
        code, out = self.run_compare(
            bench_file({"BM_A": 100.0}, num_cpus=1, library_build_type="debug"),
            bench_file({"BM_A": 100.0}))
        self.assertEqual(code, 3, out)
        self.assertIn("num_cpus: 1 vs 4", out)
        self.assertIn("library_build_type: debug vs release", out)

    def test_baseline_only_entries_are_listed_not_failed(self):
        code, out = self.run_compare(bench_file({"BM_A": 100.0, "BM_Gone": 5.0}),
                                     bench_file({"BM_A": 100.0}))
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Gone", out)
        self.assertIn("(baseline only)", out)


if __name__ == "__main__":
    unittest.main()

"""Tests for compare.py: context-mismatch refusal and the bound verdicts.

    cd perfbench && python3 -m unittest -q test_compare
"""
import copy
import unittest

import compare

SPEC = {"end_to_end": [
    {"name": "sdpd", "unit": "sday/day", "better": "higher", "bound": 0.1},
    {"name": "dyn_step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
]}

CONTEXT = {"nproc": "4", "omp_threads": "4", "ranks": "1", "simd_tier": "avx512",
           "build_type": "Release", "compiler": "GNU-12.2.0", "ckpt_fs": "ext4",
           "host_ref_ms": 1.0}


def records(sdpd, dyn_ms, n=5, **ctx):
    out = []
    for i in range(n):
        c = dict(CONTEXT, **ctx)
        out.append({"workload": "wx", "trace": 0, "context": c, "metrics": {
            "sdpd": {"value": sdpd * (1 + 0.001 * i)},
            "dyn_step_ms_p50": {"value": dyn_ms * (1 + 0.001 * i)}}})
    return out


class CompareTest(unittest.TestCase):
    def test_same_context_within_bound_is_ok(self):
        rows, code = compare.compare(records(100, 10), records(97, 10.5), SPEC)
        self.assertEqual(code, 0)
        self.assertEqual({r["verdict"] for r in rows}, {"ok"})

    def test_regression_beyond_bound_fails(self):
        rows, code = compare.compare(records(100, 10), records(85, 10), SPEC)
        self.assertEqual(code, 1)
        verdicts = {r["metric"]: r["verdict"] for r in rows}
        self.assertEqual(verdicts["sdpd"], "REGRESSED")
        self.assertEqual(verdicts["dyn_step_ms_p50"], "ok")

    def test_context_mismatch_is_refused(self):
        rows, code = compare.compare(records(100, 10),
                                     records(100, 10, simd_tier="avx2"), SPEC)
        self.assertEqual(code, 3)
        self.assertEqual(len(rows), 1)
        self.assertIn("simd_tier: avx512 vs avx2", rows[0]["refused"])

    def test_host_speed_mismatch_is_refused(self):
        _, code = compare.compare(records(100, 10),
                                  records(100, 10, host_ref_ms=1.5), SPEC)
        self.assertEqual(code, 3)
        _, code = compare.compare(records(100, 10),
                                  records(100, 10, host_ref_ms=1.1), SPEC)
        self.assertEqual(code, 0)

    def test_wide_spread_is_unresolved(self):
        new = records(100, 10)
        for r, f in zip(new, (0.8, 0.9, 1.0, 1.1, 1.2)):
            r["metrics"]["sdpd"]["value"] = 100 * f
        rows, _ = compare.compare(records(100, 10), copy.deepcopy(new), SPEC)
        self.assertEqual({r["metric"]: r["verdict"] for r in rows}["sdpd"],
                         "unresolved")


if __name__ == "__main__":
    unittest.main()

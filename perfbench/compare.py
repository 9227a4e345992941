#!/usr/bin/env python3
"""Compare two sets of benchmark records (JSON lines written by run.py).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload present on both sides, compares the median of each
end-to-end metric against the bound BENCHMARK.json fixes for it. Results are
comparable only when they were measured in the same host context: the same
nproc, OpenMP threads, ranks, SIMD tier, build type, compiler and checkpoint
filesystem, and a host reference kernel within HOST_REF_TOLERANCE. A
workload whose context differs is refused (exit 3). Exit 1 when a metric got
worse by more than its bound.
"""
import argparse
import json
import os
import statistics
import sys

CONTEXT_KEYS = ("nproc", "omp_threads", "ranks", "simd_tier", "build_type",
                "compiler", "ckpt_fs")
# The host reference kernel's medians may differ by this factor at most.
HOST_REF_TOLERANCE = 1.25


def load(path):
    with open(path) as fh:
        return [json.loads(l) for l in fh if l.strip().startswith("{")]


def by_workload(records):
    out = {}
    for r in records:
        if r.get("trace") == 0:
            out.setdefault(r["workload"], []).append(r)
    return out


def context_mismatch(base, new):
    """Reasons the two record lists were not measured in one context."""
    reasons = []
    for key in CONTEXT_KEYS:
        a = sorted({str(r["context"].get(key)) for r in base})
        b = sorted({str(r["context"].get(key)) for r in new})
        if a != b:
            reasons.append(f"{key}: {','.join(a)} vs {','.join(b)}")
    ref_a = statistics.median(r["context"]["host_ref_ms"] for r in base)
    ref_b = statistics.median(r["context"]["host_ref_ms"] for r in new)
    if max(ref_a, ref_b) > HOST_REF_TOLERANCE * min(ref_a, ref_b):
        reasons.append(f"host_ref_ms: {ref_a:.3f} vs {ref_b:.3f}")
    return reasons


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base_records, new_records, spec):
    """Returns (rows, exit code). A row is a dict per workload x metric."""
    base, new = by_workload(base_records), by_workload(new_records)
    rows, code = [], 0
    for wl in sorted(set(base) & set(new)):
        reasons = context_mismatch(base[wl], new[wl])
        if reasons:
            rows.append({"workload": wl, "refused": "; ".join(reasons)})
            code = max(code, 3)
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base[wl]
                 if m["name"] in r["metrics"]]
            b = [r["metrics"][m["name"]]["value"] for r in new[wl]
                 if m["name"] in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > m["bound"]:
                verdict = "REGRESSED"
                code = max(code, 1)
            elif max(spread(a), spread(b)) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": wl, "metric": m["name"], "unit": m["unit"],
                         "base": ma, "new": mb, "worse": worse,
                         "bound": m["bound"], "n": (len(a), len(b)),
                         "verdict": verdict})
    return rows, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, code = compare(load(args.base), load(args.new), spec)
    for r in rows:
        if "refused" in r:
            print(f"{r['workload']:<20} REFUSED: context differs: {r['refused']}")
            continue
        print(f"{r['workload']:<20} {r['metric']:<16} {r['base']:>12.5g} -> "
              f"{r['new']:<12.5g} {r['unit']:<9} worse {100 * r['worse']:+6.1f}% "
              f"(bound {100 * r['bound']:.0f}%, n={r['n'][0]}/{r['n'][1]}) "
              f"{r['verdict']}")
    sys.exit(code)


if __name__ == "__main__":
    main()

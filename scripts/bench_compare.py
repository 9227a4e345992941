#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag regressions.

    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.05]

Benchmarks are matched by name across the two files; for each pair the
per-iteration real_time is compared (lower is better) and any slowdown
beyond --threshold (default 5%) is flagged. When a file was recorded with
--benchmark_repetitions, the median aggregate is used and the raw repetition
entries are ignored. Benchmarks present in only one file are listed but
never fail the run (the set is expected to grow).

Timings are comparable only when both files were recorded in the same
context: a file whose google-benchmark `context` differs in any of
CONTEXT_KEYS is refused, naming both values.

Exit status: 0 = no regression, 1 = at least one regression, 2 = bad input,
3 = the two files were recorded in different contexts.
"""

import argparse
import json
import sys

CONTEXT_KEYS = ("num_cpus", "library_build_type")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def context_mismatch(base_doc, cand_doc):
    """Reasons the two files were not recorded in one context."""
    a, b = base_doc.get("context", {}), cand_doc.get("context", {})
    return [f"{k}: {a.get(k)} vs {b.get(k)}" for k in CONTEXT_KEYS
            if a.get(k) != b.get(k)]


def load_times(doc, path):
    """name -> (real_time, time_unit), preferring median aggregates."""
    times = {}
    have_aggregates = set()
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        if name is None or "real_time" not in b:
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") != "median":
                continue
            have_aggregates.add(name)
            times[name] = (float(b["real_time"]), b.get("time_unit", "ns"))
        elif name not in have_aggregates and name not in times:
            times[name] = (float(b["real_time"]), b.get("time_unit", "ns"))
    if not times:
        print(f"bench_compare: no benchmark entries in {path}", file=sys.stderr)
        sys.exit(2)
    return times


UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, unit):
    return value * UNIT_NS.get(unit, 1.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="max tolerated slowdown fraction (default 0.05)")
    args = ap.parse_args()

    base_doc, cand_doc = load(args.baseline), load(args.candidate)
    reasons = context_mismatch(base_doc, cand_doc)
    if reasons:
        print("bench_compare: refusing to compare across contexts: "
              + "; ".join(reasons), file=sys.stderr)
        return 3
    base = load_times(base_doc, args.baseline)
    cand = load_times(cand_doc, args.candidate)
    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    regressions = []
    width = max((len(n) for n in shared), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  delta")
    for name in shared:
        b_ns = to_ns(*base[name])
        c_ns = to_ns(*cand[name])
        delta = (c_ns - b_ns) / b_ns if b_ns > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, delta))
        print(f"{name:<{width}}  {b_ns:>10.0f}ns  {c_ns:>10.0f}ns  "
              f"{delta:+7.1%}{flag}")
    for name in only_base:
        print(f"{name:<{width}}  (baseline only)")
    for name in only_cand:
        print(f"{name:<{width}}  (candidate only)")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%} "
          f"({len(shared)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Whole-model benchmark: one command, four checked workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark (perfbench/CMakeLists.txt) into the build directory
($CARGO_TARGET_DIR, default .bench_build), trains the ML nets once per
invocation (untimed, cached by fingerprint), fixes the thread budget, runs
the workload and prints two lines: the full record (metrics with sample
counts, checks, host context), then the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Every
record is also appended to <build>/results.jsonl for compare.py.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ML_WORKLOADS = ("clim_g5_mix_ml", "ens8_g4_dp_ml")
RANKS = {"ranks4_g5_dyn": 4}
# Cold set-ups per run (separate processes, the measured run's own among
# them); setup_s and the setup.* phases are their medians.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# Window of the untrained-net self-test: long enough that the blow-up
# (about step 300) falls inside it on any host; the run stops at the
# failing check.
UNTRAINED_SECONDS = 60


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then an incremental build; logs go to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "perfbench_tests", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def thread_env(workload):
    """OMP_NUM_THREADS for the workload; refuse to oversubscribe the host."""
    nproc = len(os.sched_getaffinity(0))
    ranks = RANKS.get(workload, 1)
    threads = 1 if ranks > 1 else nproc
    if ranks * threads > nproc:
        fail(f"{workload}: {ranks} ranks x {threads} OpenMP threads = "
             f"{ranks * threads} > nproc {nproc}; refusing to oversubscribe", 2)
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    return env, nproc


def run_child(cmd, env):
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode:
        fail(f"{os.path.basename(cmd[0])} {cmd[1]} exited {p.returncode}")
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"{cmd[1]}: no output")
    return json.loads(lines[-1])


def source_fingerprint():
    """sha256 over the library sources and build files (the checkout is not
    always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def fs_type(path):
    """Filesystem type of `path` from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mountinfo") as fh:
        for line in fh:
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                best, kind = mount, right.split()[0]
    return kind


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(args):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(names)}", 2)
    bdir = build_dir()
    exe = build(bdir)
    env, nproc = thread_env(args.workload)

    weights = {}
    extra_args = []
    if args.workload in ML_WORKLOADS:
        weights = run_child([exe, "train", "--dir", os.path.join(bdir, "weights")], env)
        extra_args = ["--q1q2", weights["q1q2"], "--q1q2-fp", weights["q1q2_fp"],
                      "--rad", weights["rad"], "--rad-fp", weights["rad_fp"]]

    tmp = os.path.join(bdir, "tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--tmp-dir", tmp] + extra_args
        setups = [run_child([exe, "setup", "--trace", "0"] + base, env)["metrics"]
                  for _ in range(SETUP_SAMPLES - 1)]
        rec = run_child([exe, "run", "--trace", str(args.trace)] + base, env)
        ckpt_fs = fs_type(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # setup_s and the setup.* phases: medians over the cold set-ups.
    own = rec["metrics"]
    for name in setups[0]:
        if name in own:
            own[name]["value"] = statistics.median(
                [s[name]["value"] for s in setups] + [own[name]["value"]])

    result = result_line(rec, spec, args.trace)

    ctx = rec["context"]
    ctx.update({
        "nproc": str(nproc),
        "ckpt_fs": ckpt_fs,
        "commit": commit(),
        "source_sha": source_fingerprint(),
        "host_ref_ms": rec["extra"]["host.ref_ms"]["value"],
    })
    if weights:
        ctx["q1q2_fp"], ctx["rad_fp"] = weights["q1q2_fp"], weights["rad_fp"]
    rec["metrics"] = result["metrics"]
    rec["setup_samples"] = SETUP_SAMPLES
    line = json.dumps(rec)
    with open(os.path.join(bdir, "results.jsonl"), "a") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps(result))


def result_line(rec, spec, trace):
    """The result line of a record: the metrics of the mode, in
    BENCHMARK.json order. The binary reports every metric, 0 with a failed
    check when a run stopped before measuring it."""
    own = rec["metrics"]
    wanted = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    if sorted(own) != sorted(wanted):
        missing = sorted(set(wanted) - set(own))
        extra = sorted(set(own) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": {n: own[n] for n in wanted}}


def untrained_selftest(exe, env):
    """clim_g5_mix_ml with untrained nets must blow up: the finiteness check
    fails, naming the field and the step, and the result line counts it as
    a failed operation while still carrying every metric as a number."""
    bdir = os.path.dirname(exe)
    tmp = os.path.join(bdir, "tmp", f"selftest-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        rec = run_child([exe, "run", "--workload", "clim_g5_mix_ml", "--seed", "0",
                         "--seconds", str(UNTRAINED_SECONDS), "--trace", "0",
                         "--tmp-dir", tmp, "--untrained-nets", "1"], env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = result_line(rec, benchmark_spec(), 0)
    print(json.dumps(result))
    finite = [f for f in rec["failures"]
              if re.search(r"non-finite \w+ at \w+ \d+ level \d+ at step \d+", f)]
    numbers = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                  for m in result["metrics"].values())
    if result["correct"] or result["failed"] < 1 or not finite or not numbers:
        print(f"FAIL: untrained nets: failures {rec['failures']}")
        return False
    print(f"ok: untrained nets tripped the finiteness check: {finite[0]}")
    return True


def selftest():
    """The benchmark's own tests: C++ unit tests, compare.py tests, and the
    untrained-net finiteness self-test."""
    exe = build(build_dir())
    env, _ = thread_env("clim_g5_mix_ml")
    runs = [
        [os.path.join(os.path.dirname(exe), "perfbench_tests")],
        [sys.executable, "-m", "unittest", "-q", "test_compare"],
    ]
    for cmd in runs:
        print("==", " ".join(os.path.basename(c) for c in cmd), flush=True)
        if subprocess.run(cmd, env=env, cwd=HERE).returncode:
            fail("self-test failed: " + " ".join(cmd))
    print("== untrained-net finiteness", flush=True)
    if not untrained_selftest(exe, env):
        fail("self-test failed: untrained-net finiteness")
    print("perfbench self-tests passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    elif not args.workload:
        ap.error("--workload is required")
    elif args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    else:
        measure(args)


if __name__ == "__main__":
    main()

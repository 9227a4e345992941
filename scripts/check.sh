#!/usr/bin/env bash
# Tier-1 gate plus sanitizer passes over the failure-prone subsystems.
#
#   scripts/check.sh            # configure + build + ctest, then ASan, UBSan, TSan
#   GRIST_SKIP_ASAN=1 scripts/check.sh   # skip the ASan/UBSan stage
#   GRIST_SKIP_UBSAN=1 scripts/check.sh  # skip the UBSan-only stage
#   GRIST_SKIP_TSAN=1 scripts/check.sh   # skip the TSan stage
#   GRIST_SKIP_SIMD=1 scripts/check.sh   # skip the per-tier SIMD stage
#   GRIST_SIMD_BENCH=1 scripts/check.sh  # also record the Fused/Simd JSON pair
#   GRIST_SKIP_QUANT=1 scripts/check.sh  # skip the quantized-inference stage
#   GRIST_QUANT_BENCH=1 scripts/check.sh # also record BENCH_quantized_ml.json
#                                        # (and diff it against the committed
#                                        # baseline via scripts/bench_compare.py)
#   GRIST_SKIP_MULTIPROC=1 scripts/check.sh  # skip the cross-process stage
#   GRIST_EXCHANGE_BENCH=1 scripts/check.sh  # also record
#                                        # BENCH_exchange_schedules.json
#                                        # (schedule + transport ablation,
#                                        # bench_compare.py-gated)
#   GRIST_SKIP_RESTART=1 scripts/check.sh    # skip the elastic-restart stage
#   GRIST_RESTART_BENCH=1 scripts/check.sh   # also record BENCH_restart.json
#                                        # (checkpoint write/read MB/s,
#                                        # bench_compare.py-gated)
#   GRIST_SKIP_ENSEMBLE=1 scripts/check.sh   # skip the batched-ensemble stage
#   GRIST_ENSEMBLE_BENCH=1 scripts/check.sh  # also record BENCH_ensemble.json
#                                        # (batched vs solo members/s pair,
#                                        # bench_compare.py-gated)
#
# The ASan/UBSan stage rebuilds with -DGRIST_SANITIZE=ON into build-asan/
# and runs the ml, common, io, physics, coupler, model-alloc and backend
# test binaries -- ml, common and the coupler hand out raw Workspace
# pointers (the packed GEMM, the batched inference path, the coupler's
# per-column EOS rows, which test_model_alloc drives through whole Model
# cadence cycles), the backend's SIMD tiers stage the EOS's pow arguments
# and the implicit solve's (column, member) lanes in Workspace rows and
# hand the row pow's fallback lanes back by index, io parses raw spans of a
# snapshot file image, and the physics schemes keep per-column stack arrays
# of 128 levels, where an out-of-bounds pack, parse, level, lane or
# dangling pointer would otherwise only show up as silent corruption.
#
# The TSan stage rebuilds with -DGRIST_SANITIZE=thread into build-tsan/ and
# runs the parallel and core test binaries: the persistent rank pool and
# the post/wait packed exchange are exactly where data races would hide.
# OMP_NUM_THREADS=1 because libgomp is not TSan-instrumented (its barriers
# would be reported as false positives); the concurrency under test -- rank
# worker threads, the pool barriers, the post/wait atomics -- is pure
# C++ threads and unaffected.
set -euo pipefail

cd "$(dirname "$0")/.."

# ISA flags belong to the backend's dispatch tiers only: a TU built with
# -mavx* outside src/backend runs with no cpuid check and dies with SIGILL
# on a host without that extension.
echo "== ISA-flag guard: -mavx* only in src/backend CMakeLists =="
isa_offenders=$(find . \( -name 'build*' -o -name .bench_build -o -name .git \) \
  -prune -o -name CMakeLists.txt -print | grep -v '^\./src/backend/' |
  xargs grep -ln -e '-mavx' || true)
if [[ -n "$isa_offenders" ]]; then
  echo "error: -mavx* flags outside src/backend (route the kernel through" \
    "the SIMD dispatch table instead):" >&2
  echo "$isa_offenders" >&2
  exit 1
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . -DGRIST_WERROR=ON >/dev/null
cmake --build build -j"$(nproc)"
# One OpenMP thread per test: default teams at -j"$(nproc)" oversubscribe
# the cores; the per-tier and ENSEMBLE passes below keep default OpenMP.
OMP_NUM_THREADS=1 ctest --test-dir build --output-on-failure -j"$(nproc)"

if [[ "${GRIST_SKIP_SIMD:-0}" == "1" ]]; then
  echo "== skipping per-tier SIMD pass (GRIST_SKIP_SIMD=1) =="
else
  # The SIMD dispatch contract: every tier the build carries must pass the
  # backend parity suite and the dycore suites (which route through the
  # dispatch table by default) bit-identically. GRIST_SIMD_TIER clamps the
  # active tier down, so forcing "scalar" pins the portable tier and the
  # unset run exercises the best tier cpuid grants on this machine.
  echo "== SIMD dispatch pass: backend + dycore suites per tier =="
  for tier in scalar avx2 ""; do
    label="${tier:-best-available}"
    for bin in test_backend test_dycore test_fused_kernels test_core \
               test_model_alloc test_parallel_model_alloc; do
      echo "-- $bin (tier: $label)"
      if [[ -n "$tier" ]]; then
        GRIST_SIMD_TIER="$tier" ./build/tests/"$bin" >/dev/null
      else
        ./build/tests/"$bin" >/dev/null
      fi
    done
  done
  if [[ "${GRIST_SIMD_BENCH:-0}" == "1" ]]; then
    # Comparable Fused (Host instantiation) vs Simd (best tier) pair, same
    # fixture, recorded for the README table.
    echo "-- recording BENCH_simd_backend.json (Fused vs Simd pairs)"
    ./build/bench/bench_host_kernels \
      --benchmark_filter='(Fused|Simd)(EdgeFluxes|CellDiagnostics|VertexDiagnostics|ScalarTendencies|MomentumTendency|TendencyPipeline)' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only \
      --benchmark_format=json --benchmark_out=BENCH_simd_backend.json \
      >/dev/null
  fi
fi

if [[ "${GRIST_SKIP_QUANT:-0}" == "1" ]]; then
  echo "== skipping quantized-inference pass (GRIST_SKIP_QUANT=1) =="
else
  # Quantized-inference contract: the bf16/int8 kernels, the packers, and
  # the suite's rel-L2 acceptance gate must pass on every tier this build
  # carries (the scalar run pins the reference tier; the unset run exercises
  # the best quant tier cpuid grants, including native avx512-bf16). The
  # cross-tier bitwise assertions live inside the QuantTierParity tests.
  echo "== quantized-inference pass: quant suites per tier =="
  for tier in scalar ""; do
    label="${tier:-best-available}"
    echo "-- test_ml Quant*/GemmQuant* (tier: $label)"
    if [[ -n "$tier" ]]; then
      GRIST_SIMD_TIER="$tier" ./build/tests/test_ml \
        --gtest_filter='Quant*:GemmQuant*' >/dev/null
    else
      ./build/tests/test_ml --gtest_filter='Quant*:GemmQuant*' >/dev/null
    fi
  done
  if [[ "${GRIST_QUANT_BENCH:-0}" == "1" ]]; then
    # Columns/s vs precision plus the fp32/bf16/int8 GEMM shapes, recorded
    # for the README table; a committed baseline turns the run into a >5%
    # regression gate through bench_compare.py.
    echo "-- recording BENCH_quantized_ml.json (precision sweep)"
    ./build/bench/bench_host_kernels \
      --benchmark_filter='Gemm(Blocked|QuantBf16|QuantInt8)|MlSuitePrecision' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only \
      --benchmark_format=json --benchmark_out=BENCH_quantized_ml.new.json \
      >/dev/null
    if [[ -f BENCH_quantized_ml.json ]]; then
      echo "-- diffing against committed BENCH_quantized_ml.json"
      python3 scripts/bench_compare.py BENCH_quantized_ml.json \
        BENCH_quantized_ml.new.json
    fi
    mv BENCH_quantized_ml.new.json BENCH_quantized_ml.json
  fi
fi

if [[ "${GRIST_SKIP_MULTIPROC:-0}" == "1" ]]; then
  echo "== skipping cross-process pass (GRIST_SKIP_MULTIPROC=1) =="
else
  # Transport contract: the multi-rank step must hold its gates on BOTH
  # transports -- the in-process pool (test_parallel/test_core, already in
  # tier-1 and re-run under TSan below) and one-OS-process-per-rank over
  # POSIX shm (the MULTIPROCESS-labeled binaries: bitwise identity vs the
  # threaded pool, CommStats parity, irregular odd-rank round-trips, stale
  # /dev/shm reclaim, shape-mismatch errors, and the warm-step alloc guard).
  # TSan stays on the in-process binaries: it cannot see across address
  # spaces, and the in-process transport exercises the same Communicator
  # pack/post/wait paths.
  echo "== cross-process pass: MULTIPROCESS suites (shm transport) =="
  ctest --test-dir build -L MULTIPROCESS --output-on-failure
  if [[ "${GRIST_EXCHANGE_BENCH:-0}" == "1" ]]; then
    # Schedule x transport ablation (threads vs shm, +/- pinning and the
    # emulated wire), recorded for the README table; a committed baseline
    # turns the run into a >5% regression gate through bench_compare.py.
    echo "-- recording BENCH_exchange_schedules.json (schedule x transport)"
    ./build/bench/bench_ablation_exchange \
      --benchmark_filter='BM_(Exchange|Step)' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only \
      --benchmark_format=json --benchmark_out=BENCH_exchange_schedules.new.json \
      >/dev/null
    if [[ -f BENCH_exchange_schedules.json ]]; then
      echo "-- diffing against committed BENCH_exchange_schedules.json"
      python3 scripts/bench_compare.py BENCH_exchange_schedules.json \
        BENCH_exchange_schedules.new.json
    fi
    mv BENCH_exchange_schedules.new.json BENCH_exchange_schedules.json
  fi
fi

if [[ "${GRIST_SKIP_RESTART:-0}" == "1" ]]; then
  echo "== skipping elastic-restart pass (GRIST_SKIP_RESTART=1) =="
else
  # Elastic checkpoint/restart contract: a resume must be bitwise identical
  # to the unbroken run on BOTH transports (threads and one-process-per-rank
  # shm), at the writer's rank count AND at a different one (the N->M
  # repartition-on-restart gates), in both NS precisions -- plus the
  # snapshot-format edge cases (CRC flips, truncation, version mismatch,
  # missing sections), the restore-then-step alloc guard and grist_run's
  # end-to-end restart_out -> restart_in resume (scripts/test_grist_run.py,
  # solo and both transports). The shm leg is doubly labeled
  # RESTART;MULTIPROCESS and carries the MULTIPROCESS timeout: a lost rank
  # worker surfaces as a ctest timeout, never a wedge.
  echo "== elastic-restart pass: RESTART suites (threads + shm, N->M resize) =="
  ctest --test-dir build -L RESTART --output-on-failure
  if [[ "${GRIST_RESTART_BENCH:-0}" == "1" ]]; then
    # Checkpoint write / read+validate / rotation throughput in MB/s,
    # recorded for the README table; a committed baseline turns the run
    # into a >5% regression gate through bench_compare.py.
    echo "-- recording BENCH_restart.json (checkpoint write/read MB/s)"
    ./build/bench/bench_restart \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only \
      --benchmark_format=json --benchmark_out=BENCH_restart.new.json \
      >/dev/null
    if [[ -f BENCH_restart.json ]]; then
      echo "-- diffing against committed BENCH_restart.json"
      python3 scripts/bench_compare.py BENCH_restart.json BENCH_restart.new.json
    fi
    mv BENCH_restart.new.json BENCH_restart.json
  fi
fi

if [[ "${GRIST_SKIP_ENSEMBLE:-0}" == "1" ]]; then
  echo "== skipping batched-ensemble pass (GRIST_SKIP_ENSEMBLE=1) =="
else
  # Batched-ensemble contract: every member stepped through EnsembleRunner
  # (a Model with M members) must be bitwise identical to the same
  # seed-matched member run solo through Model -- across M in {2,4,8}, DP
  # and MIX, conventional, Held-Suarez and fp32/quantized (bf16/int8) ML
  # physics -- and the warm M-member step must stay off the heap, radiation
  # cycle included (the ENSEMBLE-labeled alloc guard).
  echo "== batched-ensemble pass: ENSEMBLE suites (member-vs-solo bitwise) =="
  ctest --test-dir build -L ENSEMBLE --output-on-failure
  if [[ "${GRIST_ENSEMBLE_BENCH:-0}" == "1" ]]; then
    # Batched EnsembleRunner vs M independent Models (members/s), recorded
    # for the README table; a committed baseline from the same kind of host
    # turns the run into a >5% regression gate through bench_compare.py
    # (which refuses, exit 3, a baseline from another context).
    echo "-- recording BENCH_ensemble.json (batched vs solo members/s)"
    ./build/bench/bench_ensemble \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only \
      --benchmark_format=json --benchmark_out=BENCH_ensemble.new.json \
      >/dev/null
    if [[ -f BENCH_ensemble.json ]]; then
      echo "-- diffing against committed BENCH_ensemble.json"
      python3 scripts/bench_compare.py BENCH_ensemble.json BENCH_ensemble.new.json
    fi
    mv BENCH_ensemble.new.json BENCH_ensemble.json
  fi
fi

if [[ "${GRIST_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== skipping ASan/UBSan pass (GRIST_SKIP_ASAN=1) =="
else
  echo "== sanitizer pass: ASan+UBSan on ml + common + io + physics + coupler + model-alloc + backend test binaries =="
  cmake -B build-asan -S . -DGRIST_SANITIZE=ON >/dev/null
  cmake --build build-asan -j"$(nproc)" --target test_ml test_ml_alloc \
    test_common test_io test_physics test_coupler test_model_alloc \
    test_backend
  for bin in test_ml test_ml_alloc test_common test_io test_physics \
             test_coupler test_model_alloc test_backend; do
    echo "-- $bin (sanitized)"
    ./build-asan/tests/"$bin"
  done
fi

if [[ "${GRIST_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "== skipping UBSan pass (GRIST_SKIP_UBSAN=1) =="
else
  # UBSan only (no ASan) over the simulated-accelerator subsystems: the
  # backend layer templates one kernel body over host and sim views, so an
  # out-of-range index, a misaligned virtual address computation, or a
  # signed overflow in the cycle accounting trips here before it skews a
  # Fig. 9 number. ASan is left off because the per-access cache model makes
  # shadow-memory overhead prohibitive on these binaries.
  echo "== sanitizer pass: UBSan on swgomp + sunway + backend test binaries =="
  cmake -B build-ubsan -S . -DGRIST_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j"$(nproc)" --target test_swgomp test_sunway test_backend
  for bin in test_swgomp test_sunway test_backend; do
    echo "-- $bin (UBSan)"
    ./build-ubsan/tests/"$bin"
  done
fi

if [[ "${GRIST_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== skipping TSan pass (GRIST_SKIP_TSAN=1) =="
  exit 0
fi

echo "== sanitizer pass: TSan on parallel + core test binaries =="
cmake -B build-tsan -S . -DGRIST_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target test_parallel test_core test_parallel_model_alloc
for bin in test_parallel test_core test_parallel_model_alloc; do
  echo "-- $bin (TSan)"
  OMP_NUM_THREADS=1 ./build-tsan/tests/"$bin"
done
echo "== all checks passed =="

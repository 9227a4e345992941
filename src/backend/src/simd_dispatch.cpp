// Runtime dispatch for the SIMD execution backend: cpuid picks the best
// tier the build carries and the CPU supports; GRIST_SIMD_TIER clamps it
// down (never up); GRIST_SIMD_TIER=scalar pins the portable tier. Mirrors the
// DiagnosticsFactory-style CPU/GPU dispatch: callers see one table of
// function pointers, never an #ifdef.

#include "grist/backend/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "simd_tiers.hpp"

namespace grist::backend::simd {
namespace {

// Tier forced via env/forceTier(); -1 = no override. Relaxed atomics: the
// parity tests flip this between sweeps from one thread; concurrent readers
// only ever see a valid tier.
std::atomic<int> g_forced{-1};

bool cpuSupports(Tier t) {
#if defined(__x86_64__) || defined(__i386__)
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return t == Tier::kScalar;
#endif
}

bool buildCarries(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return GRIST_SIMD_HAVE_AVX2 != 0;
    case Tier::kAvx512:
      return GRIST_SIMD_HAVE_AVX512 != 0;
  }
  return false;
}

Tier computeBestTier() {
  for (Tier t : {Tier::kAvx512, Tier::kAvx2}) {
    if (buildCarries(t) && cpuSupports(t)) return t;
  }
  return Tier::kScalar;
}

// Startup env override: GRIST_SIMD_TIER=scalar|avx2|avx512 behaves exactly
// like a forceTier() call made before main().
int envForcedTier() {
  const char* s = std::getenv("GRIST_SIMD_TIER");
  if (!s || !*s) return -1;
  if (std::strcmp(s, "scalar") == 0) return static_cast<int>(Tier::kScalar);
  if (std::strcmp(s, "avx2") == 0) return static_cast<int>(Tier::kAvx2);
  if (std::strcmp(s, "avx512") == 0) return static_cast<int>(Tier::kAvx512);
  return -1;  // unknown value: ignore rather than abort
}

struct DispatchState {
  Tier best;
  DispatchState() {
    best = computeBestTier();
    g_forced.store(envForcedTier(), std::memory_order_relaxed);
  }
};

const DispatchState& state() {
  static const DispatchState st;
  return st;
}

Tier clampToBest(Tier t) {
  const Tier best = state().best;
  return static_cast<int>(t) < static_cast<int>(best) ? t : best;
}

} // namespace

const char* tierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "?";
}

Tier bestTier() { return state().best; }

std::vector<Tier> availableTiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  for (Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (static_cast<int>(t) <= static_cast<int>(state().best)) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

Tier activeTier() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return clampToBest(static_cast<Tier>(forced));
  return state().best;
}

void forceTier(Tier t) {
  state();  // make sure env initialization happened first
  g_forced.store(static_cast<int>(t), std::memory_order_relaxed);
}

void clearForcedTier() {
  state();
  g_forced.store(-1, std::memory_order_relaxed);
}

const KernelTable& table(Tier t) {
  switch (clampToBest(t)) {
#if GRIST_SIMD_HAVE_AVX512
    case Tier::kAvx512:
      return tierTableAvx512();
#endif
#if GRIST_SIMD_HAVE_AVX2
    case Tier::kAvx2:
      return tierTableAvx2();
#endif
    default:
      return tierTableScalar();
  }
}

const KernelTable& table() { return table(activeTier()); }

} // namespace grist::backend::simd

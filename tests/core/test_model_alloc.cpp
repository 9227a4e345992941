// Zero-allocation guard for the solo Model step: once the model is warm
// (dycore scratch and tracer-step scratch sized in the ctor, per-thread
// Workspace arenas grown, coupler scratch built, quant-free fp32 nets
// packed), a full cadence cycle -- dynamics, tracer transport and ML or
// conventional physics with radiation -- must not touch the heap. The solo
// twin of tests/ensemble/test_ensemble_alloc.cpp.
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "grist/core/model.hpp"
#include "grist/dycore/init.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. malloc-backed so the override itself is free of
// recursion; every flavor of operator new/delete funnels through here.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long> g_heap_allocs{0};
} // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_heap_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace grist::core {
namespace {

long allocsDuring(const std::function<void()>& fn) {
  const long before = g_heap_allocs.load();
  fn();
  return g_heap_allocs.load() - before;
}

void expectWarmMlCycleHeapFree(precision::NsMode ns) {
  const grid::HexMesh mesh = grid::buildHexMesh(3);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  const int nlev = 10;
  ModelConfig mc;
  mc.dyn.nlev = nlev;
  mc.dyn.dt = 300.0;
  mc.dyn.ns = ns;
  mc.scheme = PhysicsScheme::kMl;
  mc.ml.precision = ml::Precision::kFp32;
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = nlev;
  qcfg.channels = 12;
  qcfg.res_units = 1;
  mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
  ml::RadMlpConfig rcfg;
  rcfg.nlev = nlev;
  rcfg.hidden = 16;
  mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
  // One cadence cycle at the default Trac/Phy intervals.
  const int cycle = 120;
  ASSERT_EQ(mc.trac_interval, 8);
  ASSERT_EQ(mc.phy_interval, 15);

  Model model(mesh, trsk, mc, dycore::initBaroclinicWave(mesh, mc.dyn, 3));
  // Warm-up cycle: arenas and OpenMP teams materialize here.
  model.run(cycle);
  // The next cycle crosses the same tracer/physics boundaries.
  EXPECT_EQ(allocsDuring([&] { model.run(cycle); }), 0)
      << model.schemeName();
}

TEST(ModelAllocationGuard, WarmMlCadenceCycleIsHeapFreeDp) {
  expectWarmMlCycleHeapFree(precision::NsMode::kDouble);
}

TEST(ModelAllocationGuard, WarmMlCadenceCycleIsHeapFreeMix) {
  expectWarmMlCycleHeapFree(precision::NsMode::kSingle);
}

TEST(ModelAllocationGuard, WarmConventionalRadiationCycleIsHeapFreeDp) {
  // DP-PHY over lcm(trac, phy, rad): every cadence fires, radiation
  // included, and the named physics timers add to existing sections.
  const grid::HexMesh mesh = grid::buildHexMesh(2);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  ModelConfig mc;
  mc.dyn.nlev = 10;
  mc.dyn.dt = 300.0;
  mc.scheme = PhysicsScheme::kConventional;
  ASSERT_EQ(mc.trac_interval, 8);
  ASSERT_EQ(mc.phy_interval, 15);
  ASSERT_EQ(mc.conventional.radiation_interval, 3);
  const int cycle = 360;  // lcm(8, 15, 15 * 3)

  Model model(mesh, trsk, mc, dycore::initBaroclinicWave(mesh, mc.dyn, 3));
  model.run(cycle);
  EXPECT_EQ(allocsDuring([&] { model.run(cycle); }), 0)
      << model.schemeName();
}

} // namespace
} // namespace grist::core

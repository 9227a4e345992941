// Zero-allocation guard for the batched ensemble step: once the runner is
// warm (shared dycore scratch sized, per-thread Workspace arenas grown,
// coupler scratch and every member's physics batch built in the ctor,
// quant snapshots cached), advancing all M members -- including steps that
// fire tracer transport, physics and, under conventional physics,
// radiation -- must not touch the heap.
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt) --
// the same pattern as tests/ml/test_ml_alloc.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numeric>

#include "grist/core/ensemble_runner.hpp"
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

ModelConfig baseConfig(int nlev, PhysicsScheme scheme) {
  ModelConfig mc;
  mc.dyn.nlev = nlev;
  mc.dyn.dt = 300.0;
  mc.trac_interval = 4;
  mc.phy_interval = 5;
  mc.scheme = scheme;
  return mc;
}

ModelConfig mlConfig(int nlev, ml::Precision prec) {
  ModelConfig mc = baseConfig(nlev, PhysicsScheme::kMl);
  mc.ml.precision = prec;
  if (prec == ml::Precision::kInt8) mc.ml.quant_tolerance = 0.2;
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = nlev;
  qcfg.channels = 12;
  qcfg.res_units = 1;
  mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
  ml::RadMlpConfig rcfg;
  rcfg.nlev = nlev;
  rcfg.hidden = 16;
  mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
  return mc;
}

/// One cadence cycle: every tracer and physics boundary fires in it, and
/// under conventional physics the radiation cadence (every
/// radiation_interval physics steps) as well.
int cadenceCycle(const ModelConfig& mc) {
  int phy = mc.phy_interval;
  if (mc.scheme == PhysicsScheme::kConventional) {
    phy *= mc.conventional.radiation_interval;
  }
  return std::lcm(mc.trac_interval, phy);
}

class EnsembleAllocationGuard : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new grid::HexMesh(grid::buildHexMesh(3));
    trsk_ = new grid::TrskWeights(grid::buildTrskWeights(*mesh_));
  }
  static void TearDownTestSuite() {
    delete trsk_;
    delete mesh_;
    trsk_ = nullptr;
    mesh_ = nullptr;
  }

  static void expectWarmStepsHeapFree(const ModelConfig& mc, const char* label) {
    dycore::State initial = dycore::initBaroclinicWave(*mesh_, mc.dyn, 3);
    EnsembleConfig ec;
    ec.model = mc;
    ec.members = 4;
    ec.perturb_seed = 42;
    EnsembleRunner runner(*mesh_, *trsk_, ec, initial);
    // Warm-up over one full cadence cycle: arenas, OpenMP teams, quant
    // snapshots + gate all materialize here.
    const int cycle = cadenceCycle(mc);
    runner.run(cycle);
    // The next cycle hits the same tracer/physics/radiation boundaries and
    // must stay off the heap entirely.
    EXPECT_EQ(allocsDuring([&] { runner.run(cycle); }), 0)
        << runner.schemeName() << " " << label;
  }

  static grid::HexMesh* mesh_;
  static grid::TrskWeights* trsk_;
};

grid::HexMesh* EnsembleAllocationGuard::mesh_ = nullptr;
grid::TrskWeights* EnsembleAllocationGuard::trsk_ = nullptr;

TEST_F(EnsembleAllocationGuard, WarmStepsAreHeapFreeFp32PerMember) {
  expectWarmStepsHeapFree(mlConfig(10, ml::Precision::kFp32), "fp32");
}

TEST_F(EnsembleAllocationGuard, WarmStepsAreHeapFreeQuantized) {
  expectWarmStepsHeapFree(mlConfig(10, ml::Precision::kBf16), "bf16");
  expectWarmStepsHeapFree(mlConfig(10, ml::Precision::kInt8), "int8");
}

TEST_F(EnsembleAllocationGuard, WarmRadiationCycleIsHeapFreeDpPhy) {
  const ModelConfig mc = baseConfig(10, PhysicsScheme::kConventional);
  ASSERT_EQ(cadenceCycle(mc), 60);  // lcm(4, 5 * 3)
  expectWarmStepsHeapFree(mc, "conventional");
}

} // namespace
} // namespace grist::core

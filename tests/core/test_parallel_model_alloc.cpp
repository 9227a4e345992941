// Zero-allocation guard for the warm multi-rank step: once the persistent
// worker pool is up and the packed exchange buffers are planned,
// ParallelModel::step() must perform no heap allocation -- which also
// proves it creates no threads (libstdc++ allocates each std::thread's
// state block with operator new).
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt) --
// the same pattern as tests/ml/test_ml_alloc.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "grist/core/parallel_model.hpp"
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

class PooledStepAllocationGuard : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(3);
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.nlev = 8;
    cfg_.dt = 450.0;
  }
  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  dycore::DycoreConfig cfg_;
};

TEST_F(PooledStepAllocationGuard, OverlapStepIsHeapFreeWhenWarm) {
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
  ParallelModel model(mesh_, trsk_, cfg_, /*nranks=*/4, initial);
  const auto step = [&] { model.step(); };
  // Warm-up: per-thread Workspace arenas and OpenMP teams materialize on
  // the first steps.
  step();
  step();
  EXPECT_EQ(allocsDuring(step), 0);
}

TEST_F(PooledStepAllocationGuard, CounterSeesAllocations) {
  // Negative control: the counter must register heap traffic made on
  // another std::thread, as the pool's rank workers are. The thread is
  // created (its state block allocated) before the measured window opens,
  // so only the worker's own allocation can be counted.
  std::atomic<bool> go{false};
  std::thread worker([&go] {
    while (!go.load()) std::this_thread::yield();
    std::vector<double> v(4096, 1.0);
    volatile double sink = v[17];
    (void)sink;
  });
  EXPECT_GT(allocsDuring([&] {
              go = true;
              worker.join();
            }),
            0);
}

} // namespace
} // namespace grist::core

// Zero-allocation guard for restore-then-step: restoreGlobalState() is
// in-place (exchange plans, bands and packed buffers survive untouched),
// so a warm ParallelModel that just swallowed a checkpoint must step with
// zero heap allocations -- a mid-run restore cannot quietly demote the
// pool back to a cold path.
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt) --
// the same pattern as tests/core/test_parallel_model_alloc.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

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

class RestoreAllocationGuard : public ::testing::Test {
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

TEST_F(RestoreAllocationGuard, StepAfterRestoreIsHeapFree) {
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);

  // The checkpoint donor: a few steps ahead of the restored model.
  ParallelModel donor(mesh_, trsk_, cfg_, /*nranks=*/4, initial);
  donor.run(3);
  const dycore::State checkpoint = donor.gatherState();

  ParallelModel model(mesh_, trsk_, cfg_, /*nranks=*/4, initial);
  const auto step = [&] { model.step(); };
  // Warm-up: per-thread Workspace arenas and OpenMP teams materialize on
  // the first steps.
  step();
  step();
  EXPECT_EQ(allocsDuring(step), 0);

  // The restore itself may allocate (it is rare and off the step path),
  // but the very next steps must stay heap-free: the in-place scatter kept
  // every exchange-plan pointer valid.
  model.restoreGlobalState(checkpoint);
  EXPECT_EQ(allocsDuring(step), 0);
  EXPECT_EQ(allocsDuring(step), 0);
}

} // namespace
} // namespace grist::core

// Zero-allocation guard for restore-then-step: restoreGlobalState() is
// in-place (exchange plans, bands and packed buffers survive untouched),
// so a warm ParallelModel that just swallowed a checkpoint must step with
// zero heap allocations -- a mid-run restore cannot quietly demote the
// pool back to a cold path. Also the footprint guard for the checkpoint
// write: Snapshot::write streams the file from the snapshot's own vectors,
// so it allocates a few path strings, not a copy of the file.
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt) --
// the same pattern as tests/core/test_parallel_model_alloc.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>
#include <string>

#include "grist/core/checkpoint.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/snapshot.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. malloc-backed so the override itself is free of
// recursion; every flavor of operator new/delete funnels through here.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long> g_heap_allocs{0};
std::atomic<long> g_heap_bytes{0};
} // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  g_heap_bytes += static_cast<long>(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_heap_allocs;
  g_heap_bytes += static_cast<long>(size);
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

TEST(SnapshotWriteFootprint, StreamsWithoutCopyingTheFile) {
  const grid::HexMesh mesh = grid::buildHexMesh(4);
  dycore::DycoreConfig cfg;
  cfg.nlev = 20;
  const io::Snapshot snap = captureDynRun(dycore::initBaroclinicWave(mesh, cfg),
                                          cfg, mesh, /*steps_done=*/0,
                                          /*nranks=*/1, /*partition_fingerprint=*/0);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("grist_write_footprint." + std::to_string(::getpid()) + ".grist"))
          .string();
  const long before = g_heap_bytes.load();
  snap.write(path);
  const long allocated = g_heap_bytes.load() - before;
  const auto file_bytes = static_cast<long>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  EXPECT_GT(file_bytes, 1L << 20);
  EXPECT_LT(allocated, 64L * 1024)
      << "Snapshot::write allocated " << allocated << " bytes for a "
      << file_bytes << "-byte file";
}

} // namespace
} // namespace grist::core

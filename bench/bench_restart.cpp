// Checkpoint-layer throughput (google-benchmark): streamed atomic write
// (payloads straight from the snapshot's vectors, no serialized copy),
// read + validate + rebuild of a full sectioned snapshot, and the section
// CRC on its own, in MB/s.
// These are NOT a paper figure; they size the restart tax against the
// paper's I/O budget (section 3.1.3 writes model output through grouped
// I/O for the same reason: at scale, snapshot bytes are the wall). Record
// to BENCH_restart.json via the GRIST_RESTART_BENCH=1 stage of
// scripts/check.sh; a committed baseline turns the run into a >5%
// regression gate through scripts/bench_compare.py.
//
// Every benchmark makes one untimed warm-up call before the timing loop so
// the first measured iteration sees a faulted-in page cache and a warm
// dentry for the checkpoint directory, not first-touch costs.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "grist/core/checkpoint.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/snapshot.hpp"

namespace {

using namespace grist;

namespace fs = std::filesystem;

struct Fixture {
  grid::HexMesh mesh;
  dycore::DycoreConfig cfg;
  io::Snapshot snap;
  std::string dir, path;
  std::int64_t file_bytes = 0;

  explicit Fixture(int glevel, int nlev) : mesh(grid::buildHexMesh(glevel)) {
    cfg.nlev = nlev;
    cfg.dt = 450.0;
    snap = core::captureDynRun(dycore::initBaroclinicWave(mesh, cfg), cfg,
                               mesh, /*steps_done=*/0, /*nranks=*/1,
                               /*partition_fingerprint=*/0);
    dir = (fs::temp_directory_path() /
           ("grist_bench_restart_g" + std::to_string(glevel)))
              .string();
    fs::create_directories(dir);
    path = dir + "/snap.grist";
    snap.write(path);  // warm-up + gives read benchmarks a file
    file_bytes = static_cast<std::int64_t>(fs::file_size(path));
  }
  ~Fixture() { fs::remove_all(dir); }
};

// One fixture per grid so repeated benchmark registrations share the
// serialized state instead of re-running the init.
Fixture& fixtureFor(int glevel) {
  static Fixture g4{4, 30};
  static Fixture g5{5, 30};
  return glevel == 5 ? g5 : g4;
}

void BM_SnapshotWrite(benchmark::State& state) {
  Fixture& f = fixtureFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    f.snap.write(f.path);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.file_bytes);
  state.counters["file_MB"] =
      static_cast<double>(f.file_bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_SnapshotWrite)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_SnapshotRead(benchmark::State& state) {
  // Read + per-section CRC validation + section parse into host vectors.
  Fixture& f = fixtureFor(static_cast<int>(state.range(0)));
  {
    const io::Snapshot warm = io::Snapshot::read(f.path);
    benchmark::DoNotOptimize(warm.state->delp.data());
  }
  for (auto _ : state) {
    const io::Snapshot snap = io::Snapshot::read(f.path);
    benchmark::DoNotOptimize(snap.state->delp.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.file_bytes);
}
BENCHMARK(BM_SnapshotRead)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_RestartLoad(benchmark::State& state) {
  // The full resume path of a multi-rank run: read + validate CONFIG/shape
  // + rebuild a mesh-shaped State, once, in the parent (grist_run --ranks
  // N hands the result to either transport).
  Fixture& f = fixtureFor(static_cast<int>(state.range(0)));
  {
    const dycore::State warm =
        core::loadDynRestart(f.path, f.mesh, f.cfg, 1, nullptr);
    benchmark::DoNotOptimize(warm.delp.data());
  }
  for (auto _ : state) {
    const dycore::State restored =
        core::loadDynRestart(f.path, f.mesh, f.cfg, 1, nullptr);
    benchmark::DoNotOptimize(restored.delp.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.file_bytes);
}
BENCHMARK(BM_RestartLoad)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  // The section checksum alone, over every payload byte of the snapshot
  // file: the CRC work each write and each read does.
  Fixture& f = fixtureFor(static_cast<int>(state.range(0)));
  const io::SnapshotInfo info = io::Snapshot::peek(f.path);
  std::vector<char> file(static_cast<std::size_t>(f.file_bytes));
  std::ifstream(f.path, std::ios::binary).read(file.data(), f.file_bytes);
  std::int64_t payload_bytes = 0;
  for (const io::SnapshotInfo::Entry& e : info.sections) {
    payload_bytes += static_cast<std::int64_t>(e.bytes);
  }
  for (auto _ : state) {
    for (const io::SnapshotInfo::Entry& e : info.sections) {
      benchmark::DoNotOptimize(io::crc32(file.data() + e.offset, e.bytes));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          payload_bytes);
}
BENCHMARK(BM_Crc32)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_CheckpointRotation(benchmark::State& state) {
  // writeCheckpoint = serialize + atomic rename + keep-last-2 prune; the
  // steady-state cost of `--checkpoint-every K` in grist_run.
  Fixture& f = fixtureFor(static_cast<int>(state.range(0)));
  const std::string ckdir = f.dir + "/rot";
  long step = 0;
  io::writeCheckpoint(ckdir, f.snap, step++);  // warm-up
  for (auto _ : state) {
    io::writeCheckpoint(ckdir, f.snap, step++);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          f.file_bytes);
  fs::remove_all(ckdir);
}
BENCHMARK(BM_CheckpointRotation)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

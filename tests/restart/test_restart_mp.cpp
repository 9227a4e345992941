// Elastic restart across OS processes (ctest labels RESTART;MULTIPROCESS).
//
// The shm-transport leg of the restart gate: a one-process-per-rank fleet
// that checkpoints through a snapshot file and a NEW fleet that resumes
// from it -- at the same rank count or a different one -- must land bitwise
// on the unbroken threaded run. Every rank worker reads + validates the
// snapshot itself and scatters its own slice (mp_runner.hpp RunSpec.restart),
// so the test crosses process, transport AND rank-count boundaries at once.
//
// Like test_multiprocess.cpp, this binary is its own rank worker: main()
// dispatches on argv via maybeRunWorker BEFORE gtest runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <tuple>

#include "grist/core/checkpoint.hpp"
#include "grist/core/mp_runner.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/partition/partitioner.hpp"

namespace grist {
namespace {

using core::ParallelModel;
using core::mp::MpSession;
using core::mp::RunSpec;

namespace fs = std::filesystem;

void expectStatesBitwise(const dycore::State& a, const dycore::State& b,
                         const grid::HexMesh& mesh, int nlev) {
  for (Index c = 0; c < mesh.ncells; ++c) {
    for (int k = 0; k < nlev; ++k) {
      ASSERT_EQ(b.delp(c, k), a.delp(c, k)) << "cell " << c;
      ASSERT_EQ(b.theta(c, k), a.theta(c, k)) << "cell " << c;
      ASSERT_EQ(b.tracers[0](c, k), a.tracers[0](c, k)) << "cell " << c;
    }
    for (int k = 0; k <= nlev; ++k) {
      ASSERT_EQ(b.w(c, k), a.w(c, k));
      ASSERT_EQ(b.phi(c, k), a.phi(c, k));
    }
  }
  for (Index e = 0; e < mesh.nedges; ++e) {
    for (int k = 0; k < nlev; ++k) {
      ASSERT_EQ(b.u(e, k), a.u(e, k)) << "edge " << e;
    }
  }
}

class ShmRestartBase : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(3);  // RunSpec defaults: G3, 8 levels, dt 450
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.nlev = 8;
    cfg_.dt = 450.0;
    path_ = (fs::temp_directory_path() /
             ("grist_mp_ckpt_" + std::to_string(::getpid()) + ".grist"))
                .string();
  }
  void TearDown() override { fs::remove(path_); }

  /// Fleet at `write_ranks` runs `pre` steps and checkpoints; a NEW fleet
  /// at `read_ranks` resumes from the file and runs `post` steps. Returns
  /// the resumed fleet's gathered global state.
  dycore::State brokenShmRun(Index write_ranks, Index read_ranks, int pre,
                             int post, precision::NsMode ns) {
    {
      RunSpec spec;
      spec.nranks = write_ranks;
      spec.dyn.ns = ns;
      MpSession writer(spec);
      writer.run(pre);
      const auto part = partition::Partitioner::partition(mesh_, write_ranks);
      core::captureDynRun(writer.gather(), cfg_, mesh_, pre, write_ranks,
                          partition::Partitioner::fingerprint(part))
          .write(path_);
    }  // writer fleet fully torn down before the resumed fleet spawns
    RunSpec spec;
    spec.nranks = read_ranks;
    spec.dyn.ns = ns;
    spec.restart = path_;
    MpSession reader(spec);
    reader.run(post);
    return reader.gather();
  }

  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  dycore::DycoreConfig cfg_;
  std::string path_;
};

class ShmRestart
    : public ShmRestartBase,
      public ::testing::WithParamInterface<std::tuple<Index, precision::NsMode>> {};

TEST_P(ShmRestart, ResumeMatchesUnbrokenThreadedRunBitwise) {
  // The unbroken reference runs on the in-process threaded pool: the
  // shm fleet is already gated bitwise against it (test_multiprocess.cpp),
  // so matching it here proves the checkpoint survives the process AND
  // transport boundary without perturbing a single bit.
  const auto [nranks, ns] = GetParam();
  cfg_.ns = ns;
  ParallelModel unbroken(mesh_, trsk_, cfg_, nranks,
                         dycore::initBaroclinicWave(mesh_, cfg_));
  unbroken.run(8);
  const dycore::State resumed = brokenShmRun(nranks, nranks, 4, 4, ns);
  expectStatesBitwise(unbroken.gatherState(), resumed, mesh_, cfg_.nlev);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndPrecision, ShmRestart,
    ::testing::Combine(::testing::Values<Index>(1, 2, 4, 7),
                       ::testing::Values(precision::NsMode::kDouble,
                                         precision::NsMode::kSingle)),
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == precision::NsMode::kDouble ? "_DP"
                                                                    : "_MIX");
    });

class ShmResize : public ShmRestartBase,
                  public ::testing::WithParamInterface<std::pair<Index, Index>> {};

TEST_P(ShmResize, RepartitionOnRestartIsBitwise) {
  // Checkpoint at N rank processes, resume at M: the canonical global
  // ordering makes the writer fleet's size invisible to the reader fleet.
  const auto [from, to] = GetParam();
  ParallelModel unbroken(mesh_, trsk_, cfg_, to,
                         dycore::initBaroclinicWave(mesh_, cfg_));
  unbroken.run(8);
  const dycore::State resumed =
      brokenShmRun(from, to, 4, 4, precision::NsMode::kDouble);
  expectStatesBitwise(unbroken.gatherState(), resumed, mesh_, cfg_.nlev);
}

INSTANTIATE_TEST_SUITE_P(Resizes, ShmResize,
                         ::testing::Values(std::make_pair<Index, Index>(4, 2),
                                           std::make_pair<Index, Index>(2, 4),
                                           std::make_pair<Index, Index>(7, 3)),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "to" +
                                  std::to_string(info.param.second);
                         });

TEST_F(ShmRestartBase, WorkerRejectsMissingRestartFile) {
  // Every worker opens the snapshot itself; a missing file must fail the
  // whole session (exit-code propagation) instead of wedging the fleet.
  RunSpec spec;
  spec.nranks = 2;
  spec.restart = path_ + ".does-not-exist";
  EXPECT_THROW(
      {
        MpSession session(spec);
        session.run(1);
      },
      std::runtime_error);
}

} // namespace
} // namespace grist

int main(int argc, char** argv) {
  // Worker dispatch MUST precede gtest: rank processes re-enter this binary.
  if (auto rc = grist::core::mp::maybeRunWorker(argc, argv)) return *rc;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

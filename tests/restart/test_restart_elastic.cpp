// The elastic restart gate: checkpoints are written in the global canonical
// ordering, so a resume must be bitwise identical to the unbroken run for
// ANY rank count -- same count, fewer ranks, more ranks -- in both NS
// precision modes. Also covers the Model-level snapshot (mid-tracer-window
// resume through the DIAG section) and the CONFIG-mismatch rejections.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>

#include "grist/core/checkpoint.hpp"
#include "grist/core/model.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/reorder.hpp"
#include "grist/io/restart.hpp"
#include "grist/io/snapshot.hpp"
#include "grist/partition/partitioner.hpp"

namespace grist::core {
namespace {

namespace fs = std::filesystem;

void expectStatesBitwise(const dycore::State& a, const dycore::State& b) {
  ASSERT_EQ(a.nlev, b.nlev);
  ASSERT_EQ(a.tracers.size(), b.tracers.size());
  for (std::size_t i = 0; i < a.delp.size(); ++i) {
    ASSERT_EQ(a.delp.data()[i], b.delp.data()[i]) << "delp[" << i << "]";
    ASSERT_EQ(a.theta.data()[i], b.theta.data()[i]) << "theta[" << i << "]";
  }
  for (std::size_t i = 0; i < a.u.size(); ++i) {
    ASSERT_EQ(a.u.data()[i], b.u.data()[i]) << "u[" << i << "]";
  }
  for (std::size_t i = 0; i < a.w.size(); ++i) {
    ASSERT_EQ(a.w.data()[i], b.w.data()[i]) << "w[" << i << "]";
    ASSERT_EQ(a.phi.data()[i], b.phi.data()[i]) << "phi[" << i << "]";
  }
  for (std::size_t t = 0; t < a.tracers.size(); ++t) {
    for (std::size_t i = 0; i < a.tracers[t].size(); ++i) {
      ASSERT_EQ(a.tracers[t].data()[i], b.tracers[t].data()[i])
          << "tracer " << t << "[" << i << "]";
    }
  }
}

class ElasticBase : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(3);
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.nlev = 8;
    cfg_.dt = 450.0;
    // Per-process file: ctest runs each TEST as its own process in
    // parallel, so a shared fixed path would race between test cases.
    path_ = (fs::temp_directory_path() /
             ("grist_elastic_ckpt." + std::to_string(::getpid()) + ".grist"))
                .string();
  }
  void TearDown() override { fs::remove(path_); }

  std::uint64_t partFp(Index nranks) const {
    return partition::Partitioner::fingerprint(
        partition::Partitioner::partition(mesh_, nranks));
  }

  /// Run `pre` steps at `write_ranks`, checkpoint THROUGH A FILE, then
  /// resume at `read_ranks` for `post` more steps; return the final
  /// gathered global state.
  dycore::State brokenRun(Index write_ranks, Index read_ranks, int pre,
                          int post) {
    {
      ParallelModel writer(mesh_, trsk_, cfg_, write_ranks,
                           dycore::initBaroclinicWave(mesh_, cfg_));
      writer.run(pre);
      captureDynRun(writer.gatherState(), cfg_, mesh_, pre, write_ranks,
                    partFp(write_ranks))
          .write(path_);
    }
    long step_base = 0;
    const dycore::State resumed =
        loadDynRestart(path_, mesh_, cfg_, 1, &step_base);
    EXPECT_EQ(step_base, pre);
    ParallelModel reader(mesh_, trsk_, cfg_, read_ranks,
                         dycore::initBaroclinicWave(mesh_, cfg_));
    reader.restoreGlobalState(resumed);
    reader.run(post);
    return reader.gatherState();
  }

  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  dycore::DycoreConfig cfg_;
  std::string path_;
};

class ElasticRestart
    : public ElasticBase,
      public ::testing::WithParamInterface<std::tuple<Index, precision::NsMode>> {
 protected:
  void SetUp() override {
    ElasticBase::SetUp();
    cfg_.ns = std::get<1>(GetParam());
  }
};

TEST_P(ElasticRestart, ResumeMatchesUnbrokenRunBitwise) {
  const Index nranks = std::get<0>(GetParam());
  ParallelModel unbroken(mesh_, trsk_, cfg_, nranks,
                         dycore::initBaroclinicWave(mesh_, cfg_));
  unbroken.run(8);
  const dycore::State resumed = brokenRun(nranks, nranks, 4, 4);
  expectStatesBitwise(resumed, unbroken.gatherState());
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndPrecision, ElasticRestart,
    ::testing::Combine(::testing::Values<Index>(1, 2, 4, 7),
                       ::testing::Values(precision::NsMode::kDouble,
                                         precision::NsMode::kSingle)),
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == precision::NsMode::kDouble ? "_DP"
                                                                    : "_MIX");
    });

class ElasticResize
    : public ElasticBase,
      public ::testing::WithParamInterface<std::pair<Index, Index>> {};

TEST_P(ElasticResize, RepartitionOnRestartIsBitwise) {
  // Checkpoint at N ranks, restore at M: the canonical global ordering
  // makes the writer's decomposition invisible to the reader.
  const auto [from, to] = GetParam();
  ParallelModel unbroken(mesh_, trsk_, cfg_, to,
                         dycore::initBaroclinicWave(mesh_, cfg_));
  unbroken.run(8);
  const dycore::State resumed = brokenRun(from, to, 4, 4);
  expectStatesBitwise(resumed, unbroken.gatherState());
}

INSTANTIATE_TEST_SUITE_P(Resizes, ElasticResize,
                         ::testing::Values(std::make_pair<Index, Index>(4, 2),
                                           std::make_pair<Index, Index>(2, 4),
                                           std::make_pair<Index, Index>(7, 3)),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "to" +
                                  std::to_string(info.param.second);
                         });

TEST_F(ElasticBase, RestoreRejectsForeignRunShape) {
  ParallelModel model(mesh_, trsk_, cfg_, 2,
                      dycore::initBaroclinicWave(mesh_, cfg_));
  dycore::State wrong(mesh_, cfg_.nlev + 2, 1);
  EXPECT_THROW(model.restoreGlobalState(wrong), std::runtime_error);
  // And the file-level validator names the offending CONFIG field.
  captureDynRun(model.gatherState(), cfg_, mesh_, 4, 2, partFp(2))
      .write(path_);
  try {
    loadDynRestart(path_, mesh_, cfg_, /*ntracers=*/3, nullptr);
    FAIL() << "expected ntracers rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CONFIG mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("ntracers"), std::string::npos) << what;
  }
  dycore::DycoreConfig other = cfg_;
  other.dt = 300.0;
  try {
    loadDynRestart(path_, mesh_, other, 1, nullptr);
    FAIL() << "expected dt rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dt"), std::string::npos);
  }
}

TEST_F(ElasticBase, RestoreRejectsRelabeledMesh) {
  // Same level, same entity counts, different numbering: STATE is stored by
  // global index, so the fingerprint is the only thing that can tell.
  const grid::HexMesh relabeled =
      grid::applyPermutation(mesh_, grid::randomPermutation(mesh_, 42));
  ParallelModel model(mesh_, trsk_, cfg_, 2,
                      dycore::initBaroclinicWave(mesh_, cfg_));
  captureDynRun(model.gatherState(), cfg_, mesh_, 4, 2, partFp(2))
      .write(path_);
  EXPECT_NO_THROW(loadDynRestart(path_, mesh_, cfg_, 1, nullptr));
  try {
    loadDynRestart(path_, relabeled, cfg_, 1, nullptr);
    FAIL() << "expected mesh numbering rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mesh_fingerprint"), std::string::npos) << what;
    char written[19], run[19];
    std::snprintf(written, sizeof written, "0x%016llx",
                  static_cast<unsigned long long>(grid::numberingFingerprint(mesh_)));
    std::snprintf(run, sizeof run, "0x%016llx",
                  static_cast<unsigned long long>(
                      grid::numberingFingerprint(relabeled)));
    EXPECT_NE(what.find(written), std::string::npos) << what;
    EXPECT_NE(what.find(run), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Model-level snapshots (full driver: tracer transport + physics cadences).

class ModelSnapshot : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(2);
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.dyn.nlev = 10;
    cfg_.dyn.dt = 600.0;
    cfg_.trac_interval = 4;
    cfg_.phy_interval = 1 << 20;  // physics off: its caches are re-warmable,
                                  // not checkpointed (see DESIGN.md)
    path_ = (fs::temp_directory_path() /
             ("grist_model_snap." + std::to_string(::getpid()) + ".grist"))
                .string();
  }
  void TearDown() override { fs::remove(path_); }

  dycore::State coldStart() const {
    return dycore::initBaroclinicWave(mesh_, cfg_.dyn, 3);
  }

  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  ModelConfig cfg_;
  std::string path_;
};

TEST_F(ModelSnapshot, MidTracerWindowResumeIsBitwise) {
  // Step 6 is NOT a tracer boundary (trac_interval 4): the DIAG section
  // carries the half-accumulated mass-flux window, so the resume is exact
  // where the legacy restart path could only resync.
  Model straight(mesh_, trsk_, cfg_, coldStart());
  straight.run(12);

  Model first(mesh_, trsk_, cfg_, coldStart());
  first.run(6);
  first.snapshot().write(path_);

  Model second(mesh_, trsk_, cfg_, coldStart());
  second.restore(io::Snapshot::read(path_));
  EXPECT_EQ(second.dynSteps(), 6);
  EXPECT_DOUBLE_EQ(second.simSeconds(), first.simSeconds());
  second.run(6);

  EXPECT_DOUBLE_EQ(second.simSeconds(), straight.simSeconds());
  expectStatesBitwise(second.state(), straight.state());
  EXPECT_EQ(second.tskin(), straight.tskin());
  EXPECT_EQ(second.accumulatedPrecip(), straight.accumulatedPrecip());
}

TEST_F(ModelSnapshot, PhysicsCoupledResumeIsNearExact) {
  // With physics on, the suite's re-warmable caches (radiation cache, soil
  // columns) are deliberately not checkpointed; agreement is close, not
  // bitwise -- same contract as the seed restart path.
  ModelConfig cfg = cfg_;
  cfg.phy_interval = 4;
  Model straight(mesh_, trsk_, cfg,
                 dycore::initBaroclinicWave(mesh_, cfg.dyn, 3));
  straight.run(16);

  Model first(mesh_, trsk_, cfg, dycore::initBaroclinicWave(mesh_, cfg.dyn, 3));
  first.run(8);
  first.snapshot().write(path_);

  Model second(mesh_, trsk_, cfg,
               dycore::initBaroclinicWave(mesh_, cfg.dyn, 3));
  second.restore(io::Snapshot::read(path_));
  second.run(8);

  double umax = 0, udiff = 0;
  for (std::size_t i = 0; i < straight.state().u.size(); ++i) {
    umax = std::max(umax, std::abs(straight.state().u.data()[i]));
    udiff = std::max(udiff, std::abs(second.state().u.data()[i] -
                                     straight.state().u.data()[i]));
  }
  EXPECT_LT(udiff, 1e-2 * umax);
}

TEST_F(ModelSnapshot, LegacyRestartFileResumes) {
  // A seed-era writeRestart file feeds the same restore() entry point.
  Model first(mesh_, trsk_, cfg_, coldStart());
  first.run(4);  // tracer boundary: legacy restarts are only exact there
  io::writeRestart(path_, first.state(), first.tskin(), first.simSeconds());

  Model second(mesh_, trsk_, cfg_, coldStart());
  second.restore(io::Snapshot::read(path_));
  EXPECT_DOUBLE_EQ(second.simSeconds(), first.simSeconds());
  EXPECT_EQ(second.dynSteps(), 0);  // legacy: step count unknown, reset

  Model straight(mesh_, trsk_, cfg_, coldStart());
  straight.run(8);
  second.run(4);
  expectStatesBitwise(second.state(), straight.state());
}

TEST_F(ModelSnapshot, ConfigMismatchNamesOffendingField) {
  Model first(mesh_, trsk_, cfg_, coldStart());
  first.run(2);
  first.snapshot().write(path_);
  const io::Snapshot snap = io::Snapshot::read(path_);

  ModelConfig bad_dt = cfg_;
  bad_dt.dyn.dt = 450.0;
  Model m1(mesh_, trsk_, bad_dt,
           dycore::initBaroclinicWave(mesh_, bad_dt.dyn, 3));
  try {
    m1.restore(snap);
    FAIL() << "expected dt rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CONFIG mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("dt"), std::string::npos) << what;
  }

  ModelConfig bad_trac = cfg_;
  bad_trac.trac_interval = 5;
  Model m2(mesh_, trsk_, bad_trac,
           dycore::initBaroclinicWave(mesh_, bad_trac.dyn, 3));
  try {
    m2.restore(snap);
    FAIL() << "expected trac_interval rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trac_interval"), std::string::npos);
  }
}

TEST_F(ModelSnapshot, RestoreRejectsRelabeledMesh) {
  Model first(mesh_, trsk_, cfg_, coldStart());
  first.run(2);
  const io::Snapshot snap = first.snapshot();
  ASSERT_TRUE(snap.config);
  // The built numbering records 0; a relabeled mesh records its offset.
  EXPECT_EQ(snap.config->mesh_fingerprint, 0u);

  const grid::HexMesh relabeled =
      grid::applyPermutation(mesh_, grid::randomPermutation(mesh_, 42));
  const grid::TrskWeights trsk = grid::buildTrskWeights(relabeled);
  Model other(relabeled, trsk, cfg_,
              dycore::initBaroclinicWave(relabeled, cfg_.dyn, 3));
  try {
    other.restore(snap);
    FAIL() << "expected mesh numbering rejection";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Model::restore"), std::string::npos) << what;
    EXPECT_NE(what.find("mesh_fingerprint"), std::string::npos) << what;
  }
}

} // namespace
} // namespace grist::core

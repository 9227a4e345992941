#include "grist/core/model.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "grist/dycore/init.hpp"
#include "grist/ml/traindata.hpp"

namespace grist::core {
namespace {

TEST(SchemeLabels, MatchTable3) {
  EXPECT_STREQ(schemeLabel(precision::NsMode::kDouble, PhysicsScheme::kConventional),
               "DP-PHY");
  EXPECT_STREQ(schemeLabel(precision::NsMode::kDouble, PhysicsScheme::kMl), "DP-ML");
  EXPECT_STREQ(schemeLabel(precision::NsMode::kSingle, PhysicsScheme::kConventional),
               "MIX-PHY");
  EXPECT_STREQ(schemeLabel(precision::NsMode::kSingle, PhysicsScheme::kMl), "MIX-ML");
}

class ModelRun : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(2);
    trsk_ = grid::buildTrskWeights(mesh_);
    config_.dyn.nlev = 10;
    config_.dyn.dt = 600.0;
    config_.trac_interval = 4;
    config_.phy_interval = 8;
  }
  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  ModelConfig config_;
};

TEST_F(ModelRun, ConventionalModelRunsStable) {
  Model model(mesh_, trsk_, config_,
              dycore::initBaroclinicWave(mesh_, config_.dyn, /*ntracers=*/3));
  EXPECT_STREQ(model.schemeName(), "DP-PHY");
  model.run(24);  // 4 hours, includes tracer + physics steps
  EXPECT_NEAR(model.simDays(), 24.0 * 600.0 / 86400.0, 1e-12);
  const auto& st = model.state();
  for (Index c = 0; c < mesh_.ncells; ++c) {
    for (int k = 0; k < config_.dyn.nlev; ++k) {
      ASSERT_TRUE(std::isfinite(st.theta(c, k)));
      ASSERT_GT(st.delp(c, k), 0.0);
      ASSERT_GE(st.tracers[0](c, k), 0.0);
    }
  }
  for (const double p : model.accumulatedPrecip()) {
    ASSERT_GE(p, 0.0);
    ASSERT_TRUE(std::isfinite(p));
  }
}

TEST_F(ModelRun, PhysicsChangesTheSolution) {
  Model with_physics(mesh_, trsk_, config_,
                     dycore::initBaroclinicWave(mesh_, config_.dyn, 3));
  ModelConfig no_phys = config_;
  no_phys.phy_interval = 1000000;  // physics never fires
  Model without_physics(mesh_, trsk_, no_phys,
                        dycore::initBaroclinicWave(mesh_, no_phys.dyn, 3));
  with_physics.run(16);
  without_physics.run(16);
  double diff = 0;
  for (Index c = 0; c < mesh_.ncells; ++c) {
    diff += std::abs(with_physics.state().theta(c, 5) -
                     without_physics.state().theta(c, 5));
  }
  EXPECT_GT(diff, 1e-6);
}

TEST_F(ModelRun, MlModelRunsWithTrainedNets) {
  // Quick distillation on scenario columns, then an online-coupled run.
  const int nlev = config_.dyn.nlev;
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = nlev;
  qcfg.channels = 16;
  qcfg.res_units = 2;
  auto q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
  ml::RadMlpConfig rcfg;
  rcfg.nlev = nlev;
  rcfg.hidden = 32;
  auto rad = std::make_shared<ml::RadMlp>(rcfg);

  std::vector<ml::ColumnSample> cols;
  std::vector<ml::RadSample> rads;
  physics::PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], 64, nlev);
  physics::ConventionalSuite conv(in.ncolumns, nlev);
  ml::harvestSamples(in, conv, 600.0, cols, rads);
  q1q2->fitNormalization(cols);
  rad->fitNormalization(rads);
  ml::Adam a1, a2;
  a1.registerParams(q1q2->paramViews());
  a2.registerParams(rad->paramViews());
  for (int e = 0; e < 3; ++e) {
    q1q2->trainBatch(cols, a1);
    rad->trainBatch(rads, a2);
  }

  ModelConfig ml_config = config_;
  ml_config.scheme = PhysicsScheme::kMl;
  ml_config.q1q2 = q1q2;
  ml_config.rad_mlp = rad;
  Model model(mesh_, trsk_, ml_config,
              dycore::initBaroclinicWave(mesh_, ml_config.dyn, 3));
  EXPECT_STREQ(model.schemeName(), "DP-ML");
  model.run(16);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    for (int k = 0; k < nlev; ++k) {
      ASSERT_TRUE(std::isfinite(model.state().theta(c, k)));
    }
  }
}

TEST_F(ModelRun, MlSchemeWithoutNetsThrows) {
  ModelConfig bad = config_;
  bad.scheme = PhysicsScheme::kMl;
  EXPECT_THROW(Model(mesh_, trsk_, bad, dycore::initBaroclinicWave(mesh_, bad.dyn, 3)),
               std::invalid_argument);
}

TEST_F(ModelRun, TooFewTracersThrows) {
  EXPECT_THROW(
      Model(mesh_, trsk_, config_, dycore::initBaroclinicWave(mesh_, config_.dyn, 1)),
      std::invalid_argument);
}

TEST_F(ModelRun, MultiMemberModelRefusesSnapshotAndRestore) {
  // A checkpoint holds one member; an M-member Model says so, with M.
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, config_.dyn, 3);
  const io::Snapshot snap = Model(mesh_, trsk_, config_, initial).snapshot();
  Model model(mesh_, trsk_, config_, std::vector<dycore::State>(3, initial));
  ASSERT_EQ(model.members(), 3);
  const auto expectRefusal = [](const std::function<void()>& fn) {
    try {
      fn();
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("3 members"), std::string::npos)
          << e.what();
    }
  };
  expectRefusal([&] { (void)model.snapshot(); });
  expectRefusal([&] { model.restore(snap); });
}

} // namespace
} // namespace grist::core

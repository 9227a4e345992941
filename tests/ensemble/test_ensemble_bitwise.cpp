// Batched-ensemble correctness gates (ctest label ENSEMBLE): every member
// stepped through EnsembleRunner must stay BITWISE identical to the same
// seed-matched initial state run solo through Model -- across member counts
// M in {2,4,8}, DP and MIX dycore precision, conventional, Held-Suarez and
// fp32/quantized (bf16/int8) ML physics.
//
// The comparison covers the full prognostic state (delp/theta/u/w/phi, all
// tracers) plus the land bookkeeping (tskin, accumulated precip), after a
// step count that crosses several tracer and physics cadence boundaries
// (and, under conventional physics, two radiation calls).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "grist/core/ensemble_runner.hpp"
#include "grist/core/model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"

namespace grist::core {
namespace {

constexpr int kGlevel = 3;   // 642 cells
constexpr int kNlev = 10;
constexpr int kSteps = 15;   // 3 tracer windows + 3 physics steps (4/5 cadence)

long bitDiff(const parallel::Field& a, const parallel::Field& b) {
  if (a.size() != b.size()) return static_cast<long>(a.size() + b.size());
  long n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) ++n;
  }
  return n;
}

long bitDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return static_cast<long>(a.size() + b.size());
  long n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++n;
  }
  return n;
}

/// Total mismatching doubles between ensemble member m and a solo model.
long memberDiff(const EnsembleRunner& runner, int m, const Model& solo) {
  long bad = 0;
  const dycore::State& e = runner.state(m);
  const dycore::State& s = solo.state();
  bad += bitDiff(e.delp, s.delp);
  bad += bitDiff(e.theta, s.theta);
  bad += bitDiff(e.u, s.u);
  bad += bitDiff(e.w, s.w);
  bad += bitDiff(e.phi, s.phi);
  EXPECT_EQ(e.tracers.size(), s.tracers.size());
  for (std::size_t t = 0; t < s.tracers.size(); ++t) {
    bad += bitDiff(e.tracers[t], s.tracers[t]);
  }
  bad += bitDiff(runner.tskin(m), solo.tskin());
  bad += bitDiff(runner.accumulatedPrecip(m), solo.accumulatedPrecip());
  return bad;
}

class EnsembleBitwise : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new grid::HexMesh(grid::buildHexMesh(kGlevel));
    trsk_ = new grid::TrskWeights(grid::buildTrskWeights(*mesh_));
  }
  static void TearDownTestSuite() {
    delete trsk_;
    delete mesh_;
    trsk_ = nullptr;
    mesh_ = nullptr;
  }

  static ModelConfig baseConfig(precision::NsMode ns, PhysicsScheme scheme) {
    ModelConfig mc;
    mc.dyn.nlev = kNlev;
    mc.dyn.dt = 300.0;
    mc.dyn.ns = ns;
    mc.trac_interval = 4;
    mc.phy_interval = 5;
    mc.scheme = scheme;
    return mc;
  }

  static ModelConfig mlConfig(precision::NsMode ns,
                              ml::Precision prec = ml::Precision::kFp32) {
    ModelConfig mc = baseConfig(ns, PhysicsScheme::kMl);
    mc.ml.precision = prec;
    // Untrained random nets exceed the trained-net quantization envelope;
    // widen the acceptance gate like tests/ml/test_ml_alloc.cpp does.
    if (prec == ml::Precision::kInt8) mc.ml.quant_tolerance = 0.2;
    ml::Q1Q2NetConfig qcfg;
    qcfg.nlev = kNlev;
    qcfg.channels = 12;
    qcfg.res_units = 1;
    mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
    ml::RadMlpConfig rcfg;
    rcfg.nlev = kNlev;
    rcfg.hidden = 16;
    mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
    return mc;
  }

  /// Steps to compare over: kSteps, or under conventional physics through
  /// its second radiation call (radiation fires on the first physics step
  /// and then every radiation_interval physics steps).
  static int windowSteps(const ModelConfig& mc) {
    if (mc.scheme != PhysicsScheme::kConventional) return kSteps;
    return mc.phy_interval * (mc.conventional.radiation_interval + 1);
  }

  /// Run M members batched and each member solo from the same seeds; the
  /// trajectories must agree to the last bit.
  static void expectMembersMatchSolo(const ModelConfig& mc, int members,
                                     std::uint64_t seed = 42) {
    const int steps = windowSteps(mc);
    dycore::State initial = dycore::initBaroclinicWave(*mesh_, mc.dyn, 3);
    EnsembleConfig ec;
    ec.model = mc;
    ec.members = members;
    ec.perturb_seed = seed;
    EnsembleRunner runner(*mesh_, *trsk_, ec, initial);
    runner.run(steps);
    for (int m = 0; m < members; ++m) {
      dycore::State s = initial;
      if (seed != 0) {
        EnsembleRunner::perturbState(s, EnsembleRunner::memberSeed(seed, m),
                                     ec.perturb_amplitude);
      }
      Model solo(*mesh_, *trsk_, mc, std::move(s));
      solo.run(steps);
      EXPECT_EQ(memberDiff(runner, m, solo), 0)
          << runner.schemeName() << " member " << m << " of " << members
          << " diverged";
    }
  }

  static grid::HexMesh* mesh_;
  static grid::TrskWeights* trsk_;
};

grid::HexMesh* EnsembleBitwise::mesh_ = nullptr;
grid::TrskWeights* EnsembleBitwise::trsk_ = nullptr;

TEST_F(EnsembleBitwise, MembersMatchSoloDp) {
  const ModelConfig mc = mlConfig(precision::NsMode::kDouble);
  for (const int members : {2, 4, 8}) {
    expectMembersMatchSolo(mc, members);
  }
}

TEST_F(EnsembleBitwise, MembersMatchSoloMix) {
  const ModelConfig mc = mlConfig(precision::NsMode::kSingle);
  for (const int members : {2, 4, 8}) {
    expectMembersMatchSolo(mc, members);
  }
}

TEST_F(EnsembleBitwise, MembersMatchSoloQuantizedBf16) {
  for (const auto ns : {precision::NsMode::kDouble, precision::NsMode::kSingle}) {
    const ModelConfig mc = mlConfig(ns, ml::Precision::kBf16);
    expectMembersMatchSolo(mc, 4);
  }
}

TEST_F(EnsembleBitwise, MembersMatchSoloQuantizedInt8) {
  const ModelConfig mc =
      mlConfig(precision::NsMode::kDouble, ml::Precision::kInt8);
  expectMembersMatchSolo(mc, 4);
}

TEST_F(EnsembleBitwise, MembersMatchSoloConventional) {
  // DP-PHY and MIX-PHY, through two radiation calls.
  for (const auto ns : {precision::NsMode::kDouble, precision::NsMode::kSingle}) {
    expectMembersMatchSolo(baseConfig(ns, PhysicsScheme::kConventional), 4);
  }
}

TEST_F(EnsembleBitwise, MembersMatchSoloHeldSuarez) {
  for (const auto ns : {precision::NsMode::kDouble, precision::NsMode::kSingle}) {
    expectMembersMatchSolo(baseConfig(ns, PhysicsScheme::kHeldSuarez), 4);
  }
}

TEST_F(EnsembleBitwise, UnperturbedMembersStayIdenticalAndSpreadIsZero) {
  const ModelConfig mc = mlConfig(precision::NsMode::kDouble);
  dycore::State initial = dycore::initBaroclinicWave(*mesh_, mc.dyn, 3);
  EnsembleConfig ec;
  ec.model = mc;
  ec.members = 4;
  ec.perturb_seed = 0;  // identical members
  EnsembleRunner runner(*mesh_, *trsk_, ec, initial);
  runner.run(kSteps);
  EXPECT_EQ(runner.globalSpread(), 0.0);
  for (int m = 1; m < runner.members(); ++m) {
    EXPECT_EQ(bitDiff(runner.state(m).delp, runner.state(0).delp), 0);
    EXPECT_EQ(bitDiff(runner.state(m).theta, runner.state(0).theta), 0);
    EXPECT_EQ(bitDiff(runner.state(m).u, runner.state(0).u), 0);
  }
  const std::vector<double> spread = runner.spreadSurfacePressure();
  for (const double s : spread) EXPECT_EQ(s, 0.0);
}

TEST_F(EnsembleBitwise, PerturbedMembersDevelopPositiveSpread) {
  const ModelConfig mc = mlConfig(precision::NsMode::kDouble);
  dycore::State initial = dycore::initBaroclinicWave(*mesh_, mc.dyn, 3);
  EnsembleConfig ec;
  ec.model = mc;
  ec.members = 4;
  ec.perturb_seed = 7;
  EnsembleRunner runner(*mesh_, *trsk_, ec, initial);
  // The perturbation lives in theta, so ps spread is zero until dynamics
  // has run; the perturbed members must already differ bitwise though.
  EXPECT_EQ(runner.globalSpread(), 0.0);
  EXPECT_GT(bitDiff(runner.state(0).theta, runner.state(1).theta), 0);
  runner.run(kSteps);
  EXPECT_GT(runner.globalSpread(), 0.0);
  // Distinct member seeds: distinct trajectories.
  EXPECT_GT(bitDiff(runner.state(0).theta, runner.state(1).theta), 0);
}

TEST_F(EnsembleBitwise, MemberSeedsAreDistinctAndStable) {
  EXPECT_EQ(EnsembleRunner::memberSeed(42, 3), EnsembleRunner::memberSeed(42, 3));
  EXPECT_NE(EnsembleRunner::memberSeed(42, 0), EnsembleRunner::memberSeed(42, 1));
  EXPECT_NE(EnsembleRunner::memberSeed(42, 0), EnsembleRunner::memberSeed(43, 0));
}

TEST_F(EnsembleBitwise, RejectsBadConfigs) {
  const ModelConfig mc = mlConfig(precision::NsMode::kDouble);
  dycore::State initial = dycore::initBaroclinicWave(*mesh_, mc.dyn, 3);
  {
    EnsembleConfig ec;
    ec.model = mc;
    ec.members = 0;
    EXPECT_THROW(EnsembleRunner(*mesh_, *trsk_, ec, initial),
                 std::invalid_argument);
  }
  {
    EnsembleConfig ec;
    ec.model = mc;
    ec.model.q1q2 = nullptr;  // ML scheme without networks
    ec.members = 2;
    EXPECT_THROW(EnsembleRunner(*mesh_, *trsk_, ec, initial),
                 std::invalid_argument);
  }
}

} // namespace
} // namespace grist::core

// Golden fingerprints of the step's bits. A storage or kernel rewrite that
// is meant to be bitwise (a vectorized sweep, a narrower scratch type, a
// fused loop) must leave these numbers unchanged; a change that moves a
// single bit of any prognostic, tracer or the tracer mass-flux window moves
// the fingerprint. The values were recorded while every dycore intermediate
// was still stored in double, so they also pin MIX's float storage of its
// NS intermediates to the double-storage bits.
//
// The fingerprint is 64-bit FNV-1a over the raw bytes, so it holds on any
// host whose libm returns the same pow/exp/log bits (x86-64 glibc); the
// SIMD tier does not matter (every tier is bitwise the Host backend), nor
// does the OpenMP thread count (every sweep is per entity).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "grist/common/hash.hpp"
#include "grist/core/model.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"

namespace grist::core {
namespace {

using precision::NsMode;

std::uint64_t hashField(const parallel::Field& f, std::uint64_t h) {
  return common::fnv1a(f.data(), f.size() * sizeof(double), h);
}

/// Every prognostic, every tracer, then the mass-flux window.
std::uint64_t stateHash(const dycore::State& s, const parallel::Field& acc,
                        std::uint64_t h = common::kFnvOffsetBasis) {
  for (const parallel::Field* f : {&s.delp, &s.u, &s.w, &s.theta, &s.phi}) {
    h = hashField(*f, h);
  }
  for (const parallel::Field& q : s.tracers) h = hashField(q, h);
  return hashField(acc, h);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class StepGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new grid::HexMesh(grid::buildHexMesh(3));  // 642 cells
    trsk_ = new grid::TrskWeights(grid::buildTrskWeights(*mesh_));
  }
  static void TearDownTestSuite() {
    delete trsk_;
    trsk_ = nullptr;
    delete mesh_;
    mesh_ = nullptr;
  }

  /// A G3 nlev-20 baroclinic wave through 12 bare Dycore steps.
  static std::uint64_t dycoreRun(NsMode ns) {
    dycore::DycoreConfig cfg;
    cfg.nlev = 20;
    cfg.ns = ns;
    dycore::State state = dycore::initBaroclinicWave(*mesh_, cfg, 2);
    dycore::Dycore dy(*mesh_, *trsk_, cfg);
    for (int i = 0; i < 12; ++i) dy.step(state);
    return stateHash(state, dy.accumulatedMassFlux());
  }

  static grid::HexMesh* mesh_;
  static grid::TrskWeights* trsk_;
};
grid::HexMesh* StepGolden::mesh_ = nullptr;
grid::TrskWeights* StepGolden::trsk_ = nullptr;

TEST_F(StepGolden, DycoreDpTwelveSteps) {
  EXPECT_EQ(hex(dycoreRun(NsMode::kDouble)), "0x91a7255222ff0713");
}

TEST_F(StepGolden, DycoreMixTwelveSteps) {
  EXPECT_EQ(hex(dycoreRun(NsMode::kSingle)), "0x2b4036c873132bc4");
}

/// A G3 nlev-10 baroclinic-wave PHY Model in `ns` with 3 tracers and
/// `members` members (member m's theta shifted by a smooth m-scaled
/// wiggle), through one full lcm(trac, phy) cycle: 12 steps with tracer
/// transport every 4 and physics (radiation on its first call) every 6. The
/// fingerprint chains every step's state and mass-flux window of every
/// member, so the window is pinned mid-accumulation too, not only after its
/// reset.
std::uint64_t phyModelCycle(const grid::HexMesh& mesh,
                            const grid::TrskWeights& trsk, NsMode ns,
                            int members, const char* scheme) {
  ModelConfig cfg;
  cfg.dyn.nlev = 10;
  cfg.dyn.dt = 600.0;
  cfg.dyn.ns = ns;
  cfg.trac_interval = 4;
  cfg.phy_interval = 6;
  std::vector<dycore::State> states;
  for (int m = 0; m < members; ++m) {
    states.push_back(dycore::initBaroclinicWave(mesh, cfg.dyn, 3));
    parallel::Field& theta = states.back().theta;
    for (Index c = 0; c < mesh.ncells; ++c) {
      for (int k = 0; k < cfg.dyn.nlev; ++k) {
        theta(c, k) += 0.01 * m * std::sin(0.3 * c + k);
      }
    }
  }
  Model model(mesh, trsk, cfg, std::move(states));
  EXPECT_STREQ(model.schemeName(), scheme);
  const int cycle = std::lcm(cfg.trac_interval, cfg.phy_interval);
  std::uint64_t h = common::kFnvOffsetBasis;
  for (int i = 0; i < cycle; ++i) {
    model.step();
    for (int m = 0; m < members; ++m) {
      h = stateHash(model.state(m), model.dycore().accumulatedMassFlux(m), h);
    }
  }
  return h;
}

TEST_F(StepGolden, MixPhyModelOneCadenceCycle) {
  EXPECT_EQ(hex(phyModelCycle(*mesh_, *trsk_, NsMode::kSingle, 1, "MIX-PHY")),
            "0x8e5a751989cc5dcb");
}

TEST_F(StepGolden, DpPhyModelOneCadenceCycle) {
  EXPECT_EQ(hex(phyModelCycle(*mesh_, *trsk_, NsMode::kDouble, 1, "DP-PHY")),
            "0xaf7ac8d40456fa96");
}

// Two members through one Model: pins the coupler serving member after
// member and the in-place division of each member's flux window.
TEST_F(StepGolden, MixPhyTwoMemberModelOneCadenceCycle) {
  EXPECT_EQ(hex(phyModelCycle(*mesh_, *trsk_, NsMode::kSingle, 2, "MIX-PHY")),
            "0x57d477218ee38d64");
}

} // namespace
} // namespace grist::core

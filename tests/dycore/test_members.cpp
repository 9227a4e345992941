// One Dycore stepping M member states must leave each member bitwise where
// a solo (M = 1) Dycore leaves it: the shared scratch, the per-member flux
// accumulators and the member-lane implicit solve are all state-invisible.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "grist/dycore/dycore.hpp"
#include "grist/dycore/init.hpp"

namespace grist::dycore {
namespace {

long bitDiff(const parallel::Field& a, const parallel::Field& b) {
  if (a.size() != b.size()) return static_cast<long>(a.size() + b.size());
  long n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) ++n;
  }
  return n;
}

class DycoreMembers : public ::testing::TestWithParam<precision::NsMode> {};

TEST_P(DycoreMembers, ThreeMemberStepsEqualSoloSteps) {
  constexpr int kMembers = 3;
  constexpr int kSteps = 3;
  const grid::HexMesh mesh = grid::buildHexMesh(3);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  DycoreConfig cfg;
  cfg.nlev = 10;
  cfg.ns = GetParam();
  const State initial = initBaroclinicWave(mesh, cfg, 1);

  // Distinct members: member m's theta is nudged by a member-dependent
  // pattern (member 0 is the unperturbed state).
  std::vector<State> members(kMembers, initial);
  for (int m = 0; m < kMembers; ++m) {
    double* theta = members[m].theta.data();
    for (std::size_t i = 0; i < members[m].theta.size(); ++i) {
      theta[i] += 1e-2 * m * std::sin(0.37 * static_cast<double>(i) + m);
    }
  }
  std::vector<State> solo = members;

  Dycore batched(mesh, trsk, cfg, kMembers);
  ASSERT_EQ(batched.members(), kMembers);
  batched.resetAccumulatedFlux();
  std::vector<State*> ptrs;
  for (State& s : members) ptrs.push_back(&s);
  for (int step = 0; step < kSteps; ++step) batched.step(ptrs.data());
  EXPECT_EQ(batched.accumulatedSteps(), kSteps);

  for (int m = 0; m < kMembers; ++m) {
    SCOPED_TRACE("member " + std::to_string(m));
    Dycore one(mesh, trsk, cfg);
    one.resetAccumulatedFlux();
    for (int step = 0; step < kSteps; ++step) one.step(solo[m]);
    EXPECT_EQ(bitDiff(members[m].delp, solo[m].delp), 0);
    EXPECT_EQ(bitDiff(members[m].theta, solo[m].theta), 0);
    EXPECT_EQ(bitDiff(members[m].u, solo[m].u), 0);
    EXPECT_EQ(bitDiff(members[m].w, solo[m].w), 0);
    EXPECT_EQ(bitDiff(members[m].phi, solo[m].phi), 0);
    EXPECT_EQ(bitDiff(batched.accumulatedMassFlux(m),
                      one.accumulatedMassFlux()), 0);
  }
  // The perturbation must actually separate the members.
  EXPECT_GT(bitDiff(members[0].theta, members[1].theta), 0);
}

INSTANTIATE_TEST_SUITE_P(Precisions, DycoreMembers,
                         ::testing::Values(precision::NsMode::kDouble,
                                           precision::NsMode::kSingle));

TEST(DycoreMembersConfig, SoloStepFormsNeedOneMember) {
  const grid::HexMesh mesh = grid::buildHexMesh(2);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  DycoreConfig cfg;
  cfg.nlev = 6;
  EXPECT_THROW(Dycore(mesh, trsk, cfg, 0), std::invalid_argument);
  Dycore two(mesh, trsk, cfg, 2);
  State state = initRestState(mesh, cfg);
  EXPECT_THROW(two.step(state), std::logic_error);
}

} // namespace
} // namespace grist::dycore

#include "grist/dycore/vertical_remap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/dycore/init.hpp"

namespace grist::dycore {
namespace {

class RemapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(2);
    cfg_.nlev = 12;
    cfg_.dt = 600.0;
  }
  grid::HexMesh mesh_;
  DycoreConfig cfg_;
};

TEST_F(RemapTest, UniformLevelsAreFixedPoint) {
  State state = initBaroclinicWave(mesh_, cfg_);
  const State before = state;
  verticalRemap(mesh_.ncells, cfg_.nlev, cfg_.ptop, state);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    for (int k = 0; k < cfg_.nlev; ++k) {
      EXPECT_DOUBLE_EQ(state.delp(c, k), before.delp(c, k));
      EXPECT_DOUBLE_EQ(state.theta(c, k), before.theta(c, k));
    }
  }
}

TEST_F(RemapTest, RestoresUniformLayersAndConservesMass) {
  State state = initBaroclinicWave(mesh_, cfg_);
  // Distort the layer distribution within fixed column mass.
  for (Index c = 0; c < mesh_.ncells; ++c) {
    const double shift = 0.3 * state.delp(c, 0);
    state.delp(c, 0) -= shift;
    state.delp(c, 1) += shift;
  }
  const double mass0 = totalDryMass(mesh_, state);
  const double theta0 = totalThetaMass(mesh_, state);
  const double qmass0 = totalTracerMass(mesh_, state, 0);

  verticalRemap(mesh_.ncells, cfg_.nlev, cfg_.ptop, state);

  EXPECT_NEAR(totalDryMass(mesh_, state) / mass0, 1.0, 1e-13);
  EXPECT_NEAR(totalThetaMass(mesh_, state) / theta0, 1.0, 1e-12);
  EXPECT_NEAR(totalTracerMass(mesh_, state, 0) / qmass0, 1.0, 1e-12);
  // Layers are uniform again.
  for (Index c = 0; c < mesh_.ncells; ++c) {
    for (int k = 1; k < cfg_.nlev; ++k) {
      EXPECT_NEAR(state.delp(c, k), state.delp(c, 0), 1e-9);
    }
  }
}

TEST_F(RemapTest, MonotoneProfilesStayMonotone) {
  // First-order conservative remap cannot create new extrema.
  State state = initBaroclinicWave(mesh_, cfg_);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    for (int k = 0; k < cfg_.nlev; ++k) {
      state.delp(c, k) *= 1.0 + 0.3 * std::sin(0.7 * k + 0.01 * c);
    }
  }
  State before = state;
  verticalRemap(mesh_.ncells, cfg_.nlev, cfg_.ptop, state);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    double old_min = before.theta(c, 0), old_max = before.theta(c, 0);
    for (int k = 1; k < cfg_.nlev; ++k) {
      old_min = std::min(old_min, before.theta(c, k));
      old_max = std::max(old_max, before.theta(c, k));
    }
    for (int k = 0; k < cfg_.nlev; ++k) {
      EXPECT_GE(state.theta(c, k), old_min - 1e-9);
      EXPECT_LE(state.theta(c, k), old_max + 1e-9);
    }
  }
}

TEST_F(RemapTest, PhiRebuiltHydrostaticallyDecreasingUpward) {
  State state = initBaroclinicWave(mesh_, cfg_);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    const double shift = 0.4 * state.delp(c, 3);
    state.delp(c, 3) -= shift;
    state.delp(c, 7) += shift;
  }
  verticalRemap(mesh_.ncells, cfg_.nlev, cfg_.ptop, state);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    EXPECT_NEAR(state.phi(c, cfg_.nlev), 0.0, 1e-9);  // surface anchored
    for (int k = 0; k < cfg_.nlev; ++k) {
      EXPECT_GT(state.phi(c, k), state.phi(c, k + 1));
    }
  }
}

TEST_F(RemapTest, DrainedLayerRecovers) {
  // The production scenario: one Lagrangian layer nearly drained.
  State state = initBaroclinicWave(mesh_, cfg_);
  const Index c = 17;
  const double stolen = 0.95 * state.delp(c, 0);
  state.delp(c, 0) -= stolen;
  state.delp(c, 1) += stolen;
  verticalRemap(mesh_.ncells, cfg_.nlev, cfg_.ptop, state);
  EXPECT_NEAR(state.delp(c, 0), state.delp(c, 5), 1e-9);
  for (int k = 0; k < cfg_.nlev; ++k) {
    EXPECT_GT(state.delp(c, k), 0.0);
    EXPECT_TRUE(std::isfinite(state.theta(c, k)));
  }
}

/// The remap of theta, the tracers and w as it was before each target
/// resumed the search where the previous one stopped: every target sweeps
/// the old layers from the top, O(nlev^2) per column.
void referenceRemap(Index ncells, int nlev, double ptop, State& state) {
  std::vector<double> pi_old(nlev + 1), pi_new(nlev + 1), column(nlev), remapped(nlev),
      w_old(nlev + 1);
  const auto remap_scalar = [&](const double* values, double* out) {
    for (int j = 0; j < nlev; ++j) {
      const double lo = pi_new[j], hi = pi_new[j + 1];
      double mass = 0.0;
      for (int k = 0; k < nlev; ++k) {
        const double olo = pi_old[k], ohi = pi_old[k + 1];
        const double overlap = std::min(hi, ohi) - std::max(lo, olo);
        if (overlap > 0) mass += overlap * values[k];
        if (olo >= hi) break;
      }
      out[j] = mass / (hi - lo);
    }
  };
  for (Index c = 0; c < ncells; ++c) {
    pi_old[0] = pi_new[0] = ptop;
    for (int k = 0; k < nlev; ++k) pi_old[k + 1] = pi_old[k] + state.delp(c, k);
    const double ps = pi_old[nlev];
    const double dpi = (ps - ptop) / nlev;
    for (int k = 0; k < nlev; ++k) pi_new[k + 1] = ptop + (k + 1) * dpi;
    double drift = 0.0;
    for (int k = 0; k <= nlev; ++k) drift = std::max(drift, std::abs(pi_old[k] - pi_new[k]));
    if (drift < 1e-7 * ps) continue;
    const auto remap_field = [&](parallel::Field& f) {
      for (int k = 0; k < nlev; ++k) column[k] = f(c, k);
      remap_scalar(column.data(), remapped.data());
      for (int k = 0; k < nlev; ++k) f(c, k) = remapped[k];
    };
    remap_field(state.theta);
    for (parallel::Field& t : state.tracers) remap_field(t);
    for (int k = 0; k <= nlev; ++k) w_old[k] = state.w(c, k);
    for (int k = 1; k < nlev; ++k) {
      const double target = pi_new[k];
      int j = 1;
      while (j < nlev && pi_old[j] < target) ++j;
      const double t =
          (target - pi_old[j - 1]) / std::max(1e-12, pi_old[j] - pi_old[j - 1]);
      state.w(c, k) = (1.0 - t) * w_old[j - 1] + t * w_old[j];
    }
  }
}

bool sameBits(const parallel::Field& a, const parallel::Field& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_F(RemapTest, MatchesFullSweepReferenceBitwise) {
  // Skewed columns, by cell: many thin layers near the top over one thick
  // bottom layer; merged pairs whose old interfaces land exactly on new
  // ones, with zero-thickness layers between; a thick top layer over thin
  // ones; and the sinusoidal distortion of the other tests.
  const int nlev = 30;
  cfg_.nlev = nlev;
  State state = initBaroclinicWave(mesh_, cfg_, 3);
  for (Index c = 0; c < mesh_.ncells; ++c) {
    double mass = 0.0;
    for (int k = 0; k < nlev; ++k) mass += state.delp(c, k);
    switch (c % 4) {
      case 0:
        for (int k = 0; k + 1 < nlev; ++k) state.delp(c, k) = 1e-3 * (k + 1);
        state.delp(c, nlev - 1) = mass - 1e-3 * (nlev - 1) * nlev / 2;
        break;
      case 1:  // exact binary values: the interfaces sum without rounding
        for (int k = 0; k < nlev; ++k) state.delp(c, k) = k % 2 == 0 ? 8192.0 : 0.0;
        break;
      case 2:
        state.delp(c, 0) = 0.5 * mass;
        for (int k = 1; k < nlev; ++k) state.delp(c, k) = 0.5 * mass / (nlev - 1);
        break;
      default:
        for (int k = 0; k < nlev; ++k) state.delp(c, k) *= 1.0 + 0.3 * std::sin(0.7 * k + 0.01 * c);
    }
    for (int k = 0; k <= nlev; ++k) state.w(c, k) = std::sin(0.3 * k + 0.01 * c);
    for (std::size_t t = 0; t < state.tracers.size(); ++t) {
      for (int k = 0; k < nlev; ++k) state.tracers[t](c, k) = std::cos(0.2 * k * (t + 1) + c);
    }
  }
  State want = state;
  verticalRemap(mesh_.ncells, nlev, cfg_.ptop, state);
  referenceRemap(mesh_.ncells, nlev, cfg_.ptop, want);
  EXPECT_TRUE(sameBits(state.theta, want.theta));
  ASSERT_EQ(state.tracers.size(), want.tracers.size());
  for (std::size_t t = 0; t < state.tracers.size(); ++t) {
    EXPECT_TRUE(sameBits(state.tracers[t], want.tracers[t])) << "tracer " << t;
  }
  EXPECT_TRUE(sameBits(state.w, want.w));
}

} // namespace
} // namespace grist::dycore

#include "grist/physics/radiation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "grist/common/math.hpp"
#include "grist/ml/traindata.hpp"

namespace grist::physics {
namespace {

PhysicsInput testColumns(Index n) {
  // Scenario-conditioned synthetic columns give physically plausible states.
  const auto scenarios = ml::table1Scenarios();
  return ml::synthesizeColumns(scenarios[0], n, 20);
}

TEST(Radiation, DaytimeSurfaceShortwavePositive) {
  PhysicsInput in = testColumns(16);
  for (Index c = 0; c < in.ncolumns; ++c) in.coszr[c] = 0.8;
  PhysicsOutput out(in.ncolumns, in.nlev);
  Radiation rad;
  rad.run(in, out);
  for (Index c = 0; c < in.ncolumns; ++c) {
    EXPECT_GT(out.gsw[c], 50.0);
    EXPECT_LT(out.gsw[c], 1361.0);
  }
}

TEST(Radiation, NighttimeShortwaveZero) {
  PhysicsInput in = testColumns(8);
  for (Index c = 0; c < in.ncolumns; ++c) in.coszr[c] = 0.0;
  PhysicsOutput out(in.ncolumns, in.nlev);
  Radiation rad;
  rad.run(in, out);
  for (Index c = 0; c < in.ncolumns; ++c) EXPECT_DOUBLE_EQ(out.gsw[c], 0.0);
}

TEST(Radiation, DownwardLongwaveInPlausibleRange) {
  PhysicsInput in = testColumns(16);
  PhysicsOutput out(in.ncolumns, in.nlev);
  Radiation rad;
  rad.run(in, out);
  for (Index c = 0; c < in.ncolumns; ++c) {
    EXPECT_GT(out.glw[c], 100.0);   // clear cold sky lower bound
    EXPECT_LT(out.glw[c], 550.0);   // warm moist upper bound
  }
}

TEST(Radiation, MoreVaporMoreGreenhouse) {
  PhysicsInput dry = testColumns(8);
  PhysicsInput wet = dry;
  for (Index c = 0; c < wet.ncolumns; ++c) {
    for (int k = 0; k < wet.nlev; ++k) wet.qv(c, k) *= 2.0;
  }
  PhysicsOutput out_dry(dry.ncolumns, dry.nlev), out_wet(wet.ncolumns, wet.nlev);
  Radiation rad;
  rad.run(dry, out_dry);
  rad.run(wet, out_wet);
  for (Index c = 0; c < dry.ncolumns; ++c) EXPECT_GT(out_wet.glw[c], out_dry.glw[c]);
}

TEST(Radiation, NighttimeColumnCoolsOnAverage) {
  PhysicsInput in = testColumns(8);
  for (Index c = 0; c < in.ncolumns; ++c) in.coszr[c] = 0.0;
  PhysicsOutput out(in.ncolumns, in.nlev);
  Radiation rad;
  rad.run(in, out);
  for (Index c = 0; c < in.ncolumns; ++c) {
    // Tropospheric mean only: the stratospheric layers carry the ozone
    // stand-in relaxation, which can be weakly warming.
    double mean = 0;
    int count = 0;
    for (int k = 0; k < in.nlev; ++k) {
      if (in.pmid(c, k) < 2.0e4) continue;
      mean += out.dtdt(c, k);
      ++count;
    }
    mean /= count;
    EXPECT_LT(mean, 0.0);                 // longwave cooling
    EXPECT_GT(mean, -50.0 / 86400.0);     // but < 50 K/day
  }
}

/// The radiation scheme as it was before its LW sweep shared T^4 and the
/// band emissivity between sweeps: every value recomputed in each sweep of
/// each band. The band spectra are built as Radiation's constructor builds
/// them.
void referenceRun(const RadiationConfig& config, const PhysicsInput& in,
                  PhysicsOutput& out) {
  using constants::kCp;
  using constants::kGravity;
  constexpr double kSigmaSB = 5.670374e-8;
  const auto fill = [](int n, double lo, double hi) {
    std::vector<double> v(n);
    for (int b = 0; b < n; ++b) {
      const double frac = n == 1 ? 0.0 : static_cast<double>(b) / (n - 1);
      v[b] = lo * std::pow(hi / lo, frac);
    }
    return v;
  };
  const std::vector<double> sw_k_gas = fill(config.sw_bands, 3e-7, 3e-6);
  const std::vector<double> sw_k_vap = fill(config.sw_bands, 2e-4, 1.5e-3);
  const std::vector<double> sw_k_cld = fill(config.sw_bands, 0.1, 0.5);
  const std::vector<double> lw_k_gas = fill(config.lw_bands, 1e-6, 4e-5);
  const std::vector<double> lw_k_vap = fill(config.lw_bands, 1e-4, 1e-2);
  const std::vector<double> lw_k_cld = fill(config.lw_bands, 0.5, 2.0);
  const std::vector<double> sw_weight(config.sw_bands, 1.0 / config.sw_bands);
  const std::vector<double> lw_weight(config.lw_bands, 1.0 / config.lw_bands);
  const int nlev = in.nlev;
  for (Index c = 0; c < in.ncolumns; ++c) {
    double heating[128 + 1] = {};
    double gsw = 0.0;
    const double mu = in.coszr[c];
    if (mu > 1e-4) {
      for (int b = 0; b < config.sw_bands; ++b) {
        double beam = config.solar_constant * mu * sw_weight[b];
        for (int k = 0; k < nlev; ++k) {
          const double dp = in.delp(c, k);
          const double tau = (sw_k_gas[b] * dp + sw_k_vap[b] * in.qv(c, k) * dp +
                              sw_k_cld[b] * in.qc(c, k) * dp);
          const double trans = std::exp(-tau / mu);
          const double absorbed = beam * (1.0 - trans);
          heating[k] += kGravity * absorbed / (kCp * dp);
          beam -= absorbed;
          if (beam < 1e-10) {
            beam = 0.0;
            break;
          }
        }
        gsw += beam * (1.0 - in.albedo[c]);
      }
    }
    out.gsw[c] = gsw;

    double glw = 0.0;
    for (int b = 0; b < config.lw_bands; ++b) {
      double down[128 + 1];
      down[0] = 0.0;
      for (int k = 0; k < nlev; ++k) {
        const double dp = in.delp(c, k);
        const double tau = lw_k_gas[b] * dp + lw_k_vap[b] * in.qv(c, k) * dp +
                           lw_k_cld[b] * in.qc(c, k) * dp;
        const double eps = 1.0 - std::exp(-tau);
        const double t4 = std::pow(in.t(c, k), 4.0);
        down[k + 1] = down[k] * (1.0 - eps) + eps * kSigmaSB * t4;
      }
      glw += lw_weight[b] * down[nlev];
      double up[128 + 1];
      up[nlev] = kSigmaSB * std::pow(in.tskin[c], 4.0);
      for (int k = nlev - 1; k >= 0; --k) {
        const double dp = in.delp(c, k);
        const double tau = lw_k_gas[b] * dp + lw_k_vap[b] * in.qv(c, k) * dp +
                           lw_k_cld[b] * in.qc(c, k) * dp;
        const double eps = 1.0 - std::exp(-tau);
        const double t4 = std::pow(in.t(c, k), 4.0);
        up[k] = up[k + 1] * (1.0 - eps) + eps * kSigmaSB * t4;
      }
      for (int k = 0; k < nlev; ++k) {
        const double net_top = up[k] - down[k];
        const double net_bot = up[k + 1] - down[k + 1];
        heating[k] +=
            lw_weight[b] * kGravity * (net_bot - net_top) / (kCp * in.delp(c, k));
      }
    }
    out.glw[c] = glw;

    const double cap = config.heating_cap_kday / 86400.0;
    for (int k = 0; k < nlev; ++k) {
      double h = std::min(cap, std::max(-cap, heating[k]));
      if (in.pmid(c, k) < config.strat_pressure) {
        h += (config.strat_t - in.t(c, k)) / config.strat_tau;
      }
      out.dtdt(c, k) += h;
    }
  }
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Radiation, MatchesPerBandRecomputationBitwise) {
  // Day columns (including a grazing sun that extinguishes bands early)
  // and night columns, on a shallow and the deepest supported column.
  for (const int nlev : {20, 128}) {
    const auto scenarios = ml::table1Scenarios();
    PhysicsInput in = ml::synthesizeColumns(scenarios[0], 24, nlev);
    const double mus[] = {0.0, 0.9, 0.35, 2e-4, 0.0, 0.05};
    for (Index c = 0; c < in.ncolumns; ++c) in.coszr[c] = mus[c % 6];
    PhysicsOutput got(in.ncolumns, in.nlev), want(in.ncolumns, in.nlev);
    for (Index c = 0; c < in.ncolumns; ++c) {
      for (int k = 0; k < nlev; ++k) got.dtdt(c, k) = want.dtdt(c, k) = 1e-5 * k;
    }
    const RadiationConfig config;
    Radiation(config).run(in, got);
    referenceRun(config, in, want);
    EXPECT_TRUE(sameBits(got.gsw, want.gsw)) << "gsw at nlev " << nlev;
    EXPECT_TRUE(sameBits(got.glw, want.glw)) << "glw at nlev " << nlev;
    EXPECT_EQ(std::memcmp(got.dtdt.data(), want.dtdt.data(),
                          got.dtdt.size() * sizeof(double)),
              0)
        << "dtdt at nlev " << nlev;
  }
}

TEST(Radiation, RefusesColumnsDeeperThanItsStackArrays) {
  const auto scenarios = ml::table1Scenarios();
  const PhysicsInput in = ml::synthesizeColumns(scenarios[0], 2, 129);
  PhysicsOutput out(in.ncolumns, in.nlev);
  EXPECT_THROW(Radiation().run(in, out), std::invalid_argument);
}

TEST(Radiation, FlopsEstimateScalesWithBandsAndLevels) {
  Radiation rad;
  EXPECT_GT(rad.flopsPerColumn(60), rad.flopsPerColumn(30) * 1.9);
}

} // namespace
} // namespace grist::physics

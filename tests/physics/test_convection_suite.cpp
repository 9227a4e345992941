#include <gtest/gtest.h>

#include <cstring>

#include "grist/ml/traindata.hpp"
#include "grist/physics/convection.hpp"
#include "grist/physics/saturation.hpp"
#include "grist/physics/suite.hpp"

namespace grist::physics {
namespace {

PhysicsInput unstableColumns(Index n) {
  PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], n, 20);
  // Make the boundary layer hot and very moist (conditionally unstable).
  for (Index c = 0; c < n; ++c) {
    for (int k = in.nlev - 4; k < in.nlev; ++k) {
      in.t(c, k) += 4.0;
      in.qv(c, k) = 0.95 * saturationMixingRatio(in.t(c, k), in.pmid(c, k));
    }
  }
  return in;
}

TEST(Convection, ScaleAwareSwitch) {
  Convection conv;
  EXPECT_TRUE(conv.activeAt(100e3));   // G6-like spacing
  EXPECT_TRUE(conv.activeAt(25e3));    // G8-like spacing
  EXPECT_FALSE(conv.activeAt(3e3));    // storm-resolving
  EXPECT_FALSE(conv.activeAt(1.5e3));
}

TEST(Convection, UnstableColumnRainsAndStabilizes) {
  PhysicsInput in = unstableColumns(6);
  PhysicsOutput out(in.ncolumns, in.nlev);
  Convection conv;
  conv.run(in, 600.0, /*grid_dx=*/100e3, out);
  int raining = 0;
  for (Index c = 0; c < in.ncolumns; ++c) {
    if (out.precip[c] > 0.0) ++raining;
  }
  EXPECT_GT(raining, 0);
  // Moisture sink where precip forms.
  for (Index c = 0; c < in.ncolumns; ++c) {
    if (out.precip[c] <= 0.0) continue;
    double column_dq = 0.0;
    for (int k = 0; k < in.nlev; ++k) column_dq += out.dqvdt(c, k) * in.delp(c, k);
    EXPECT_LT(column_dq, 0.0);
  }
}

TEST(Convection, InactiveAtStormResolvingScale) {
  PhysicsInput in = unstableColumns(4);
  PhysicsOutput out(in.ncolumns, in.nlev);
  Convection conv;
  conv.run(in, 600.0, /*grid_dx=*/2e3, out);
  for (Index c = 0; c < in.ncolumns; ++c) EXPECT_DOUBLE_EQ(out.precip[c], 0.0);
}

TEST(ConventionalSuite, FullChainProducesFiniteTendencies) {
  PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[3], 12, 20);
  ConventionalSuite suite(in.ncolumns, in.nlev);
  PhysicsOutput out(in.ncolumns, in.nlev);
  suite.run(in, 600.0, out);
  for (Index c = 0; c < in.ncolumns; ++c) {
    EXPECT_GE(out.precip[c], 0.0);
    EXPECT_GE(out.gsw[c], 0.0);
    EXPECT_GT(out.glw[c], 0.0);
    for (int k = 0; k < in.nlev; ++k) {
      ASSERT_TRUE(std::isfinite(out.dtdt(c, k)));
      ASSERT_TRUE(std::isfinite(out.dqvdt(c, k)));
      ASSERT_TRUE(std::isfinite(out.dudt(c, k)));
      // Tendencies bounded by ~100 K/day equivalents.
      ASSERT_LT(std::abs(out.dtdt(c, k)), 100.0 / 86400.0 * 50.0);
    }
  }
}

TEST(ConventionalSuite, RadiationCacheReusedBetweenCalls) {
  PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], 8, 20);
  ConventionalSuiteConfig cfg;
  cfg.radiation_interval = 3;
  ConventionalSuite suite(in.ncolumns, in.nlev, cfg);
  PhysicsOutput out1(in.ncolumns, in.nlev), out2(in.ncolumns, in.nlev);
  suite.run(in, 600.0, out1);  // radiation fires
  suite.run(in, 600.0, out2);  // cached
  for (Index c = 0; c < in.ncolumns; ++c) {
    EXPECT_DOUBLE_EQ(out1.gsw[c], out2.gsw[c]);
    EXPECT_DOUBLE_EQ(out1.glw[c], out2.glw[c]);
  }
}

TEST(ConventionalSuite, SuccessiveRadiationCallsAreBitwiseIdentical) {
  // Radiation accumulates into its output buffer, which the suite keeps
  // across calls: each firing must start from zero. Same input -> the same
  // bits, except tskin_new, which the land model's soil state moves.
  PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], 8, 20);
  ConventionalSuiteConfig cfg;
  cfg.radiation_interval = 1;
  ConventionalSuite suite(in.ncolumns, in.nlev, cfg);
  PhysicsOutput out1(in.ncolumns, in.nlev), out2(in.ncolumns, in.nlev);
  suite.run(in, 600.0, out1);
  suite.run(in, 600.0, out2);
  const auto same = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  const auto sameField = [](const Field& a, const Field& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(sameField(out1.dtdt, out2.dtdt));
  EXPECT_TRUE(sameField(out1.dqvdt, out2.dqvdt));
  EXPECT_TRUE(sameField(out1.dqcdt, out2.dqcdt));
  EXPECT_TRUE(sameField(out1.dqrdt, out2.dqrdt));
  EXPECT_TRUE(sameField(out1.dudt, out2.dudt));
  EXPECT_TRUE(sameField(out1.dvdt, out2.dvdt));
  EXPECT_TRUE(same(out1.gsw, out2.gsw));
  EXPECT_TRUE(same(out1.glw, out2.glw));
  EXPECT_TRUE(same(out1.precip, out2.precip));
}

TEST(DeriveQ1Q2, SignConventions) {
  PhysicsOutput out(2, 4);
  out.dtdt(0, 1) = 2e-4;    // heating
  out.dqvdt(0, 1) = -1e-7;  // drying
  parallel::Field q1, q2;
  deriveQ1Q2(out, q1, q2);
  EXPECT_DOUBLE_EQ(q1(0, 1), 2e-4);
  EXPECT_GT(q2(0, 1), 0.0);  // drying = positive apparent moisture sink
}

} // namespace
} // namespace grist::physics

// Mesh-numbering equivariance: buildHexMesh picks the BFS numbering for
// memory locality only. Every kernel reads its neighbours through the mesh's
// ring and stencil order, which a relabeling carries over unchanged, so a run
// on a randomly relabeled copy of the mesh must be the same run with its
// entities renamed -- bitwise, not within a tolerance.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "grist/core/model.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/reorder.hpp"

namespace grist::core {
namespace {

constexpr std::uint64_t kRelabelSeed = 0x5eed2025;

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Entries of `a` (on the built mesh) whose bits differ from `b` (on the
/// relabeled mesh), where entity i of `a` is entity perm[i] of `b`.
long mappedBitDiff(const parallel::Field& a, const parallel::Field& b,
                   const std::vector<Index>& perm) {
  if (a.entities() != b.entities() || a.components() != b.components()) {
    return static_cast<long>(a.size() + b.size());
  }
  long n = 0;
  for (Index i = 0; i < a.entities(); ++i) {
    for (int k = 0; k < a.components(); ++k) {
      if (!sameBits(a(i, k), b(perm[i], k))) ++n;
    }
  }
  return n;
}

long mappedBitDiff(const std::vector<double>& a, const std::vector<double>& b,
                   const std::vector<Index>& perm) {
  if (a.size() != b.size()) return static_cast<long>(a.size() + b.size());
  long n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sameBits(a[i], b[perm[i]])) ++n;
  }
  return n;
}

void expectStatesEquivariant(const dycore::State& a, const dycore::State& b,
                             const grid::Permutation& p) {
  EXPECT_EQ(mappedBitDiff(a.delp, b.delp, p.cell), 0) << "delp";
  EXPECT_EQ(mappedBitDiff(a.u, b.u, p.edge), 0) << "u";
  EXPECT_EQ(mappedBitDiff(a.w, b.w, p.cell), 0) << "w";
  EXPECT_EQ(mappedBitDiff(a.theta, b.theta, p.cell), 0) << "theta";
  EXPECT_EQ(mappedBitDiff(a.phi, b.phi, p.cell), 0) << "phi";
  ASSERT_EQ(a.tracers.size(), b.tracers.size());
  for (std::size_t t = 0; t < a.tracers.size(); ++t) {
    EXPECT_EQ(mappedBitDiff(a.tracers[t], b.tracers[t], p.cell), 0)
        << "tracer " << t;
  }
}

struct MeshPair {
  grid::HexMesh built = grid::buildHexMesh(3);
  grid::Permutation perm = grid::randomPermutation(built, kRelabelSeed);
  grid::HexMesh relabeled = grid::applyPermutation(built, perm);
  grid::TrskWeights built_trsk = grid::buildTrskWeights(built);
  grid::TrskWeights relabeled_trsk = grid::buildTrskWeights(relabeled);
};

class NumberingEquivariance : public ::testing::TestWithParam<precision::NsMode> {};

TEST_P(NumberingEquivariance, DycoreStepsAreRelabeledSteps) {
  constexpr int kSteps = 6;
  const MeshPair m;
  dycore::DycoreConfig cfg;
  cfg.nlev = 10;
  cfg.ns = GetParam();
  dycore::State a = dycore::initBaroclinicWave(m.built, cfg, 1);
  dycore::State b = dycore::initBaroclinicWave(m.relabeled, cfg, 1);
  {
    SCOPED_TRACE("initial state");
    expectStatesEquivariant(a, b, m.perm);
  }

  dycore::Dycore da(m.built, m.built_trsk, cfg);
  dycore::Dycore db(m.relabeled, m.relabeled_trsk, cfg);
  da.resetAccumulatedFlux();
  db.resetAccumulatedFlux();
  for (int s = 0; s < kSteps; ++s) {
    da.step(a);
    db.step(b);
  }
  SCOPED_TRACE("after " + std::to_string(kSteps) + " steps");
  expectStatesEquivariant(a, b, m.perm);
  EXPECT_EQ(mappedBitDiff(da.accumulatedMassFlux(), db.accumulatedMassFlux(),
                          m.perm.edge),
            0)
      << "accumulated mass flux";
}

INSTANTIATE_TEST_SUITE_P(DpAndMix, NumberingEquivariance,
                         ::testing::Values(precision::NsMode::kDouble,
                                           precision::NsMode::kSingle),
                         [](const auto& info) {
                           return info.param == precision::NsMode::kDouble
                                      ? std::string("Dp")
                                      : std::string("Mix");
                         });

TEST(NumberingEquivarianceModel, DpPhyCadenceCycleIsRelabeledRun) {
  // One full Trac/Phy cadence cycle of the unperturbed solo DP-PHY model,
  // plus half a tracer window so the flux accumulator is mid-window:
  // dynamics, tracer transport, vertical remap, the coupler and column
  // physics all see only relabeled inputs.
  const MeshPair m;
  ModelConfig mc;
  mc.dyn.nlev = 10;
  mc.dyn.dt = 300.0;
  mc.scheme = PhysicsScheme::kConventional;
  ASSERT_EQ(mc.trac_interval, 8);
  ASSERT_EQ(mc.phy_interval, 15);
  const int cycle = 120;  // lcm(8, 15)

  Model a(m.built, m.built_trsk, mc, dycore::initBaroclinicWave(m.built, mc.dyn, 3));
  Model b(m.relabeled, m.relabeled_trsk, mc,
          dycore::initBaroclinicWave(m.relabeled, mc.dyn, 3));
  a.run(cycle + 4);
  b.run(cycle + 4);

  expectStatesEquivariant(a.state(), b.state(), m.perm);
  EXPECT_EQ(mappedBitDiff(a.tskin(), b.tskin(), m.perm.cell), 0) << "tskin";
  EXPECT_EQ(mappedBitDiff(a.accumulatedPrecip(), b.accumulatedPrecip(), m.perm.cell), 0)
      << "precipitation";
  const io::Snapshot sa = a.snapshot();
  const io::Snapshot sb = b.snapshot();
  ASSERT_TRUE(sa.diag && sb.diag);
  EXPECT_EQ(sa.diag->acc_steps, sb.diag->acc_steps);
  const auto field = [&](const std::vector<double>& v, Index n) {
    parallel::Field f(n, mc.dyn.nlev);
    std::memcpy(f.data(), v.data(), v.size() * sizeof(double));
    return f;
  };
  EXPECT_EQ(mappedBitDiff(field(sa.diag->acc_flux, m.built.nedges),
                          field(sb.diag->acc_flux, m.built.nedges), m.perm.edge),
            0)
      << "accumulated mass flux";
  EXPECT_EQ(mappedBitDiff(field(sa.diag->delp_at_tracer_start, m.built.ncells),
                          field(sb.diag->delp_at_tracer_start, m.built.ncells),
                          m.perm.cell),
            0)
      << "tracer-window delp";
}

} // namespace
} // namespace grist::core

// Golden per-kernel cycle-count regression test. The SW26010P simulator is
// fully deterministic, so the warm (steady-state) cycle count of every
// registered kernel in the reference configuration -- 64 CPEs, DP,
// way-aligned allocation, G3 mesh, nlev=10 -- must reproduce EXACTLY. Any
// drift means the shared kernel body, the cost model, or the allocation
// layout changed; update the table only after confirming the change is
// intentional. Regenerate with:
//   GRIST_DUMP_GOLDEN=1 ./test_swgomp --gtest_filter='Fig9Golden.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "grist/grid/trsk.hpp"
#include "grist/swgomp/sim_kernels.hpp"

namespace grist::swgomp {
namespace {

struct GoldenEntry {
  SimKernel kernel;
  double cycles;
};

constexpr GoldenEntry kGolden[] = {
    {SimKernel::kPrimalNormalFluxEdge, 40580.0},
    {SimKernel::kComputeRrr, 268870.0},
    {SimKernel::kCalcCoriolisTerm, 740070.0},
    {SimKernel::kTendGradKeAtEdge, 14300.0},
    {SimKernel::kDivAtCell, 30208.0},
    {SimKernel::kTracerHoriFluxLimiter, 936932.0},
    {SimKernel::kVertImplicitSolver, 46966.0},
    {SimKernel::kFusedEdgeFluxes, 44480.0},
    {SimKernel::kFusedCellDiagnostics, 317003.0},
    {SimKernel::kFusedVertexDiagnostics, 115080.0},
    {SimKernel::kFusedScalarTendencies, 203488.0},
    {SimKernel::kFusedMomentumTendency, 1103970.0},
};

TEST(Fig9Golden, TableCoversEveryRegisteredKernel) {
  const std::vector<SimKernel> all = allSimKernels();
  ASSERT_EQ(all.size(), std::size(kGolden));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], kGolden[i].kernel) << kernelName(all[i]);
  }
}

TEST(Fig9Golden, WarmCpeDpCycleCountsAreStable) {
  const grid::HexMesh mesh = grid::buildHexMesh(3);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  sunway::CoreGroup cg;
  SimConfig cfg;
  cfg.nlev = 10;
  cfg.on_cpe = true;
  cfg.precision = sunway::SimPrecision::kDouble;
  cfg.policy = AllocPolicy::kWayAligned;
  const bool dump = std::getenv("GRIST_DUMP_GOLDEN") != nullptr;
  for (const GoldenEntry& g : kGolden) {
    const double cycles = runSimKernel(g.kernel, mesh, trsk, cfg, cg);
    if (dump) {
      std::printf("GOLDEN %-36s %.1f\n", kernelName(g.kernel), cycles);
    } else {
      EXPECT_EQ(cycles, g.cycles) << kernelName(g.kernel);
    }
  }
}

} // namespace
} // namespace grist::swgomp

// Quickstart: build a grid, initialize a baroclinic-wave state, run the
// coupled model (dynamics + tracer transport + conventional physics) for a
// few simulated hours, and print global diagnostics.
//
//   ./quickstart [grid_level=3] [hours=6]
#include <cstdio>
#include <cstdlib>

#include "grist/core/model.hpp"
#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/counts.hpp"
#include "grist/dycore/dycore.hpp"

int main(int argc, char** argv) {
  using namespace grist;
  const int level = argc > 1 ? std::atoi(argv[1]) : 3;
  const double hours = argc > 2 ? std::atof(argv[2]) : 6.0;

  std::printf("grist-sw quickstart: G%d (%.0f km), %.1f simulated hours\n\n",
              level, grid::nominalSpacingKm(level), hours);

  // 1) Grid + TRSK operator weights.
  const grid::HexMesh mesh = grid::buildHexMesh(level);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  std::printf("grid: %d cells, %d edges, %d vertices (BFS-ordered)\n",
              mesh.ncells, mesh.nedges, mesh.nvertices);

  // 2) Model configuration (DP dycore + conventional physics = "DP-PHY").
  core::ModelConfig cfg;
  cfg.dyn.nlev = 20;
  cfg.dyn.dt = 450.0;
  cfg.dyn.w_damp_tau = 900.0;  // quasi-hydrostatic damping at coarse grids
  cfg.trac_interval = 4;
  cfg.phy_interval = 4;

  // 3) Initial condition and model.
  core::Model model(mesh, trsk, cfg,
                    dycore::initBaroclinicWave(mesh, cfg.dyn, /*ntracers=*/3));
  std::printf("scheme: %s\n\n", model.schemeName());

  const double mass0 = dycore::totalDryMass(mesh, model.state());
  const int nsteps = static_cast<int>(hours * 3600.0 / cfg.dyn.dt);
  const int report = std::max(1, nsteps / 6);
  std::printf("%8s %14s %14s %12s\n", "sim h", "dry mass drift", "kinetic energy",
              "max rain");
  for (int s = 0; s < nsteps; ++s) {
    model.step();
    if ((s + 1) % report == 0) {
      const double mass = dycore::totalDryMass(mesh, model.state());
      const double ke = dycore::totalKineticEnergy(mesh, model.state());
      double rain_max = 0;
      for (const double r : model.meanPrecipRate()) rain_max = std::max(rain_max, r);
      std::printf("%8.1f %14.3e %14.4e %9.2f mm/d\n", model.simSeconds() / 3600.0,
                  mass / mass0 - 1.0, ke, rain_max);
    }
  }
  std::printf("\ndone: %.2f simulated days.\n", model.simDays());
  return 0;
}

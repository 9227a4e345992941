// Fig. 10 reproduction: weak scaling from 128 to 524,288 processes (CGs).
// The grid level rises with the process count so every CG keeps the same
// ~320 cells (the paper keeps vertices per CG fixed and reuses the G12
// timestep everywhere). Two parts:
//   (1) MEASURED: in-process multi-rank runs on this host validate that the
//       real code's communication volume behaves as decomposition predicts;
//   (2) PROJECTED: simulator cost curves + fat-tree model reproduce the
//       paper's efficiency/comm-share series, including the drop at 32,768
//       CGs from fat-tree bandwidth oversubscription.
#include <cstdio>

#include "grist/core/parallel_model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/table.hpp"
#include "scaling_common.hpp"

using namespace grist;

namespace {

void measuredPart() {
  std::printf(
      "-- measured: in-process weak scaling on this host (fixed ~320\n"
      "   cells/rank; communication bytes per rank-step from the real\n"
      "   batched halo exchange) --\n\n");
  io::Table table({"Ranks", "Grid", "Cells/rank", "Comm bytes/rank/step",
                   "Messages/step"});
  // level/rank ladder with cells/rank ~ 320 on meshes this host can hold.
  const std::pair<int, Index> ladder[] = {{3, 2}, {4, 8}, {5, 32}};
  for (const auto& [level, nranks] : ladder) {
    const grid::HexMesh mesh = grid::buildHexMesh(level);
    const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
    dycore::DycoreConfig cfg;
    cfg.nlev = 10;
    cfg.dt = 240.0;
    const dycore::State init = dycore::initBaroclinicWave(mesh, cfg);
    core::ParallelModel model(mesh, trsk, cfg, nranks, init);
    const auto before = model.commStats();
    const int nsteps = 3;
    model.run(nsteps);
    const auto after = model.commStats();
    const double bytes_per_rank_step =
        static_cast<double>(after.bytes - before.bytes) / nsteps / nranks;
    const double msgs_per_step =
        static_cast<double>(after.messages - before.messages) / nsteps;
    table.addRow({std::to_string(nranks),
                  std::string("G").append(std::to_string(level)),
                  std::to_string(mesh.ncells / nranks),
                  io::Table::num(bytes_per_rank_step, 0),
                  io::Table::num(msgs_per_step, 0)});
  }
  table.print();
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("== Fig. 10: weak scaling of the model ==\n\n");
  measuredPart();

  const bench::CalibratedProjector cal = bench::makeCalibratedProjector(true);
  network::SdpdProjector proj(cal.config);

  // The paper's ladder: starting from G6 at 128 CGs, each resolution
  // doubling quadruples the process count; all runs use the G12 timestep
  // (4 s) so cost depends only on the grid count.
  const std::vector<std::pair<int, Index>> ladder = {
      {6, 128},     {7, 512},     {8, 2048},   {9, 8192},
      {10, 32768},  {11, 131072}, {12, 524288}};

  for (const bool use_ml : {false, true}) {
    network::SchemeCost scheme{.mixed_precision = true, .ml_physics = use_ml};
    std::printf("-- projected series: %s --\n", use_ml ? "MIX-ML" : "MIX-PHY");
    const auto points = proj.weakScaling(ladder, 30, 4.0, scheme);
    io::Table table({"Processes", "Grid", "SDPD", "Weak efficiency", "Comm share"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      table.addRow({std::to_string(points[i].ncgs),
                    std::string("G").append(std::to_string(ladder[i].first)),
                    io::Table::num(points[i].sdpd, 1),
                    io::Table::num(points[i].efficiency, 3),
                    io::Table::num(points[i].comm_share, 3)});
    }
    table.print();
    std::printf("\n");
  }

  // Overlap-aware projection: the boundary-first post/wait schedule hides
  // halo latency behind the interior sweep, bounded by the interior share
  // of the dynamics time (at ~16 cells/CG the boundary IS the domain and
  // nothing can hide -- the Fig. 11 strong-scaling plateau).
  {
    network::SchemeCost scheme{.mixed_precision = true, .ml_physics = false};
    network::ProjectorConfig overlap_cfg = cal.config;
    overlap_cfg.overlap_efficiency = 1.0;
    network::SdpdProjector overlap_proj(overlap_cfg);
    std::printf("-- projected series: MIX-PHY, overlapped schedule --\n");
    const auto lock = proj.weakScaling(ladder, 30, 4.0, scheme);
    const auto over = overlap_proj.weakScaling(ladder, 30, 4.0, scheme);
    io::Table table({"Processes", "SDPD lockstep", "SDPD overlap",
                     "Comm share lockstep", "Comm share overlap"});
    for (std::size_t i = 0; i < lock.size(); ++i) {
      table.addRow({std::to_string(lock[i].ncgs),
                    io::Table::num(lock[i].sdpd, 1),
                    io::Table::num(over[i].sdpd, 1),
                    io::Table::num(lock[i].comm_share, 3),
                    io::Table::num(over[i].comm_share, 3)});
    }
    table.print();
    std::printf("\n");
  }

  std::printf(
      "Paper anchors (section 4.7): comm share rises 19%% -> 37%% across the\n"
      "series; a clear scalability drop appears at 32,768 CGs (fat-tree\n"
      "bandwidth oversubscription); MIX-ML outperforms MIX-PHY throughout\n"
      "(ML physics runs dense arithmetic at 74-84%% of peak vs 6%% for RRTMG).\n"
      "The overlapped schedule hides the per-round halo latency behind the\n"
      "interior sweep; the residual comm share is load imbalance plus the\n"
      "unhidable part, which grows as the interior band shrinks.\n");
  return 0;
}

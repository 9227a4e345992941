// Ablation: the BFS index reordering of paper section 3.1.3 ("optimize the
// index sequence using the breadth-first-search method to enhance the cache
// hit rate"). buildHexMesh returns the BFS numbering; the baseline is the
// same mesh under a seeded random relabeling, a numbering with no locality.
// Measured two ways: host wall time of the production dycore kernels, and
// LDCache hit ratio / cycles on the SW26010P simulator.
#include <cstdint>
#include <cstdio>

#include "grist/backend/kernels.hpp"
#include "grist/common/timer.hpp"
#include "grist/grid/reorder.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/io/table.hpp"
#include "grist/parallel/field.hpp"
#include "grist/swgomp/sim_kernels.hpp"

using namespace grist;

namespace {

double hostKernelSeconds(const grid::HexMesh& mesh, int nlev, int reps) {
  const parallel::Field delp(mesh.ncells, nlev, 500.0);
  const parallel::Field u(mesh.nedges, nlev, 10.0);
  parallel::Field flux(mesh.nedges, nlev, 0.0);
  parallel::Field div(mesh.ncells, nlev, 0.0);
  namespace bk = backend::kernels;
  using backend::hostMut;
  using backend::hostView;
  const auto mv = backend::makeHostMeshView(mesh);
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    backend::hostSweep(mesh.nedges, [&](auto& ctx, Index e) {
      bk::primalNormalFluxEdge<double>(ctx, e, mv, nlev, hostView(delp.data()),
                                       hostView(u.data()), hostMut(flux.data()));
    });
    backend::hostSweep(mesh.ncells, [&](auto& ctx, Index c) {
      bk::divAtCell<double>(ctx, c, mv, nlev, hostView(flux.data()),
                            hostMut(div.data()));
    });
  }
  return timer.elapsed() / reps;
}

} // namespace

int main() {
  std::printf(
      "== Ablation: BFS index reordering (paper section 3.1.3) ==\n\n"
      "A random relabeling scatters neighbor indices across the array;\n"
      "the BFS numbering buildHexMesh returns makes them adjacent.\n\n");

  const int nlev = 30;
  const std::uint64_t seed = 20250301;
  const grid::HexMesh bfs = grid::buildHexMesh(6);
  const grid::HexMesh shuffled =
      grid::applyPermutation(bfs, grid::randomPermutation(bfs, seed));

  io::Table spread({"Numbering", "Normalized neighbor-id spread"});
  spread.addRow({"random relabel", io::Table::num(grid::indexSpread(shuffled), 4)});
  spread.addRow({"BFS (built)", io::Table::num(grid::indexSpread(bfs), 4)});
  spread.print();

  std::printf("\n-- host: flux + divergence kernels, G6 x %d levels --\n\n", nlev);
  const double t_shuffled = hostKernelSeconds(shuffled, nlev, 5);
  const double t_bfs = hostKernelSeconds(bfs, nlev, 5);
  io::Table host({"Numbering", "Wall per sweep (ms)", "Speedup"});
  host.addRow({"random relabel", io::Table::num(t_shuffled * 1e3, 2), "1.00x"});
  host.addRow({"BFS (built)", io::Table::num(t_bfs * 1e3, 2),
               io::Table::num(t_shuffled / t_bfs, 2) + "x"});
  host.print();

  std::printf("\n-- simulator: div_at_cell on one CG (G4 slice, LDCache stats) --\n\n");
  const grid::HexMesh bfs4 = grid::buildHexMesh(4);
  const grid::HexMesh shuffled4 =
      grid::applyPermutation(bfs4, grid::randomPermutation(bfs4, seed));
  io::Table sim({"Numbering", "Region cycles", "LDCache hit ratio"});
  for (const auto& [name, mesh] : {std::pair<const char*, const grid::HexMesh*>{
                                       "random relabel", &shuffled4},
                                   {"BFS (built)", &bfs4}}) {
    const grid::TrskWeights trsk = grid::buildTrskWeights(*mesh);
    sunway::CoreGroup cg;
    swgomp::SimConfig cfg;
    cfg.nlev = nlev;
    cfg.policy = swgomp::AllocPolicy::kDistributed;
    const double cycles = swgomp::runSimKernel(swgomp::SimKernel::kDivAtCell, *mesh,
                                               trsk, cfg, cg);
    sim.addRow({name, io::Table::num(cycles, 0),
                io::Table::num(cg.cpe(0).cache().hitRatio(), 4)});
  }
  sim.print();
  return 0;
}

#include "grist/core/parallel_model.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "grist/dycore/init.hpp"

namespace grist::core {
namespace {

class ParallelRanks : public ::testing::TestWithParam<Index> {
 protected:
  void SetUp() override {
    mesh_ = grid::buildHexMesh(3);
    trsk_ = grid::buildTrskWeights(mesh_);
    cfg_.nlev = 8;
    cfg_.dt = 450.0;
  }
  grid::HexMesh mesh_;
  grid::TrskWeights trsk_;
  dycore::DycoreConfig cfg_;
};

TEST_P(ParallelRanks, MatchesSerialRunBitwise) {
  // The decomposition correctness gate: with deterministic kernels, a
  // multi-rank run must equal the single-domain run bit for bit -- in BOTH
  // precision modes (float runs take different code paths through the NS
  // kernels, so the double-precision gate does not imply the MIX one).
  for (const auto ns : {precision::NsMode::kDouble, precision::NsMode::kSingle}) {
    cfg_.ns = ns;
    const char* mode = ns == precision::NsMode::kDouble ? "DP" : "MIX";
    const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);

    dycore::State serial = initial;
    dycore::Dycore dycore(mesh_, trsk_, cfg_);
    ParallelModel parallel(mesh_, trsk_, cfg_, GetParam(), initial);
    const int nsteps = 4;
    for (int s = 0; s < nsteps; ++s) dycore.step(serial);
    parallel.run(nsteps);
    const dycore::State gathered = parallel.gatherState();

    for (Index c = 0; c < mesh_.ncells; ++c) {
      for (int k = 0; k < cfg_.nlev; ++k) {
        ASSERT_EQ(gathered.delp(c, k), serial.delp(c, k)) << mode << " cell " << c;
        ASSERT_EQ(gathered.theta(c, k), serial.theta(c, k)) << mode << " cell " << c;
      }
      for (int k = 0; k <= cfg_.nlev; ++k) {
        ASSERT_EQ(gathered.w(c, k), serial.w(c, k)) << mode << " cell " << c;
        ASSERT_EQ(gathered.phi(c, k), serial.phi(c, k)) << mode << " cell " << c;
      }
    }
    for (Index e = 0; e < mesh_.nedges; ++e) {
      for (int k = 0; k < cfg_.nlev; ++k) {
        ASSERT_EQ(gathered.u(e, k), serial.u(e, k)) << mode << " edge " << e;
      }
    }
  }
}

TEST_P(ParallelRanks, OverlapMatchesLockstepBitwiseBothPrecisions) {
  // The overlap gate: the boundary-first post/wait step only permutes
  // independent per-entity loops and exchanges exact copies, so it must
  // reproduce a lockstep schedule -- every stage computed in full, then
  // its halos exchanged -- bit for bit, in BOTH precision modes. The
  // lockstep reference drives the same banded rank Dycores with hooks
  // that defer the whole exchange (post and wait) to the end of a stage.
  const Index nranks = GetParam();
  for (const auto ns : {precision::NsMode::kDouble, precision::NsMode::kSingle}) {
    cfg_.ns = ns;
    const char* mode = ns == precision::NsMode::kDouble ? "DP" : "MIX";
    const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
    const int nsteps = 3;

    ParallelModel overlap(mesh_, trsk_, cfg_, nranks, initial);
    overlap.run(nsteps);
    const dycore::State b = overlap.gatherState();

    const parallel::Decomposition decomp = parallel::decompose(mesh_, nranks);
    parallel::Communicator comm(decomp);
    std::vector<grid::TrskWeights> trsk(nranks);
    std::vector<std::unique_ptr<dycore::Dycore>> dycores;
    std::vector<dycore::State> states;
    std::vector<parallel::ExchangeList> lists(nranks);
    for (Index r = 0; r < nranks; ++r) {
      const parallel::LocalDomain& dom = decomp.domains[r];
      trsk[r] = localTrskWeights(trsk_, dom);
      dycore::Bounds bounds;
      bounds.cells_prog = dom.ncells_owned;
      bounds.cells_diag = dom.ncells_inner1;
      bounds.edges_prog = dom.nedges_owned;
      bounds.vertices_diag = dom.nvtx_complete;
      dycores.push_back(
          std::make_unique<dycore::Dycore>(dom.mesh, trsk[r], cfg_, bounds));
      dycore::Bands bands;
      bands.boundary_cells = dom.boundary_cells;
      bands.interior_cells = dom.interior_cells;
      bands.boundary_edges = dom.boundary_edges;
      bands.interior_edges = dom.interior_edges;
      dycores[r]->setBands(std::move(bands));
      states.emplace_back(dom.mesh, cfg_.nlev,
                        static_cast<int>(initial.tracers.size()));
      scatterIntoLocalState(initial, dom, states[r]);
    }
    for (Index r = 0; r < nranks; ++r) {
      lists[r].addCellField(states[r].delp);
      lists[r].addCellField(states[r].theta);
      lists[r].addCellField(states[r].w);
      lists[r].addCellField(states[r].phi);
      lists[r].addEdgeField(states[r].u);
    }
    comm.plan(lists);
    std::vector<std::thread> threads;
    for (Index r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r] {
        dycore::Dycore::OverlapHooks lockstep;
        lockstep.post = [] {};
        lockstep.wait = [&comm, r] {
          comm.post(r);
          comm.wait(r);
        };
        for (int s = 0; s < nsteps; ++s) dycores[r]->step(states[r], lockstep);
      });
    }
    for (std::thread& t : threads) t.join();

    for (Index r = 0; r < nranks; ++r) {
      const parallel::LocalDomain& dom = decomp.domains[r];
      const dycore::State& a = states[r];
      for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
        const Index c = dom.cell_global[lc];
        for (int k = 0; k < cfg_.nlev; ++k) {
          ASSERT_EQ(b.delp(c, k), a.delp(lc, k)) << mode << " cell " << c;
          ASSERT_EQ(b.theta(c, k), a.theta(lc, k)) << mode << " cell " << c;
        }
        for (int k = 0; k <= cfg_.nlev; ++k) {
          ASSERT_EQ(b.w(c, k), a.w(lc, k)) << mode << " cell " << c;
          ASSERT_EQ(b.phi(c, k), a.phi(lc, k)) << mode << " cell " << c;
        }
      }
      for (Index le = 0; le < dom.nedges_owned; ++le) {
        const Index e = dom.edge_global[le];
        for (int k = 0; k < cfg_.nlev; ++k) {
          ASSERT_EQ(b.u(e, k), a.u(le, k)) << mode << " edge " << e;
        }
      }
    }
  }
}

TEST_P(ParallelRanks, CommunicationVolumeAccounted) {
  const dycore::State initial = dycore::initBaroclinicWave(mesh_, cfg_);
  ParallelModel parallel(mesh_, trsk_, cfg_, GetParam(), initial);
  if (GetParam() == 1) {
    parallel.run(1);
    EXPECT_EQ(parallel.commStats().bytes, 0);
    return;
  }
  const auto before = parallel.commStats();
  parallel.run(2);
  const auto after = parallel.commStats();
  // 4 exchanges per step (3 RK stages + vertical solve).
  EXPECT_EQ(after.exchanges - before.exchanges, 8);
  EXPECT_GT(after.bytes, before.bytes);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ParallelRanks, ::testing::Values(1, 2, 4, 7));

} // namespace
} // namespace grist::core

#include "grist/core/parallel_model.hpp"

#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "grist/common/hash.hpp"

namespace grist::core {

using dycore::State;
using grid::TrskWeights;
using parallel::LocalDomain;

TrskWeights localTrskWeights(const TrskWeights& global, const LocalDomain& dom) {
  std::unordered_map<Index, Index> edge_l;
  edge_l.reserve(dom.edge_global.size());
  for (Index le = 0; le < static_cast<Index>(dom.edge_global.size()); ++le) {
    edge_l.emplace(dom.edge_global[le], le);
  }
  TrskWeights local;
  const Index nlocal = static_cast<Index>(dom.edge_global.size());
  local.offset.assign(nlocal + 1, 0);
  for (Index le = 0; le < nlocal; ++le) {
    local.offset[le + 1] = local.offset[le];
    if (le >= dom.nedges_owned) continue;  // halo edges never compute
    const Index ge = dom.edge_global[le];
    for (Index j = global.offset[ge]; j < global.offset[ge + 1]; ++j) {
      const auto it = edge_l.find(global.edge[j]);
      if (it == edge_l.end()) {
        throw std::logic_error("localTrsk: neighbor edge missing from halo");
      }
      local.edge.push_back(it->second);
      local.weight.push_back(global.weight[j]);
      ++local.offset[le + 1];
    }
  }
  return local;
}

void scatterIntoLocalState(const State& global, const LocalDomain& dom,
                           State& local) {
  const int nlev = local.nlev;
  const int ntracers = static_cast<int>(local.tracers.size());
  for (Index lc = 0; lc < dom.mesh.ncells; ++lc) {
    const Index g = dom.cell_global[lc];
    for (int k = 0; k < nlev; ++k) {
      local.delp(lc, k) = global.delp(g, k);
      local.theta(lc, k) = global.theta(g, k);
      for (int t = 0; t < ntracers; ++t) {
        local.tracers[t](lc, k) = global.tracers[t](g, k);
      }
    }
    for (int k = 0; k <= nlev; ++k) {
      local.w(lc, k) = global.w(g, k);
      local.phi(lc, k) = global.phi(g, k);
    }
  }
  for (Index le = 0; le < dom.mesh.nedges; ++le) {
    const Index g = dom.edge_global[le];
    for (int k = 0; k < nlev; ++k) local.u(le, k) = global.u(g, k);
  }
}

namespace {

dycore::Bounds rankBounds(const LocalDomain& dom) {
  dycore::Bounds b;
  b.cells_prog = dom.ncells_owned;
  b.cells_diag = dom.ncells_inner1;
  b.edges_prog = dom.nedges_owned;
  b.vertices_diag = dom.nvtx_complete;
  return b;
}

/// RankDycore::writeOwned's destination for a global State: its five
/// prognostics' and each tracer's storage, in writeOwned's numbering.
std::vector<double*> ownedTargets(State& global) {
  std::vector<double*> t{global.delp.data(), global.theta.data(),
                         global.w.data(), global.phi.data(), global.u.data()};
  for (auto& tr : global.tracers) t.push_back(tr.data());
  return t;
}

} // namespace

// ---------------------------------------------------------------------------
// RankDycore

RankDycore::RankDycore(const LocalDomain& dom, const TrskWeights& trsk,
                       const dycore::DycoreConfig& config,
                       const State& global_initial, parallel::Communicator& comm,
                       Index rank)
    : dom_(dom),
      local_trsk_(localTrskWeights(trsk, dom)),
      dycore_(dom.mesh, local_trsk_, config, rankBounds(dom)),
      state_(dom.mesh, config.nlev,
             static_cast<int>(global_initial.tracers.size())) {
  // Boundary/interior bands from the decomposition's exchange patterns
  // drive the overlapped step.
  dycore::Bands bands;
  bands.boundary_cells = dom.boundary_cells;
  bands.interior_cells = dom.interior_cells;
  bands.boundary_edges = dom.boundary_edges;
  bands.interior_edges = dom.interior_edges;
  dycore_.setBands(std::move(bands));
  scatterIntoLocalState(global_initial, dom, state_);
  // The list references stable field storage inside state_.
  list_.addCellField(state_.delp);
  list_.addCellField(state_.theta);
  list_.addCellField(state_.w);
  list_.addCellField(state_.phi);
  list_.addEdgeField(state_.u);
  hooks_.post = [&comm, rank]() { comm.post(rank); };
  hooks_.wait = [&comm, rank]() { comm.wait(rank); };
}

template <typename Fn>
void RankDycore::forEachOwnedRow(Fn&& fn) const {
  const int nlev = state_.nlev;
  for (Index lc = 0; lc < dom_.ncells_owned; ++lc) {
    const Index g = dom_.cell_global[lc];
    fn(0, g, &state_.delp(lc, 0), nlev);
    fn(1, g, &state_.theta(lc, 0), nlev);
    fn(2, g, &state_.w(lc, 0), nlev + 1);
    fn(3, g, &state_.phi(lc, 0), nlev + 1);
  }
  for (Index le = 0; le < dom_.nedges_owned; ++le) {
    fn(4, dom_.edge_global[le], &state_.u(le, 0), nlev);
  }
  for (std::size_t t = 0; t < state_.tracers.size(); ++t) {
    for (Index lc = 0; lc < dom_.ncells_owned; ++lc) {
      fn(5 + static_cast<int>(t), dom_.cell_global[lc],
         &state_.tracers[t](lc, 0), nlev);
    }
  }
}

void RankDycore::writeOwned(double* const* global) const {
  forEachOwnedRow([global](int var, Index g, const double* row, int n) {
    std::memcpy(global[var] + static_cast<std::size_t>(g) * n, row,
                static_cast<std::size_t>(n) * sizeof(double));
  });
}

std::uint64_t RankDycore::ownedHash() const {
  std::uint64_t h = common::kFnvOffsetBasis;
  forEachOwnedRow([&h](int, Index, const double* row, int n) {
    h = common::fnv1a(row, static_cast<std::size_t>(n) * sizeof(double), h);
  });
  return h;
}

// ---------------------------------------------------------------------------
// ParallelModel

ParallelModel::ParallelModel(const grid::HexMesh& mesh, const TrskWeights& trsk,
                             dycore::DycoreConfig config, Index nranks,
                             const State& global_initial)
    : mesh_(mesh),
      config_(config),
      decomp_(parallel::decompose(mesh, nranks, /*halo_depth=*/2)),
      comm_(decomp_),
      start_barrier_(static_cast<std::ptrdiff_t>(nranks) + 1),
      done_barrier_(static_cast<std::ptrdiff_t>(nranks) + 1) {
  ranks_.reserve(decomp_.nranks);
  std::vector<parallel::ExchangeList*> lists;
  lists.reserve(decomp_.nranks);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    ranks_.push_back(std::make_unique<RankDycore>(
        decomp_.domains[r], trsk, config_, global_initial, comm_, r));
    lists.push_back(&ranks_.back()->exchangeList());
  }
  // Plan the packed buffers once; the step loop never reallocates them.
  comm_.plan(lists);
  // Initial halo fill, one post/wait round driven from this thread: every
  // rank posts before any waits, so no wait can block on an unposted
  // message. (The scatter already fills halos; the round guards against
  // stale construction and keeps CommStats equal to a process fleet's.)
  for (Index r = 0; r < decomp_.nranks; ++r) comm_.post(r);
  for (Index r = 0; r < decomp_.nranks; ++r) comm_.wait(r);
  // Persistent pool: one worker per rank, parked at start_barrier_.
  workers_.reserve(decomp_.nranks);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    workers_.emplace_back([this, r]() { workerLoop(r); });
  }
}

ParallelModel::~ParallelModel() {
  stopping_ = true;
  start_barrier_.arrive_and_wait();  // release workers; they see stopping_
  for (auto& t : workers_) t.join();
}

void ParallelModel::workerLoop(Index rank) {
  for (;;) {
    start_barrier_.arrive_and_wait();
    if (stopping_) return;
    ranks_[rank]->step();
    done_barrier_.arrive_and_wait();
  }
}

void ParallelModel::step() {
  start_barrier_.arrive_and_wait();  // workers run one step
  done_barrier_.arrive_and_wait();
}

void ParallelModel::run(int nsteps) {
  for (int i = 0; i < nsteps; ++i) step();
}

void ParallelModel::restoreGlobalState(const State& global) {
  const int ntracers = static_cast<int>(ranks_[0]->state().tracers.size());
  if (global.nlev != config_.nlev ||
      static_cast<int>(global.tracers.size()) != ntracers ||
      global.delp.entities() != mesh_.ncells ||
      global.u.entities() != mesh_.nedges) {
    throw std::runtime_error("ParallelModel::restoreGlobalState: shape mismatch");
  }
  // Scatter fills halos from the same global data the owners get, so the
  // ranks are exchange-consistent without an extra round (and CommStats
  // stay comparable between restored and unbroken runs).
  for (auto& rank : ranks_) rank->restore(global);
}

State ParallelModel::gatherState() const {
  const int ntracers = static_cast<int>(ranks_[0]->state().tracers.size());
  State global(mesh_, config_.nlev, ntracers);
  const std::vector<double*> targets = ownedTargets(global);
  for (const auto& rank : ranks_) rank->writeOwned(targets.data());
  return global;
}

} // namespace grist::core

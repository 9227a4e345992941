// Multi-rank dynamical-core runs. Every rank -- a thread of ParallelModel's
// pool or a process of mp::MpSession (mp_runner.hpp) -- steps one
// RankDycore: its LocalDomain's TRSK table, a banded Dycore, the local
// State and the five-field exchange list. Halos move one way only, through
// the Communicator's post()/wait() protocol: each of the four exchange
// rounds of a step (3 RK stages + vertical solve) is boundary-band compute
// -> post() -> interior-band compute -> wait(), so communication hides
// behind the interior sweep. Used for the decomposition correctness gate
// (rank runs must match the single-domain run bitwise, DP and MIX) and for
// the measured end of the scaling benchmarks (Figs. 10-11).
//
// ParallelModel runs N RankDycores on a PERSISTENT worker pool (one thread
// per rank, created once) released per step through reusable barriers --
// a warm step() performs no thread creation and no heap allocation
// (tests/core/test_parallel_model_alloc.cpp).
#pragma once

#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "grist/dycore/dycore.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/parallel/decompose.hpp"
#include "grist/parallel/exchange.hpp"

namespace grist::core {

/// Remap the global TRSK table onto a rank's local edge ids. Only owned
/// edges compute tendencies, and their neighbor edges are always local with
/// halo depth 2.
grid::TrskWeights localTrskWeights(const grid::TrskWeights& global,
                                   const parallel::LocalDomain& dom);

/// Overwrite an existing rank-local state (all local entities, owned +
/// halo) from the global state. Shapes must already match. In place, so
/// the exchange lists' field pointers stay valid.
void scatterIntoLocalState(const dycore::State& global,
                           const parallel::LocalDomain& dom,
                           dycore::State& local);

/// One rank of a decomposed dynamics run: the rank-local TRSK table, the
/// Dycore bounded to the rank's owned/diagnostic entities and banded for
/// overlap, the local State (owned + halo) and its five-field exchange list
/// (delp, theta, w, phi, u), plus the post/wait hooks that bind the step to
/// `comm`. The owner plans `exchangeList()` on `comm` before the first
/// step. Not movable: the Dycore and the hooks point into the object.
class RankDycore {
 public:
  /// `dom`, the mesh behind `trsk` and `comm` must outlive the rank.
  RankDycore(const parallel::LocalDomain& dom, const grid::TrskWeights& trsk,
             const dycore::DycoreConfig& config,
             const dycore::State& global_initial, parallel::Communicator& comm,
             Index rank);

  RankDycore(const RankDycore&) = delete;
  RankDycore& operator=(const RankDycore&) = delete;

  /// One overlapped dynamics step, collectively with every peer rank.
  void step() { dycore_.step(state_, hooks_); }

  /// Overwrite the local state (owned + halo) from a global state.
  void restore(const dycore::State& global) {
    scatterIntoLocalState(global, dom_, state_);
  }

  parallel::ExchangeList& exchangeList() { return list_; }
  const dycore::State& state() const { return state_; }

  /// Copy the owned rows into global [entity][component] arrays, one per
  /// variable: 0 delp, 1 theta, 2 w, 3 phi, 4 u, 5 + t tracer t. Ranks own
  /// disjoint entities, so concurrent writers never overlap.
  void writeOwned(double* const* global) const;

  /// FNV-1a over the owned rows in one fixed order: per owned cell its
  /// delp, theta, w and phi rows; per owned edge its u row; then per
  /// tracer its owned cell rows.
  std::uint64_t ownedHash() const;

 private:
  /// The one owned-entity gather: visit the owned rows in ownedHash's
  /// order as fn(var, global entity, row, n), var numbered as in
  /// writeOwned.
  template <typename Fn>
  void forEachOwnedRow(Fn&& fn) const;

  const parallel::LocalDomain& dom_;
  grid::TrskWeights local_trsk_;
  dycore::Dycore dycore_;
  dycore::State state_;
  parallel::ExchangeList list_;
  dycore::Dycore::OverlapHooks hooks_;
};

class ParallelModel {
 public:
  /// Decomposes `mesh` into `nranks` domains and scatters `global_initial`.
  /// The mesh and TRSK weights must outlive the model.
  ParallelModel(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                dycore::DycoreConfig config, Index nranks,
                const dycore::State& global_initial);
  ~ParallelModel();

  ParallelModel(const ParallelModel&) = delete;
  ParallelModel& operator=(const ParallelModel&) = delete;

  /// One dynamics step across all ranks.
  void step();
  void run(int nsteps);

  /// Reassemble the global prognostic state from rank-owned entities.
  dycore::State gatherState() const;

  /// Overwrite every rank's local state (owned + halo) from a global state
  /// -- checkpoint restore. In-place: exchange plans, bands and buffers
  /// survive untouched, so warm stepping stays allocation-free afterwards.
  /// Throws std::runtime_error on shape mismatch (nlev/ntracers/entities).
  void restoreGlobalState(const dycore::State& global);

  const dycore::DycoreConfig& config() const { return config_; }

  Index nranks() const { return decomp_.nranks; }
  parallel::CommStats commStats() const { return comm_.stats(); }
  const parallel::Decomposition& decomposition() const { return decomp_; }

  /// Emulate an interconnect with `seconds` of delivery latency per
  /// exchange round (see Communicator::setWireLatency). Set between steps
  /// only. Default 0 -- instant in-process delivery.
  void setWireLatency(double seconds) { comm_.setWireLatency(seconds); }

 private:
  void workerLoop(Index rank);

  const grid::HexMesh& mesh_;
  dycore::DycoreConfig config_;
  parallel::Decomposition decomp_;
  parallel::Communicator comm_;
  std::vector<std::unique_ptr<RankDycore>> ranks_;

  // Persistent pool: workers park at start_barrier_, step their rank, then
  // park at done_barrier_. Both barriers count the nranks workers plus the
  // caller of step(). stopping_ is written by the main thread before it
  // arrives at start_barrier_ and read by the workers after -- the barrier
  // provides the happens-before edge.
  bool stopping_ = false;
  std::barrier<> start_barrier_;
  std::barrier<> done_barrier_;
  std::vector<std::thread> workers_;
};

} // namespace grist::core

// One-OS-process-per-rank runs over the shm transport.
//
// The in-process ParallelModel keeps every rank's arrays in one heap; this
// runner gives each rank its own process instead. The parent hands the
// fleet the global initial state once, through the control segment; each
// rank worker rebuilds mesh, TRSK weights and decomposition from the
// RunSpec (the builders are pure functions of it) and scatters its slice.
// After that only halos cross the process boundary, through the shm
// transport's post/wait exchange -- so a cross-process run is bitwise
// identical to the threaded pool: same initial bytes, local domains,
// kernels and exchanged bytes; only the address spaces differ.
//
// Three pieces:
//   RankProcessModel   one rank of the multi-rank step in THIS process:
//                      the RankDycore a ParallelModel pool thread steps
//                      (parallel_model.hpp), over a local-rank
//                      Communicator; warm step()s are heap-allocation-free.
//   MpSession          parent-side handle: fork+execs one worker per rank
//                      (this binary, re-entered via maybeRunWorker), then
//                      drives them through a shared control block --
//                      run(n), gather() (owned state + per-rank hashes +
//                      CommStats through a shared result segment), and
//                      teardown with exit-code propagation and segment
//                      unlink. A rank that dies mid-run fails the whole
//                      session instead of wedging it.
//   maybeRunWorker     argv dispatch; call FIRST in main() of any binary
//                      that constructs an MpSession.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grist/core/parallel_model.hpp"
#include "grist/parallel/shm_region.hpp"

namespace grist::core::mp {

/// What every rank worker rebuilds mesh, decomposition and dycore from (the
/// initial state is MpSession's). Defaults: the gate tests' G3, nlev 8, dt 450.
struct RunSpec {
  int grid_level = 3;
  /// The dycore every rank worker runs; every field but ntracers is forwarded.
  dycore::DycoreConfig dyn{.nlev = 8, .dt = 450.0};
  Index nranks = 2;
  bool pin = false;        ///< sched_setaffinity rank r -> core r % ncores
  double wire_latency = 0; ///< seconds, forwarded per step command
  std::string segment;     ///< transport segment name; generated if empty
};

/// One rank of the multi-rank step, running in this process over an
/// explicit transport (normally ShmTransport; the in-process transport with
/// nranks == 1 also works, which the unit tests use): the same RankDycore a
/// ParallelModel pool thread steps, bound to a local-rank Communicator.
class RankProcessModel {
 public:
  RankProcessModel(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                   dycore::DycoreConfig config, Index nranks, Index rank,
                   const dycore::State& global_initial,
                   std::shared_ptr<parallel::Transport> transport);

  RankProcessModel(const RankProcessModel&) = delete;
  RankProcessModel& operator=(const RankProcessModel&) = delete;

  /// One overlapped dynamics step (boundary -> post -> interior -> wait),
  /// collectively with every peer rank process. Warm steps allocate
  /// nothing on this path.
  void step() { rank_.step(); }
  void run(int nsteps);

  void setWireLatency(double seconds) { comm_.setWireLatency(seconds); }
  parallel::CommStats commStats() const { return comm_.stats(); }
  const RankDycore& local() const { return rank_; }

 private:
  parallel::Decomposition decomp_;
  parallel::Communicator comm_;
  RankDycore rank_;
};

/// Offsets into the shared control/result segment, computed identically by
/// the parent and every worker from the run parameters.
struct ResultLayout {
  int ntracers = 0;
  std::size_t hashes_off = 0;
  /// The global-state area: one 64-byte-aligned block per field, numbered
  /// as RankDycore::writeOwned numbers them. It carries the initial state
  /// to the workers and their owned rows back to gather().
  std::vector<std::size_t> field_off;
  std::size_t total = 0;

  static ResultLayout compute(Index nranks, Index ncells, Index nedges,
                              int nlev, int ntracers);
};

class MpSession {
 public:
  /// Creates the control/result segment, copies `initial` (the global
  /// state, with any tracer count) into it and spawns one worker process
  /// per rank; the first command's ack confirms the whole fleet came up.
  /// Throws std::invalid_argument naming the dimension, before anything is
  /// created, if `initial`'s nlev, cell or edge count disagrees with spec.
  MpSession(RunSpec spec, const dycore::State& initial);
  ~MpSession();

  MpSession(const MpSession&) = delete;
  MpSession& operator=(const MpSession&) = delete;

  /// Step all rank processes `nsteps` times (blocks until every rank acked).
  void run(int nsteps);

  /// Applied from the next run() command on.
  void setWireLatency(double seconds) { spec_.wire_latency = seconds; }

  /// Reassemble the global owned state from the result segment (also
  /// refreshes rankHash()/commStats()).
  dycore::State gather();

  parallel::CommStats commStats();
  std::uint64_t rankHash(Index rank) const { return hashes_.at(static_cast<std::size_t>(rank)); }

  const std::string& segmentName() const { return spec_.segment; }

 private:
  void command(std::uint32_t cmd, int nsteps);
  void probeChildren();
  [[noreturn]] void failSession(const std::string& why);
  void refreshResults();

  RunSpec spec_;
  grid::HexMesh mesh_;
  ResultLayout layout_;
  parallel::ShmRegion ctl_;
  std::vector<pid_t> pids_;
  std::vector<int> exit_codes_;  // -1 = still running
  std::uint32_t seq_ = 0;
  bool failed_ = false;
  std::vector<std::uint64_t> hashes_;
  parallel::CommStats stats_{};
};

/// Worker-mode dispatch. Call this FIRST in main(); when this process was
/// exec'd as a rank worker it runs the worker loop and returns its exit
/// code, otherwise nullopt. Every operand is parsed whole-token and
/// range-checked (ns must be exactly "dp" or "mix"); a malformed one
/// returns 2 with a message naming the operand and the token, before
/// anything is spawned or attached.
std::optional<int> maybeRunWorker(int argc, char** argv);

} // namespace grist::core::mp

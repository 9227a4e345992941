// Batched halo exchange. Mirrors the paper's parallelization facilitation
// layer (section 3.1.3): variables queued for exchange are gathered into a
// list and ONE call to the communication interface moves all of them, so the
// message count per step is the number of neighbor pairs, not
// pairs x variables. Byte and message counts are recorded; the network model
// (src/network) converts them into projected communication time.
//
// Transport: each pattern's variables are PACKED into one contiguous
// per-pattern message buffer (pack -> one copy -> unpack, mirroring a real
// MPI transport). WHERE that buffer lives and how sender/receiver
// synchronize on it is the Transport seam (transport.hpp): the default
// InProcessTransport keeps PR 3's heap buffers + std::atomic wait/notify;
// ShmTransport puts the same single-slot buffers in a POSIX shared-memory
// segment with futex doorbells so each rank can be its own OS process. The
// pack buffers themselves live in the transport's memory, so crossing a
// process boundary adds no copy: the sender packs straight into the shared
// slot and the receiver's unpack IS the one copy.
//
// One protocol moves every halo, in-process or across processes: plan()
// (or planLocal() for a rank process) binds the queued lists once, then
// every exchange round is post(r) followed by wait(r) on each rank r. Rank
// r's thread (or process) packs and publishes its outgoing messages in
// post() as soon as its boundary band is computed, then blocks in wait()
// only when it actually consumes halos. Senders and receivers synchronize
// through per-pattern sequence numbers, so no global barrier is involved;
// a single thread may also drive a round by posting every rank before
// waiting on any (ParallelModel's construction-time halo fill does).
// Message sizes per pattern are fixed by the variable shapes, which plan()
// validates and caches once; per-exchange CommStats updates are O(1).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "grist/parallel/decompose.hpp"
#include "grist/parallel/field.hpp"
#include "grist/parallel/transport.hpp"

namespace grist::parallel {

/// One rank's list of variables queued for the next exchange. Storage is
/// reserved for the usual prognostic set up front so queueing never
/// reallocates in the step loop.
class ExchangeList {
 public:
  struct Var {
    double* data = nullptr;
    int ncomp = 1;
  };

  ExchangeList() {
    cell_vars_.reserve(kReserve);
    edge_vars_.reserve(kReserve);
  }

  void addCellVar(double* data, int ncomp) { cell_vars_.push_back({data, ncomp}); }
  void addEdgeVar(double* data, int ncomp) { edge_vars_.push_back({data, ncomp}); }
  void addCellField(Field& f) { addCellVar(f.data(), f.components()); }
  void addEdgeField(Field& f) { addEdgeVar(f.data(), f.components()); }
  void clear() {
    cell_vars_.clear();
    edge_vars_.clear();
  }

  const std::vector<Var>& cellVars() const { return cell_vars_; }
  const std::vector<Var>& edgeVars() const { return edge_vars_; }

 private:
  static constexpr std::size_t kReserve = 8;
  std::vector<Var> cell_vars_;
  std::vector<Var> edge_vars_;
};

/// Executes the decomposition's exchange patterns through packed
/// per-pattern message buffers over a Transport (transport.hpp).
class Communicator {
 public:
  /// In-process communicator over the default InProcessTransport: one
  /// instance serves every rank (they share the address space).
  explicit Communicator(const Decomposition& decomp);

  /// Communicator over an explicit transport. For a distributed transport
  /// (one OS process per rank) `local_rank` names the rank THIS process
  /// plays: planLocal()/post()/wait() operate on that rank only.
  Communicator(const Decomposition& decomp, std::shared_ptr<Transport> transport,
               Index local_rank = kAllRanks);

  static constexpr Index kAllRanks = -1;

  /// Bind `lists` (one per rank) for the post()/wait() protocol: validates
  /// that all ranks queue identically-shaped variable lists (throws, naming
  /// the mismatched rank/var, otherwise), sizes the per-pattern message
  /// buffers and precomputes every byte count. `lists` must outlive
  /// subsequent post()/wait() calls. In-process transports only.
  void plan(const std::vector<ExchangeList*>& lists);
  void plan(std::vector<ExchangeList>& lists);

  /// Distributed form of plan(): bind THIS process's rank list only. Every
  /// rank process must call it collectively with identically-shaped lists;
  /// shapes are cross-validated through the transport's shared shape slots
  /// and a mismatch throws naming the transport and the peer rank/pid.
  /// `list` must outlive subsequent post()/wait() calls.
  void planLocal(ExchangeList& list);

  /// Overlap protocol, called from rank r's thread (or process) once per
  /// exchange round: post(r) packs and publishes every outgoing message of
  /// rank r; wait(r) blocks until every incoming message of rank r for
  /// this round is published, then unpacks it into r's halos. EVERY rank
  /// must call post() then wait() exactly once per round (even ranks with
  /// no traffic), in the same round order on all ranks. In local mode r
  /// must be the bound local rank.
  void post(Index rank);
  void wait(Index rank);

  CommStats stats() const { return transport_->stats(); }
  void resetStats() { transport_->resetStats(); }

  const Transport& transport() const { return *transport_; }
  Index localRank() const { return local_rank_; }

  /// Emulated interconnect latency (seconds) per exchange round. The
  /// host transports deliver near-instantly, which no real interconnect
  /// does, so the cost of exchange latency never shows on a shared-memory
  /// host. With a wire latency set, a posted message only becomes
  /// consumable tau after post(): wait() sleeps out the remainder of tau
  /// (usually none -- interior compute already covered it); a round with
  /// no work between post() and wait() stalls the full tau, exactly like
  /// a rank blocking in MPI_Waitall right after MPI_Isend. Data is
  /// unaffected; tau = 0 (the default) restores instant delivery. The
  /// delivery deadline travels with the message, so it prices the wire
  /// identically whether the receiver is a thread or another process.
  /// bench_ablation_exchange sets tau from the fat-tree model at the
  /// paper's full machine scale.
  void setWireLatency(double seconds);
  double wireLatency() const;

 private:
  void validateShapes(const std::vector<ExchangeList*>& lists) const;
  void crossValidateShapes(const ExchangeList& list);
  void finishPlan(const ExchangeList& ref);
  bool planMatches(const ExchangeList& ref) const;
  void packMessage(std::size_t p);
  void unpackMessage(std::size_t p);

  const Decomposition* decomp_;
  std::shared_ptr<Transport> transport_;
  Index local_rank_ = kAllRanks;
  /// Bound list per rank (local mode binds only the local rank's).
  std::vector<ExchangeList*> lists_;

  /// Pattern indices by endpoint rank (copied from the decomposition, or
  /// rebuilt locally for hand-assembled decompositions in tests).
  std::vector<std::vector<Index>> from_;
  std::vector<std::vector<Index>> to_;

  // Plan (valid while the queued shapes match plan_cell_comps_/plan_edge_comps_):
  std::vector<int> plan_cell_comps_, plan_edge_comps_;
  std::vector<std::int64_t> pattern_doubles_;  // slot sizes handed to allocate()
  std::vector<double*> bufs_;                  // cached transport slot pointers
  std::vector<std::int64_t> msg_bytes_;        // per pattern
  bool planned_ = false;
  std::vector<std::int64_t> rank_out_bytes_;   // per rank, per round
  std::vector<std::int64_t> rank_out_msgs_;

  // Overlap protocol round counters (per rank; each rank's counter is only
  // touched from that rank's thread/process).
  std::vector<std::uint64_t> round_;

  // Emulated interconnect latency per round (zero = instant delivery).
  std::chrono::steady_clock::duration wire_latency_{0};
};

} // namespace grist::parallel

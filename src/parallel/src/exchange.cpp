#include "grist/parallel/exchange.hpp"

#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

namespace grist::parallel {

namespace {

// Fixed-size shape signature a rank process publishes into its transport
// shape slot so planLocal() can cross-validate queued shapes between
// address spaces. POD on purpose: it is read raw out of shared memory.
struct ShapeSig {
  std::uint32_t pid = 0;
  std::uint32_t ncell = 0;
  std::uint32_t nedge = 0;
  std::int32_t comps[52] = {};  // cell comps then edge comps
};
static_assert(sizeof(ShapeSig) <= Transport::kShapeSlotBytes,
              "ShapeSig must fit the transport shape slot");
constexpr std::size_t kMaxSigVars = sizeof(ShapeSig::comps) / sizeof(std::int32_t);

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

Communicator::Communicator(const Decomposition& decomp)
    : Communicator(decomp, std::make_shared<InProcessTransport>(), kAllRanks) {}

Communicator::Communicator(const Decomposition& decomp,
                           std::shared_ptr<Transport> transport, Index local_rank)
    : decomp_(&decomp), transport_(std::move(transport)), local_rank_(local_rank) {
  if (transport_->distributed() && local_rank_ == kAllRanks) {
    throw std::invalid_argument(
        std::string("Communicator: the ") + transport_->name() +
        " transport is distributed (one process per rank); bind a local rank");
  }
  if (local_rank_ != kAllRanks &&
      (local_rank_ < 0 || local_rank_ >= decomp.nranks)) {
    throw std::invalid_argument("Communicator: local rank out of range");
  }
  round_.assign(static_cast<std::size_t>(decomp.nranks), 0);
  lists_.assign(static_cast<std::size_t>(decomp.nranks), nullptr);
  // Per-rank pattern index lists: prefer the ones decompose() precomputed,
  // fall back to a local scan for hand-built decompositions (tests).
  if (static_cast<Index>(decomp.patterns_from.size()) == decomp.nranks &&
      static_cast<Index>(decomp.patterns_to.size()) == decomp.nranks) {
    from_ = decomp.patterns_from;
    to_ = decomp.patterns_to;
  } else {
    from_.resize(static_cast<std::size_t>(decomp.nranks));
    to_.resize(static_cast<std::size_t>(decomp.nranks));
    for (std::size_t p = 0; p < decomp.patterns.size(); ++p) {
      const ExchangePattern& pat = decomp.patterns[p];
      from_[static_cast<std::size_t>(pat.from)].push_back(static_cast<Index>(p));
      to_[static_cast<std::size_t>(pat.to)].push_back(static_cast<Index>(p));
    }
  }
}

void Communicator::validateShapes(const std::vector<ExchangeList*>& lists) const {
  const ExchangeList& ref = *lists[0];
  for (std::size_t r = 1; r < lists.size(); ++r) {
    const ExchangeList& l = *lists[r];
    if (l.cellVars().size() != ref.cellVars().size()) {
      throw std::invalid_argument(
          "Communicator: rank " + std::to_string(r) + " queues " +
          std::to_string(l.cellVars().size()) + " cell vars, rank 0 queues " +
          std::to_string(ref.cellVars().size()));
    }
    if (l.edgeVars().size() != ref.edgeVars().size()) {
      throw std::invalid_argument(
          "Communicator: rank " + std::to_string(r) + " queues " +
          std::to_string(l.edgeVars().size()) + " edge vars, rank 0 queues " +
          std::to_string(ref.edgeVars().size()));
    }
    for (std::size_t v = 0; v < ref.cellVars().size(); ++v) {
      if (l.cellVars()[v].ncomp != ref.cellVars()[v].ncomp) {
        throw std::invalid_argument(
            "Communicator: cell var " + std::to_string(v) + " on rank " +
            std::to_string(r) + " has ncomp " +
            std::to_string(l.cellVars()[v].ncomp) + ", rank 0 has " +
            std::to_string(ref.cellVars()[v].ncomp));
      }
    }
    for (std::size_t v = 0; v < ref.edgeVars().size(); ++v) {
      if (l.edgeVars()[v].ncomp != ref.edgeVars()[v].ncomp) {
        throw std::invalid_argument(
            "Communicator: edge var " + std::to_string(v) + " on rank " +
            std::to_string(r) + " has ncomp " +
            std::to_string(l.edgeVars()[v].ncomp) + ", rank 0 has " +
            std::to_string(ref.edgeVars()[v].ncomp));
      }
    }
  }
}

void Communicator::crossValidateShapes(const ExchangeList& list) {
  std::uint8_t* mine = transport_->shapeSlot(local_rank_);
  if (mine == nullptr) return;  // transport has no cross-process seam

  const std::size_t ncell = list.cellVars().size();
  const std::size_t nedge = list.edgeVars().size();
  if (ncell + nedge > kMaxSigVars) {
    throw std::invalid_argument(
        "Communicator: too many variables for cross-process shape "
        "validation (" +
        std::to_string(ncell + nedge) + " > " + std::to_string(kMaxSigVars) + ")");
  }
  ShapeSig sig;
  sig.pid = static_cast<std::uint32_t>(::getpid());
  sig.ncell = static_cast<std::uint32_t>(ncell);
  sig.nedge = static_cast<std::uint32_t>(nedge);
  for (std::size_t v = 0; v < ncell; ++v) sig.comps[v] = list.cellVars()[v].ncomp;
  for (std::size_t v = 0; v < nedge; ++v) {
    sig.comps[ncell + v] = list.edgeVars()[v].ncomp;
  }
  std::memcpy(mine, &sig, sizeof(sig));
  // Rendezvous: every rank's slot is written before anyone compares.
  transport_->barrier();

  const std::string where =
      std::string("Communicator[") + transport_->name() + "]: ";
  const std::string me = "rank " + std::to_string(local_rank_) + " (pid " +
                         std::to_string(sig.pid) + ")";
  for (Index r = 0; r < decomp_->nranks; ++r) {
    if (r == local_rank_) continue;
    ShapeSig peer;
    std::memcpy(&peer, transport_->shapeSlot(r), sizeof(peer));
    const std::string who = "rank " + std::to_string(r) + " (pid " +
                            std::to_string(peer.pid) + ")";
    if (peer.ncell != sig.ncell) {
      throw std::invalid_argument(where + who + " queues " +
                                  std::to_string(peer.ncell) + " cell vars, " +
                                  me + " queues " + std::to_string(sig.ncell));
    }
    if (peer.nedge != sig.nedge) {
      throw std::invalid_argument(where + who + " queues " +
                                  std::to_string(peer.nedge) + " edge vars, " +
                                  me + " queues " + std::to_string(sig.nedge));
    }
    for (std::size_t v = 0; v < ncell + nedge; ++v) {
      if (peer.comps[v] == sig.comps[v]) continue;
      const bool cell = v < ncell;
      const std::size_t idx = cell ? v : v - ncell;
      throw std::invalid_argument(
          where + (cell ? "cell" : "edge") + " var " + std::to_string(idx) +
          " on " + who + " has ncomp " + std::to_string(peer.comps[v]) + ", " +
          me + " has " + std::to_string(sig.comps[v]));
    }
  }
}

void Communicator::finishPlan(const ExchangeList& ref) {
  plan_cell_comps_.clear();
  plan_edge_comps_.clear();
  std::int64_t cell_doubles = 0, edge_doubles = 0;  // per send entity
  for (const auto& v : ref.cellVars()) {
    plan_cell_comps_.push_back(v.ncomp);
    cell_doubles += v.ncomp;
  }
  for (const auto& v : ref.edgeVars()) {
    plan_edge_comps_.push_back(v.ncomp);
    edge_doubles += v.ncomp;
  }

  const auto& patterns = decomp_->patterns;
  pattern_doubles_.resize(patterns.size());
  msg_bytes_.resize(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::int64_t doubles = patterns[p].nsend_cells * cell_doubles +
                                 patterns[p].nsend_edges * edge_doubles;
    pattern_doubles_[p] = doubles;
    msg_bytes_[p] = doubles * static_cast<std::int64_t>(sizeof(double));
  }

  // Size the transport's single-slot buffers (collective rendezvous for a
  // distributed transport) and cache the slot pointers for the hot path.
  transport_->allocate(pattern_doubles_);
  bufs_.resize(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    bufs_[p] = transport_->buffer(p);
  }

  rank_out_bytes_.assign(static_cast<std::size_t>(decomp_->nranks), 0);
  rank_out_msgs_.assign(static_cast<std::size_t>(decomp_->nranks), 0);
  for (Index r = 0; r < decomp_->nranks; ++r) {
    for (const Index p : from_[static_cast<std::size_t>(r)]) {
      rank_out_bytes_[r] += msg_bytes_[p];
    }
    // One message per neighbor-pair pattern per round (the paper's
    // batching invariant), independent of how many variables are queued.
    rank_out_msgs_[r] =
        static_cast<std::int64_t>(from_[static_cast<std::size_t>(r)].size());
  }
  planned_ = true;
}

bool Communicator::planMatches(const ExchangeList& ref) const {
  if (!planned_) return false;
  bool match = ref.cellVars().size() == plan_cell_comps_.size() &&
               ref.edgeVars().size() == plan_edge_comps_.size();
  for (std::size_t v = 0; match && v < plan_cell_comps_.size(); ++v) {
    match = ref.cellVars()[v].ncomp == plan_cell_comps_[v];
  }
  for (std::size_t v = 0; match && v < plan_edge_comps_.size(); ++v) {
    match = ref.edgeVars()[v].ncomp == plan_edge_comps_[v];
  }
  return match;
}

void Communicator::plan(const std::vector<ExchangeList*>& lists) {
  if (local_rank_ != kAllRanks) {
    throw std::logic_error(
        "Communicator: plan() binds every rank's list; a local-rank "
        "communicator must use planLocal()");
  }
  if (static_cast<Index>(lists.size()) != decomp_->nranks) {
    throw std::invalid_argument("Communicator: one list per rank required");
  }
  validateShapes(lists);
  lists_ = lists;
  finishPlan(*lists[0]);
}

void Communicator::plan(std::vector<ExchangeList>& lists) {
  std::vector<ExchangeList*> ptrs;
  ptrs.reserve(lists.size());
  for (ExchangeList& l : lists) ptrs.push_back(&l);
  plan(ptrs);
}

void Communicator::planLocal(ExchangeList& list) {
  if (local_rank_ == kAllRanks) {
    throw std::logic_error(
        "Communicator: planLocal() requires a local-rank communicator");
  }
  lists_[static_cast<std::size_t>(local_rank_)] = &list;
  if (planMatches(list)) return;  // rebind only; buffers stay as planned
  // Validate shapes BETWEEN processes before sizing any buffer: a mismatch
  // must die with a named rank/pid, not a segment-size conflict.
  crossValidateShapes(list);
  finishPlan(list);
}

void Communicator::packMessage(std::size_t p) {
  const ExchangePattern& pat = decomp_->patterns[p];
  const ExchangeList& src = *lists_[static_cast<std::size_t>(pat.from)];
  double* w = bufs_[p];
  for (const auto& var : src.cellVars()) {
    const std::size_t row = static_cast<std::size_t>(var.ncomp) * sizeof(double);
    for (const Index lc : pat.send_cells) {
      std::memcpy(w, var.data + static_cast<std::size_t>(lc) * var.ncomp, row);
      w += var.ncomp;
    }
  }
  for (const auto& var : src.edgeVars()) {
    const std::size_t row = static_cast<std::size_t>(var.ncomp) * sizeof(double);
    for (const Index le : pat.send_edges) {
      std::memcpy(w, var.data + static_cast<std::size_t>(le) * var.ncomp, row);
      w += var.ncomp;
    }
  }
}

void Communicator::unpackMessage(std::size_t p) {
  const ExchangePattern& pat = decomp_->patterns[p];
  const ExchangeList& dst = *lists_[static_cast<std::size_t>(pat.to)];
  const double* r = bufs_[p];
  for (const auto& var : dst.cellVars()) {
    const std::size_t row = static_cast<std::size_t>(var.ncomp) * sizeof(double);
    for (const Index lc : pat.recv_cells) {
      std::memcpy(var.data + static_cast<std::size_t>(lc) * var.ncomp, r, row);
      r += var.ncomp;
    }
  }
  for (const auto& var : dst.edgeVars()) {
    const std::size_t row = static_cast<std::size_t>(var.ncomp) * sizeof(double);
    for (const Index le : pat.recv_edges) {
      std::memcpy(var.data + static_cast<std::size_t>(le) * var.ncomp, r, row);
      r += var.ncomp;
    }
  }
}

void Communicator::post(Index rank) {
  if (!planned_) {
    throw std::logic_error("Communicator::post: plan() the lists first");
  }
  if (local_rank_ != kAllRanks && rank != local_rank_) {
    throw std::logic_error(
        "Communicator::post: this process is bound to rank " +
        std::to_string(local_rank_) + ", not rank " + std::to_string(rank));
  }
  const std::uint64_t seq = ++round_[rank];
  const bool wire = wire_latency_.count() > 0;
  for (const Index p : from_[static_cast<std::size_t>(rank)]) {
    // Back-pressure: the transport blocks until the receiver consumed the
    // previous round's message (single-slot semantics on every transport).
    transport_->waitSendSlot(static_cast<std::size_t>(p), seq);
    packMessage(static_cast<std::size_t>(p));
    const std::int64_t deliver_at_ns =
        wire ? nowNs() + std::chrono::duration_cast<std::chrono::nanoseconds>(
                             wire_latency_)
                             .count()
             : 0;
    transport_->publish(static_cast<std::size_t>(p), seq, deliver_at_ns);
  }
  transport_->addTraffic(rank_out_msgs_[rank], rank_out_bytes_[rank],
                         rank == 0 ? 1 : 0);
}

void Communicator::wait(Index rank) {
  if (local_rank_ != kAllRanks && rank != local_rank_) {
    throw std::logic_error(
        "Communicator::wait: this process is bound to rank " +
        std::to_string(local_rank_) + ", not rank " + std::to_string(rank));
  }
  const std::uint64_t seq = round_[rank];  // advanced by this round's post()
  for (const Index p : to_[static_cast<std::size_t>(rank)]) {
    const std::int64_t deliver_at_ns =
        transport_->waitPosted(static_cast<std::size_t>(p), seq);
    if (deliver_at_ns != 0) {
      // Sleep out whatever part of the wire latency the interior compute
      // did not already cover (the overlap win: usually none of it).
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(deliver_at_ns))));
    }
    unpackMessage(static_cast<std::size_t>(p));
    transport_->consume(static_cast<std::size_t>(p), seq);
  }
}

void Communicator::setWireLatency(double seconds) {
  wire_latency_ = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds < 0.0 ? 0.0 : seconds));
}

double Communicator::wireLatency() const {
  return std::chrono::duration<double>(wire_latency_).count();
}

} // namespace grist::parallel

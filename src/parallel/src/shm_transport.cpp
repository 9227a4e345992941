#include "grist/parallel/shm_transport.hpp"

#include <climits>
#include <stdexcept>

namespace grist::parallel {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t alignUp(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Wrap-safe "a is before b" on truncated 32-bit sequence numbers.
bool seqBefore(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

} // namespace

ShmTransport::ShmTransport(std::string segment_name, Index nranks, Index local_rank)
    : seg_name_(std::move(segment_name)), nranks_(nranks), local_rank_(local_rank) {
  if (nranks_ <= 0 || local_rank_ < 0 || local_rank_ >= nranks_) {
    throw std::invalid_argument("ShmTransport: rank " + std::to_string(local_rank_) +
                                " out of range for " + std::to_string(nranks_) +
                                " ranks");
  }
  // Handshake segment: fixed size given nranks, so it can exist before any
  // message sizes are known (planLocal's cross-process shape validation
  // runs through it).
  const std::size_t hs_bytes =
      alignUp(sizeof(Header)) + static_cast<std::size_t>(nranks_) * kShapeSlotBytes;
  if (local_rank_ == 0) {
    hs_region_ = ShmRegion::create(seg_name_ + "-hs", hs_bytes);
    hdr_ = static_cast<Header*>(hs_region_.payload());
    hdr_->nranks = nranks_;  // rest of the zero-filled header is ready as-is
    hs_region_.markReady();
  } else {
    hs_region_ = ShmRegion::attach(seg_name_ + "-hs", hs_bytes);
    hdr_ = static_cast<Header*>(hs_region_.payload());
    if (hdr_->nranks != nranks_) {
      throw std::runtime_error(
          "ShmTransport: segment " + seg_name_ + " was created for " +
          std::to_string(hdr_->nranks) + " ranks by pid " +
          std::to_string(hs_region_.creatorPid()) + ", this process expects " +
          std::to_string(nranks_));
    }
  }
  shapes_ = static_cast<std::uint8_t*>(hs_region_.payload()) + alignUp(sizeof(Header));
}

void ShmTransport::allocate(const std::vector<std::int64_t>& pattern_doubles) {
  if (data_region_.valid()) {
    if (pattern_doubles != sizes_) {
      throw std::runtime_error(
          "ShmTransport: the shared data segment is sized at first plan; "
          "re-planning with different message sizes is not supported");
    }
    barrier();  // collective contract: every allocate() is a rendezvous
    return;
  }
  std::size_t off = alignUp(pattern_doubles.size() * sizeof(Channel));
  std::vector<std::size_t> buf_off(pattern_doubles.size());
  for (std::size_t p = 0; p < pattern_doubles.size(); ++p) {
    buf_off[p] = off;
    off = alignUp(off + static_cast<std::size_t>(pattern_doubles[p]) * sizeof(double));
  }
  if (local_rank_ == 0) {
    data_region_ = ShmRegion::create(seg_name_, off);
    data_region_.markReady();  // zero-filled channels ARE the initial state
  } else {
    data_region_ = ShmRegion::attach(seg_name_, off);
  }
  auto* base = static_cast<std::uint8_t*>(data_region_.payload());
  channels_ = reinterpret_cast<Channel*>(base);
  bufs_.resize(pattern_doubles.size());
  for (std::size_t p = 0; p < pattern_doubles.size(); ++p) {
    bufs_[p] = reinterpret_cast<double*>(base + buf_off[p]);
  }
  sizes_ = pattern_doubles;
  // Nobody may post until every rank is mapped (a slow attacher must not
  // miss a doorbell rung before its mapping exists).
  barrier();
}

void ShmTransport::waitSendSlot(std::size_t p, std::uint64_t seq) {
  Channel& ch = channels_[p];
  const std::uint32_t want = static_cast<std::uint32_t>(seq - 1);
  for (std::uint32_t c = ch.consumed.load(std::memory_order_acquire);
       seqBefore(c, want); c = ch.consumed.load(std::memory_order_acquire)) {
    futexWait(&ch.consumed, c);
  }
}

void ShmTransport::publish(std::size_t p, std::uint64_t seq,
                           std::int64_t deliver_at_ns) {
  Channel& ch = channels_[p];
  ch.deliver_at_ns = deliver_at_ns;
  ch.posted.store(static_cast<std::uint32_t>(seq), std::memory_order_release);
  futexWake(&ch.posted, INT_MAX);
}

std::int64_t ShmTransport::waitPosted(std::size_t p, std::uint64_t seq) {
  Channel& ch = channels_[p];
  const std::uint32_t want = static_cast<std::uint32_t>(seq);
  for (std::uint32_t got = ch.posted.load(std::memory_order_acquire);
       seqBefore(got, want); got = ch.posted.load(std::memory_order_acquire)) {
    futexWait(&ch.posted, got);
  }
  return ch.deliver_at_ns;
}

void ShmTransport::consume(std::size_t p, std::uint64_t seq) {
  Channel& ch = channels_[p];
  ch.consumed.store(static_cast<std::uint32_t>(seq), std::memory_order_release);
  futexWake(&ch.consumed, INT_MAX);
}

void ShmTransport::addTraffic(std::int64_t messages, std::int64_t bytes,
                              std::int64_t exchanges) {
  hdr_->messages.fetch_add(messages, std::memory_order_relaxed);
  hdr_->bytes.fetch_add(bytes, std::memory_order_relaxed);
  hdr_->exchanges.fetch_add(exchanges, std::memory_order_relaxed);
}

CommStats ShmTransport::stats() const {
  CommStats s;
  s.messages = hdr_->messages.load(std::memory_order_relaxed);
  s.bytes = hdr_->bytes.load(std::memory_order_relaxed);
  s.exchanges = hdr_->exchanges.load(std::memory_order_relaxed);
  return s;
}

void ShmTransport::resetStats() {
  hdr_->messages.store(0, std::memory_order_relaxed);
  hdr_->bytes.store(0, std::memory_order_relaxed);
  hdr_->exchanges.store(0, std::memory_order_relaxed);
}

void ShmTransport::barrier() {
  // Sense-reversing futex barrier in the shared header. The last arriver
  // resets the count and bumps the generation; everyone else waits for the
  // generation to move (in slices, so a killed peer surfaces as a test
  // timeout instead of an unbounded hang).
  Header& h = *hdr_;
  const std::uint32_t gen = h.barrier_gen.load(std::memory_order_acquire);
  if (h.barrier_arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(nranks_)) {
    h.barrier_arrived.store(0, std::memory_order_relaxed);
    h.barrier_gen.store(gen + 1, std::memory_order_release);
    futexWake(&h.barrier_gen, INT_MAX);
  } else {
    while (h.barrier_gen.load(std::memory_order_acquire) == gen) {
      futexWait(&h.barrier_gen, gen, 0.05);
    }
  }
}

std::uint8_t* ShmTransport::shapeSlot(Index rank) {
  return shapes_ + static_cast<std::size_t>(rank) * kShapeSlotBytes;
}

void ShmTransport::unlinkSegments(const std::string& segment_name) {
  ShmRegion::unlink(segment_name);
  ShmRegion::unlink(segment_name + "-hs");
}

} // namespace grist::parallel

#include "grist/parallel/transport.hpp"

namespace grist::parallel {

void InProcessTransport::allocate(const std::vector<std::int64_t>& pattern_doubles) {
  slots_.resize(pattern_doubles.size());
  for (std::size_t p = 0; p < pattern_doubles.size(); ++p) {
    if (!slots_[p]) slots_[p] = std::make_unique<Slot>();
    // resize() is a no-op for unchanged sizes, so a warm replan allocates
    // nothing; sequence words survive replans (rounds keep counting across
    // a shape change).
    slots_[p]->buffer.resize(static_cast<std::size_t>(pattern_doubles[p]));
  }
}

void InProcessTransport::waitSendSlot(std::size_t p, std::uint64_t seq) {
  Slot& s = *slots_[p];
  // Back-pressure: do not overwrite a message the receiver has not
  // consumed yet (it can be at most one round behind). Blocks on the
  // atomic's futex rather than spinning -- rank threads are typically
  // oversubscribed on the host cores.
  for (std::uint64_t c = s.consumed.load(std::memory_order_acquire);
       c + 1 < seq; c = s.consumed.load(std::memory_order_acquire)) {
    s.consumed.wait(c, std::memory_order_acquire);
  }
}

void InProcessTransport::publish(std::size_t p, std::uint64_t seq,
                                 std::int64_t deliver_at_ns) {
  Slot& s = *slots_[p];
  s.deliver_at_ns = deliver_at_ns;
  s.posted.store(seq, std::memory_order_release);
  s.posted.notify_all();
}

std::int64_t InProcessTransport::waitPosted(std::size_t p, std::uint64_t seq) {
  Slot& s = *slots_[p];
  for (std::uint64_t got = s.posted.load(std::memory_order_acquire);
       got < seq; got = s.posted.load(std::memory_order_acquire)) {
    s.posted.wait(got, std::memory_order_acquire);
  }
  return s.deliver_at_ns;
}

void InProcessTransport::consume(std::size_t p, std::uint64_t seq) {
  Slot& s = *slots_[p];
  s.consumed.store(seq, std::memory_order_release);
  s.consumed.notify_all();
}

void InProcessTransport::addTraffic(std::int64_t messages, std::int64_t bytes,
                                    std::int64_t exchanges) {
  stat_messages_.fetch_add(messages, std::memory_order_relaxed);
  stat_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  stat_exchanges_.fetch_add(exchanges, std::memory_order_relaxed);
}

CommStats InProcessTransport::stats() const {
  CommStats s;
  s.messages = stat_messages_.load(std::memory_order_relaxed);
  s.bytes = stat_bytes_.load(std::memory_order_relaxed);
  s.exchanges = stat_exchanges_.load(std::memory_order_relaxed);
  return s;
}

void InProcessTransport::resetStats() {
  stat_messages_.store(0, std::memory_order_relaxed);
  stat_bytes_.store(0, std::memory_order_relaxed);
  stat_exchanges_.store(0, std::memory_order_relaxed);
}

} // namespace grist::parallel

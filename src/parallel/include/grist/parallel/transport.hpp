// Transport seam under the Communicator's packed exchange: who owns the
// per-pattern message slot, and how sender and receiver synchronize on it.
//
// The Communicator's contract (PR 3) is pack -> ONE copy -> unpack: each
// exchange pattern's queued variables are packed into a single contiguous
// message buffer, the receiver unpacks straight out of that buffer, and a
// single-slot sequence-number protocol (posted/consumed) provides both the
// rendezvous and the back-pressure. A Transport supplies exactly that slot:
//
//   buffer(p)                where pack() writes / unpack() reads -- the
//                            SAME memory on both sides, so the only data
//                            movement is the pack on the sender and the
//                            unpack on the receiver (zero intermediate
//                            copies, whatever address spaces are involved)
//   waitSendSlot(p, seq)     sender back-pressure: block until the receiver
//                            consumed round seq-1 (slots are single-slot
//                            rings, not queues)
//   publish(p, seq, t)       release the packed round seq (+ its emulated
//                            wire-delivery deadline) and ring the doorbell
//   waitPosted(p, seq)       receiver: block until round seq is published;
//                            returns the delivery deadline (0 = instant)
//   consume(p, seq)          receiver: round seq unpacked; frees the slot
//
// Two implementations:
//   InProcessTransport (default)  heap buffers + std::atomic wait/notify,
//                                 the PR 3 semantics verbatim -- all ranks
//                                 share one address space.
//   ShmTransport                  the buffers and sequence words live in a
//                                 POSIX shared-memory segment and the
//                                 doorbells are raw futexes, so the ranks
//                                 may be separate OS processes
//                                 (shm_transport.hpp).
// Both keep the traffic counters (CommStats) O(1) per round; for the shm
// transport they are process-shared atomics, so every rank process reads
// the same run-wide totals the in-process transport reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "grist/common/types.hpp"

namespace grist::parallel {

/// Traffic accounting for one or more exchange calls.
struct CommStats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t exchanges = 0;

  CommStats& operator+=(const CommStats& o) {
    messages += o.messages;
    bytes += o.bytes;
    exchanges += o.exchanges;
    return *this;
  }
};

class Transport {
 public:
  /// Fixed-size per-rank scratch the Communicator uses to cross-validate
  /// queued variable shapes between rank processes (see shapeSlot()).
  static constexpr std::size_t kShapeSlotBytes = 256;

  virtual ~Transport() = default;

  /// Short name used in error messages ("in-process", "shm").
  virtual const char* name() const = 0;

  /// True when each rank runs in its own OS process: the Communicator must
  /// then be bound to a single local rank (planLocal).
  virtual bool distributed() const = 0;

  /// Size (doubles) of every pattern's single-slot message buffer. Called
  /// at plan() time; must be idempotent for unchanged sizes (a warm replan
  /// allocates nothing). For a distributed transport this is the collective
  /// rendezvous that creates or attaches the shared segment -- EVERY rank
  /// process must call it with identical sizes.
  virtual void allocate(const std::vector<std::int64_t>& pattern_doubles) = 0;

  /// Pattern p's message slot; stable until the next allocate().
  virtual double* buffer(std::size_t p) = 0;

  // SPSC single-slot protocol (sequence numbers start at 1 on first use):
  virtual void waitSendSlot(std::size_t p, std::uint64_t seq) = 0;
  virtual void publish(std::size_t p, std::uint64_t seq,
                       std::int64_t deliver_at_ns) = 0;
  virtual std::int64_t waitPosted(std::size_t p, std::uint64_t seq) = 0;
  virtual void consume(std::size_t p, std::uint64_t seq) = 0;

  // O(1)-per-round traffic counters (run-wide totals on every transport).
  virtual void addTraffic(std::int64_t messages, std::int64_t bytes,
                          std::int64_t exchanges) = 0;
  virtual CommStats stats() const = 0;
  virtual void resetStats() = 0;

  // Distributed-mode collectives (no-ops for the in-process transport):
  /// Block until every rank process reached the same barrier call.
  virtual void barrier() {}
  /// Per-rank kShapeSlotBytes scratch in the shared segment, used by
  /// Communicator::planLocal to publish this rank's queued shapes and read
  /// every peer's. nullptr when the transport has no cross-process seam.
  virtual std::uint8_t* shapeSlot(Index /*rank*/) { return nullptr; }
};

/// PR 3's in-process slot semantics behind the Transport seam: heap
/// buffers, std::atomic sequence words, futex-blocking wait/notify.
class InProcessTransport final : public Transport {
 public:
  const char* name() const override { return "in-process"; }
  bool distributed() const override { return false; }

  void allocate(const std::vector<std::int64_t>& pattern_doubles) override;
  double* buffer(std::size_t p) override { return slots_[p]->buffer.data(); }

  void waitSendSlot(std::size_t p, std::uint64_t seq) override;
  void publish(std::size_t p, std::uint64_t seq,
               std::int64_t deliver_at_ns) override;
  std::int64_t waitPosted(std::size_t p, std::uint64_t seq) override;
  void consume(std::size_t p, std::uint64_t seq) override;

  void addTraffic(std::int64_t messages, std::int64_t bytes,
                  std::int64_t exchanges) override;
  CommStats stats() const override;
  void resetStats() override;

 private:
  /// One pattern's single-slot message. `posted`/`consumed` carry the round
  /// sequence numbers; `consumed` also provides the back-pressure that
  /// keeps a fast sender from overwriting a message its receiver has not
  /// unpacked yet. Slots are unique_ptrs so replanning never moves a live
  /// atomic.
  struct Slot {
    std::vector<double> buffer;
    std::atomic<std::uint64_t> posted{0};
    std::atomic<std::uint64_t> consumed{0};
    /// Emulated delivery deadline (CLOCK_MONOTONIC ns; 0 = instant).
    /// Written before the release-store of `posted`, read after the
    /// acquire-load in waitPosted, so it needs no atomicity itself.
    std::int64_t deliver_at_ns = 0;
  };

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::int64_t> stat_messages_{0};
  std::atomic<std::int64_t> stat_bytes_{0};
  std::atomic<std::int64_t> stat_exchanges_{0};
};

} // namespace grist::parallel

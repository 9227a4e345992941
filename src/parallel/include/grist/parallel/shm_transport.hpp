// Zero-copy cross-process transport: the Communicator's per-pattern message
// slots live in POSIX shared-memory segments (ShmRegion) mapped by every
// rank process, and the doorbells are raw futexes on 32-bit sequence words
// in those segments.
//
// Two segments per run:
//
//   "<name>-hs"  handshake segment, sized by nranks alone and mapped at
//                CONSTRUCTION: startup barrier words, the run-wide CommStats
//                atomics, and one kShapeSlotBytes shape slot per rank. It
//                exists before any message sizes are known, which is what
//                lets Communicator::planLocal cross-validate the queued
//                variable shapes BETWEEN processes before anyone sizes a
//                message buffer -- a mismatch dies with an error naming the
//                transport and the peer rank/pid instead of surfacing as a
//                segment-size conflict.
//   "<name>"     data segment, sized from the cross-validated plan and
//                mapped in allocate(): per-pattern channels (posted/consumed
//                sequence words -- the futex doorbells -- plus the
//                wire-delivery deadline) followed by the packed message
//                slots, 64-byte aligned.
//
// The protocol is PR 3's single-slot SPSC scheme verbatim, only the
// synchronization primitive changes: libstdc++'s std::atomic::wait/notify
// keeps its waiter pool in process-local memory, so cross-process doorbells
// must be raw FUTEX_WAIT/FUTEX_WAKE (no FUTEX_PRIVATE_FLAG) on 32-bit
// words. Sequence numbers are truncated to uint32 with wrap-safe
// (int32)(got - want) < 0 comparisons; a channel would need > 4 billion
// exchange rounds to alias.
//
// Zero intermediate copies: the sender packs straight into the mapped slot
// and the receiver unpacks straight out of it -- crossing the process
// boundary adds no memcpy over the in-process transport.
//
// Segments are created by rank 0 (reclaiming stale leftovers whose creator
// is dead, see ShmRegion::create) and attached by the rest; allocate() ends
// with a barrier so nobody posts before everyone is mapped. The launcher
// unlinks both names at teardown.
#pragma once

#include <string>
#include <vector>

#include "grist/parallel/shm_region.hpp"
#include "grist/parallel/transport.hpp"

namespace grist::parallel {

class ShmTransport final : public Transport {
 public:
  /// `segment_name` ("/grist-mp-<token>") is shared by all rank processes
  /// of one run; `local_rank` is the rank THIS process plays. The
  /// constructor is a collective rendezvous on the handshake segment.
  ShmTransport(std::string segment_name, Index nranks, Index local_rank);

  const char* name() const override { return "shm"; }
  bool distributed() const override { return true; }

  void allocate(const std::vector<std::int64_t>& pattern_doubles) override;
  double* buffer(std::size_t p) override { return bufs_[p]; }

  void waitSendSlot(std::size_t p, std::uint64_t seq) override;
  void publish(std::size_t p, std::uint64_t seq,
               std::int64_t deliver_at_ns) override;
  std::int64_t waitPosted(std::size_t p, std::uint64_t seq) override;
  void consume(std::size_t p, std::uint64_t seq) override;

  void addTraffic(std::int64_t messages, std::int64_t bytes,
                  std::int64_t exchanges) override;
  CommStats stats() const override;
  void resetStats() override;

  void barrier() override;
  std::uint8_t* shapeSlot(Index rank) override;

  const std::string& segmentName() const { return seg_name_; }
  Index localRank() const { return local_rank_; }

  /// Unlink both segment names of a run (launcher teardown; idempotent).
  static void unlinkSegments(const std::string& segment_name);

  /// One pattern's doorbell + slot metadata inside the data segment.
  /// Sender and receiver words sit on separate cache lines (the sender
  /// waits on `consumed`, the receiver on `posted`).
  struct alignas(64) Channel {
    std::atomic<std::uint32_t> posted;
    std::uint32_t pad0_;
    /// Written by the sender before the release-store of `posted`, read by
    /// the receiver after the acquire-load in waitPosted -- the sequence
    /// word orders it across the process boundary.
    std::int64_t deliver_at_ns;
    char pad1_[48];
    std::atomic<std::uint32_t> consumed;
    char pad2_[60];
  };
  static_assert(sizeof(Channel) == 128);

 private:
  struct alignas(64) Header {
    std::int32_t nranks;
    std::atomic<std::uint32_t> barrier_arrived;
    std::atomic<std::uint32_t> barrier_gen;
    std::int32_t pad0_;
    std::atomic<std::int64_t> messages;
    std::atomic<std::int64_t> bytes;
    std::atomic<std::int64_t> exchanges;
    char pad1_[128 - 40];
  };
  static_assert(sizeof(Header) == 128);

  std::string seg_name_;
  Index nranks_;
  Index local_rank_;

  ShmRegion hs_region_;                    // header + shape slots
  Header* hdr_ = nullptr;
  std::uint8_t* shapes_ = nullptr;

  ShmRegion data_region_;                  // channels + message buffers
  std::vector<std::int64_t> sizes_;        // allocate() idempotency check
  Channel* channels_ = nullptr;
  std::vector<double*> bufs_;
};

} // namespace grist::parallel

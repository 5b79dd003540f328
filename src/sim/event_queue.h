// Monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster Algorithms
// for the Shortest Path Problem", JACM 1990) for simulator events, keyed on
// (time, seq).
//
// Simulated time never goes backwards — the engine only posts events at
// now or later — so a monotone queue is enough, and a radix heap gives one
// with no comparisons on insert:
//
//   - The cursor cur_ is the time of the latest minimum. Bucket 0 holds
//     the events at exactly cur_; bucket b >= 1 holds the events whose
//     highest bit that differs from cur_ is bit b-1. Each bucket is an
//     intrusive FIFO list threaded through Event::next, and one 64-bit
//     word marks the non-empty buckets. Insert is one countl_zero and a
//     tail append.
//
//   - Pop takes the head of bucket 0. When bucket 0 is empty, the lowest
//     non-empty bucket b holds the minimum: pop scans it for the minimum
//     time, moves the cursor there and re-appends the bucket's events in
//     list order. Each of them lands in a bucket below b. Every bucket
//     above b keeps its events, because the new cursor agrees with the old
//     one on every bit above b-1. So an event moves at most 63 times over
//     its life.
//
// Why dispatch stays FIFO on (time, seq): an event's bucket depends only
// on its time and the cursor, so all events of one time always share a
// bucket. Inserts append in seq order (seq grows monotonically), and a
// re-append walks the old bucket in list order into buckets that were
// empty, so events of equal time never change their relative order.
// Bucket 0 is therefore exactly the events at cur_, in seq order.
//
// Bucket 64 would hold times that differ from the cursor in bit 63; Time
// is a non-negative int64, so none do, and 64 buckets fill the one word.
//
// Event nodes are freelist-recycled from slab arenas: the steady state
// allocates nothing, and the same few cache-hot nodes cycle through the
// dispatch loop.
//
// The only mutating read is pop_at_or_before(limit): the cursor never
// advances past `limit`, so the engine invariant "inserts happen at
// time >= now" keeps every insert at or ahead of the cursor and nothing
// can be scheduled into the queue's past.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace amoeba::sim {

class Process;

/// One scheduled event. `fn` empty means a process wake (target `p`,
/// valid for `epoch`); otherwise a scheduler-context closure.
struct Event {
  Time time = 0;
  std::uint64_t seq = 0;
  Event* next = nullptr;  // intrusive bucket-list link
  Process* p = nullptr;
  std::uint64_t epoch = 0;
  InlineFn fn;
};

class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Get a fresh node (freelist or arena). Caller fills it in and must
  /// either insert() it or release() it.
  Event* acquire();

  /// Return a node to the freelist (destroys its closure).
  void release(Event* e);

  /// Insert a filled-in node. e->time must be >= the queue's cursor (the
  /// engine guarantees this: events are posted at now or later).
  void insert(Event* e);

  /// Pop the earliest event with time <= limit, or nullptr. The cursor
  /// never advances past limit.
  Event* pop_at_or_before(Time limit);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::size_t kArenaBlock = 256;  // events per slab

  struct Bucket {
    Event* head = nullptr;
    Event* tail = nullptr;
  };
  struct FreeNode {
    FreeNode* next;
  };

  /// Tail-append `e` to the bucket its time falls in relative to cur_.
  void append(Event* e);

  std::array<Bucket, kBuckets> buckets_{};
  std::uint64_t nonempty_ = 0;  // bit b set <=> buckets_[b] holds events
  Time cur_ = 0;                // cursor; inserts satisfy time >= cur_
  std::size_t size_ = 0;

  FreeNode* free_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> arena_;
};

}  // namespace amoeba::sim

#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

namespace amoeba::sim {

static_assert(sizeof(Event) >= sizeof(void*), "freelist reuses event slots");

EventQueue::~EventQueue() {
  // Destroy any events still queued (undrained run, shutdown mid-flight).
  for (Bucket& b : buckets_) {
    for (Event* e = b.head; e != nullptr;) {
      Event* n = e->next;
      e->~Event();
      e = n;
    }
  }
  // Freelist nodes hold already-destroyed events; arena_ frees the slabs.
}

Event* EventQueue::acquire() {
  void* mem;
  if (free_ != nullptr) {
    mem = free_;
    free_ = free_->next;
  } else {
    auto block = std::make_unique<std::byte[]>(kArenaBlock * sizeof(Event));
    std::byte* base = block.get();
    arena_.push_back(std::move(block));
    // Chunks [1, kArenaBlock) seed the freelist; chunk 0 is returned.
    for (std::size_t i = kArenaBlock; i-- > 1;) {
      auto* n = reinterpret_cast<FreeNode*>(base + i * sizeof(Event));
      n->next = free_;
      free_ = n;
    }
    mem = base;
  }
  return new (mem) Event{};
}

void EventQueue::release(Event* e) {
  e->~Event();
  auto* n = reinterpret_cast<FreeNode*>(e);
  n->next = free_;
  free_ = n;
}

void EventQueue::append(Event* e) {
  const auto diff = static_cast<std::uint64_t>(e->time ^ cur_);
  const auto idx = static_cast<std::size_t>(64 - std::countl_zero(diff));
  assert(idx < kBuckets && "event times are non-negative");
  Bucket& b = buckets_[idx];
  e->next = nullptr;
  if (b.tail != nullptr) {
    b.tail->next = e;
  } else {
    b.head = e;
    nonempty_ |= std::uint64_t{1} << idx;
  }
  b.tail = e;
}

void EventQueue::insert(Event* e) {
  assert(e->time >= cur_ && "event scheduled into the queue's past");
  ++size_;
  append(e);
}

Event* EventQueue::pop_at_or_before(Time limit) {
  if ((nonempty_ & 1) == 0) {
    if (nonempty_ == 0) return nullptr;
    // Bucket 0 is empty: the minimum sits in the lowest non-empty bucket.
    const auto idx = static_cast<std::size_t>(std::countr_zero(nonempty_));
    Event* e = buckets_[idx].head;
    Time t = e->time;
    for (Event* s = e->next; s != nullptr; s = s->next) {
      t = std::min(t, s->time);
    }
    if (t > limit) return nullptr;  // cursor stays <= limit
    cur_ = t;
    buckets_[idx] = Bucket{};
    nonempty_ &= ~(std::uint64_t{1} << idx);
    // Re-append in list order; every event lands in a bucket below idx.
    while (e != nullptr) {
      Event* n = e->next;
      append(e);
      e = n;
    }
  } else if (cur_ > limit) {
    return nullptr;
  }
  Bucket& zero = buckets_[0];
  Event* e = zero.head;
  zero.head = e->next;
  if (zero.head == nullptr) {
    zero.tail = nullptr;
    nonempty_ &= ~std::uint64_t{1};
  }
  --size_;
  return e;
}

}  // namespace amoeba::sim

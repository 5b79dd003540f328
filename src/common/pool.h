// Size-class freelist allocator for the simulator's steady-state hot path.
//
// Payload buffers, mailbox deque blocks and wire-span hash nodes are
// allocated and freed millions of times per run with a small set of
// recurring sizes; the global allocator's malloc/free pair dominates the
// profile once the event queue itself is cheap. PoolAllocator<T> is a
// stateless std-compatible allocator that recycles freed chunks through
// per-size-class freelists, so the steady state performs zero calls into
// operator new.
//
// Chunks live in slabs that are never returned to the OS (process-lifetime
// caches, like tcmalloc's central lists). Freed chunks are reachable via
// the freelist heads, so leak checkers stay quiet.
//
// Under AddressSanitizer (and friends) pooling would mask use-after-free
// and overflow bugs, so the allocator degrades to plain operator new —
// sanitizer builds validate memory safety, release builds get the speed.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AMOEBA_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define AMOEBA_POOL_PASSTHROUGH 1
#endif
#endif
#ifndef AMOEBA_POOL_PASSTHROUGH
#define AMOEBA_POOL_PASSTHROUGH 0
#endif

namespace amoeba {
namespace pool_detail {

inline constexpr std::size_t kMinClass = 16;    // 2^4
inline constexpr std::size_t kMaxClass = 4096;  // 2^12
inline constexpr std::size_t kNumClasses = 9;   // 16, 32, ..., 4096

struct FreeNode {
  FreeNode* next;
};

/// One freelist per size class. thread_local so independent simulators on
/// different threads (parallel seed sweeps in one process) never contend.
struct Cache {
  FreeNode* free[kNumClasses] = {};
};

inline Cache& cache() {
  thread_local Cache c;
  return c;
}

/// Index of the smallest class that fits `bytes` (bytes <= kMaxClass).
/// Rounds max(bytes, kMinClass), not `bytes | kMinClass`: the OR would
/// move every power of two above 16 up a class, and kMaxClass itself to
/// index kNumClasses, one past the freelist heads.
inline std::size_t class_index(std::size_t bytes) {
  const std::size_t sz = std::bit_ceil(bytes < kMinClass ? kMinClass : bytes);
  return static_cast<std::size_t>(std::countr_zero(sz)) - 4;
}

inline constexpr std::size_t class_size(std::size_t idx) {
  return kMinClass << idx;
}

void* refill_and_pop(std::size_t idx);  // slow path: carve a new slab

inline void* allocate(std::size_t bytes) {
#if AMOEBA_POOL_PASSTHROUGH
  return ::operator new(bytes);
#else
  if (bytes > kMaxClass) return ::operator new(bytes);
  const std::size_t idx = class_index(bytes);
  FreeNode*& head = cache().free[idx];
  if (head == nullptr) return refill_and_pop(idx);
  FreeNode* n = head;
  head = n->next;
  return n;
#endif
}

inline void deallocate(void* p, std::size_t bytes) noexcept {
#if AMOEBA_POOL_PASSTHROUGH
  ::operator delete(p);
#else
  if (bytes > kMaxClass) {
    ::operator delete(p);
    return;
  }
  FreeNode*& head = cache().free[class_index(bytes)];
  auto* n = static_cast<FreeNode*>(p);
  n->next = head;
  head = n;
#endif
}

}  // namespace pool_detail

template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(implicit)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(pool_detail::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_detail::deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

}  // namespace amoeba

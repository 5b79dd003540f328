// FNV-1a 64-bit: the hash behind every same-seed digest (trace, engine and
// replica-state digests).
#pragma once

#include <cstddef>
#include <cstdint>

namespace amoeba {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Folds `n` bytes at `data` into `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Folds the eight bytes of `v` into `h`, least significant first.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace amoeba

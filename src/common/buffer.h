// Flat byte buffers plus a small binary codec (little-endian, length-prefixed
// strings). All wire messages in the system are encoded with Writer and
// decoded with Reader. Decoding errors throw DecodeError, which service code
// catches at the message boundary and converts into Errc::bad_request.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/pool.h"

namespace amoeba {

/// Payload bytes ride the freelist pool: packets are created and destroyed
/// on every network event, and the pool keeps those churn allocations off
/// the global heap (see pool.h).
using Buffer = std::vector<std::uint8_t, PoolAllocator<std::uint8_t>>;

/// Thrown by Reader when the input is truncated or malformed.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width integers / blobs to a Buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(Buffer initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void bytes(const std::uint8_t* data, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    buf_.insert(buf_.end(), data, data + n);
  }
  void bytes(const Buffer& b) { bytes(b.data(), b.size()); }
  void str(std::string_view s) {
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Raw append without a length prefix (caller knows the framing).
  void raw(const Buffer& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  Buffer take() { return std::move(buf_); }
  [[nodiscard]] const Buffer& view() const { return buf_; }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Buffer buf_;
};

/// Consumes a Buffer front-to-back; throws DecodeError on underflow.
class Reader {
 public:
  explicit Reader(const Buffer& buf) : buf_(buf) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }

  /// Reads an element count (T = std::uint16_t or std::uint32_t) for
  /// elements of at least `min_size` encoded bytes each, and throws unless
  /// that many can still follow. A corrupt count therefore fails here
  /// instead of reaching an allocator through reserve().
  template <typename T>
  T count(std::size_t min_size) {
    const auto n = static_cast<T>(get_le(sizeof(T)));
    if (static_cast<std::uint64_t>(n) * min_size > remaining()) {
      throw DecodeError("element count exceeds message");
    }
    return n;
  }

  Buffer bytes() {
    std::size_t n = u32();
    need(n);
    Buffer out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string str() {
    Buffer b = bytes();
    return std::string(b.begin(), b.end());
  }

  /// Everything not yet consumed, without a length prefix.
  Buffer rest() {
    Buffer out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_), buf_.end());
    pos_ = buf_.size();
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }

  /// Throws unless the whole buffer was consumed; guards against trailing
  /// garbage in wire messages.
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes in message");
  }

 private:
  void need(std::size_t n) const {
    if (buf_.size() - pos_ < n) throw DecodeError("message truncated");
  }
  std::uint64_t get_le(int n) {
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const Buffer& buf_;
  std::size_t pos_ = 0;
};

/// Convenience: buffer from a string literal (tests, examples).
Buffer to_buffer(std::string_view s);
std::string to_string(const Buffer& b);

}  // namespace amoeba

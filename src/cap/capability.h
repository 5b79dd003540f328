// Amoeba capabilities: the 128-bit protected object references the directory
// service stores (paper Sec. 2).
//
// Layout (matching the paper): 48-bit service port, 24-bit object number,
// 8-bit rights field, 48-bit check field. The check field is generated from
// a per-object secret with a one-way function; restricting rights rehashes
// the check so holders cannot amplify their rights.
#pragma once

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "net/packet.h"

namespace amoeba::cap {

using Rights = std::uint8_t;

inline constexpr Rights kRightsAll = 0xff;
inline constexpr Rights kRightRead = 0x01;
inline constexpr Rights kRightWrite = 0x02;
inline constexpr Rights kRightDelete = 0x04;
inline constexpr Rights kRightAdmin = 0x08;

struct Capability {
  net::Port port;               // service that owns the object
  std::uint32_t object = 0;     // 24 significant bits
  Rights rights = 0;
  std::uint64_t check = 0;      // 48 significant bits

  [[nodiscard]] bool is_null() const { return port.v == 0 && object == 0; }
  auto operator<=>(const Capability&) const = default;

  /// Bytes written by encode(): port, object, rights, check.
  static constexpr std::size_t kEncodedSize = 8 + 4 + 1 + 8;

  void encode(Writer& w) const;
  static Capability decode(Reader& r);

  [[nodiscard]] std::string to_string() const;
};

inline constexpr Capability kNullCap{};

/// Check-field algebra. The server keeps one random 48-bit secret per
/// object; capabilities in user hands carry only derived check fields.
///
/// An all-rights capability carries the secret itself (as in Amoeba); a
/// restricted capability carries one_way(secret ^ rights-mask), which cannot
/// be inverted to recover the secret.
class CheckScheme {
 public:
  /// Check field for a capability with the given rights.
  static std::uint64_t make_check(std::uint64_t secret, Rights rights);

  /// Validate a capability against the object's secret.
  static bool verify(const Capability& c, std::uint64_t secret);

  /// Derive a weaker capability (rights &= mask) from a valid one. The
  /// caller must know the secret (i.e. the server performs this).
  static Capability restrict(const Capability& c, Rights mask,
                             std::uint64_t secret);

  static constexpr std::uint64_t kCheckMask = (1ULL << 48) - 1;
};

}  // namespace amoeba::cap

// Checked parsers for numeric command-line arguments: the whole string
// must be the number, so a typo is refused instead of read as its prefix.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>

namespace amoeba {

/// A decimal u64: digits only (no sign, space or suffix), no overflow.
inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

/// "N" as {N, N}, or the inclusive range "A..B" as {A, B} with A <= B.
inline std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_range(
    std::string_view s) {
  const std::size_t dots = s.find("..");
  const auto lo = parse_u64(s.substr(0, dots));
  const auto hi =
      dots == std::string_view::npos ? lo : parse_u64(s.substr(dots + 2));
  if (!lo || !hi || *hi < *lo) return std::nullopt;
  return std::pair{*lo, *hi};
}

}  // namespace amoeba

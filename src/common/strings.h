// Small string builders.
#pragma once

#include <string>
#include <string_view>

namespace amoeba {

/// `prefix` followed by std::to_string(n): numbered("k", 3) is "k3". Use it
/// for `"k" + std::to_string(n)`: GCC 12's optimiser reports a false
/// -Wrestrict for that operator+ (GCC bug 105651), which fails a Release
/// -DAMOEBA_WERROR=ON build. Appending does not trip it.
template <class Int>
std::string numbered(std::string_view prefix, Int n) {
  return std::string(prefix).append(std::to_string(n));
}

}  // namespace amoeba

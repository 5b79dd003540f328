// Allocation probe for hot-path tests: the replacement global operator new
// counts while armed, then delegates to malloc. Link-time replacement
// covers the whole test binary, so include this from one source file per
// binary and arm it only around the section under test.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::size_t g_alloc_count = 0;
bool g_count_allocs = false;
}  // namespace

// GCC flags free() on new'ed pointers without seeing that the replacement
// operator new below is itself malloc-backed — a false positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

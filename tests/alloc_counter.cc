#include "tests/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

// Counts every unaligned operator new (array and nothrow forms reach these
// too). All of them pair malloc with free, so sanitizer builds see
// consistent pairs. They stay out of line, where GCC cannot mistake a
// malloc'd pointer's free for a mismatch.
static std::atomic<uint64_t> g_operator_news{0};

[[gnu::noinline]] void* operator new(size_t size) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new(size_t size,
                                     const std::nothrow_t&) noexcept {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace dlsm {
namespace test {

uint64_t OperatorNewCount() {
  return g_operator_news.load(std::memory_order_relaxed);
}

}  // namespace test
}  // namespace dlsm

// Global operator new/delete replacement that counts every heap allocation
// made through operator new, by this binary and by the mado libraries
// linked into it. Two views:
//   - a plain thread-local count, read around single calls on the calling
//     thread (exact per-call attribution when one thread does the work);
//   - a process-wide count, sharded over cache-line-padded atomics so the
//     counting threads do not bounce one line between cores.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace pb {
namespace {

constexpr unsigned kShards = 64;
struct alignas(64) Shard {
  std::atomic<std::uint64_t> n{0};
};
Shard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};

thread_local std::uint64_t t_allocs = 0;
thread_local int t_shard = -1;

inline void count_one() {
  ++t_allocs;
  if (t_shard < 0)
    t_shard = static_cast<int>(
        g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards);
  g_shards[t_shard].n.fetch_add(1, std::memory_order_relaxed);
}

void* alloc(std::size_t n) {
  count_one();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* alloc_aligned(std::size_t n, std::align_val_t al) {
  count_one();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t thread_allocs() { return t_allocs; }

std::uint64_t process_allocs() {
  std::uint64_t sum = 0;
  for (const Shard& s : g_shards) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace pb

void* operator new(std::size_t n) { return pb::alloc(n); }
void* operator new[](std::size_t n) { return pb::alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return pb::alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return pb::alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return pb::alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return pb::alloc_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

// Payload slab: a free list of byte buffers for small-eager payload copies,
// engine-generated control bodies, and packet header blocks.
//
// Every eager submit in Safe/Cheaper-copy mode used to heap-allocate a
// fresh Bytes for the payload copy, and every packet allocated a header
// block — both freed when the packet completed. Under steady-state traffic
// the engine cycles through similarly-sized buffers, so those allocations
// are pure churn on the submit/decision path. The slab retains completed
// buffers (depth- and capacity-capped) and hands them back to the next
// taker: steady state performs zero heap allocations for payload copies or
// header blocks.
//
// Counters (when a StatsRegistry is attached):
//   opt.slab_hits    — takes satisfied from the free list
//   opt.slab_misses  — takes that had to allocate a fresh buffer
//   opt.alloc_bytes  — bytes heap-reserved by takes (misses + regrows)
//
// Not thread-safe by design: owned by one engine, used under its lock.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/wire.hpp"

namespace mado::core {

class PayloadSlab {
 public:
  /// Free-list depth: completed buffers beyond it are released.
  static constexpr std::size_t kMaxBuffers = 64;
  /// Largest buffer the slab retains; bigger ones are never pooled.
  static constexpr std::size_t kMaxCapacity = 64 * 1024;

  explicit PayloadSlab(StatsRegistry* stats = nullptr) : stats_(stats) {
    free_.reserve(kMaxBuffers);
  }

  /// An empty buffer with capacity >= `reserve_hint`. Reuses a retained
  /// buffer when possible; otherwise allocates and accounts the bytes
  /// under opt.alloc_bytes.
  Bytes take(std::size_t reserve_hint) {
    if (!free_.empty()) {
      Bytes b = std::move(free_.back());
      free_.pop_back();
      if (stats_) stats_->inc("opt.slab_hits");
      if (b.capacity() < reserve_hint) {
        if (stats_) stats_->inc("opt.alloc_bytes", reserve_hint);
        b.reserve(reserve_hint);
      }
      return b;
    }
    if (stats_) {
      stats_->inc("opt.slab_misses");
      stats_->inc("opt.alloc_bytes", reserve_hint);
    }
    Bytes b;
    b.reserve(reserve_hint);
    return b;
  }

  /// Return a completed buffer for reuse. Empty buffers are ignored;
  /// buffers above the capacity cap and overflow beyond the depth cap are
  /// freed immediately (retaining them would pin memory) and counted as
  /// cap.slab_sheds — the budget enforcement working as intended, but a
  /// high rate means the caps are too tight for the workload.
  void recycle(Bytes&& b) {
    if (b.capacity() == 0) return;
    if (b.capacity() > kMaxCapacity || free_.size() >= kMaxBuffers) {
      if (stats_) stats_->inc("cap.slab_sheds");
      Bytes{}.swap(b);  // release now
      return;
    }
    b.clear();
    free_.push_back(std::move(b));
  }

 private:
  StatsRegistry* stats_ = nullptr;
  std::vector<Bytes> free_;
};

}  // namespace mado::core

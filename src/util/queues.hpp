// Queues used at the driver/engine boundary.
//
// MpmcRing<T>:  lock-free bounded multi-producer multi-consumer ring
//               (Vyukov's sequence-stamped design); used as the per-peer
//               submit ring so application threads can enqueue messages
//               without ever contending with the progressor's peer lock.
// MpscQueue<T>: mutex-protected multi-producer single-consumer queue;
//               used for send() → IO loop hand-offs, UDP completion
//               delivery, and as the shm driver's inbox and outbox.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mado {

/// Bounded lock-free MPMC ring after Dmitry Vyukov's design: every slot
/// carries a sequence stamp so producers and consumers claim slots with one
/// CAS on their own cursor and never touch the other side's cacheline on the
/// fast path. try_push fails (rather than blocks) when the ring is full, so
/// callers always have a graceful locked fallback.
///
/// In mado this is the engine's per-peer *submit ring*: any number of
/// application threads push SubmitOps, and whichever thread happens to hold
/// that peer's lock (the progressor, or a submitter flat-combining) drains
/// it. Drain order is the ring order, so per-channel FIFO submit semantics
/// are preserved as long as each channel is used from one thread — the same
/// contract the locked path has.
template <typename T>
class MpmcRing {
 public:
  /// capacity must be a power of two; the ring holds `capacity` elements.
  explicit MpmcRing(std::size_t capacity)
      : slots_(capacity), mask_(capacity - 1) {
    MADO_CHECK_MSG(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                   "capacity must be a power of two");
    for (std::size_t i = 0; i < capacity; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  /// Any thread. Returns false if the ring is full (caller falls back to the
  /// locked path; never spins). Takes an rvalue and moves from it only on
  /// success, so a failed push leaves the caller's object intact for the
  /// fallback path.
  bool try_push(T&& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    Slot& s = slots_[pos & mask_];
    s.value = std::move(v);
    s.seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Any thread. Returns nullopt if empty.
  std::optional<T> try_pop() {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return std::nullopt;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    Slot& s = slots_[pos & mask_];
    T v = std::move(s.value);
    // Reset the slot: a moved-from T may still own resources (e.g. a Bytes
    // payload whose buffer the move left behind, or a shared_ptr a given
    // type's move merely copied). Without this, a quiet ring pins the last
    // popped element's resources until the slot is overwritten a lap later.
    s.value = T();
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    return v;
  }

  bool empty() const {
    // Conservative: between the two loads a racing producer may push, but a
    // `true` result is exact at the moment of the tail load, which is all
    // the drain loops need.
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };
  std::vector<Slot> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer cursor
};

template <typename T>
class MpscQueue {
 public:
  void push(T v) {
    std::lock_guard<std::mutex> lk(mu_);
    q_.push_back(std::move(v));
  }

  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

  /// Drain everything currently queued into `out`; returns count.
  std::size_t drain(std::vector<T>& out) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t n = q_.size();
    for (auto& v : q_) out.push_back(std::move(v));
    q_.clear();
    return n;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.empty();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<T> q_;
};

}  // namespace mado

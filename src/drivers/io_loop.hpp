// One epoll thread multiplexing every real fd of a world (or a process).
//
// The loop owns the epoll fd, an eventfd for cross-thread nudges, and the
// one thread that runs them. A driver endpoint plugs in as a Source: the
// loop calls it back when its fd is ready (on_ready), when a submitter
// nudged it (on_notify) and, for sources registered with ticks, on every
// iteration (on_tick), sleeping no longer than the shortest interval any
// ticking source asks for. A loop serving only sources without ticks
// sleeps in epoll_wait until an fd or a nudge wakes it, so an idle loop
// costs zero wakeups.
//
// Threading rules:
//  - Source callbacks run on the loop thread only, never while the loop
//    holds any of its own locks, so a callback may call straight into
//    engine code that takes engine locks and calls DriverEndpoint::send().
//  - add()/remove() are synchronous handshakes with the loop thread: after
//    add() returns the fd is polled; after remove() returns the loop holds
//    no reference to the source and runs none of its callbacks.
//  - notify() may be called from any thread, the loop thread included. It
//    wakes the loop once per burst: the first notify() after the loop
//    picked the source up writes the eventfd, later ones only find the
//    flag already set.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/queues.hpp"

namespace mado::drv {

class IoLoop {
 public:
  /// One fd served by the loop. Every callback runs on the loop thread.
  class Source {
   public:
    virtual ~Source() = default;

   protected:
    /// The fd is ready: `events` holds the EPOLLIN/EPOLLOUT/EPOLLERR/
    /// EPOLLHUP bits epoll reported.
    virtual void on_ready(std::uint32_t events) = 0;
    /// A notify() burst for this source was picked up.
    virtual void on_notify() = 0;
    /// Periodic upkeep, called on every loop iteration for sources added
    /// with ticks. Returns the longest the loop may sleep before the next
    /// call.
    virtual Nanos on_tick(Nanos now) {
      (void)now;
      return kNanosPerSec;
    }

   private:
    friend class IoLoop;
    int fd_ = -1;
    std::uint32_t events_ = 0;  ///< epoll interest set; 0 = not in epoll
    std::atomic<bool> signaled_{false};
  };

  /// Creates the loop and starts its thread.
  static std::shared_ptr<IoLoop> create();
  ~IoLoop();

  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  /// Poll `fd` for `src` (EPOLLIN to start with). Synchronous; not callable
  /// from the loop thread.
  void add(Source* src, int fd, bool ticks);
  /// Stop serving `src`. Synchronous; not callable from the loop thread.
  /// Pending notifications for `src` are discarded.
  void remove(Source* src);
  /// `src` has new work: the loop calls its on_notify() soon. Any thread.
  void notify(Source* src);

  /// Loop thread only: replace `src`'s epoll interest set. 0 takes the fd
  /// out of epoll altogether (EPOLLHUP/EPOLLERR are reported even for an
  /// empty set, so a dead stream must leave epoll to stop firing).
  void set_events(Source* src, std::uint32_t events);

  /// Times epoll_wait returned: flat while the loop is idle.
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  /// eventfd writes made by notify(): one per burst of nudges.
  std::uint64_t nudges() const {
    return nudges_.load(std::memory_order_relaxed);
  }

 private:
  IoLoop();

  struct CtrlOp {
    bool remove = false;
    Source* src = nullptr;
    int fd = -1;
    bool ticks = false;
    int* err = nullptr;  ///< add: errno of a failed epoll ADD
    bool* done = nullptr;
  };

  void run();
  void control(CtrlOp op);
  void process_ctrl();
  void wake();

  int epfd_ = -1;
  int wakefd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> nudges_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<CtrlOp> ctrl_;

  /// Sources nudged since the loop last picked them up (MPSC: any thread
  /// pushes, the loop drains).
  MpscQueue<Source*> dirty_;

  // Loop-thread-only state below.
  std::vector<Source*> tickers_;
  std::vector<Source*> dirty_scratch_;

  std::thread thread_;  ///< last: it runs on every member above
};

}  // namespace mado::drv

#include "drivers/io_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mado::drv {

namespace {
/// The loop whose thread is executing (nullptr on every other thread).
thread_local const IoLoop* t_loop = nullptr;

[[noreturn]] void throw_errno(int err, const char* what) {
  throw std::system_error(err, std::generic_category(), what);
}
}  // namespace

std::shared_ptr<IoLoop> IoLoop::create() {
  return std::shared_ptr<IoLoop>(new IoLoop());
}

IoLoop::IoLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno(errno, "epoll_create1");
  wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakefd_ < 0) {
    const int err = errno;
    ::close(epfd_);
    throw_errno(err, "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wake fd
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev) != 0) {
    const int err = errno;
    ::close(wakefd_);
    ::close(epfd_);
    throw_errno(err, "epoll_ctl wakefd");
  }
  thread_ = std::thread([this] { run(); });
}

IoLoop::~IoLoop() {
  stop_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  ::close(wakefd_);
  ::close(epfd_);
}

void IoLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakefd_, &one, sizeof one);
}

void IoLoop::notify(Source* src) {
  if (src->signaled_.exchange(true, std::memory_order_acq_rel)) return;
  dirty_.push(src);
  // On the loop thread the push alone suffices: run() checks the queue
  // before it sleeps again.
  if (t_loop == this) return;
  nudges_.fetch_add(1, std::memory_order_relaxed);
  wake();
}

void IoLoop::add(Source* src, int fd, bool ticks) {
  MADO_CHECK_MSG(t_loop != this, "IoLoop::add from the loop thread");
  int err = 0;
  CtrlOp op;
  op.src = src;
  op.fd = fd;
  op.ticks = ticks;
  op.err = &err;
  control(op);
  if (err != 0) throw_errno(err, "epoll_ctl add");
}

void IoLoop::remove(Source* src) {
  MADO_CHECK_MSG(t_loop != this, "IoLoop::remove from the loop thread");
  CtrlOp op;
  op.remove = true;
  op.src = src;
  control(op);
}

void IoLoop::control(CtrlOp op) {
  bool done = false;
  op.done = &done;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctrl_.push_back(op);
  }
  wake();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done; });
}

void IoLoop::process_ctrl() {
  std::vector<CtrlOp> ops;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ops.swap(ctrl_);
  }
  if (ops.empty()) return;
  for (CtrlOp& op : ops) {
    Source* src = op.src;
    if (!op.remove) {
      src->fd_ = op.fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = src;
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, op.fd, &ev) == 0) {
        src->events_ = EPOLLIN;
        if (op.ticks) tickers_.push_back(src);
      } else {
        *op.err = errno;
      }
    } else {
      if (src->events_ != 0)
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, src->fd_, nullptr);
      src->events_ = 0;
      tickers_.erase(std::remove(tickers_.begin(), tickers_.end(), src),
                     tickers_.end());
      // Purge queued notifications so the loop never dereferences the
      // source after this handshake completes.
      std::vector<Source*> dirty;
      dirty_.drain(dirty);
      for (Source* d : dirty)
        if (d != src) dirty_.push(d);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      *op.done = true;
    }
    cv_.notify_all();
  }
}

void IoLoop::set_events(Source* src, std::uint32_t events) {
  if (src->events_ == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = src;
  const int op = src->events_ == 0 ? EPOLL_CTL_ADD
                 : events == 0     ? EPOLL_CTL_DEL
                                   : EPOLL_CTL_MOD;
  if (::epoll_ctl(epfd_, op, src->fd_, &ev) != 0)
    MADO_ERROR("io loop: epoll_ctl failed: " << std::strerror(errno));
  src->events_ = events;
}

void IoLoop::run() {
  t_loop = this;
  std::vector<epoll_event> evs(64);
  int timeout_ms = -1;  // no ticking source: sleep until an fd or a nudge
  while (!stop_.load(std::memory_order_acquire)) {
    // A notify() from inside a callback pushed without waking: don't sleep
    // on it.
    const int n =
        ::epoll_wait(epfd_, evs.data(), static_cast<int>(evs.size()),
                     dirty_.empty() ? timeout_ms : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      MADO_ERROR("io loop: epoll_wait failed: " << std::strerror(errno));
      break;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      auto* src = static_cast<Source*>(evs[i].data.ptr);
      if (src == nullptr) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = ::read(wakefd_, &drain, sizeof drain);
        continue;
      }
      src->on_ready(evs[i].events);
    }
    dirty_scratch_.clear();
    dirty_.drain(dirty_scratch_);
    for (Source* src : dirty_scratch_) {
      // Clear BEFORE the callback: a notify() racing it either lands in
      // the work the callback picks up or re-signals for the next pass.
      src->signaled_.store(false, std::memory_order_release);
      src->on_notify();
    }
    timeout_ms = -1;
    if (!tickers_.empty()) {
      const Nanos now = SteadyClock{}.now();
      Nanos sleep = kNanosPerSec;
      for (Source* src : tickers_) sleep = std::min(sleep, src->on_tick(now));
      timeout_ms =
          static_cast<int>((sleep + kNanosPerMilli - 1) / kNanosPerMilli);
    }
    process_ctrl();
  }
  // Answer handshakes issued around shutdown so no caller blocks.
  process_ctrl();
  t_loop = nullptr;
}

}  // namespace mado::drv

#include "drivers/socket_driver.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mado::drv {

namespace {
constexpr std::size_t kMaxFrame = 256 * 1024 * 1024;
/// Receive buffer: frames up to this size (header included) arrive through
/// it; larger ones are read straight into their own payload.
constexpr std::size_t kRxBuffer = 64 * 1024;
/// Frames gathered into one sendmsg (two iovecs each).
constexpr std::size_t kMaxFramesPerWrite = 64;
}  // namespace

SocketEndpoint::PairResult SocketEndpoint::make_pair(
    std::shared_ptr<IoLoop> loop, const Capabilities& caps_a,
    const Capabilities& caps_b) {
  MADO_CHECK_MSG(loop, "socket endpoint needs a loop");
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) != 0)
    throw std::system_error(errno, std::generic_category(), "socketpair");
  PairResult r;
  try {
    r.a.reset(new SocketEndpoint(loop, caps_a, fds[0]));
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  try {
    r.b.reset(new SocketEndpoint(std::move(loop), caps_b, fds[1]));
  } catch (...) {
    ::close(fds[1]);
    throw;
  }
  return r;
}

SocketEndpoint::SocketEndpoint(std::shared_ptr<IoLoop> loop,
                               Capabilities caps, int fd)
    : loop_(std::move(loop)), caps_(std::move(caps)), fd_(fd) {
  rx_buf_.resize(kRxBuffer);
  loop_->add(this, fd_, /*ticks=*/false);
}

SocketEndpoint::~SocketEndpoint() { close(); }

void SocketEndpoint::close() {
  if (!gate_.mark_closed_once()) return;
  // Synchronous handshake: once it returns the loop runs none of our
  // callbacks, so the fd and the loop-side state are ours to tear down.
  loop_->remove(this);
  ::close(fd_);
  fd_ = -1;
}

void SocketEndpoint::send(TrackId track, const GatherList& gl,
                          std::uint64_t token) {
  MADO_CHECK(track < caps_.track_count);
  MADO_CHECK_MSG(!gate_.closed(), "send on closed endpoint");
  TxItem item;
  item.token = token;
  item.payload = gl.flatten();  // segments only live until completion
  MADO_CHECK_MSG(item.payload.size() <= kMaxFrame, "oversized frame");
  const auto len = static_cast<std::uint32_t>(item.payload.size());
  item.hdr[0] = track;
  item.hdr[1] = static_cast<std::uint8_t>(len & 0xff);
  item.hdr[2] = static_cast<std::uint8_t>((len >> 8) & 0xff);
  item.hdr[3] = static_cast<std::uint8_t>((len >> 16) & 0xff);
  item.hdr[4] = static_cast<std::uint8_t>((len >> 24) & 0xff);
  gate_.accept();
  submit_.push(std::move(item));
  loop_->notify(this);
}

void SocketEndpoint::on_notify() {
  submit_.drain(fresh_);
  for (TxItem& item : fresh_) txq_.push_back(std::move(item));
  fresh_.clear();
  if (dead_) {
    fail_queued();
    return;
  }
  // With EPOLLOUT armed the socket buffer is full: wait for the loop to
  // report it writable instead of retrying into EAGAIN.
  if (!tx_blocked_) flush_tx();
}

void SocketEndpoint::on_ready(std::uint32_t events) {
  // Arrivals first: whatever the peer sent before a break is delivered
  // before the break is reported.
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    if (read_once() == RxResult::kClosed) {
      break_link();
      return;
    }
  }
  if ((events & EPOLLOUT) && !dead_) {
    tx_blocked_ = false;
    flush_tx();
  }
}

void SocketEndpoint::flush_tx() {
  while (!txq_.empty()) {
    iovec iov[2 * kMaxFramesPerWrite];
    std::size_t cnt = 0;
    std::size_t offered = 0;
    std::size_t skip = tx_off_;  // only the front frame is partly sent
    for (std::size_t i = 0; i < txq_.size() && i < kMaxFramesPerWrite; ++i) {
      TxItem& item = txq_[i];
      if (skip < kHeaderLen) {
        iov[cnt++] = {item.hdr + skip, kHeaderLen - skip};
        offered += kHeaderLen - skip;
      }
      const std::size_t poff = skip > kHeaderLen ? skip - kHeaderLen : 0;
      if (poff < item.payload.size()) {
        iov[cnt++] = {item.payload.data() + poff, item.payload.size() - poff};
        offered += item.payload.size() - poff;
      }
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    // MSG_NOSIGNAL: a peer that died mid-stream must surface as an error
    // (broken()), not as a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        tx_blocked_ = true;
        loop_->set_events(this, EPOLLIN | EPOLLOUT);
        return;
      }
      break_link();
      return;
    }
    // Retire every frame that fully left; each completes in send order.
    std::size_t left = static_cast<std::size_t>(n);
    EndpointHandler* h = handler();
    while (!txq_.empty()) {
      TxItem& item = txq_.front();
      const std::size_t frame = kHeaderLen + item.payload.size();
      if (tx_off_ + left < frame) {
        tx_off_ += left;
        break;
      }
      left -= frame - tx_off_;
      tx_off_ = 0;
      const TrackId track = item.hdr[0];
      const std::uint64_t token = item.token;
      packets_sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(item.payload.size(), std::memory_order_relaxed);
      txq_.pop_front();
      gate_.resolve();
      if (h) h->on_send_complete(track, token);
    }
    if (static_cast<std::size_t>(n) < offered) {
      // The socket buffer filled mid-write: resume on EPOLLOUT.
      tx_blocked_ = true;
      loop_->set_events(this, EPOLLIN | EPOLLOUT);
      return;
    }
  }
  loop_->set_events(this, EPOLLIN);
}

SocketEndpoint::RxResult SocketEndpoint::read_once() {
  ssize_t n;
  if (rx_in_big_) {
    do {
      n = ::recv(fd_, rx_big_.data() + rx_big_have_,
                 rx_big_.size() - rx_big_have_, 0);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      rx_big_have_ += static_cast<std::size_t>(n);
      if (rx_big_have_ == rx_big_.size()) {
        rx_in_big_ = false;
        rx_big_have_ = 0;
        deliver(rx_big_track_, std::move(rx_big_));
        rx_big_ = Bytes();
      }
      return RxResult::kData;
    }
  } else {
    do {
      n = ::recv(fd_, rx_buf_.data() + rx_len_, rx_buf_.size() - rx_len_, 0);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      rx_len_ += static_cast<std::size_t>(n);
      return parse_frames() ? RxResult::kData : RxResult::kClosed;
    }
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
    return RxResult::kEmpty;
  return RxResult::kClosed;  // peer closed (0) or a transport error
}

bool SocketEndpoint::parse_frames() {
  std::size_t off = 0;
  while (rx_len_ - off >= kHeaderLen) {
    const std::uint8_t* p = rx_buf_.data() + off;
    const TrackId track = p[0];
    const std::size_t len = static_cast<std::uint32_t>(p[1]) |
                            (static_cast<std::uint32_t>(p[2]) << 8) |
                            (static_cast<std::uint32_t>(p[3]) << 16) |
                            (static_cast<std::uint32_t>(p[4]) << 24);
    if (len > kMaxFrame) {
      MADO_ERROR("socket rx: oversized frame " << len << " bytes, closing");
      return false;
    }
    const std::size_t avail = rx_len_ - off - kHeaderLen;
    if (avail >= len) {
      deliver(track, Bytes(p + kHeaderLen, p + kHeaderLen + len));
      off += kHeaderLen + len;
      continue;
    }
    if (kHeaderLen + len > rx_buf_.size()) {
      // Too large for the buffer: read the rest straight into the payload.
      rx_big_.resize(len);
      std::memcpy(rx_big_.data(), p + kHeaderLen, avail);
      rx_big_have_ = avail;
      rx_big_track_ = track;
      rx_in_big_ = true;
      off = rx_len_;
    }
    break;
  }
  if (off > 0) {
    std::memmove(rx_buf_.data(), rx_buf_.data() + off, rx_len_ - off);
    rx_len_ -= off;
  }
  return true;
}

void SocketEndpoint::deliver(TrackId track, Bytes payload) {
  if (EndpointHandler* h = handler()) h->on_packet(track, std::move(payload));
}

void SocketEndpoint::break_link() {
  if (!dead_) {
    dead_ = true;
    gate_.mark_broken();
    // Whatever is still in the receive buffer arrived before the break.
    while (read_once() == RxResult::kData) {
    }
    // EPOLLHUP/EPOLLERR would keep firing: take the fd out of epoll.
    loop_->set_events(this, 0);
  }
  fail_queued();
}

void SocketEndpoint::fail_queued() {
  submit_.drain(fresh_);
  for (TxItem& item : fresh_) txq_.push_back(std::move(item));
  fresh_.clear();
  EndpointHandler* h = handler();
  while (!txq_.empty()) {
    const TrackId track = txq_.front().hdr[0];
    const std::uint64_t token = txq_.front().token;
    txq_.pop_front();
    gate_.resolve();
    if (h) h->on_send_failed(track, token);
  }
  tx_off_ = 0;
  // A send accepted but not yet queued keeps the report back until its
  // own failure has been delivered (the next on_notify).
  if (gate_.should_report_link_down() && h) h->on_link_down();
}

}  // namespace mado::drv

#include "drivers/udp_driver.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mado::drv {

namespace {

constexpr std::size_t kHdrLen = 16;
constexpr std::size_t kMaxFrame = 256 * 1024 * 1024;
/// IPv4 UDP payload ceiling (65535 - 20 IP - 8 UDP).
constexpr std::size_t kMaxDatagram = 65507;
/// Largest datagram emitted (header + payload): balances syscalls-per-byte
/// against pipelining inside the flow-control window.
constexpr std::size_t kMtu = 32 * 1024;
static_assert(kMtu > kHdrLen && kMtu <= kMaxDatagram,
              "udp mtu must hold the header and fit one IPv4 datagram");
/// Payload bytes per datagram.
constexpr std::size_t kChunk = kMtu - kHdrLen;
/// Datagrams per sendmmsg/recvmmsg call.
constexpr std::size_t kBatch = 32;
/// Flow-control window in charged bytes (wire bytes + a per-datagram
/// allowance for kernel skb overhead). Clamped at connect() time to half
/// the socket's actual receive buffer, so the window can never overrun a
/// default-sized rcvbuf.
constexpr std::size_t kWindowBytes = 256 * 1024;
/// Requested SO_RCVBUF/SO_SNDBUF (the kernel caps by rmem_max/wmem_max).
constexpr int kSockbufBytes = 1024 * 1024;
/// Reassembly bound per (endpoint, track): beyond this many pending frames
/// the oldest incomplete one is dropped (udp.reasm_drops).
constexpr std::size_t kMaxPendingFrames = 64;
/// Receive scratch slot; any legal datagram fits.
constexpr std::size_t kRxSlot = 65536;
/// Per-datagram flow-control surcharge: the kernel charges the receive
/// buffer by skb truesize, not payload bytes, so a window accounted in pure
/// wire bytes overruns rcvbuf for small datagrams. Both sides use the same
/// formula, so sender charges and receiver acks always agree.
constexpr std::uint64_t kChargeOverhead = 256;

constexpr std::uint8_t kTypeData = 1;
constexpr std::uint8_t kTypeAck = 2;
constexpr std::uint8_t kTypePing = 3;
constexpr std::uint8_t kTypePong = 4;

constexpr Nanos kFastTick = 1 * kNanosPerMilli;
constexpr Nanos kSlowTick = 50 * kNanosPerMilli;
/// Window-blocked this long → solicit an ack with a ping before escalating
/// to a full window reset.
constexpr Nanos kAckSolicitAfter = 2 * kNanosPerMilli;
/// A head-of-line frame that stopped receiving fragments for this long
/// while later frames wait behind it is presumed lost and dropped (the
/// reliability layer retransmits it as a fresh frame).
constexpr Nanos kReasmStall = 10 * kNanosPerMilli;
/// Window-blocked with no ack progress for this long → assume the acks (or
/// the data) died on the wire and reset the window so the engine's
/// retransmission can flow. Counted in udp.window_resets.
constexpr Nanos kWindowResetAfter = 20 * kNanosPerMilli;
/// A completed frame stuck behind a lost lower-seq frame is released after
/// this long (counts udp.gap_skips); driver FIFO covers delivered frames,
/// the reliability layer recovers the gap.
constexpr Nanos kGapSkipAfter = 2 * kNanosPerMilli;
/// Send a keepalive ping after this much rx silence.
constexpr Nanos kPingInterval = 200 * kNanosPerMilli;
/// Declare the peer dead after this much rx silence (backstop for the
/// ECONNREFUSED fast path, which needs the peer's port to be closed).
constexpr Nanos kPeerTimeout = 2 * kNanosPerSec;

std::uint64_t charge(std::size_t wire_len) {
  return static_cast<std::uint64_t>(wire_len) + kChargeOverhead;
}

struct Header {
  std::uint8_t type = 0;
  std::uint8_t track = 0;
  std::uint16_t nfrags = 0;
  std::uint32_t seq = 0;
  std::uint32_t frag = 0;
  std::uint32_t frame_len = 0;
};

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}
std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void encode_header(std::uint8_t* p, const Header& h) {
  p[0] = h.type;
  p[1] = h.track;
  put_u16(p + 2, h.nfrags);
  put_u32(p + 4, h.seq);
  put_u32(p + 8, h.frag);
  put_u32(p + 12, h.frame_len);
}

bool decode_header(const std::uint8_t* p, std::size_t len, Header& h) {
  if (len < kHdrLen) return false;
  h.type = p[0];
  h.track = p[1];
  h.nfrags = get_u16(p + 2);
  h.seq = get_u32(p + 4);
  h.frag = get_u32(p + 8);
  h.frame_len = get_u32(p + 12);
  return true;
}

/// Serial-number comparison (RFC 1982 style) so per-track frame sequence
/// numbers survive u32 wraparound.
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

Nanos now_ns() { return SteadyClock{}.now(); }

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Capabilities udp_loopback_profile() {
  Capabilities c;
  c.name = "udp";
  c.max_eager = 8 * 1024;
  c.rdv_threshold = 64 * 1024;
  c.gather_scatter = false;  // datagram build flattens multi-segment packets
  c.max_gather_segments = 1;
  c.track_count = 2;
  c.lossless = false;  // Engine::add_rail demands cfg.reliability
  c.datagram_mtu = kMtu;
  // Loopback through two event loops: syscall-dominated overheads, a few
  // GB/s of stream bandwidth, ~15 µs one-way through epoll + recvmmsg.
  c.cost.pio_overhead = 2000;
  c.cost.dma_overhead = 3000;
  c.cost.per_segment = 0;
  c.cost.pio_threshold = 0;  // every send takes the kernel path
  c.cost.pio_bytes_per_us = 3000.0;
  c.cost.link_bytes_per_us = 3000.0;
  c.cost.gap = 500;
  c.cost.latency = 15000;
  c.cost.copy_bytes_per_us = 3000.0;
  return c;
}

// ---------------------------------------------------------------------------
// Loop side (IoLoop::Source callbacks and what they call; loop thread only)
// ---------------------------------------------------------------------------

void UdpEndpoint::on_ready(std::uint32_t events) {
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) handle_readable();
  if (events & EPOLLOUT) {
    set_want_writable(false);
    io_.active = true;
  }
}

void UdpEndpoint::on_notify() { io_.active = true; }

Nanos UdpEndpoint::on_tick(Nanos now) {
  // Pump while backlogged (window- or EPOLLOUT-blocked, or mid-frame).
  if (io_.active) {
    pump_tx(now);
    io_.active = !io_.q.empty() && !io_.broken;
  }
  if (now - io_.last_fast_tick >= kFastTick) {
    io_.last_fast_tick = now;
    fast_tick(now);
  }
  if (now - io_.last_slow_tick >= kSlowTick) {
    io_.last_slow_tick = now;
    slow_tick(now);
  }
  // A backlogged endpoint polls at the fast tick so a window-blocked sender
  // re-checks promptly; an idle one only needs the keepalive tick.
  return io_.active ? kFastTick : kSlowTick;
}

void UdpEndpoint::set_want_writable(bool want) {
  if (io_.want_writable == want) return;
  loop_->set_events(this, EPOLLIN | (want ? EPOLLOUT : 0u));
  io_.want_writable = want;
}

void UdpEndpoint::handle_readable() {
  auto& io = io_;
  // Receive scratch, one per loop thread: every endpoint the loop serves
  // shares it, and it lives only within this call.
  thread_local std::vector<std::uint8_t> rx_buf;
  if (rx_buf.empty()) rx_buf.resize(kBatch * kRxSlot);
  mmsghdr msgs[kBatch];
  iovec iovs[kBatch];
  for (;;) {
    std::memset(msgs, 0, sizeof msgs);
    for (std::size_t i = 0; i < kBatch; ++i) {
      iovs[i].iov_base = rx_buf.data() + i * kRxSlot;
      iovs[i].iov_len = kRxSlot;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n =
        ::recvmmsg(fd_, msgs, static_cast<unsigned>(kBatch), 0, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // A connected UDP socket surfaces the peer's death (ICMP port
      // unreachable after a SIGKILL) as ECONNREFUSED right here.
      break_link(std::strerror(errno));
      return;
    }
    if (n == 0) break;
    const Nanos now = now_ns();
    for (int i = 0; i < n; ++i) {
      if (io.broken) break;
      handle_datagram(rx_buf.data() + std::size_t(i) * kRxSlot,
                      msgs[i].msg_len, now);
    }
    if (io.broken) return;
    deliver_ready_frames(now);
    flush_ack(false);
    if (static_cast<std::size_t>(n) < kBatch) break;
  }
}

void UdpEndpoint::handle_datagram(const std::uint8_t* data, std::size_t len,
                                  Nanos now) {
  auto& io = io_;
  Header h;
  if (!decode_header(data, len, h)) return;  // runt: not ours, drop
  io.last_rx = now;
  counters_.datagrams_rx.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_rx.fetch_add(len, std::memory_order_relaxed);
  switch (h.type) {
    case kTypeAck: {
      counters_.acks_rx.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t acked =
          static_cast<std::uint64_t>(h.seq) |
          (static_cast<std::uint64_t>(h.frag) << 32);
      if (acked > io.peer_acked) {
        io.peer_acked = acked;
        io.blocked_since = 0;
        if (!io.q.empty()) io.active = true;
      }
      return;
    }
    case kTypePing:
      // A ping solicits an immediate ack (the sender is window-blocked)
      // and a pong for liveness.
      flush_ack(true);
      send_ctrl_datagram(kTypePong);
      return;
    case kTypePong:
      return;  // last_rx update above is the whole point
    case kTypeData:
      break;
    default:
      return;  // unknown type: drop
  }
  // Flow-control accounting covers every DATA datagram that reached the
  // socket — including ones the rx-loss hook then discards, so injected
  // loss starves the reliability layer, not the window.
  io.rx_charged += charge(len);
  const std::uint32_t loss_ppm =
      rx_loss_ppm_.load(std::memory_order_relaxed);
  if (loss_ppm != 0) {
    std::uint64_t x = loss_rng_.load(std::memory_order_relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    loss_rng_.store(x, std::memory_order_relaxed);
    if (x % 1000000u < loss_ppm) {
      counters_.rx_loss_injected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const std::size_t plen = len - kHdrLen;
  if (h.track >= caps_.track_count || h.nfrags == 0 ||
      h.frag >= h.nfrags || h.frame_len > kMaxFrame)
    return;  // malformed: drop
  // Fragment offset is derived from the observed payload size, so the two
  // sides need not agree on MTU: every non-final fragment of a frame
  // carries exactly the sender's chunk size.
  std::size_t off = 0;
  if (h.nfrags == 1) {
    if (plen != h.frame_len) return;
  } else if (h.frag + 1 == static_cast<std::uint32_t>(h.nfrags)) {
    if (plen > h.frame_len) return;
    off = h.frame_len - plen;
  } else {
    if (plen == 0) return;
    off = static_cast<std::size_t>(h.frag) * plen;
  }
  if (off + plen > h.frame_len) return;
  auto& tr = io.rx[h.track];
  if (seq_lt(h.seq, tr.next_seq)) {
    // A fragment of a frame already delivered or skipped past.
    counters_.stale_frames.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto& r = tr.pend[h.seq];
  if (r.nfrags == 0) {
    r.nfrags = h.nfrags;
    r.buf = Bytes(h.frame_len);
    r.got.assign(h.nfrags, false);
    r.first_at = now;
  } else if (r.nfrags != h.nfrags || r.buf.size() != h.frame_len) {
    return;  // conflicting metadata for this seq: drop the datagram
  }
  r.complete_at = now;  // doubles as "last fragment activity" while partial
  if (r.got[h.frag]) return;  // duplicate fragment
  if (plen > 0) std::memcpy(r.buf.data() + off, data + kHdrLen, plen);
  r.got[h.frag] = true;
  if (++r.have == r.nfrags) r.complete = true;
  // Reassembly bound: drop the oldest incomplete frame when the pending
  // set overflows (completed frames drain via ordered release below).
  if (tr.pend.size() > kMaxPendingFrames) {
    for (auto it = tr.pend.begin(); it != tr.pend.end(); ++it) {
      if (it->second.complete) continue;
      counters_.reasm_drops.fetch_add(1, std::memory_order_relaxed);
      if (it->first == tr.next_seq) tr.next_seq = it->first + 1;
      tr.pend.erase(it);
      break;
    }
  }
}

void UdpEndpoint::deliver_ready_frames(Nanos now) {
  auto& io = io_;
  for (std::size_t t = 0; t < io.rx.size(); ++t) {
    auto& tr = io.rx[t];
    while (!tr.pend.empty()) {
      auto it = tr.pend.begin();
      auto& r = it->second;
      if (it->first == tr.next_seq) {
        if (r.complete) {
          events_.push(EvPacket{static_cast<TrackId>(t), std::move(r.buf)});
          counters_.frames_rx.fetch_add(1, std::memory_order_relaxed);
          tr.pend.erase(it);
          ++tr.next_seq;
          continue;
        }
        // Head-of-line frame still missing fragments. If its fragments
        // stopped arriving while later frames queue behind it, the rest of
        // it died on the wire: drop it so the track flows again (the
        // reliability layer retransmits the content as a fresh frame).
        if (tr.pend.size() > 1 && now - r.complete_at >= kReasmStall) {
          counters_.reasm_drops.fetch_add(1, std::memory_order_relaxed);
          tr.pend.erase(it);
          ++tr.next_seq;
          continue;
        }
        break;
      }
      // Gap: the smallest pending seq is ahead of next_seq, so at least one
      // whole frame vanished. Release a completed frame past the gap after
      // a short hold (loopback reordering is rare; loss is the usual cause).
      if (r.complete && now - r.complete_at >= kGapSkipAfter) {
        counters_.gap_skips.fetch_add(1, std::memory_order_relaxed);
        tr.next_seq = it->first;
        continue;
      }
      break;
    }
  }
}

void UdpEndpoint::pump_tx(Nanos now) {
  auto& io = io_;
  {
    std::vector<TxItem> fresh;
    tx_.drain(fresh);
    for (auto& item : fresh) io.q.push_back(std::move(item));
  }
  if (fail_requested_.exchange(false, std::memory_order_acq_rel)) {
    break_link("injected failure");
    return;
  }
  if (io.broken) {
    for (auto& item : io.q)
      events_.push(EvSendFailed{item.track, item.token});
    io.q.clear();
    io.cur_off = 0;
    return;
  }
  if (io.want_writable) return;  // waiting for EPOLLOUT
  while (!io.q.empty()) {
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch][2];
    std::uint8_t hdrs[kBatch][kHdrLen];
    struct Adv {
      std::size_t bytes = 0;
      std::uint64_t charge = 0;
      bool frame_done = false;
    } adv[kBatch];
    std::memset(msgs, 0, sizeof msgs);
    unsigned built = 0;
    std::uint64_t pending_charge = 0;
    std::size_t qi = 0;
    std::size_t off = io.cur_off;
    while (built < kBatch && qi < io.q.size()) {
      auto& item = io.q[qi];
      if (!item.seq_assigned) {
        item.seq = io.next_seq[item.track]++;
        item.seq_assigned = true;
      }
      const std::size_t flen = item.payload.size();
      const auto nfrags = static_cast<std::uint32_t>(
          flen == 0 ? 1 : (flen + kChunk - 1) / kChunk);
      const std::size_t plen = flen == 0 ? 0 : std::min(kChunk, flen - off);
      const auto frag =
          static_cast<std::uint32_t>(flen == 0 ? 0 : off / kChunk);
      const std::uint64_t ch = charge(kHdrLen + plen);
      if (io.tx_charged + pending_charge + ch >
          io.peer_acked + window_)
        break;  // window full
      Header h;
      h.type = kTypeData;
      h.track = item.track;
      h.nfrags = static_cast<std::uint16_t>(nfrags);
      h.seq = item.seq;
      h.frag = frag;
      h.frame_len = static_cast<std::uint32_t>(flen);
      encode_header(hdrs[built], h);
      iovs[built][0].iov_base = hdrs[built];
      iovs[built][0].iov_len = kHdrLen;
      msgs[built].msg_hdr.msg_iov = iovs[built];
      if (plen > 0) {
        iovs[built][1].iov_base = item.payload.data() + off;
        iovs[built][1].iov_len = plen;
        msgs[built].msg_hdr.msg_iovlen = 2;
      } else {
        msgs[built].msg_hdr.msg_iovlen = 1;
      }
      adv[built].bytes = plen;
      adv[built].charge = ch;
      adv[built].frame_done = off + plen >= flen;
      pending_charge += ch;
      ++built;
      off += plen;
      if (off >= flen) {
        ++qi;
        off = 0;
      }
    }
    if (built == 0) {
      // Window-blocked. Solicit an ack first; if the peer stays silent the
      // acks (or our data) died on the wire — reset the window and let the
      // reliability layer's retransmissions flow rather than deadlock.
      if (io.blocked_since == 0) {
        io.blocked_since = now;
        counters_.window_stalls.fetch_add(1, std::memory_order_relaxed);
      } else if (now - io.blocked_since >= kWindowResetAfter) {
        io.peer_acked = io.tx_charged;
        io.blocked_since = 0;
        counters_.window_resets.fetch_add(1, std::memory_order_relaxed);
        continue;  // retry immediately with the fresh window
      } else if (now - io.blocked_since >= kAckSolicitAfter &&
                 now - io.last_ping >= kFastTick) {
        io.last_ping = now;
        send_ctrl_datagram(kTypePing);
      }
      return;
    }
    int n;
    do {
      n = ::sendmmsg(fd_, msgs, built, 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        counters_.eagain_tx.fetch_add(1, std::memory_order_relaxed);
        set_want_writable(true);
        return;
      }
      if (errno == ENOBUFS) {
        // Transient kernel memory pressure; EPOLLOUT won't signal relief,
        // so stay active and retry on the next loop iteration.
        counters_.eagain_tx.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      break_link(std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      io.tx_charged += adv[i].charge;
      counters_.datagrams_tx.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_tx.fetch_add(kHdrLen + adv[i].bytes,
                                       std::memory_order_relaxed);
      io.cur_off += adv[i].bytes;
      if (adv[i].frame_done) {
        auto& item = io.q.front();
        events_.push(EvSendComplete{item.track, item.token});
        counters_.frames_tx.fetch_add(1, std::memory_order_relaxed);
        io.q.pop_front();
        io.cur_off = 0;
      }
    }
    io.blocked_since = 0;
    if (static_cast<unsigned>(n) < built) {
      counters_.eagain_tx.fetch_add(1, std::memory_order_relaxed);
      set_want_writable(true);
      return;
    }
  }
}

void UdpEndpoint::send_ctrl_datagram(std::uint8_t type) {
  std::uint8_t hdr[kHdrLen];
  Header h;
  h.type = type;
  encode_header(hdr, h);
  ssize_t n;
  do {
    n = ::send(fd_, hdr, sizeof hdr, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == ECONNREFUSED) {
      break_link("econnrefused");
      return;
    }
    return;  // EAGAIN etc: keepalive is best-effort, the next tick retries
  }
  counters_.datagrams_tx.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_tx.fetch_add(sizeof hdr, std::memory_order_relaxed);
  if (type == kTypePing)
    counters_.pings_tx.fetch_add(1, std::memory_order_relaxed);
}

void UdpEndpoint::flush_ack(bool force) {
  auto& io = io_;
  const std::uint64_t delta = io.rx_charged - io.acked_sent;
  if (delta == 0) {
    io.ack_pending = false;
    return;
  }
  // Below the threshold the ack rides the next slow tick (or a ping): a
  // trickle flow never starves the sender's window, and a bulk flow crosses
  // the threshold every few datagrams anyway.
  if (!force && delta < window_ / 8) {
    io.ack_pending = true;
    return;
  }
  std::uint8_t hdr[kHdrLen];
  Header h;
  h.type = kTypeAck;
  h.seq = static_cast<std::uint32_t>(io.rx_charged & 0xffffffffu);
  h.frag = static_cast<std::uint32_t>(io.rx_charged >> 32);
  encode_header(hdr, h);
  ssize_t n;
  do {
    n = ::send(fd_, hdr, sizeof hdr, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == ECONNREFUSED) {
      break_link("econnrefused");
      return;
    }
    io.ack_pending = true;  // retried from the slow tick
    return;
  }
  counters_.datagrams_tx.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_tx.fetch_add(sizeof hdr, std::memory_order_relaxed);
  counters_.acks_tx.fetch_add(1, std::memory_order_relaxed);
  io.acked_sent = io.rx_charged;
  io.ack_pending = false;
}

void UdpEndpoint::break_link(const char* why) {
  auto& io = io_;
  if (io.broken) return;
  io.broken = true;
  gate_.mark_broken();
  MADO_DEBUG("udp: link down (" << why << ") on port " << local_port_);
  // Fail the partially-sent frame, everything queued behind it, and
  // everything still sitting in the submit queue — exactly one failure per
  // token, all delivered by progress() before on_link_down.
  {
    std::vector<TxItem> fresh;
    tx_.drain(fresh);
    for (auto& item : fresh) io.q.push_back(std::move(item));
  }
  for (auto& item : io.q)
    events_.push(EvSendFailed{item.track, item.token});
  io.q.clear();
  io.cur_off = 0;
  // Deliver whatever completed frames are releasable; incomplete ones died
  // with the link.
  deliver_ready_frames(now_ns());
}

void UdpEndpoint::fast_tick(Nanos now) {
  // Ordered-release upkeep: gap skips and head-of-line stall drops must
  // advance even when no new datagram arrives to trigger the rx path.
  if (io_.broken) return;
  for (auto& tr : io_.rx) {
    if (!tr.pend.empty()) {
      deliver_ready_frames(now);
      return;
    }
  }
}

void UdpEndpoint::slow_tick(Nanos now) {
  auto& io = io_;
  if (io.broken) return;
  if (fail_requested_.exchange(false, std::memory_order_acq_rel)) {
    break_link("injected failure");
    return;
  }
  if (io.ack_pending) flush_ack(true);
  const Nanos silence = now - io.last_rx;
  if (silence >= kPeerTimeout) {
    break_link("peer timeout");
    return;
  }
  if (silence >= kPingInterval && now - io.last_ping >= kPingInterval) {
    io.last_ping = now;
    send_ctrl_datagram(kTypePing);
  }
}

// ---------------------------------------------------------------------------
// UdpEndpoint
// ---------------------------------------------------------------------------

UdpEndpoint::UdpEndpoint(std::shared_ptr<IoLoop> loop, Capabilities caps)
    : loop_(std::move(loop)), caps_(std::move(caps)) {
  // Honest advertisement: the wire drops, and the driver flattens.
  caps_.lossless = false;
  caps_.datagram_mtu = kMtu;
  io_.next_seq.assign(caps_.track_count, 0);
  io_.rx.assign(caps_.track_count, TrackRx{});
}

UdpEndpoint::~UdpEndpoint() { close(); }

std::unique_ptr<UdpEndpoint> UdpEndpoint::bind(std::shared_ptr<IoLoop> loop,
                                               const Capabilities& caps,
                                               std::uint16_t port) {
  MADO_CHECK_MSG(loop, "udp endpoint needs a loop");
  std::unique_ptr<UdpEndpoint> ep(new UdpEndpoint(std::move(loop), caps));
  ep->open_and_bind(port);
  return ep;
}

void UdpEndpoint::open_and_bind(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  const int buf = kSockbufBytes;
  // Best effort: the kernel clamps at rmem_max/wmem_max; the flow-control
  // window adapts to whatever was actually granted below.
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1)
    throw_errno("inet_pton");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    throw_errno("bind");
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen) != 0)
    throw_errno("getsockname");
  local_port_ = ntohs(bound.sin_port);
}

void UdpEndpoint::connect(const std::string& ip, std::uint16_t port) {
  MADO_CHECK_MSG(!connected_.load(std::memory_order_acquire),
                 "udp endpoint already connected");
  sockaddr_in peer{};
  peer.sin_family = AF_INET;
  peer.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &peer.sin_addr) != 1)
    throw_errno("inet_pton");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&peer),
                sizeof peer) != 0)
    throw_errno("connect");
  // The window may never exceed what the peer's receive buffer can hold;
  // with symmetric configs our own granted rcvbuf is the honest proxy.
  // Floor at one full datagram so a tiny buffer still makes progress.
  int rcv = 0;
  socklen_t rlen = sizeof rcv;
  ::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcv, &rlen);
  window_ = kWindowBytes;
  if (rcv > 0)
    window_ = std::min(window_, static_cast<std::size_t>(rcv) / 2);
  window_ = std::max(window_, static_cast<std::size_t>(charge(kMtu)));
  connected_.store(true, std::memory_order_release);
  io_.last_rx = now_ns();
  loop_->add(this, fd_, /*ticks=*/true);
  registered_.store(true, std::memory_order_release);
}

UdpEndpoint::PairResult UdpEndpoint::make_pair(std::shared_ptr<IoLoop> loop,
                                               const Capabilities& caps_a,
                                               const Capabilities& caps_b) {
  PairResult r;
  r.a = bind(loop, caps_a);
  r.b = bind(loop, caps_b);
  r.a->connect("127.0.0.1", r.b->local_port());
  r.b->connect("127.0.0.1", r.a->local_port());
  return r;
}

bool UdpEndpoint::send(TrackId track, const GatherList& gl,
                       std::uint64_t token) {
  MADO_CHECK(track < caps_.track_count);
  MADO_CHECK_MSG(!gate_.closed(), "send on closed endpoint");
  MADO_CHECK_MSG(connected_.load(std::memory_order_acquire),
                 "send before connect");
  TxItem item;
  item.track = track;
  item.token = token;
  item.payload = gl.flatten();  // segments only live until completion
  MADO_CHECK_MSG(item.payload.size() <= kMaxFrame, "oversized frame");
  MADO_CHECK_MSG((item.payload.size() + kChunk - 1) / kChunk <= 0xffff,
                 "frame needs more than 65535 fragments at this MTU");
  gate_.accept();
  tx_.push(std::move(item));
  loop_->notify(this);
  return false;
}

void UdpEndpoint::progress() {
  // After close() the queued events are dropped: no callback follows it.
  if (!handler_ || gate_.closed()) return;
  std::vector<Event> drained;
  events_.drain(drained);
  for (auto& ev : drained) {
    if (auto* done = std::get_if<EvSendComplete>(&ev)) {
      gate_.resolve();
      handler_->on_send_complete(done->track, done->token);
    } else if (auto* failed = std::get_if<EvSendFailed>(&ev)) {
      gate_.resolve();
      handler_->on_send_failed(failed->track, failed->token);
    } else {
      auto& pkt = std::get<EvPacket>(ev);
      handler_->on_packet(pkt.track, std::move(pkt.payload));
    }
  }
  if (gate_.should_report_link_down()) handler_->on_link_down();
}

void UdpEndpoint::close() {
  if (!gate_.mark_closed_once()) return;
  // Synchronous handshake: after this returns the loop thread holds no
  // reference to this endpoint, so the fd and Io state are ours to tear
  // down.
  if (registered_.load(std::memory_order_acquire)) loop_->remove(this);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UdpEndpoint::inject_failure() {
  fail_requested_.store(true, std::memory_order_release);
  // Ride the notify path so the loop notices promptly even when idle.
  if (registered_.load(std::memory_order_acquire)) loop_->notify(this);
}

void UdpEndpoint::set_rx_loss(double probability, std::uint64_t seed) {
  loss_rng_.store(seed | 1, std::memory_order_relaxed);
  const double p = std::min(1.0, std::max(0.0, probability));
  rx_loss_ppm_.store(static_cast<std::uint32_t>(p * 1000000.0),
                     std::memory_order_release);
}

std::string UdpEndpoint::describe() const {
  return "udp:127.0.0.1:" + std::to_string(local_port_);
}

}  // namespace mado::drv

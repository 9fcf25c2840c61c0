// UDP endpoint: real datagrams over the kernel UDP stack, multiplexing any
// number of peers on one IoLoop (epoll thread) with batched
// sendmmsg/recvmmsg. This is the bridge from "socketpair inside one process"
// to "serves actual traffic": peers live in separate OS processes, the wire
// can drop and reorder, and SIGKILLing a peer surfaces as a real transport
// error (ICMP port-unreachable → ECONNREFUSED on the connected socket).
//
// Datagram format (16-byte header, little-endian, then payload):
//
//   [u8 type][u8 track][u16 nfrags][u32 seq][u32 frag][u32 frame_len]
//
//   type: 1=Data  2=Ack  3=Ping  4=Pong
//
// A driver frame (one send()) larger than the MTU payload is fragmented
// into `nfrags` datagrams sharing one per-track `seq`; the receiver
// reassembles by (track, seq, frag) and hands completed frames up in seq
// order. Acks carry a cumulative received-byte count (lo32 in `seq`, hi32
// in `frag`) driving the sender's flow-control window — without it, bulk
// senders overrun the loopback receive buffer (~208 KiB default) and drop
// silently even on a "clean" link. Ping/Pong are keepalive + ack
// solicitation.
//
// The driver is honest about what UDP is: caps().lossless == false, so
// Engine::add_rail refuses the rail unless cfg.reliability (the go-back-N
// layer from PR 2) is on. Delivery is per-track FIFO for the frames that DO
// arrive (seq-ordered release with a bounded skip for lost frames);
// recovering the lost ones is the reliability layer's job.
//
// Threading: the IoLoop thread owns the socket and all per-endpoint IO
// state; the endpoint registers with ticks (1 ms while backlogged, 50 ms
// keepalive otherwise). send() only enqueues and nudges the loop. Unlike
// the socketpair driver, completions and arrivals are queued and handed to
// the handler from progress().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "drivers/driver.hpp"
#include "drivers/io_loop.hpp"
#include "drivers/link_gate.hpp"
#include "util/clock.hpp"
#include "util/queues.hpp"

namespace mado::drv {

/// Monotonic driver counters, written by the loop thread, readable from any
/// thread (relaxed). The `udp.*` names in docs/counters.md map 1:1.
struct UdpCounters {
  std::atomic<std::uint64_t> datagrams_tx{0};
  std::atomic<std::uint64_t> datagrams_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> frames_tx{0};
  std::atomic<std::uint64_t> frames_rx{0};
  std::atomic<std::uint64_t> acks_tx{0};
  std::atomic<std::uint64_t> acks_rx{0};
  std::atomic<std::uint64_t> pings_tx{0};
  std::atomic<std::uint64_t> eagain_tx{0};
  std::atomic<std::uint64_t> window_stalls{0};
  std::atomic<std::uint64_t> window_resets{0};
  std::atomic<std::uint64_t> gap_skips{0};
  std::atomic<std::uint64_t> reasm_drops{0};
  std::atomic<std::uint64_t> stale_frames{0};
  std::atomic<std::uint64_t> rx_loss_injected{0};
};

/// Honest capability profile for UDP over loopback: no gather (datagram
/// build flattens), lossless=false (reliability required), loopback-class
/// cost numbers so RTO floors and stripe planning stay sane.
Capabilities udp_loopback_profile();

class UdpEndpoint final : public DriverEndpoint, private IoLoop::Source {
 public:
  struct PairResult {
    std::unique_ptr<UdpEndpoint> a;
    std::unique_ptr<UdpEndpoint> b;
  };
  /// Both ends in one process, cross-connected over 127.0.0.1 and served
  /// by `loop` — the analogue of SocketEndpoint::make_pair.
  static PairResult make_pair(std::shared_ptr<IoLoop> loop,
                              const Capabilities& caps_a,
                              const Capabilities& caps_b);
  /// As above, on a loop of the pair's own.
  static PairResult make_pair(const Capabilities& caps) {
    return make_pair(IoLoop::create(), caps, caps);
  }

  /// Multi-process path: bind an unconnected endpoint on 127.0.0.1 (port 0
  /// = ephemeral), exchange ports out of band, then connect(). Traffic and
  /// epoll registration start at connect().
  static std::unique_ptr<UdpEndpoint> bind(std::shared_ptr<IoLoop> loop,
                                           const Capabilities& caps,
                                           std::uint16_t port = 0);
  std::uint16_t local_port() const { return local_port_; }
  void connect(const std::string& ip, std::uint16_t port);

  ~UdpEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override { handler_ = handler; }
  void send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  void progress() override;
  void close() override;
  bool link_up() const override { return !gate_.broken(); }
  std::string describe() const override;

  bool broken() const { return gate_.broken(); }
  const UdpCounters& counters() const { return counters_; }

  /// Test hook: sever the link as if the wire died (queued and future sends
  /// fail, then exactly one on_link_down).
  void inject_failure();
  /// Test hook: drop this fraction of received DATA datagrams (after flow-
  /// control accounting, before reassembly) — a lossy wire whose acks still
  /// flow, so the window stays live while the reliability layer sweats.
  void set_rx_loss(double probability, std::uint64_t seed);

 private:
  UdpEndpoint(std::shared_ptr<IoLoop> loop, Capabilities caps);

  void open_and_bind(std::uint16_t port);

  // IoLoop::Source, and the loop-thread-only IO paths behind it.
  void on_ready(std::uint32_t events) override;
  void on_notify() override;
  Nanos on_tick(Nanos now) override;
  void handle_readable();
  void handle_datagram(const std::uint8_t* data, std::size_t len, Nanos now);
  void deliver_ready_frames(Nanos now);
  void pump_tx(Nanos now);
  void send_ctrl_datagram(std::uint8_t type);
  void flush_ack(bool force);
  void break_link(const char* why);
  void set_want_writable(bool want);
  void fast_tick(Nanos now);
  void slow_tick(Nanos now);

  struct TxItem {
    TrackId track = 0;
    std::uint64_t token = 0;
    Bytes payload;
    bool seq_assigned = false;
    std::uint32_t seq = 0;
  };
  struct EvSendComplete {
    TrackId track;
    std::uint64_t token;
  };
  struct EvSendFailed {
    TrackId track;
    std::uint64_t token;
  };
  struct EvPacket {
    TrackId track;
    Bytes payload;
  };
  using Event = std::variant<EvSendComplete, EvSendFailed, EvPacket>;

  /// One partially reassembled (or completed, awaiting ordered release)
  /// inbound frame.
  struct Reasm {
    Bytes buf;
    std::vector<bool> got;
    std::uint32_t have = 0;
    std::uint32_t nfrags = 0;
    bool complete = false;
    Nanos first_at = 0;
    Nanos complete_at = 0;
  };
  struct TrackRx {
    std::uint32_t next_seq = 0;  ///< next seq to release to the handler
    std::map<std::uint32_t, Reasm> pend;
  };

  /// Loop-thread-only IO state. Registration/deregistration handshakes
  /// (mutex + cv) order every access against construction and close().
  struct Io {
    std::deque<TxItem> q;
    std::size_t cur_off = 0;  ///< payload bytes of q.front() already sent
    std::vector<std::uint32_t> next_seq;  ///< per-track tx frame seq
    std::uint64_t tx_charged = 0;
    std::uint64_t peer_acked = 0;
    bool want_writable = false;
    bool active = false;  ///< backlogged: pumped on every loop pass
    Nanos blocked_since = 0;  ///< 0 = not window-blocked
    std::uint64_t rx_charged = 0;
    std::uint64_t acked_sent = 0;  ///< last cumulative value sent to peer
    bool ack_pending = false;
    std::vector<TrackRx> rx;
    Nanos last_rx = 0;
    Nanos last_ping = 0;
    Nanos last_fast_tick = 0;
    Nanos last_slow_tick = 0;
    bool broken = false;  ///< loop-side latch: fail everything from now on
  };

  std::shared_ptr<IoLoop> loop_;
  Capabilities caps_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::size_t window_ = 0;  ///< effective window (rcvbuf-clamped)
  std::atomic<bool> connected_{false};
  std::atomic<bool> registered_{false};
  EndpointHandler* handler_ = nullptr;

  MpscQueue<TxItem> tx_;
  MpscQueue<Event> events_;
  LinkDownGate gate_;
  std::atomic<bool> fail_requested_{false};
  std::atomic<std::uint32_t> rx_loss_ppm_{0};
  /// xorshift state; atomic only so seeding from a test thread is race-free
  /// against the loop thread's relaxed advance.
  std::atomic<std::uint64_t> loss_rng_{0};
  UdpCounters counters_;
  Io io_;
};

}  // namespace mado::drv

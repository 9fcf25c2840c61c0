// Socket endpoint: real bytes over a Unix-domain socketpair, served by an
// IoLoop thread. This is the "mock the NIC over sockets on one host"
// substrate: it exercises the engine against genuine asynchrony — partial
// reads/writes, callbacks from a foreign thread — which the deterministic
// simulator cannot.
//
// Framing: [u8 track][u32 little-endian payload length][payload bytes].
// All tracks multiplex over the single stream, which preserves the per-track
// FIFO guarantee of the driver contract (a stream is FIFO for everything).
//
// The fd is non-blocking and served by the loop. send() queues the frame and
// nudges the loop (once per burst); the loop writes header and payload in
// one sendmsg, resumes partial writes on EPOLLOUT, and calls
// on_send_complete once a frame has fully left. It reads with one recv per
// readiness and calls on_packet for every complete frame. Callbacks come
// straight from the loop thread, so progress() has nothing to do.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "drivers/driver.hpp"
#include "drivers/io_loop.hpp"
#include "drivers/link_gate.hpp"
#include "util/queues.hpp"

namespace mado::drv {

class SocketEndpoint final : public DriverEndpoint, private IoLoop::Source {
 public:
  struct PairResult {
    std::unique_ptr<SocketEndpoint> a;
    std::unique_ptr<SocketEndpoint> b;
  };
  /// Create both ends over a fresh socketpair, served by `loop`. Throws
  /// std::system_error on OS failure.
  static PairResult make_pair(std::shared_ptr<IoLoop> loop,
                              const Capabilities& caps_a,
                              const Capabilities& caps_b);
  /// As above, on a loop of the pair's own.
  static PairResult make_pair(const Capabilities& caps_a,
                              const Capabilities& caps_b) {
    return make_pair(IoLoop::create(), caps_a, caps_b);
  }
  static PairResult make_pair(const Capabilities& caps) {
    return make_pair(caps, caps);
  }

  ~SocketEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override {
    handler_.store(handler, std::memory_order_release);
  }
  void send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  /// No-op: the loop thread delivers every callback.
  void progress() override {}
  /// After close() returns no callback runs and none will.
  void close() override;
  bool link_up() const override { return !broken(); }

  /// True once the peer closed or an IO error occurred. The loop reports
  /// this to the handler as on_link_down, exactly once, after every
  /// arrival before the break was delivered and every queued send failed.
  bool broken() const { return gate_.broken(); }

  std::uint64_t packets_sent() const {
    return packets_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  /// The loop serving this endpoint (wakeup counters for tests).
  const IoLoop& loop() const { return *loop_; }

 private:
  SocketEndpoint(std::shared_ptr<IoLoop> loop, Capabilities caps, int fd);

  static constexpr std::size_t kHeaderLen = 1 + 4;  // track + payload length

  struct TxItem {
    std::uint8_t hdr[kHeaderLen] = {};
    std::uint64_t token = 0;
    Bytes payload;
  };

  // IoLoop::Source (loop thread only).
  void on_ready(std::uint32_t events) override;
  void on_notify() override;

  enum class RxResult { kData, kEmpty, kClosed };

  void flush_tx();
  /// One recv into the receive buffer (or the oversized frame in
  /// progress), then every complete frame goes to on_packet.
  RxResult read_once();
  /// False on a corrupt stream.
  bool parse_frames();
  void deliver(TrackId track, Bytes payload);
  /// The wire died: fail every queued send, then report the link down.
  void break_link();
  void fail_queued();
  EndpointHandler* handler() const {
    return handler_.load(std::memory_order_acquire);
  }

  std::shared_ptr<IoLoop> loop_;
  Capabilities caps_;
  int fd_ = -1;
  std::atomic<EndpointHandler*> handler_{nullptr};
  /// send() → loop hand-off.
  MpscQueue<TxItem> submit_;
  /// broken/outstanding/closed/reported protocol shared with the UDP
  /// driver; see link_gate.hpp for the exactly-once argument.
  LinkDownGate gate_;
  std::atomic<std::uint64_t> packets_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // Loop-thread-only state. The add/remove handshakes order every access
  // against construction and close().
  std::vector<TxItem> fresh_;
  std::deque<TxItem> txq_;
  std::size_t tx_off_ = 0;  ///< bytes of txq_.front() (header included) sent
  bool tx_blocked_ = false;  ///< socket buffer full, EPOLLOUT armed
  Bytes rx_buf_;            ///< receive buffer, holds whole small frames
  std::size_t rx_len_ = 0;  ///< bytes buffered in rx_buf_
  Bytes rx_big_;            ///< a frame too large for rx_buf_, read in place
  std::size_t rx_big_have_ = 0;
  TrackId rx_big_track_ = 0;
  bool rx_in_big_ = false;
  bool dead_ = false;  ///< loop-side latch: the wire is gone
};

}  // namespace mado::drv

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
// The fd is non-blocking. While the wire is idle, send() writes header and
// gather segments itself in one sendmsg from the calling thread and returns
// true: the packet has left and no callback follows. The wire is idle when
// the loop holds no frame of this endpoint and the peer has read every byte
// written so far (SIOCOUTQ reads 0). A wire that still holds unread bytes
// is busy: send() then flattens the frame, queues it and nudges the loop
// (once per burst), so a backlog builds behind it as on a busy NIC. A short
// write or EAGAIN hands the rest of the frame to the loop the same way. The
// loop writes queued frames in one sendmsg, resumes partial writes on
// EPOLLOUT, and calls on_send_complete once a frame has fully left. It
// reads with one recv per readiness and calls on_packet for every complete
// frame. Callbacks come straight from the loop thread, so progress() has
// nothing to do. The inline write needs no lock of its own: the engine
// never calls send() on one endpoint from two threads at once (driver.hpp,
// clause 6).
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
  bool send(TrackId track, const GatherList& gl, std::uint64_t token) override;
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
  /// `loop_frames_` (for tests).
  std::size_t loop_frames() const {
    return loop_frames_.load(std::memory_order_acquire);
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
    std::size_t sent = 0;  ///< bytes of the frame (header included) written
  };

  // IoLoop::Source (loop thread only).
  void on_ready(std::uint32_t events) override;
  void on_notify() override;

  enum class RxResult { kData, kEmpty, kClosed };

  /// send()'s fast path: true when the peer has read every byte written
  /// so far.
  bool wire_drained() const;
  /// One sendmsg of the whole frame from the calling thread; returns the
  /// bytes written (0 on EAGAIN or an error: the loop then takes the frame).
  std::size_t write_inline(const std::uint8_t* hdr, const GatherList& gl);
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
  /// A queued frame's callback returned: send() may write inline again
  /// once none is left.
  void release_frame() {
    loop_frames_.fetch_sub(1, std::memory_order_release);
  }
  EndpointHandler* handler() const {
    return handler_.load(std::memory_order_acquire);
  }

  std::shared_ptr<IoLoop> loop_;
  Capabilities caps_;
  int fd_ = -1;
  std::atomic<EndpointHandler*> handler_{nullptr};
  /// send() → loop hand-off.
  MpscQueue<TxItem> submit_;
  /// Frames handed to the loop whose completion or failure callback has
  /// not returned yet. send() writes inline only at 0, so bytes leave in
  /// send order and an inline completion never overtakes a queued one.
  std::atomic<std::size_t> loop_frames_{0};
  /// broken/outstanding/closed/reported protocol shared with the UDP
  /// driver; see link_gate.hpp for the exactly-once argument.
  LinkDownGate gate_;
  std::atomic<std::uint64_t> packets_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};

  // Loop-thread-only state. The add/remove handshakes order every access
  // against construction and close().
  std::vector<TxItem> fresh_;
  std::deque<TxItem> txq_;
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

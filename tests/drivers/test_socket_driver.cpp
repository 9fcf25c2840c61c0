#include "drivers/socket_driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "drivers/profiles.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;
using namespace std::chrono_literals;

class SocketDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pair = SocketEndpoint::make_pair(test_profile());
    a_ = std::move(pair.a);
    b_ = std::move(pair.b);
    a_->set_handler(&ha_);
    b_->set_handler(&hb_);
  }

  void TearDown() override {
    if (a_) a_->close();
    if (b_) b_->close();
  }

  /// send() that records an inline completion (send() returned true) on
  /// the sending side's handler, as an engine completes it on the spot.
  bool send(SocketEndpoint& ep, TrackId track, const Bytes& payload,
            std::uint64_t token) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    const bool left = ep.send(track, gl, token);
    if (left) {
      (&ep == a_.get() ? ha_ : hb_).record_inline_completion(track, token);
    }
    return left;
  }

  /// Wait until pred() or timeout; the loop thread delivers callbacks
  /// (progress() is called anyway, as an engine would).
  bool pump_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      a_->progress();
      b_->progress();
      std::this_thread::sleep_for(100us);
    }
    return true;
  }

  std::unique_ptr<SocketEndpoint> a_, b_;
  RecordingHandler ha_, hb_;
};

TEST_F(SocketDriverTest, RoundTripSmallPacket) {
  Bytes p = make_payload(64);
  send(*a_, kTrackEager, p, 5);
  ASSERT_TRUE(pump_until([&] {
    return ha_.completion_count() == 1 && hb_.packet_count() == 1;
  }));
  EXPECT_EQ(ha_.completions()[0].token, 5u);
  EXPECT_EQ(hb_.packets()[0].track, kTrackEager);
  EXPECT_EQ(hb_.packets()[0].payload, p);
}

TEST_F(SocketDriverTest, EmptyPayload) {
  Bytes p;
  GatherList gl;
  a_->send(kTrackEager, gl, 1);
  ASSERT_TRUE(pump_until([&] { return hb_.packet_count() == 1; }));
  EXPECT_TRUE(hb_.packets()[0].payload.empty());
}

TEST_F(SocketDriverTest, LargePayloadCrossesPartialIo) {
  // 8 MiB comfortably exceeds socket buffer sizes, forcing partial
  // reads/writes (EPOLLOUT resumption) on the loop thread.
  Bytes p = make_payload(8 * 1024 * 1024);
  send(*a_, kTrackBulk, p, 9);
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() == 1 && ha_.completion_count() == 1;
  }));
  EXPECT_EQ(hb_.packets()[0].payload, p);
  EXPECT_EQ(a_->bytes_sent(), p.size());
}

TEST_F(SocketDriverTest, ManyPacketsKeepFifoOrder) {
  constexpr std::uint64_t kN = 200;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(32, static_cast<std::uint8_t>(i)), i);
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() == kN && ha_.completion_count() == kN;
  }));
  const auto got = hb_.packets();
  for (std::uint64_t i = 0; i < kN; ++i)
    EXPECT_EQ(got[i].payload, make_payload(32, static_cast<std::uint8_t>(i)));
  const auto done = ha_.completions();
  ASSERT_EQ(done.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(done[i].token, i);
}

TEST_F(SocketDriverTest, TracksMultiplexOverOneStream) {
  send(*a_, kTrackEager, make_payload(8, 1), 1);
  send(*a_, kTrackBulk, make_payload(8, 2), 2);
  ASSERT_TRUE(pump_until([&] { return hb_.packet_count() == 2; }));
  const auto got = hb_.packets();
  EXPECT_EQ(got[0].track, kTrackEager);
  EXPECT_EQ(got[1].track, kTrackBulk);
}

TEST_F(SocketDriverTest, BidirectionalTraffic) {
  send(*a_, kTrackEager, make_payload(16, 1), 1);
  send(*b_, kTrackEager, make_payload(16, 2), 2);
  ASSERT_TRUE(pump_until([&] {
    return ha_.packet_count() == 1 && hb_.packet_count() == 1;
  }));
  EXPECT_EQ(ha_.packets()[0].payload, make_payload(16, 2));
  EXPECT_EQ(hb_.packets()[0].payload, make_payload(16, 1));
}

TEST_F(SocketDriverTest, PeerCloseMarksBroken) {
  b_->close();
  // a_'s loop observes EOF.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!a_->broken() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(a_->broken());
}

TEST_F(SocketDriverTest, CloseIsIdempotent) {
  a_->close();
  EXPECT_NO_THROW(a_->close());
}

TEST_F(SocketDriverTest, SendAfterCloseThrows) {
  a_->close();
  GatherList gl;
  Bytes p = make_payload(4);
  gl.add(p.data(), p.size());
  EXPECT_THROW(a_->send(kTrackEager, gl, 1), CheckError);
}

TEST_F(SocketDriverTest, SendsAfterPeerDeathAreFailedNotDropped) {
  // Regression: a broken wire used to drop every queued item — no
  // completion, no failure — which leaked the engine's in-flight records
  // forever. Every doomed send must get exactly one on_send_failed, all
  // delivered before on_link_down.
  b_->close();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!a_->broken() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(a_->broken());

  constexpr std::uint64_t kN = 16;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(64, static_cast<std::uint8_t>(i)), i);
  ASSERT_TRUE(pump_until([&] {
    return ha_.failure_count() == kN && ha_.link_downs() == 1;
  }));
  EXPECT_EQ(ha_.completion_count(), 0u);
  const auto failed = ha_.failures();
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(failed[i].token, i);
  // The link died before these sends, so on_link_down had already fired
  // once with no send outstanding; the later failures never repeat it.
  EXPECT_EQ(ha_.failures_at_link_down(), 0u);
}

TEST_F(SocketDriverTest, EveryTokenGetsExactlyOneOutcomeAcrossPeerDeath) {
  // Burst sends racing a peer close: tokens may complete (made it into the
  // socket buffer) or fail (wire broke first), but each must get exactly
  // one outcome — the sum must account for every send().
  constexpr std::uint64_t kN = 64;
  // Large payloads so the socket buffer fills and the loop is still
  // mid-queue when the peer vanishes.
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackBulk, make_payload(256 * 1024), i);
  b_->close();
  ASSERT_TRUE(pump_until([&] {
    return ha_.completion_count() + ha_.failure_count() == kN;
  }));
  std::vector<bool> seen(kN, false);
  for (const auto& c : ha_.completions()) {
    EXPECT_FALSE(seen[c.token]) << "duplicate outcome for " << c.token;
    seen[c.token] = true;
  }
  const auto failed = ha_.failures();
  for (const auto& f : failed) {
    EXPECT_FALSE(seen[f.token]) << "duplicate outcome for " << f.token;
    seen[f.token] = true;
  }
  if (!failed.empty()) {
    ASSERT_TRUE(pump_until([&] { return ha_.link_downs() == 1; }));
    EXPECT_EQ(ha_.failures_at_link_down(), failed.size());
  }
}

/// Handler whose first on_packet holds the calling (loop) thread until
/// release(); later callbacks just count. Every packet is also handed on
/// to `record`, when set.
class GateHandler final : public EndpointHandler {
 public:
  explicit GateHandler(RecordingHandler* record = nullptr) : record_(record) {}
  void on_send_complete(TrackId, std::uint64_t) override {}
  void on_packet(TrackId track, Bytes payload) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (packets_++ == 0) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lk, [&] { return released_; });
      }
    }
    if (record_) record_->on_packet(track, std::move(payload));
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::size_t packets() const {
    std::lock_guard<std::mutex> lk(mu_);
    return packets_;
  }

 private:
  RecordingHandler* const record_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t packets_ = 0;
  bool entered_ = false;
  bool released_ = false;
};

TEST_F(SocketDriverTest, IdleLoopNeverWakesAndBurstCostsOneWake) {
  // Stream endpoints need no tick: an idle loop sleeps in epoll_wait and
  // never wakes.
  const IoLoop& loop = a_->loop();
  const std::uint64_t idle_from = loop.wakeups();
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(loop.wakeups(), idle_from);

  // A burst of sends costs one eventfd nudge. Hold the loop inside b's
  // first on_packet so the whole burst lands before it picks any of it up.
  GateHandler gate;
  b_->set_handler(&gate);
  send(*a_, kTrackEager, make_payload(8), 100);
  gate.wait_entered();
  const std::uint64_t nudges_from = loop.nudges();
  constexpr std::uint64_t kN = 8;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(32), i);
  EXPECT_EQ(loop.nudges(), nudges_from + 1);
  gate.release();
  ASSERT_TRUE(pump_until([&] {
    return ha_.completion_count() == kN + 1 && gate.packets() == kN + 1;
  }));
  EXPECT_EQ(loop.nudges(), nudges_from + 1);

  // Back to idle: the count holds flat again.
  const std::uint64_t settled = loop.wakeups();
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(loop.wakeups(), settled);
  b_->set_handler(&hb_);
}

TEST_F(SocketDriverTest, SendLeavesInlineOnlyOnceThePeerReadEveryByte) {
  // Hold b's loop inside its first on_packet: from then on nobody reads
  // the stream, so whatever a writes stays unread in the socket.
  GateHandler gate(&hb_);
  b_->set_handler(&gate);
  EXPECT_TRUE(send(*a_, kTrackEager, make_payload(8, 0), 0))
      << "a fresh socketpair is idle";
  gate.wait_entered();
  // b read frame 0 before calling on_packet: the wire is idle again.
  EXPECT_TRUE(send(*a_, kTrackEager, make_payload(16, 1), 1));
  // Frame 1 sits unread: the wire is busy, so frame 2 queues.
  EXPECT_FALSE(send(*a_, kTrackEager, make_payload(24, 2), 2));
  EXPECT_EQ(a_->loop_frames(), 1u);
  gate.release();
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() == 3 && ha_.completion_count() == 3 &&
           a_->loop_frames() == 0;
  }));
  // b read everything and the loop's callback returned: idle again.
  EXPECT_TRUE(send(*a_, kTrackEager, make_payload(32, 3), 3));
  ASSERT_TRUE(pump_until([&] { return hb_.packet_count() == 4; }));
  const auto done = ha_.completions();
  ASSERT_EQ(done.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(done[i].token, i);
  EXPECT_EQ(ha_.inline_completions(), 3u);
  EXPECT_EQ(ha_.calls_inside_send(), 0u);
  b_->set_handler(&hb_);
}

TEST_F(SocketDriverTest, ShortInlineWriteHandsTheRestToTheLoopInOrder) {
  // Hold the shared loop inside b's first on_packet, then make a's next
  // inline write come up short: a frame far larger than the socket
  // buffer. The loop must finish that frame before anything queued behind
  // it, and once it drained, send() writes inline again.
  GateHandler gate(&hb_);
  b_->set_handler(&gate);
  std::vector<Bytes> sent;
  std::vector<TrackId> tracks;
  auto post = [&](TrackId track, Bytes p) {
    const bool left = send(*a_, track, p, sent.size());
    sent.push_back(std::move(p));
    tracks.push_back(track);
    return left;
  };
  EXPECT_TRUE(post(kTrackEager, make_payload(8, 0)));
  gate.wait_entered();
  EXPECT_FALSE(post(kTrackBulk, make_payload(8 * 1024 * 1024, 1)))
      << "an 8 MiB frame cannot leave in one write";
  EXPECT_EQ(a_->packets_sent(), 1u) << "the short frame has not left yet";
  for (std::uint8_t i = 2; i < 6; ++i)
    EXPECT_FALSE(post(i % 2 ? kTrackEager : kTrackBulk, make_payload(64, i)));
  gate.release();
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() == sent.size() &&
           ha_.completion_count() == sent.size() && a_->loop_frames() == 0;
  }));
  EXPECT_TRUE(post(kTrackEager, make_payload(32, 6)));
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() == sent.size() &&
           ha_.completion_count() == sent.size();
  }));
  // One stream: delivery is byte-exact and FIFO across tracks, and so are
  // the completions, inline or not.
  const auto got = hb_.packets();
  const auto done = ha_.completions();
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].track, tracks[i]) << i;
    EXPECT_EQ(got[i].payload, sent[i]) << i;
    EXPECT_EQ(done[i].token, i);
    EXPECT_EQ(done[i].track, tracks[i]) << i;
  }
  EXPECT_EQ(ha_.inline_completions(), 2u);
  EXPECT_EQ(ha_.failure_count(), 0u);
  EXPECT_EQ(a_->bytes_sent(), [&] {
    std::size_t n = 0;
    for (const Bytes& p : sent) n += p.size();
    return n;
  }());
  b_->set_handler(&hb_);
}

TEST_F(SocketDriverTest, TeardownOfIdleEndpointsIsPrompt) {
  // close() is one handshake with an idle loop, not a wait for a poll
  // tick; tearing down a fleet of idle endpoints must be quick. With the
  // old 100 ms TX-thread tick, 16 endpoints serialized through
  // TearDown-style close() could stack up to 1.6 s; bound well below that.
  constexpr std::size_t kPairs = 8;
  std::vector<std::unique_ptr<SocketEndpoint>> eps;
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto pair = SocketEndpoint::make_pair(test_profile());
    eps.push_back(std::move(pair.a));
    eps.push_back(std::move(pair.b));
  }
  std::this_thread::sleep_for(50ms);  // let everything park idle
  const auto start = std::chrono::steady_clock::now();
  for (auto& ep : eps) ep->close();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 500ms);
}

TEST_F(SocketDriverTest, ConcurrentSendsRacingPeerDeathOneLinkDown) {
  // Satellite for the LinkDownGate audit, shaped for TSan: a submitter
  // thread bursts bulk sends while the peer dies underneath it and the
  // loop thread writes, fails and reports concurrently. Contract: every
  // accepted token gets exactly one outcome, every send accepted before
  // on_link_down is resolved before it, sends made after it can only fail,
  // and on_link_down fires exactly once.
  constexpr std::uint64_t kN = 96;
  std::atomic<std::uint64_t> accepted{0};
  // Sends that returned before any link-down report: the gate must have
  // resolved them by the time the report fires.
  std::vector<bool> before_report(kN, false);
  std::thread submitter([&] {
    for (std::uint64_t i = 0; i < kN; ++i) {
      GatherList gl;
      const Bytes p = make_payload(128 * 1024);
      gl.add(p.data(), p.size());
      if (a_->send(kTrackBulk, gl, i))
        ha_.record_inline_completion(kTrackBulk, i);
      before_report[i] = ha_.link_downs() == 0;
      accepted.fetch_add(1, std::memory_order_release);
      if (i == kN / 4) b_->close();  // peer dies mid-burst
    }
  });
  submitter.join();
  ASSERT_TRUE(pump_until([&] {
    return ha_.completion_count() + ha_.failure_count() ==
           accepted.load(std::memory_order_acquire);
  }));
  std::vector<bool> seen(kN, false);
  for (const auto& c : ha_.completions()) {
    EXPECT_FALSE(seen[c.token]) << "duplicate outcome for " << c.token;
    seen[c.token] = true;
  }
  const auto failed = ha_.failures();
  for (const auto& f : failed) {
    EXPECT_FALSE(seen[f.token]) << "duplicate outcome for " << f.token;
    seen[f.token] = true;
  }
  if (!failed.empty()) {
    ASSERT_TRUE(pump_until([&] { return ha_.link_downs() == 1; }));
    // No completion after the report...
    EXPECT_EQ(ha_.completions_at_link_down(), ha_.completion_count());
    // ...and every failure of a send accepted before it came first.
    std::vector<bool> failed_early(kN, false);
    for (std::size_t i = 0; i < ha_.failures_at_link_down(); ++i)
      failed_early[failed[i].token] = true;
    std::vector<bool> completed(kN, false);
    for (const auto& c : ha_.completions()) completed[c.token] = true;
    for (std::uint64_t t = 0; t < kN; ++t) {
      if (before_report[t]) {
        EXPECT_TRUE(completed[t] || failed_early[t])
            << "token " << t << " resolved after on_link_down";
      }
    }
    // A later send fails too, without a second report.
    send(*a_, kTrackEager, make_payload(8), kN);
    ASSERT_TRUE(pump_until(
        [&] { return ha_.failure_count() == failed.size() + 1; }));
    EXPECT_EQ(ha_.link_downs(), 1);
  }
}

TEST_F(SocketDriverTest, GatherSegmentsConcatenated) {
  Bytes p1 = make_payload(16, 3), p2 = make_payload(16, 4);
  GatherList gl;
  gl.add(p1.data(), p1.size());
  gl.add(p2.data(), p2.size());
  a_->send(kTrackEager, gl, 1);
  ASSERT_TRUE(pump_until([&] { return hb_.packet_count() == 1; }));
  Bytes expect = p1;
  expect.insert(expect.end(), p2.begin(), p2.end());
  EXPECT_EQ(hb_.packets()[0].payload, expect);
}

}  // namespace
}  // namespace mado::drv

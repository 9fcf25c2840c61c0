// UDP driver unit tests: real datagrams over 127.0.0.1 inside one process.
// Covers what the conformance kit cannot: fragmentation across the MTU,
// flow-control under bulk pressure, injected receive-side loss (the driver
// must keep flowing and report honest counters — recovery is the engine
// reliability layer's job, exercised in test_engine_udp.cpp), and the
// failure paths (inject_failure, peer close).
#include "drivers/udp_driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "drivers/profiles.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;
using namespace std::chrono_literals;

class UdpDriverTest : public ::testing::Test {
 protected:
  void build() {
    auto pair = UdpEndpoint::make_pair(test_profile());
    a_ = std::move(pair.a);
    b_ = std::move(pair.b);
    a_->set_handler(&ha_);
    b_->set_handler(&hb_);
  }

  void TearDown() override {
    if (a_) a_->close();
    if (b_) b_->close();
  }

  void send(UdpEndpoint& ep, TrackId track, const Bytes& payload,
            std::uint64_t token) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    ep.send(track, gl, token);
  }

  bool pump_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout = 10000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      a_->progress();
      b_->progress();
      std::this_thread::sleep_for(100us);
    }
    return true;
  }

  std::unique_ptr<UdpEndpoint> a_, b_;
  RecordingHandler ha_, hb_;
};

TEST_F(UdpDriverTest, RoundTripSingleDatagram) {
  build();
  const Bytes p = make_payload(512);
  send(*a_, kTrackEager, p, 7);
  ASSERT_TRUE(pump_until([&] {
    return ha_.completion_count() == 1 && hb_.packet_count() == 1;
  }));
  EXPECT_EQ(ha_.completions()[0].token, 7u);
  EXPECT_EQ(hb_.packets()[0].payload, p);
  EXPECT_GE(a_->counters().datagrams_tx.load(), 1u);
  EXPECT_GE(b_->counters().datagrams_rx.load(), 1u);
}

TEST_F(UdpDriverTest, FrameLargerThanMtuIsFragmentedAndReassembled) {
  build();
  // One frame spanning many MTU-sized datagrams, each carrying the 16-byte
  // datagram header: 1 MiB at the 32 KiB MTU needs 33 fragments.
  constexpr std::size_t kFrame = 1024 * 1024;
  const std::size_t chunk = a_->caps().datagram_mtu - 16;
  const std::size_t frags = (kFrame + chunk - 1) / chunk;
  ASSERT_GE(frags, 33u);
  const Bytes p = make_payload(kFrame, 5);
  send(*a_, kTrackBulk, p, 1);
  ASSERT_TRUE(pump_until([&] { return hb_.packet_count() == 1; }));
  EXPECT_EQ(hb_.packets()[0].payload, p);
  EXPECT_GE(a_->counters().datagrams_tx.load(), frags);
  EXPECT_EQ(b_->counters().frames_rx.load(), 1u);
}

TEST_F(UdpDriverTest, BulkStreamEngagesFlowControlWithoutLoss) {
  // Far more data than the loopback receive buffer: without the ack-driven
  // window this drops silently at the kernel and the test times out.
  build();
  constexpr std::uint64_t kN = 64;
  constexpr std::size_t kSize = 256 * 1024;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackBulk, make_payload(kSize, static_cast<std::uint8_t>(i)),
         i);
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() == kN && ha_.completion_count() == kN;
  }, 30000ms));
  const auto got = hb_.packets();
  const auto done = ha_.completions();
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(got[i].payload, make_payload(kSize, static_cast<std::uint8_t>(i)))
        << i;
    EXPECT_EQ(done[i].token, i);
  }
  // 16 MiB against a ≤1 MiB window must have stalled the sender at least
  // once — proof the window was actually exercised, not bypassed.
  EXPECT_GT(a_->counters().window_stalls.load(), 0u);
  EXPECT_GT(b_->counters().acks_tx.load(), 0u);
}

TEST_F(UdpDriverTest, InjectedRxLossDoesNotStallDelivery) {
  // 5% of DATA datagrams vanish after flow-control accounting. The driver
  // must (a) keep delivering the frames that do arrive, in seq order,
  // (b) skip lost frames after the gap hold, and (c) count what it dropped.
  // No retransmission here — that layer sits above the driver.
  build();
  b_->set_rx_loss(0.05, 42);
  constexpr std::uint64_t kN = 400;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(64, static_cast<std::uint8_t>(i)), i);
  // All sends complete (completion = handed to the wire, not delivery).
  ASSERT_TRUE(pump_until([&] { return ha_.completion_count() == kN; }));
  // Wait for the receive side to settle: everything not lost gets through.
  ASSERT_TRUE(pump_until([&] {
    return hb_.packet_count() + b_->counters().rx_loss_injected.load() >= kN;
  }));
  EXPECT_GT(b_->counters().rx_loss_injected.load(), 0u);
  EXPECT_LT(hb_.packet_count(), kN);
  // Delivered subsequence preserves submission order (payload seeds ascend).
  std::uint8_t last = 0;
  bool first = true;
  for (const auto& pkt : hb_.packets()) {
    ASSERT_FALSE(pkt.payload.empty());
    const std::uint8_t seed = static_cast<std::uint8_t>(pkt.payload[0]);
    if (!first) {
      EXPECT_NE(seed, last) << "duplicate delivery";
    }
    first = false;
    last = seed;
  }
}

TEST_F(UdpDriverTest, InjectFailureFailsQueuedAndFutureSendsThenLinkDown) {
  build();
  a_->inject_failure();
  constexpr std::uint64_t kN = 8;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(64), i);
  ASSERT_TRUE(pump_until([&] {
    return ha_.failure_count() == kN && ha_.link_downs() == 1;
  }));
  EXPECT_TRUE(ha_.completions().empty());
  // Contract: every doomed token failed BEFORE on_link_down, exactly once.
  EXPECT_EQ(ha_.failures_at_link_down(), kN);
  EXPECT_TRUE(a_->broken());
  EXPECT_FALSE(a_->link_up());
}

TEST_F(UdpDriverTest, PeerCloseSurfacesAsConnRefused) {
  // Closing b_'s socket makes the kernel answer a_'s datagrams with ICMP
  // port-unreachable → ECONNREFUSED on the connected socket. This is the
  // same fast-path that detects a SIGKILLed peer process.
  build();
  b_->close();
  send(*a_, kTrackEager, make_payload(64), 1);
  ASSERT_TRUE(pump_until(
      [&] {
        // Keep nudging the wire: the refusal arrives on a subsequent
        // send/recv, and a keepalive ping also picks it up.
        return a_->broken();
      },
      5000ms));
  ASSERT_TRUE(pump_until([&] { return ha_.link_downs() == 1; }));
  EXPECT_EQ(ha_.completion_count() + ha_.failure_count(), 1u);
}

TEST_F(UdpDriverTest, CloseIsIdempotentAndSendAfterCloseThrows) {
  build();
  a_->close();
  EXPECT_NO_THROW(a_->close());
  GatherList gl;
  const Bytes p = make_payload(4);
  gl.add(p.data(), p.size());
  EXPECT_THROW(a_->send(kTrackEager, gl, 1), CheckError);
}

TEST_F(UdpDriverTest, ManyEndpointsShareOneLoop) {
  // Four pairs multiplexed on one epoll loop each carry traffic without
  // cross-talk — the "N peers, one event loop" scaling claim in miniature.
  constexpr std::size_t kPairs = 4;
  std::vector<std::unique_ptr<UdpEndpoint>> eps;
  std::vector<RecordingHandler> handlers(2 * kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto pair = UdpEndpoint::make_pair(test_profile());
    pair.a->set_handler(&handlers[2 * i]);
    pair.b->set_handler(&handlers[2 * i + 1]);
    eps.push_back(std::move(pair.a));
    eps.push_back(std::move(pair.b));
  }
  for (std::size_t i = 0; i < kPairs; ++i) {
    GatherList gl;
    const Bytes p = make_payload(1024, static_cast<std::uint8_t>(i));
    gl.add(p.data(), p.size());
    eps[2 * i]->send(kTrackEager, gl, i);
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  auto all_done = [&] {
    for (std::size_t i = 0; i < kPairs; ++i)
      if (handlers[2 * i + 1].packets().empty()) return false;
    return true;
  };
  while (!all_done() && std::chrono::steady_clock::now() < deadline) {
    for (auto& ep : eps) ep->progress();
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(all_done());
  for (std::size_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(handlers[2 * i + 1].packets()[0].payload,
              make_payload(1024, static_cast<std::uint8_t>(i)))
        << i;
    EXPECT_TRUE(handlers[2 * i].packets().empty()) << i;  // no cross-talk
  }
  for (auto& ep : eps) ep->close();
}

TEST_F(UdpDriverTest, CapabilitiesAreHonest) {
  build();
  EXPECT_FALSE(a_->caps().lossless);
  EXPECT_GT(a_->caps().datagram_mtu, 0u);
  const Capabilities prof = udp_loopback_profile();
  EXPECT_FALSE(prof.lossless);
  EXPECT_FALSE(prof.gather_scatter);
}

}  // namespace
}  // namespace mado::drv

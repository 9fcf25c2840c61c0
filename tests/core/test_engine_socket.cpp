// Integration tests over the real socket driver: the engine against genuine
// asynchrony (the IO loop thread, progress threads, wall-clock timers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/engine.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

class SocketEngineTest : public ::testing::Test {
 protected:
  void build(EngineConfig cfg = {}, std::size_t rails = 1) {
    world_ = std::make_unique<SocketWorld>(cfg, drv::mx_myrinet_profile(),
                                           rails);
    a_ = world_->node(0).open_channel(1, 7);
    b_ = world_->node(1).open_channel(0, 7);
  }

  std::unique_ptr<SocketWorld> world_;
  Channel a_, b_;
};

TEST_F(SocketEngineTest, SmallMessageRoundTrip) {
  build();
  send_bytes(a_, pattern(100));
  EXPECT_EQ(recv_bytes(b_, 100), pattern(100));
}

TEST_F(SocketEngineTest, ManyMessagesInOrder) {
  build();
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i)
    send_bytes(a_, pattern(64, static_cast<std::uint32_t>(i)));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(recv_bytes(b_, 64), pattern(64, static_cast<std::uint32_t>(i)));
}

TEST_F(SocketEngineTest, RendezvousOverRealBytes) {
  build();
  const Bytes data = pattern(1 << 20);
  SendHandle h = send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).wait_send(h));
  EXPECT_GE(world_->node(0).stats().counter("tx.rdv_completed"), 1u);
}

TEST_F(SocketEngineTest, CrossFlowAggregationHappensForReal) {
  build();
  constexpr ChannelId kFlows = 8;
  constexpr int kMsgs = 25;
  std::vector<Channel> tx, rx;
  for (ChannelId f = 0; f < kFlows; ++f) {
    tx.push_back(world_->node(0).open_channel(1, 100 + f));
    rx.push_back(world_->node(1).open_channel(0, 100 + f));
  }
  for (int i = 0; i < kMsgs; ++i)
    for (ChannelId f = 0; f < kFlows; ++f)
      send_bytes(tx[f], pattern(64, f * 1000u + static_cast<std::uint32_t>(i)));
  for (int i = 0; i < kMsgs; ++i)
    for (ChannelId f = 0; f < kFlows; ++f)
      EXPECT_EQ(recv_bytes(rx[f], 64),
                pattern(64, f * 1000u + static_cast<std::uint32_t>(i)));
  // With IO-thread latency per packet, the backlog builds and aggregation
  // must have fired at least occasionally.
  EXPECT_LT(world_->node(0).stats().counter("tx.packets"),
            world_->node(0).stats().counter("tx.frags"));
}

TEST_F(SocketEngineTest, BidirectionalConcurrent) {
  build();
  constexpr int kN = 50;
  for (int i = 0; i < kN; ++i) {
    send_bytes(a_, pattern(128, static_cast<std::uint32_t>(i)));
    send_bytes(b_, pattern(128, 1000u + static_cast<std::uint32_t>(i)));
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(recv_bytes(b_, 128), pattern(128, static_cast<std::uint32_t>(i)));
    EXPECT_EQ(recv_bytes(a_, 128),
              pattern(128, 1000u + static_cast<std::uint32_t>(i)));
  }
}

TEST_F(SocketEngineTest, MultirailOverSockets) {
  EngineConfig cfg;
  cfg.rdv_chunk = 64 * 1024;
  build(cfg, /*rails=*/2);
  EXPECT_EQ(world_->node(0).rail_count(1), 2u);
  const Bytes data = pattern(2 << 20);
  send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
}

TEST_F(SocketEngineTest, NagleDelayOverWallClock) {
  EngineConfig cfg;
  cfg.strategy = "nagle";
  cfg.nagle_delay = 2 * kNanosPerMilli;
  build(cfg);
  Channel a2 = world_->node(0).open_channel(1, 8);
  Channel b2 = world_->node(1).open_channel(0, 8);
  send_bytes(a_, pattern(16, 1));
  send_bytes(a2, pattern(16, 2));
  EXPECT_EQ(recv_bytes(b_, 16), pattern(16, 1));
  EXPECT_EQ(recv_bytes(b2, 16), pattern(16, 2));
}

TEST_F(SocketEngineTest, TracerAttachDetachMidTrafficIsSafe) {
  // The tracer pointer is read on the hot path from engine worker context
  // (progress threads, wall-clock timers) while this thread flips it.
  // Under ThreadSanitizer this test proves the attach/detach protocol:
  // atomic pointer for the read, engine lock held across the store so a
  // detach cannot race an in-progress record().
  build();
  Tracer tr;
  std::atomic<bool> done{false};
  std::thread toggler([&] {
    while (!done.load(std::memory_order_acquire)) {
      world_->node(0).set_tracer(&tr);
      world_->node(1).set_tracer(&tr);
      world_->node(0).set_tracer(nullptr);
      world_->node(1).set_tracer(nullptr);
    }
  });
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    send_bytes(a_, pattern(64, static_cast<std::uint32_t>(i)));
    EXPECT_EQ(recv_bytes(b_, 64), pattern(64, static_cast<std::uint32_t>(i)));
  }
  EXPECT_TRUE(world_->node(0).flush());
  done.store(true, std::memory_order_release);
  toggler.join();
  // No assertion on trace contents — attachment windows are arbitrary. The
  // test's value is the absence of data races and crashes.
}

TEST_F(SocketEngineTest, MixedEagerAndRdvStress) {
  build();
  constexpr int kRounds = 20;
  for (int i = 0; i < kRounds; ++i) {
    send_bytes(a_, pattern(64, static_cast<std::uint32_t>(i)));
    send_bytes(a_, pattern(64 * 1024, 500u + static_cast<std::uint32_t>(i)));
  }
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(recv_bytes(b_, 64), pattern(64, static_cast<std::uint32_t>(i)));
    EXPECT_EQ(recv_bytes(b_, 64 * 1024),
              pattern(64 * 1024, 500u + static_cast<std::uint32_t>(i)));
  }
  EXPECT_TRUE(world_->node(0).flush());
}

// An arrival delivered straight from the IO loop is handled in full inside
// the callback (apply, pump, owed acks), so it wakes the receiver's waiters
// only, never its parked progress thread. A long park makes a stray wakeup
// unmistakable: prog.t0.wakeups moves only when the owner leaves a park.
TEST_F(SocketEngineTest, ArrivalLeavesParkedOwnerAsleep) {
  EngineConfig cfg;
  cfg.prog_spin_laps = 4;
  cfg.prog_yield_laps = 4;
  cfg.prog_idle_wait = 10 * kNanosPerSec;
  build(cfg);
  Engine& rx = world_->node(1);
  auto counter = [&](const char* name) {
    return rx.counters_snapshot()[name];
  };
  // Wait for the receiver's owner to park: it has slept at least once and
  // its wakeup count holds still.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the receiver's progress thread never parked";
    const std::uint64_t w = counter("prog.t0.wakeups");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (counter("prog.t0.idle_sleeps") > 0 && counter("prog.t0.wakeups") == w)
      break;
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint64_t before = counter("prog.t0.wakeups");
    send_bytes(a_, pattern(64, i));
    EXPECT_EQ(recv_bytes(b_, 64), pattern(64, i));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(counter("prog.t0.wakeups"), before)
        << "arrival " << i << " woke the receiver's parked owner";
  }
}

// Teardown while traffic flows both ways: the IO loop is inside engine
// callbacks (completions, arrivals) while node 0 closes its rails. The
// engine used to close endpoints while holding peers_mu_ and the peer
// locks; a loop callback blocked on one of those locks then kept close()'s
// deregistration handshake from ever finishing. With two rails, a callback
// on one rail must also not send on the other after it was closed.
TEST(SocketWorldTeardown, DestroyWhileBothDirectionsStream) {
  for (int round = 0; round < 100; ++round) {
    auto world = std::make_unique<SocketWorld>(
        EngineConfig{}, drv::mx_myrinet_profile(), 1 + round % 2);
    {
      Channel a = world->node(0).open_channel(1, 7);
      Channel b = world->node(1).open_channel(0, 7);
      auto stream = [](Channel& ch, std::uint32_t seed) {
        for (std::uint32_t i = 0; i < 64; ++i)
          send_bytes(ch, pattern(i % 8 == 0 ? 96 * 1024 : 256, seed + i));
      };
      std::thread ta([&] { stream(a, 0); });
      std::thread tb([&] { stream(b, 1000); });
      ta.join();
      tb.join();
    }
    world.reset();  // most of that traffic is still in flight
  }
}

}  // namespace
}  // namespace mado::core

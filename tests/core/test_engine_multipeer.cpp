// Multi-peer engine behaviour: one engine talking to several peers keeps
// per-peer collect layers, schedules each peer's rails independently, and
// serves its RMA windows to all peers.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

class MultiPeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<SimWorld>(3);
    world_->connect(0, 1, drv::test_profile());
    world_->connect(0, 2, drv::test_profile());
  }
  std::unique_ptr<SimWorld> world_;
};

TEST_F(MultiPeerTest, SameChannelIdPerPeerIsIndependent) {
  Channel to1 = world_->node(0).open_channel(1, 7);
  Channel to2 = world_->node(0).open_channel(2, 7);  // same id, other peer
  Channel at1 = world_->node(1).open_channel(0, 7);
  Channel at2 = world_->node(2).open_channel(0, 7);
  send_bytes(to1, pattern(32, 1));
  send_bytes(to2, pattern(32, 2));
  EXPECT_EQ(recv_bytes(at1, 32), pattern(32, 1));
  EXPECT_EQ(recv_bytes(at2, 32), pattern(32, 2));
}

TEST_F(MultiPeerTest, BacklogsAreSeparatePerPeer) {
  Channel to1 = world_->node(0).open_channel(1, 1);
  Channel to2 = world_->node(0).open_channel(2, 1);
  world_->node(1).open_channel(0, 1);
  world_->node(2).open_channel(0, 1);
  for (int i = 0; i < 5; ++i) send_bytes(to1, pattern(64));
  EXPECT_GT(world_->node(0).backlog_frags(1, 0), 0u);
  EXPECT_EQ(world_->node(0).backlog_frags(2, 0), 0u);
  for (int i = 0; i < 5; ++i) send_bytes(to2, pattern(64));
  EXPECT_GT(world_->node(0).backlog_frags(2, 0), 0u);
  world_->node(0).flush();
}

TEST_F(MultiPeerTest, AggregationIsPerPeer) {
  // Messages to different peers can never share a packet.
  EngineConfig cfg;
  cfg.strategy = "aggreg";
  world_ = std::make_unique<SimWorld>(3, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 2, drv::test_profile());
  Channel to1 = world_->node(0).open_channel(1, 1);
  Channel to2 = world_->node(0).open_channel(2, 1);
  Channel at1 = world_->node(1).open_channel(0, 1);
  Channel at2 = world_->node(2).open_channel(0, 1);
  for (int i = 0; i < 10; ++i) {
    send_bytes(to1, pattern(16, static_cast<std::uint32_t>(i)));
    send_bytes(to2, pattern(16, 100u + static_cast<std::uint32_t>(i)));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(recv_bytes(at1, 16), pattern(16, static_cast<std::uint32_t>(i)));
    EXPECT_EQ(recv_bytes(at2, 16),
              pattern(16, 100u + static_cast<std::uint32_t>(i)));
  }
  // Each receiver saw only its own fragments.
  EXPECT_EQ(world_->node(1).stats().counter("rx.frags"), 10u);
  EXPECT_EQ(world_->node(2).stats().counter("rx.frags"), 10u);
}

TEST_F(MultiPeerTest, OneWindowServesAllPeers) {
  Bytes window(4096, Byte{0});
  world_->node(0).expose_window(9, window.data(), window.size());
  const Bytes d1 = pattern(256, 1), d2 = pattern(256, 2);
  SendHandle h1 = world_->node(1).rma_put(0, 9, 0, d1.data(), d1.size());
  SendHandle h2 = world_->node(2).rma_put(0, 9, 1024, d2.data(), d2.size());
  EXPECT_TRUE(world_->node(1).wait_send(h1));
  EXPECT_TRUE(world_->node(2).wait_send(h2));
  EXPECT_EQ(Bytes(window.begin(), window.begin() + 256), d1);
  EXPECT_EQ(Bytes(window.begin() + 1024, window.begin() + 1280), d2);
  // Both peers can read each other's region through the hub.
  Bytes out(256);
  SendHandle g = world_->node(1).rma_get(0, 9, 1024, out.data(), out.size());
  EXPECT_TRUE(world_->node(1).wait_send(g));
  EXPECT_EQ(out, d2);
}

TEST_F(MultiPeerTest, RendezvousToTwoPeersConcurrently) {
  Channel to1 = world_->node(0).open_channel(1, 1);
  Channel to2 = world_->node(0).open_channel(2, 1);
  Channel at1 = world_->node(1).open_channel(0, 1);
  Channel at2 = world_->node(2).open_channel(0, 1);
  const Bytes d1 = pattern(16 * 1024, 1), d2 = pattern(16 * 1024, 2);
  send_bytes(to1, d1, SendMode::Later);
  send_bytes(to2, d2, SendMode::Later);
  EXPECT_EQ(recv_bytes(at1, d1.size()), d1);
  EXPECT_EQ(recv_bytes(at2, d2.size()), d2);
  EXPECT_EQ(world_->node(0).stats().counter("tx.rdv_completed"), 2u);
}

TEST_F(MultiPeerTest, FlushCoversAllPeers) {
  Channel to1 = world_->node(0).open_channel(1, 1);
  Channel to2 = world_->node(0).open_channel(2, 1);
  world_->node(1).open_channel(0, 1);
  world_->node(2).open_channel(0, 1);
  for (int i = 0; i < 10; ++i) {
    send_bytes(to1, pattern(64));
    send_bytes(to2, pattern(64));
  }
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_TRUE(world_->node(0).snapshot().quiescent());
}

}  // namespace
}  // namespace mado::core

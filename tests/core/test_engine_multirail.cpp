// Multirail and traffic-class tests: bulk placement (Bulk striped over
// kAllRails or pinned to one rail) over homogeneous and heterogeneous
// rails, the class→rail map for eager traffic (pinned or least-loaded), and
// dynamic re-assignment (paper §2).
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::bulk_tx_bytes_by_rail;
using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

class MultirailTest : public ::testing::Test {
 protected:
  void build(EngineConfig cfg, std::size_t rails,
             const drv::Capabilities& caps = drv::test_profile()) {
    world_ = std::make_unique<SimWorld>(2, cfg);
    for (std::size_t r = 0; r < rails; ++r) world_->connect(0, 1, caps);
    a_ = world_->node(0).open_channel(1, 7, TrafficClass::Bulk);
    b_ = world_->node(1).open_channel(0, 7, TrafficClass::Bulk);
  }

  std::unique_ptr<SimWorld> world_;
  Channel a_, b_;
};

TEST_F(MultirailTest, TwoRailsRoundTrip) {
  build(EngineConfig{}, 2);
  EXPECT_EQ(world_->node(0).rail_count(1), 2u);
  const Bytes data = pattern(64 * 1024);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
}

TEST_F(MultirailTest, StripeUsesAllRails) {
  EngineConfig cfg;
  cfg.rdv_chunk = 4096;
  build(cfg, 2);
  Tracer tracer(1 << 12);
  world_->node(0).set_tracer(&tracer);
  const Bytes data = pattern(128 * 1024);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).flush());
  EXPECT_EQ(world_->node(0).pending_bulk_chunks(1), 0u);
  EXPECT_EQ(world_->node(1).stats().counter("rx.bulk_chunks"), 32u);
  world_->node(0).set_tracer(nullptr);
  // Both rails carried bulk traffic, and together exactly the payload.
  const auto by_rail = bulk_tx_bytes_by_rail(tracer);
  ASSERT_EQ(by_rail.size(), 2u);
  EXPECT_GT(by_rail.at(0), 0u);
  EXPECT_GT(by_rail.at(1), 0u);
  EXPECT_EQ(by_rail.at(0) + by_rail.at(1), data.size());
}

TEST_F(MultirailTest, PinnedBulkEntryKeepsBulkOnOneRail) {
  EngineConfig cfg;
  cfg.class_rail[static_cast<std::size_t>(TrafficClass::Bulk)] = 0;
  cfg.rdv_chunk = 4096;
  build(cfg, 2);
  Tracer tracer(1 << 12);
  world_->node(0).set_tracer(&tracer);
  const Bytes data = pattern(64 * 1024);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(world_->node(0).flush());
  world_->node(0).set_tracer(nullptr);
  // A pinned entry leaves one eligible rail, so the idle rail never
  // steals: rail 0 (the Bulk class rail) carried every chunk.
  const auto by_rail = bulk_tx_bytes_by_rail(tracer);
  ASSERT_EQ(by_rail.size(), 1u);
  EXPECT_EQ(by_rail.at(0), data.size());
  EXPECT_EQ(world_->node(0).stats().counter("stripe.steals"), 0u);
}

TEST_F(MultirailTest, SetClassRailSwitchesBulkBetweenPinnedAndSpread) {
  EngineConfig cfg;
  cfg.rdv_chunk = 4096;
  build(cfg, 2);
  Engine& tx = world_->node(0);
  Tracer tracer(1 << 12);
  tx.set_tracer(&tracer);
  const Bytes data = pattern(64 * 1024);

  tx.set_class_rail(TrafficClass::Bulk, 1);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(tx.flush());
  auto by_rail = bulk_tx_bytes_by_rail(tracer);
  ASSERT_EQ(by_rail.size(), 1u);
  EXPECT_EQ(by_rail.at(1), data.size());
  EXPECT_EQ(tx.stats().counter("stripe.steals"), 0u);

  tracer.clear();
  tx.set_class_rail(TrafficClass::Bulk, kAllRails);
  send_bytes(a_, data);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
  EXPECT_TRUE(tx.flush());
  tx.set_tracer(nullptr);
  by_rail = bulk_tx_bytes_by_rail(tracer);
  ASSERT_EQ(by_rail.size(), 2u);
  EXPECT_GT(by_rail.at(0), 0u);
  EXPECT_GT(by_rail.at(1), 0u);
  EXPECT_EQ(by_rail.at(0) + by_rail.at(1), data.size());
}

TEST_F(MultirailTest, HeterogeneousRailsMxPlusElan) {
  EngineConfig cfg;
  cfg.rdv_chunk = 16 * 1024;
  cfg.rdv_threshold_override = 32 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::elan_quadrics_profile());
  a_ = world_->node(0).open_channel(1, 7, TrafficClass::Bulk);
  b_ = world_->node(1).open_channel(0, 7, TrafficClass::Bulk);
  const Bytes data = pattern(1 << 20);
  send_bytes(a_, data, SendMode::Later);
  EXPECT_EQ(recv_bytes(b_, data.size()), data);
}

TEST_F(MultirailTest, StripeBeatsSingleRailOnBandwidth) {
  auto run = [&](RailId bulk_rail) {
    EngineConfig cfg;
    cfg.class_rail[static_cast<std::size_t>(TrafficClass::Bulk)] = bulk_rail;
    cfg.rdv_chunk = 16 * 1024;
    build(cfg, 2, drv::mx_myrinet_profile());
    const Bytes data = pattern(1 << 20);
    send_bytes(a_, data, SendMode::Later);
    recv_bytes(b_, data.size());
    world_->node(0).flush();
    return world_->now();
  };
  const Nanos single = run(0);
  const Nanos stripe = run(kAllRails);
  // Two equal rails: striping should approach half the time.
  EXPECT_LT(stripe, single * 3 / 4);
}

TEST_F(MultirailTest, ClassRailAssignmentRoutesEagerTraffic) {
  EngineConfig cfg;
  cfg.class_rail = {0, 1, 0, 0};  // SmallEager → rail 1
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1, TrafficClass::SmallEager);
  Channel b = world_->node(1).open_channel(0, 1, TrafficClass::SmallEager);
  send_bytes(a, pattern(64));
  EXPECT_EQ(world_->node(0).backlog_frags(1, 0), 0u);
  EXPECT_EQ(recv_bytes(b, 64), pattern(64));
}

TEST_F(MultirailTest, ClassRailWrapsModuloRailCount) {
  EngineConfig cfg;
  cfg.class_rail = {5, 5, 5, 5};  // only 1 rail exists → wraps to 0
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1);
  Channel b = world_->node(1).open_channel(0, 1);
  send_bytes(a, pattern(64));
  EXPECT_EQ(recv_bytes(b, 64), pattern(64));
}

TEST_F(MultirailTest, SetClassRailTakesEffectForNewMessages) {
  EngineConfig cfg;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1, TrafficClass::Control);
  Channel b = world_->node(1).open_channel(0, 1, TrafficClass::Control);
  EXPECT_EQ(world_->node(0).class_rail(TrafficClass::Control), 0);
  world_->node(0).set_class_rail(TrafficClass::Control, 1);
  send_bytes(a, pattern(32));
  EXPECT_EQ(world_->node(0).backlog_frags(1, 0), 0u);
  EXPECT_EQ(recv_bytes(b, 32), pattern(32));
}

TEST_F(MultirailTest, RebalanceMovesLatencyClassesOffLoadedRail) {
  EngineConfig cfg;
  cfg.class_rail = {0, 0, 0, 0};  // everything, bulk too, on rail 0
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::mx_myrinet_profile());
  Channel bulk_tx = world_->node(0).open_channel(1, 1, TrafficClass::Bulk);
  world_->node(1).open_channel(0, 1, TrafficClass::Bulk);
  // Load rail 0: one large eager message in flight, the rest queued in the
  // collect layer (nothing pumped yet — no fabric steps between posts).
  for (int i = 0; i < 4; ++i) send_bytes(bulk_tx, pattern(16 * 1024));
  EXPECT_GT(world_->node(0).backlog_frags(1, 0), 0u);
  world_->node(0).rebalance_classes();
  EXPECT_EQ(world_->node(0).class_rail(TrafficClass::Control), 1);
  EXPECT_EQ(world_->node(0).class_rail(TrafficClass::SmallEager), 1);
  EXPECT_EQ(world_->node(0).stats().counter("sched.rebalances"), 1u);
}

TEST_F(MultirailTest, RebalanceNoopWithSingleRail) {
  EngineConfig cfg;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->node(0).rebalance_classes();
  EXPECT_EQ(world_->node(0).stats().counter("sched.rebalances"), 0u);
}

TEST_F(MultirailTest, AutoRebalanceTicks) {
  EngineConfig cfg;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  world_->node(0).set_auto_rebalance(usec(10));
  world_->fabric().run_until(usec(35));
  EXPECT_GE(world_->node(0).stats().counter("sched.rebalances"), 3u);
}

TEST_F(MultirailTest, LeastLoadedEagerPolicySpreadsAcrossRails) {
  EngineConfig cfg;
  cfg.class_rail[static_cast<std::size_t>(TrafficClass::SmallEager)] =
      kAllRails;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::test_profile());
  world_->connect(0, 1, drv::test_profile());
  Channel a = world_->node(0).open_channel(1, 1);
  Channel b = world_->node(1).open_channel(0, 1);
  // Back-to-back posts with no fabric steps: the first loads rail 0, so
  // subsequent ones must flow to rail 1, and so on.
  for (int i = 0; i < 6; ++i)
    send_bytes(a, pattern(200, static_cast<std::uint32_t>(i)));
  EXPECT_GT(world_->node(0).backlog_frags(1, 0) +
                world_->node(0).inflight_packets(),
            0u);
  EXPECT_GT(world_->node(0).backlog_frags(1, 1), 0u);
  // Messages may now arrive out of rail order but each flow's channel
  // sequence is still respected by the addressed reassembly.
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(recv_bytes(b, 200), pattern(200, static_cast<std::uint32_t>(i)));
}

TEST_F(MultirailTest, LeastLoadedAvoidsBulkLoadedRail) {
  EngineConfig cfg;
  cfg.class_rail = {0, kAllRails, 0, 0};  // SmallEager spreads, Bulk pinned
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  world_->connect(0, 1, drv::mx_myrinet_profile());
  Channel bulk = world_->node(0).open_channel(1, 1, TrafficClass::Bulk);
  world_->node(1).open_channel(0, 1, TrafficClass::Bulk);
  Channel small_tx = world_->node(0).open_channel(1, 2);
  Channel small_rx = world_->node(1).open_channel(0, 2);
  // Load rail 0 with large eager fragments (below rdv threshold).
  for (int i = 0; i < 3; ++i) send_bytes(bulk, pattern(16 * 1024));
  auto rail1_busy = [&] {
    const auto& r = world_->node(0).snapshot().peers[0].rails[1];
    return r.backlog_frags + r.outstanding_packets;
  };
  ASSERT_EQ(rail1_busy(), 0u);
  // A small message submitted now must take rail 1.
  send_bytes(small_tx, pattern(64, 7));
  EXPECT_GT(rail1_busy(), 0u);
  EXPECT_EQ(recv_bytes(small_rx, 64), pattern(64, 7));
}

TEST_F(MultirailTest, SharedTrackCapsStillDeliverRdv) {
  // track_count == 1: eager packets and bulk chunks share one multiplexing
  // unit; the alternating pump must still drain both.
  auto caps = drv::test_profile();
  caps.track_count = 1;
  EngineConfig cfg;
  cfg.rdv_chunk = 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, caps);
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  const Bytes big = pattern(16 * 1024, 1);
  send_bytes(a_, big);
  send_bytes(a_, pattern(64, 2));
  EXPECT_EQ(recv_bytes(b_, big.size()), big);
  EXPECT_EQ(recv_bytes(b_, 64), pattern(64, 2));
}

TEST_F(MultirailTest, EagerTrafficNotBlockedBehindBulk) {
  // Separate tracks: a small eager message posted after a huge rendezvous
  // must not wait for the bulk transfer to finish.
  EngineConfig cfg;
  cfg.rdv_chunk = 256 * 1024;
  world_ = std::make_unique<SimWorld>(2, cfg);
  world_->connect(0, 1, drv::mx_myrinet_profile());
  a_ = world_->node(0).open_channel(1, 7);
  b_ = world_->node(1).open_channel(0, 7);
  Channel a2 = world_->node(0).open_channel(1, 8);
  Channel b2 = world_->node(1).open_channel(0, 8);

  const Bytes big = pattern(4 << 20);
  send_bytes(a_, big, SendMode::Later);
  // Receiver posts the big unpack (starts the bulk flow), then reads the
  // small message; measure when the small one lands.
  Bytes rbig(big.size());
  IncomingMessage im = b_.begin_recv();
  im.unpack(rbig.data(), rbig.size(), RecvMode::Cheaper);

  send_bytes(a2, pattern(64, 5));
  const Bytes small = recv_bytes(b2, 64);
  const Nanos small_done = world_->now();
  EXPECT_EQ(small, pattern(64, 5));
  im.finish();
  const Nanos big_done = world_->now();
  EXPECT_LT(small_done, big_done / 4);
  EXPECT_EQ(rbig, big);
}

}  // namespace
}  // namespace mado::core

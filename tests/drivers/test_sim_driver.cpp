#include "drivers/sim_driver.hpp"

#include <gtest/gtest.h>

#include "drivers/profiles.hpp"
#include "sim/fabric.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;

class SimDriverTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(test_profile(), test_profile()); }

  void reset(const Capabilities& ca, const Capabilities& cb) {
    auto pair = SimEndpoint::make_pair(fabric_, ca, cb);
    a_ = std::move(pair.a);
    b_ = std::move(pair.b);
    a_->set_handler(&ha_);
    b_->set_handler(&hb_);
  }

  void send(SimEndpoint& ep, TrackId track, const Bytes& payload,
            std::uint64_t token) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    ep.send(track, gl, token);
  }

  sim::Fabric fabric_;
  std::unique_ptr<SimEndpoint> a_, b_;
  RecordingHandler ha_, hb_;
};

TEST_F(SimDriverTest, NoSynchronousCallbacks) {
  Bytes p = make_payload(16);
  send(*a_, kTrackEager, p, 1);
  EXPECT_TRUE(ha_.completions().empty());
  EXPECT_TRUE(hb_.packets().empty());
  EXPECT_TRUE(fabric_.has_events());
}

TEST_F(SimDriverTest, CompletionThenDelivery) {
  Bytes p = make_payload(16);
  send(*a_, kTrackEager, p, 7);
  fabric_.run_until_idle();
  ASSERT_EQ(ha_.completion_count(), 1u);
  EXPECT_EQ(ha_.completions()[0].token, 7u);
  ASSERT_EQ(hb_.packet_count(), 1u);
  EXPECT_EQ(hb_.packets()[0].payload, p);
}

TEST_F(SimDriverTest, DeliveryLaterThanCompletion) {
  Bytes p = make_payload(16);
  send(*a_, kTrackEager, p, 1);
  // First event: completion (accept time). Clock then < delivery time.
  fabric_.step();
  EXPECT_EQ(ha_.completion_count(), 1u);
  EXPECT_TRUE(hb_.packets().empty());
  const Nanos completion_time = fabric_.now();
  fabric_.run_until_idle();
  EXPECT_EQ(hb_.packet_count(), 1u);
  EXPECT_GT(fabric_.now(), completion_time);
}

TEST_F(SimDriverTest, LatencyMatchesModel) {
  auto caps = test_profile();
  const sim::NicModel m(caps.cost);
  Bytes p = make_payload(64);
  send(*a_, kTrackEager, p, 1);
  fabric_.run_until_idle();
  const Nanos expect_accept = m.busy_time(p.size(), 1);
  EXPECT_EQ(fabric_.now(), expect_accept + m.propagation_latency());
}

TEST_F(SimDriverTest, BackToBackSendsSerializeOnLink) {
  auto caps = test_profile();
  const sim::NicModel m(caps.cost);
  Bytes p = make_payload(64);
  send(*a_, kTrackEager, p, 1);
  send(*a_, kTrackEager, p, 2);
  fabric_.run_until_idle();
  // Second packet waits for the first: total = 2 * busy + latency.
  EXPECT_EQ(fabric_.now(),
            2 * m.busy_time(p.size(), 1) + m.propagation_latency());
  ASSERT_EQ(hb_.packet_count(), 2u);
}

TEST_F(SimDriverTest, DirectionsDoNotSerializeAgainstEachOther) {
  auto caps = test_profile();
  const sim::NicModel m(caps.cost);
  Bytes p = make_payload(64);
  send(*a_, kTrackEager, p, 1);
  send(*b_, kTrackEager, p, 2);
  fabric_.run_until_idle();
  // Full duplex: both finish at single-packet time.
  EXPECT_EQ(fabric_.now(), m.busy_time(p.size(), 1) + m.propagation_latency());
}

TEST_F(SimDriverTest, FifoPerTrack) {
  for (std::uint64_t i = 0; i < 8; ++i)
    send(*a_, kTrackEager, make_payload(8, static_cast<std::uint8_t>(i)), i);
  fabric_.run_until_idle();
  ASSERT_EQ(ha_.completion_count(), 8u);
  ASSERT_EQ(hb_.packet_count(), 8u);
  const auto done = ha_.completions();
  const auto got = hb_.packets();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(done[i].token, i);
    EXPECT_EQ(got[i].payload, make_payload(8, static_cast<std::uint8_t>(i)));
  }
}

TEST_F(SimDriverTest, FlattenChargedWithoutGatherSupport) {
  auto caps = test_profile();
  caps.gather_scatter = false;
  reset(caps, caps);
  Bytes p1 = make_payload(32, 1), p2 = make_payload(32, 2);
  GatherList gl;
  gl.add(p1.data(), p1.size());
  gl.add(p2.data(), p2.size());
  a_->send(kTrackEager, gl, 1);
  fabric_.run_until_idle();
  EXPECT_EQ(a_->flatten_copies(), 1u);
  ASSERT_EQ(hb_.packet_count(), 1u);
  EXPECT_EQ(hb_.packets()[0].payload.size(), 64u);
}

TEST_F(SimDriverTest, TooManySegmentsAlsoFlattens) {
  auto caps = test_profile();
  caps.gather_scatter = true;
  caps.max_gather_segments = 2;
  reset(caps, caps);
  Bytes p = make_payload(8);
  GatherList gl;
  gl.add(p.data(), 4);
  gl.add(p.data() + 4, 2);
  gl.add(p.data() + 6, 2);
  a_->send(kTrackEager, gl, 1);
  fabric_.run_until_idle();
  EXPECT_EQ(a_->flatten_copies(), 1u);
}

TEST_F(SimDriverTest, HeterogeneousCapsPerSide) {
  auto fast = test_profile();
  auto slow = test_profile();
  slow.cost.latency = 1000;
  reset(fast, slow);
  // a_ -> b_ uses fast's model; b_ -> a_ uses slow's.
  Bytes p = make_payload(16);
  send(*b_, kTrackEager, p, 1);
  fabric_.run_until_idle();
  const sim::NicModel m(slow.cost);
  EXPECT_EQ(fabric_.now(), m.busy_time(p.size(), 1) + m.propagation_latency());
}

TEST_F(SimDriverTest, StatsCounters) {
  Bytes p = make_payload(100);
  send(*a_, kTrackEager, p, 1);
  send(*a_, kTrackEager, p, 2);
  fabric_.run_until_idle();
  EXPECT_EQ(a_->packets_sent(), 2u);
  EXPECT_EQ(a_->bytes_sent(), 200u);
  EXPECT_EQ(b_->packets_sent(), 0u);
}

TEST_F(SimDriverTest, DeliveryToDestroyedPeerIsDropped) {
  Bytes p = make_payload(16);
  send(*a_, kTrackEager, p, 1);
  b_.reset();
  EXPECT_NO_THROW(fabric_.run_until_idle());
  EXPECT_EQ(ha_.completion_count(), 1u);
}

TEST_F(SimDriverTest, InvalidTrackThrows) {
  Bytes p = make_payload(4);
  GatherList gl;
  gl.add(p.data(), p.size());
  EXPECT_THROW(a_->send(TrackId{5}, gl, 1), CheckError);
}

}  // namespace
}  // namespace mado::drv

// Driver conformance kit: one parameterized suite that checks the
// DriverEndpoint contract (drivers/driver.hpp) against EVERY transport —
// shared-memory, simulated NIC, real sockets and UDP datagrams. Anyone
// adding a driver (docs/internals.md §9) plugs it in here.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "drivers/sim_driver.hpp"
#include "drivers/socket_driver.hpp"
#include "drivers/udp_driver.hpp"
#include "sim/fabric.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::SendScope;
using testing::make_payload;

/// Uniform harness over one endpoint pair plus its progression mechanism.
struct Harness {
  std::unique_ptr<DriverEndpoint> a, b;
  RecordingHandler ha, hb;
  std::function<void()> pump_once;  // advance the world a little
  std::unique_ptr<sim::Fabric> fabric;  // sim only

  void init() {
    a->set_handler(&ha);
    b->set_handler(&hb);
  }

  /// Pump until `pred` or timeout; returns pred().
  bool pump_until(const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      pump_once();
    }
    return true;
  }

  /// send() through the contract: a send completed inline is recorded on
  /// the sending side's handler.
  void send(DriverEndpoint& ep, TrackId track, const Bytes& payload,
            std::uint64_t token) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    bool left;
    {
      SendScope scope;
      left = ep.send(track, gl, token);
    }
    if (left) (&ep == a.get() ? ha : hb).record_inline_completion(track, token);
  }
};

// Explicit values keep each instance's printed GetParam() bytes stable.
enum class Kind { Shm = 1, Sim, Socket, Udp };

std::unique_ptr<Harness> make_harness(Kind kind) {
  auto h = std::make_unique<Harness>();
  switch (kind) {
    case Kind::Shm: {
      auto pair = ShmEndpoint::make_pair();
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
    case Kind::Sim: {
      h->fabric = std::make_unique<sim::Fabric>();
      auto pair = SimEndpoint::make_pair(*h->fabric, test_profile());
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
    case Kind::Socket: {
      auto pair = SocketEndpoint::make_pair(test_profile());
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
    case Kind::Udp: {
      // Real datagrams over 127.0.0.1. A clean loopback with the driver's
      // flow-control window engaged delivers everything the contract asks
      // for, including per-track FIFO (seq-ordered release).
      auto pair = UdpEndpoint::make_pair(test_profile());
      h->a = std::move(pair.a);
      h->b = std::move(pair.b);
      break;
    }
  }
  Harness* raw = h.get();
  if (h->fabric) {
    h->pump_once = [raw] { raw->fabric->step(); };
  } else {
    h->pump_once = [raw] {
      raw->a->progress();
      raw->b->progress();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    };
  }
  h->init();
  return h;
}

/// The socket driver calls back from its IO loop thread at any time after
/// send() returns; the others deliver only when pumped.
bool delivers_from_io_thread(Kind k) { return k == Kind::Socket; }

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Shm: return "shm";
    case Kind::Sim: return "sim";
    case Kind::Socket: return "socket";
    case Kind::Udp: return "udp";
  }
  return "?";
}

class DriverConformanceTest : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override { h_ = make_harness(GetParam()); }
  void TearDown() override {
    if (h_) {
      h_->a->close();
      h_->b->close();
    }
  }
  std::unique_ptr<Harness> h_;
};

TEST_P(DriverConformanceTest, SendNeverInvokesHandlersSynchronously) {
  h_->send(*h_->a, kTrackEager, make_payload(64), 1);
  // A driver with an IO thread may already have called back from it; a
  // pumped driver must not have delivered anything yet.
  if (!delivers_from_io_thread(GetParam())) {
    EXPECT_EQ(h_->ha.completion_count(), 0u);
    EXPECT_EQ(h_->hb.packet_count(), 0u);
  }
  ASSERT_TRUE(h_->pump_until([&] {
    return h_->ha.completion_count() == 1 && h_->hb.packet_count() == 1;
  }));
  // No callback ran on the sending thread from inside send().
  EXPECT_EQ(h_->ha.calls_inside_send(), 0u);
  EXPECT_EQ(h_->hb.calls_inside_send(), 0u);
}

TEST_P(DriverConformanceTest, CompletionCarriesTrackAndToken) {
  h_->send(*h_->a, kTrackBulk, make_payload(64), 0xfeed);
  ASSERT_TRUE(h_->pump_until([&] { return h_->ha.completion_count() > 0; }));
  const auto done = h_->ha.completions();
  EXPECT_EQ(done[0].track, kTrackBulk);
  EXPECT_EQ(done[0].token, 0xfeedu);
}

TEST_P(DriverConformanceTest, PayloadDeliveredByteExact) {
  const Bytes p = make_payload(777, 9);
  h_->send(*h_->a, kTrackEager, p, 1);
  ASSERT_TRUE(h_->pump_until([&] { return h_->hb.packet_count() > 0; }));
  const auto got = h_->hb.packets();
  EXPECT_EQ(got[0].payload, p);
  EXPECT_EQ(got[0].track, kTrackEager);
}

TEST_P(DriverConformanceTest, LargePayloadSurvives) {
  const Bytes p = make_payload(2 * 1024 * 1024, 3);
  h_->send(*h_->a, kTrackBulk, p, 1);
  ASSERT_TRUE(h_->pump_until([&] { return h_->hb.packet_count() > 0; }));
  EXPECT_EQ(h_->hb.packets()[0].payload, p);
}

TEST_P(DriverConformanceTest, ZeroLengthPayload) {
  GatherList gl;
  if (h_->a->send(kTrackEager, gl, 5))
    h_->ha.record_inline_completion(kTrackEager, 5);
  ASSERT_TRUE(h_->pump_until([&] {
    return h_->hb.packet_count() > 0 && h_->ha.completion_count() > 0;
  }));
  EXPECT_TRUE(h_->hb.packets()[0].payload.empty());
}

TEST_P(DriverConformanceTest, PerTrackFifoOrder) {
  constexpr std::uint64_t kN = 64;
  for (std::uint64_t i = 0; i < kN; ++i)
    h_->send(*h_->a, kTrackEager, make_payload(16, static_cast<std::uint8_t>(i)),
             i);
  ASSERT_TRUE(h_->pump_until([&] {
    return h_->hb.packet_count() == kN && h_->ha.completion_count() == kN;
  }));
  const auto got = h_->hb.packets();
  const auto done = h_->ha.completions();
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(got[i].payload, make_payload(16, static_cast<std::uint8_t>(i)))
        << i;
    EXPECT_EQ(done[i].token, i);
  }
}

TEST_P(DriverConformanceTest, GatherSegmentsConcatenate) {
  const Bytes p1 = make_payload(32, 1), p2 = make_payload(48, 2),
              p3 = make_payload(16, 3);
  GatherList gl;
  gl.add(p1.data(), p1.size());
  gl.add(p2.data(), p2.size());
  gl.add(p3.data(), p3.size());
  h_->a->send(kTrackEager, gl, 1);
  ASSERT_TRUE(h_->pump_until([&] { return h_->hb.packet_count() > 0; }));
  Bytes expect = p1;
  expect.insert(expect.end(), p2.begin(), p2.end());
  expect.insert(expect.end(), p3.begin(), p3.end());
  EXPECT_EQ(h_->hb.packets()[0].payload, expect);
}

TEST_P(DriverConformanceTest, DirectionsAreIndependent) {
  h_->send(*h_->a, kTrackEager, make_payload(16, 1), 1);
  h_->send(*h_->b, kTrackEager, make_payload(16, 2), 2);
  ASSERT_TRUE(h_->pump_until([&] {
    return h_->ha.packet_count() > 0 && h_->hb.packet_count() > 0;
  }));
  EXPECT_EQ(h_->ha.packets()[0].payload, make_payload(16, 2));
  EXPECT_EQ(h_->hb.packets()[0].payload, make_payload(16, 1));
}

TEST_P(DriverConformanceTest, SegmentsReusableAfterCompletion) {
  Bytes buf = make_payload(64, 1);
  h_->send(*h_->a, kTrackEager, buf, 1);
  ASSERT_TRUE(h_->pump_until([&] { return h_->ha.completion_count() > 0; }));
  std::fill(buf.begin(), buf.end(), Byte{0});  // allowed after completion
  ASSERT_TRUE(h_->pump_until([&] { return h_->hb.packet_count() > 0; }));
  EXPECT_EQ(h_->hb.packets()[0].payload, make_payload(64, 1));
}

TEST_P(DriverConformanceTest, ConcurrentTracksShareOnePeerWithoutInterference) {
  // Two tracks in flight at once toward the same peer: a stream of large
  // bulk chunks raced against a stream of small eager packets, interleaved
  // at submission time. The contract: per-track FIFO survives, every
  // payload stays byte-exact, and completions for both tracks arrive in
  // per-track submission order — neither track may starve or reorder the
  // other. This is exactly the shape the engine's striped rendezvous path
  // produces (eager control packets racing bulk chunks on one rail).
  constexpr std::uint64_t kN = 8;
  constexpr std::size_t kBulkSize = 192 * 1024;
  for (std::uint64_t i = 0; i < kN; ++i) {
    h_->send(*h_->a, kTrackBulk,
             make_payload(kBulkSize, static_cast<std::uint8_t>(0x40 + i)),
             0x100 + i);
    h_->send(*h_->a, kTrackEager,
             make_payload(24, static_cast<std::uint8_t>(i)), 0x200 + i);
  }
  ASSERT_TRUE(h_->pump_until([&] {
    return h_->hb.packet_count() == 2 * kN &&
           h_->ha.completion_count() == 2 * kN;
  }));

  // Per-track FIFO + byte-exact payloads, whatever the interleaving.
  std::uint64_t eager_seen = 0, bulk_seen = 0;
  for (const auto& pkt : h_->hb.packets()) {
    if (pkt.track == kTrackEager) {
      EXPECT_EQ(pkt.payload,
                make_payload(24, static_cast<std::uint8_t>(eager_seen)))
          << "eager #" << eager_seen;
      ++eager_seen;
    } else {
      ASSERT_EQ(pkt.track, kTrackBulk);
      EXPECT_EQ(pkt.payload,
                make_payload(kBulkSize,
                             static_cast<std::uint8_t>(0x40 + bulk_seen)))
          << "bulk #" << bulk_seen;
      ++bulk_seen;
    }
  }
  EXPECT_EQ(eager_seen, kN);
  EXPECT_EQ(bulk_seen, kN);

  // Completions are per-track FIFO too.
  std::uint64_t eager_done = 0, bulk_done = 0;
  for (const auto& c : h_->ha.completions()) {
    if (c.track == kTrackEager) {
      EXPECT_EQ(c.token, 0x200 + eager_done);
      ++eager_done;
    } else {
      ASSERT_EQ(c.track, kTrackBulk);
      EXPECT_EQ(c.token, 0x100 + bulk_done);
      ++bulk_done;
    }
  }
  EXPECT_EQ(eager_done, kN);
  EXPECT_EQ(bulk_done, kN);
  EXPECT_EQ(h_->ha.failure_count(), 0u);
}

TEST_P(DriverConformanceTest, NoCallbackAfterCloseReturns) {
  // Close both ends with traffic still moving both ways: whatever was
  // delivered before close() returned stays, and nothing follows it.
  constexpr std::uint64_t kN = 16;
  for (std::uint64_t i = 0; i < kN; ++i) {
    h_->send(*h_->a, kTrackBulk, make_payload(32 * 1024), i);
    h_->send(*h_->b, kTrackBulk, make_payload(32 * 1024), i);
  }
  h_->pump_once();
  h_->a->close();
  h_->b->close();
  const std::size_t calls_a = h_->ha.total_calls();
  const std::size_t calls_b = h_->hb.total_calls();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  while (std::chrono::steady_clock::now() < until) h_->pump_once();
  EXPECT_EQ(h_->ha.total_calls(), calls_a);
  EXPECT_EQ(h_->hb.total_calls(), calls_b);
}

TEST_P(DriverConformanceTest, EveryTokenResolvesOnceInlineOrByCallback) {
  // send() returning true means the packet already left and no callback
  // will follow; false means exactly one callback follows. Bursts against
  // a busy wire alternate with pauses that let it drain, so a driver that
  // writes inline on an idle wire takes both branches here.
  constexpr std::uint64_t kN = 48;
  constexpr std::uint64_t kBurst = 12;
  std::vector<Bytes> payloads;  // segments outlive every completion
  for (std::uint64_t i = 0; i < kN; ++i)
    payloads.push_back(make_payload(i % 3 == 0 ? 8 * 1024 : 64,
                                    static_cast<std::uint8_t>(i)));
  std::vector<int> outcomes(kN, 0);
  std::size_t inlined = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    GatherList gl;
    gl.add(payloads[i].data(), payloads[i].size());
    bool left;
    {
      SendScope scope;
      left = h_->a->send(kTrackEager, gl, i);
    }
    if (left) {
      ++outcomes[i];
      ++inlined;
    }
    if (i % kBurst == kBurst - 1) {
      ASSERT_TRUE(h_->pump_until([&] {
        return h_->hb.packet_count() == i + 1 &&
               inlined + h_->ha.completion_count() == i + 1;
      }));
    }
  }
  // Give any stray callback the chance to show up.
  for (int i = 0; i < 20; ++i) h_->pump_once();
  for (const auto& c : h_->ha.completions()) {
    ASSERT_LT(c.token, kN);
    EXPECT_EQ(outcomes[c.token], 0)
        << "token " << c.token << " completed inline and by callback";
    ++outcomes[c.token];
  }
  for (std::uint64_t t = 0; t < kN; ++t)
    EXPECT_EQ(outcomes[t], 1) << "token " << t;
  EXPECT_EQ(inlined + h_->ha.completion_count(), kN);
  EXPECT_EQ(h_->ha.failure_count(), 0u);
  EXPECT_EQ(h_->ha.calls_inside_send(), 0u);
  const auto got = h_->hb.packets();
  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(got[i].payload, payloads[i]);
  // A fresh socketpair is idle, so its first send always leaves inline.
  if (GetParam() == Kind::Socket) {
    EXPECT_GT(inlined, 0u);
  }
}

TEST_P(DriverConformanceTest, InvalidTrackRejected) {
  GatherList gl;
  const Bytes p = make_payload(8);
  gl.add(p.data(), p.size());
  EXPECT_THROW(h_->a->send(TrackId{200}, gl, 1), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, DriverConformanceTest,
                         ::testing::Values(Kind::Shm, Kind::Sim,
                                           Kind::Socket, Kind::Udp),
                         [](const ::testing::TestParamInfo<Kind>& pi) {
                           return kind_name(pi.param);
                         });

// Driver-specific: tearing down one end must not strand the other's
// completions.
TEST(ShmEndpoint, PeerDestructionIsSafe) {
  auto pair = ShmEndpoint::make_pair();
  RecordingHandler ha;
  pair.a->set_handler(&ha);
  GatherList gl;
  const Bytes p = make_payload(4);
  gl.add(p.data(), p.size());
  pair.a->send(kTrackEager, gl, 1);
  pair.b.reset();      // destroy receiver with a packet in flight
  pair.a->progress();  // completion still delivered to sender
  EXPECT_EQ(ha.completion_count(), 1u);
}

}  // namespace
}  // namespace mado::drv

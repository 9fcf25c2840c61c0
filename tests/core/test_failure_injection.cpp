// Failure injection: a "raw peer" holds one side of a simulated link and
// speaks the wire protocol by hand, injecting malformed and hostile
// packets. The engine must count + drop them (rx.malformed) and keep
// serving well-formed traffic. Also covers socket-driver teardown.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "core/engine.hpp"
#include "core/packet.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "drivers/sim_driver.hpp"
#include "drivers/socket_driver.hpp"
#include "tests/core/engine_test_util.hpp"
#include "util/crc32.hpp"

namespace mado::core {
namespace {

using testing::pattern;

/// Records everything the engine sends us; lets the test transmit raw bytes.
struct RawPeer final : drv::EndpointHandler {
  std::unique_ptr<drv::SimEndpoint> ep;
  std::vector<Bytes> packets;  // eager-track arrivals

  void on_send_complete(drv::TrackId, std::uint64_t) override {}
  void on_packet(drv::TrackId, Bytes payload) override {
    packets.push_back(std::move(payload));
  }

  void transmit(const Bytes& raw, drv::TrackId track = drv::kTrackEager) {
    GatherList gl;
    gl.add(raw.data(), raw.size());
    ep->send(track, gl, 0);
  }
};

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    timers_ = std::make_unique<SimTimerHost>(fabric_);
    rebuild(EngineConfig{});
  }

  void rebuild(const EngineConfig& cfg) {
    engine_ = std::make_unique<Engine>(0, cfg, *timers_);
    engine_->set_external_progress([this] { return fabric_.step(); });
    auto pair = drv::SimEndpoint::make_pair(fabric_, drv::test_profile());
    engine_->add_rail(/*peer=*/1, std::move(pair.a));
    raw_.ep = std::move(pair.b);
    raw_.ep->set_handler(&raw_);
  }

  std::uint64_t malformed() {
    return engine_->stats().counter("rx.malformed");
  }

  /// A well-formed single-fragment data packet for (channel, seq).
  Bytes good_packet(ChannelId ch, MsgSeq seq, const Bytes& payload) {
    PacketHeader ph;
    ph.nfrags = 1;
    ph.src_node = 1;
    FragHeader fh;
    fh.channel = ch;
    fh.msg_seq = seq;
    fh.frag_idx = 0;
    fh.nfrags_total = 1;
    fh.flags = kFlagLastFrag;
    fh.len = static_cast<std::uint32_t>(payload.size());
    Bytes pkt;
    encode_header_block(pkt, ph, {fh});
    pkt.insert(pkt.end(), payload.begin(), payload.end());
    return pkt;
  }

  sim::Fabric fabric_;
  std::unique_ptr<SimTimerHost> timers_;
  std::unique_ptr<Engine> engine_;
  RawPeer raw_;
};

TEST_F(FailureInjectionTest, GarbageBytesDropped) {
  Bytes junk(64);
  for (std::size_t i = 0; i < junk.size(); ++i)
    junk[i] = static_cast<Byte>(i * 37);
  raw_.transmit(junk);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, RuntPacketDropped) {
  raw_.transmit(Bytes{0x01, 0x02});
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, TruncatedPacketDropped) {
  Bytes pkt = good_packet(7, 0, pattern(32));
  pkt.resize(pkt.size() - 10);
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, CorruptedCrcDropped) {
  Bytes pkt = good_packet(7, 0, pattern(32));
  pkt[6] ^= 0x10;  // inside the header block
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, TrailingGarbageDropped) {
  Bytes pkt = good_packet(7, 0, pattern(32));
  pkt.push_back(0xff);
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, GoodTrafficSurvivesAfterGarbage) {
  Channel ch = engine_->open_channel(1, 7);
  raw_.transmit(Bytes(40, Byte{0xee}));
  const Bytes payload = pattern(32);
  raw_.transmit(good_packet(7, 0, payload));
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
  Bytes out(32);
  IncomingMessage im = ch.begin_recv();
  im.unpack(out.data(), out.size(), RecvMode::Express);
  im.finish();
  EXPECT_EQ(out, payload);
}

TEST_F(FailureInjectionTest, CtsForUnknownRendezvousDropped) {
  PacketHeader ph;
  ph.nfrags = 1;
  FragHeader fh;
  fh.channel = 7;
  fh.nfrags_total = 1;
  fh.flags = kFlagLastFrag;
  fh.kind = FragKind::RdvCts;
  Bytes body;
  encode_cts(body, CtsBody{0xdead});
  fh.len = static_cast<std::uint32_t>(body.size());
  Bytes pkt;
  encode_header_block(pkt, ph, {fh});
  pkt.insert(pkt.end(), body.begin(), body.end());
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, BulkChunkForUnknownTokenDropped) {
  Bytes pkt;
  BulkHeader bh;
  bh.src_node = 1;
  bh.token = 0xbadf00d;
  bh.offset = 0;
  bh.len = 8;
  encode_bulk_header(pkt, bh);
  Bytes data(8, Byte{1});
  pkt.insert(pkt.end(), data.begin(), data.end());
  raw_.transmit(pkt, drv::kTrackBulk);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, UnknownRmaAckDropped) {
  PacketHeader ph;
  ph.nfrags = 1;
  FragHeader fh;
  fh.channel = kRmaChannel;
  fh.nfrags_total = 1;
  fh.flags = kFlagLastFrag;
  fh.kind = FragKind::RmaAck;
  Bytes body;
  encode_rma_ack(body, RmaAckBody{12345});
  fh.len = static_cast<std::uint32_t>(body.size());
  Bytes pkt;
  encode_header_block(pkt, ph, {fh});
  pkt.insert(pkt.end(), body.begin(), body.end());
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
}

TEST_F(FailureInjectionTest, DuplicateFragmentDropsSecondCopy) {
  Channel ch = engine_->open_channel(1, 7);
  const Bytes payload = pattern(32);
  raw_.transmit(good_packet(7, 0, payload));
  raw_.transmit(good_packet(7, 0, payload));  // replay
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 1u);
  Bytes out(32);
  IncomingMessage im = ch.begin_recv();
  im.unpack(out.data(), out.size(), RecvMode::Express);
  im.finish();
  EXPECT_EQ(out, payload);
}

TEST_F(FailureInjectionTest, EnginePacketsParseCleanly) {
  // Compatibility in the other direction: what the engine emits must be
  // decodable with the public packet API.
  Channel ch = engine_->open_channel(1, 7);
  Message m;
  const Bytes payload = pattern(48);
  m.pack(payload.data(), payload.size(), SendMode::Safe);
  ch.post(std::move(m));
  fabric_.run_until_idle();
  ASSERT_EQ(raw_.packets.size(), 1u);
  const DecodedPacket d = parse_packet(ByteSpan(raw_.packets[0]), true);
  ASSERT_EQ(d.frags.size(), 1u);
  EXPECT_EQ(d.frags[0].channel, 7u);
  EXPECT_EQ(Bytes(d.payloads[0].begin(), d.payloads[0].end()), payload);
}

TEST_F(FailureInjectionTest, ZeroFragmentPacketIsHarmless) {
  PacketHeader ph;
  ph.nfrags = 0;
  Bytes pkt;
  encode_header_block(pkt, ph, {});
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  EXPECT_EQ(malformed(), 0u);
  EXPECT_EQ(engine_->stats().counter("rx.packets"), 1u);
}

// Satellite (ISSUE 2): a corrupted eager payload under the reliability
// layer is charged to rel.payload_crc_drops — NOT rx.malformed — and the
// sequence number is not consumed, so a clean retransmit of the same seq
// still delivers.
TEST_F(FailureInjectionTest, CorruptedEagerPayloadCountsPayloadCrcDrop) {
  EngineConfig cfg;
  cfg.reliability = true;
  cfg.payload_crc = true;
  rebuild(cfg);
  Channel ch = engine_->open_channel(1, 7);

  const Bytes payload = pattern(64);
  PacketHeader ph;
  ph.nfrags = 1;
  ph.src_node = 1;
  ph.flags = kPhFlagRelSeq | kPhFlagPayloadCrc;
  ph.pkt_seq = 0;
  ph.payload_crc = Crc32::of(payload.data(), payload.size());
  FragHeader fh;
  fh.channel = 7;
  fh.msg_seq = 0;
  fh.frag_idx = 0;
  fh.nfrags_total = 1;
  fh.flags = kFlagLastFrag;
  fh.len = static_cast<std::uint32_t>(payload.size());
  Bytes pkt;
  encode_header_block(pkt, ph, {fh});
  pkt.insert(pkt.end(), payload.begin(), payload.end());

  Bytes corrupted = pkt;
  corrupted[corrupted.size() - 5] ^= 0x40;  // flip a payload bit
  raw_.transmit(corrupted);
  fabric_.run_until_idle();
  EXPECT_EQ(engine_->stats().counter("rel.payload_crc_drops"), 1u);
  EXPECT_EQ(malformed(), 0u);

  // The "retransmit" (same seq, intact payload) is accepted and delivered.
  raw_.transmit(pkt);
  fabric_.run_until_idle();
  Bytes out(payload.size());
  IncomingMessage im = ch.begin_recv();
  im.unpack(out.data(), out.size(), RecvMode::Express);
  im.finish();
  EXPECT_EQ(out, payload);
  EXPECT_EQ(engine_->stats().counter("rel.payload_crc_drops"), 1u);
}

// Bulk-track variant: a flipped bit in a rendezvous chunk is caught by the
// chunk payload CRC and charged to the same counter.
TEST_F(FailureInjectionTest, CorruptedBulkPayloadCountsPayloadCrcDrop) {
  EngineConfig cfg;
  cfg.reliability = true;
  cfg.payload_crc = true;
  rebuild(cfg);

  Bytes data(256, Byte{0x5a});
  BulkHeader bh;
  bh.src_node = 1;
  bh.token = 42;
  bh.offset = 0;
  bh.len = static_cast<std::uint32_t>(data.size());
  bh.flags = kPhFlagRelSeq | kPhFlagPayloadCrc;
  bh.pkt_seq = 0;
  bh.payload_crc = Crc32::of(data.data(), data.size());
  Bytes pkt;
  encode_bulk_header(pkt, bh);
  pkt.insert(pkt.end(), data.begin(), data.end());
  pkt.back() = static_cast<Byte>(pkt.back() ^ 0x01);
  raw_.transmit(pkt, drv::kTrackBulk);
  fabric_.run_until_idle();
  EXPECT_EQ(engine_->stats().counter("rel.payload_crc_drops"), 1u);
  EXPECT_EQ(malformed(), 0u);
}

TEST(SocketFailure, PeerDeathMidTrafficIsContained) {
  auto pair = drv::SocketEndpoint::make_pair(drv::mx_myrinet_profile());
  RealTimerHost timers_a;
  Engine a(0, EngineConfig{}, timers_a);
  drv::SocketEndpoint* raw_a = pair.a.get();
  a.add_rail(1, std::move(pair.a));
  a.start_progress_thread();
  Channel ch = a.open_channel(1, 7);

  // Peer vanishes without a word.
  pair.b->close();

  Message m;
  const Bytes payload(1 << 20, Byte{1});
  m.pack(payload.data(), payload.size(), SendMode::Later);
  SendHandle h = ch.post(std::move(m));  // rendezvous: CTS will never come
  EXPECT_FALSE(a.wait_send(h, /*timeout=*/5 * kNanosPerSec));
  // The break surfaced as a rail failure, not just a timeout: the send is
  // marked failed and the rail is Down in the snapshot.
  EXPECT_TRUE(a.send_failed(h));
  EXPECT_FALSE(raw_a->link_up());
  Engine::Snapshot snap = a.snapshot();
  ASSERT_EQ(snap.peers.size(), 1u);
  EXPECT_EQ(snap.peers[0].rails[0].state, RailState::Down);
  a.stop_progress_thread();
}

/// Counts driver callbacks; remembers how many packets had been delivered
/// when on_link_down fired. The socket driver calls it from its loop
/// thread, so every field is read through the lock.
class CountingHandler final : public drv::EndpointHandler {
 public:
  void on_send_complete(drv::TrackId, std::uint64_t) override {}
  void on_packet(drv::TrackId, Bytes) override {
    std::lock_guard<std::mutex> lk(mu_);
    ++packets_;
  }
  void on_link_down() override {
    std::lock_guard<std::mutex> lk(mu_);
    ++link_downs_;
    packets_at_down_ = packets_;
  }
  std::size_t packets() const {
    std::lock_guard<std::mutex> lk(mu_);
    return packets_;
  }
  int link_downs() const {
    std::lock_guard<std::mutex> lk(mu_);
    return link_downs_;
  }
  std::size_t packets_at_down() const {
    std::lock_guard<std::mutex> lk(mu_);
    return packets_at_down_;
  }

 private:
  mutable std::mutex mu_;
  std::size_t packets_ = 0;
  int link_downs_ = 0;
  std::size_t packets_at_down_ = 0;
};

// Satellite (ISSUE 2): socket teardown race. Packets that were already on
// the wire when the peer died must all be delivered by progress() BEFORE
// the (exactly one) on_link_down notification; further progress() calls
// are quiet.
TEST(SocketFailure, LinkDownReportedOnceAfterDrainingArrivals) {
  auto pair = drv::SocketEndpoint::make_pair(drv::mx_myrinet_profile());
  CountingHandler ha;
  pair.a->set_handler(&ha);
  CountingHandler hb;
  pair.b->set_handler(&hb);

  constexpr std::size_t kPackets = 8;
  const Bytes payload = pattern(256);
  for (std::size_t i = 0; i < kPackets; ++i) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    pair.b->send(drv::kTrackEager, gl, i);
  }
  // Wait for every frame to hit the wire, then kill the peer.
  while (pair.b->packets_sent() < kPackets)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  pair.b->close();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ha.link_downs() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    pair.a->progress();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ha.link_downs(), 1);
  EXPECT_EQ(ha.packets(), kPackets);
  EXPECT_EQ(ha.packets_at_down(), kPackets)
      << "on_link_down fired before queued arrivals were drained";
  EXPECT_TRUE(pair.a->broken());
  EXPECT_FALSE(pair.a->link_up());
  for (int i = 0; i < 5; ++i) pair.a->progress();
  EXPECT_EQ(ha.link_downs(), 1) << "on_link_down must fire exactly once";
  pair.a->close();  // ha outlives every callback a's loop can make
}

// A deliberate local close() is teardown, not failure: no on_link_down.
TEST(SocketFailure, LocalCloseIsNotReportedAsLinkDown) {
  auto pair = drv::SocketEndpoint::make_pair(drv::mx_myrinet_profile());
  CountingHandler ha;
  pair.a->set_handler(&ha);
  CountingHandler hb;
  pair.b->set_handler(&hb);
  pair.a->close();
  for (int i = 0; i < 5; ++i) pair.a->progress();
  EXPECT_EQ(ha.link_downs(), 0);
  pair.b->close();  // hb outlives every callback b's loop can make
}

}  // namespace
}  // namespace mado::core

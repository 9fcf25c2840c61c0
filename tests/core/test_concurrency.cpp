// Multi-threaded multi-peer stress suite for the sharded engine lock
// (ISSUE 5): application threads submitting concurrently across peers, the
// lock-free submit ring (including its full-ring fallback), per-peer
// condition-variable waits, lock-free monitoring reads racing the hot path,
// and single-threaded determinism of the ring-enabled submit path.
//
// ISSUE 6 additions: the shard-owning progress threads — post-idle wakeup
// latency (lost-wakeup park regression), waiter self-pump gating, per-shard
// pump exclusivity, work stealing off a wedged owner, ring parity across
// progress_threads, and shutdown under load.
//
// All tests here carry the ctest label "concurrency" and are part of the
// TSan matrix: their value is as much what the sanitizer sees as what the
// assertions check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "core/world.hpp"
#include "drivers/driver.hpp"
#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

/// Hub topology: engine 0 with one shm rail to each of `npeers` sink
/// engines, progress threads everywhere — the threaded regime the sharded
/// lock targets (same shape as bench_e12).
struct HubWorld {
  std::vector<std::unique_ptr<RealTimerHost>> timers;
  std::unique_ptr<Engine> hub;
  std::vector<std::unique_ptr<Engine>> peers;

  explicit HubWorld(std::size_t npeers, const EngineConfig& cfg) {
    timers.push_back(std::make_unique<RealTimerHost>());
    hub = std::make_unique<Engine>(0, cfg, *timers.back());
    for (std::size_t m = 0; m < npeers; ++m) {
      timers.push_back(std::make_unique<RealTimerHost>());
      auto peer = std::make_unique<Engine>(static_cast<NodeId>(m + 1), cfg,
                                           *timers.back());
      auto pair = drv::ShmEndpoint::make_pair();
      hub->add_rail(static_cast<NodeId>(m + 1), std::move(pair.a));
      peer->add_rail(0, std::move(pair.b));
      peers.push_back(std::move(peer));
    }
    hub->start_progress_thread();
    for (auto& p : peers) p->start_progress_thread();
  }

  ~HubWorld() {
    hub->stop_progress_thread();
    for (auto& p : peers) p->stop_progress_thread();
  }
};

/// T threads × M peers, every thread posts `per_thread` messages
/// round-robin across its own per-peer channels with a bounded window of
/// outstanding handles, then drains the window. Returns total completions.
std::uint64_t submit_storm(Engine& hub, std::size_t threads,
                           std::size_t npeers, std::size_t per_thread,
                           std::size_t msg_bytes = 128,
                           std::size_t window = 32) {
  std::vector<std::vector<Channel>> chans(threads);
  for (std::size_t t = 0; t < threads; ++t)
    for (std::size_t m = 0; m < npeers; ++m)
      chans[t].push_back(hub.open_channel(static_cast<NodeId>(m + 1),
                                          static_cast<ChannelId>(t),
                                          TrafficClass::SmallEager));
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const Bytes data = pattern(msg_bytes, static_cast<std::uint32_t>(t));
      std::deque<SendHandle> inflight;
      for (std::size_t i = 0; i < per_thread; ++i) {
        Message m;
        m.pack(data.data(), data.size(), SendMode::Safe);
        inflight.push_back(chans[t][i % npeers].post(std::move(m)));
        while (inflight.size() >= window) {
          if (hub.wait_send(inflight.front()))
            completed.fetch_add(1, std::memory_order_relaxed);
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        if (hub.wait_send(inflight.front()))
          completed.fetch_add(1, std::memory_order_relaxed);
        inflight.pop_front();
      }
    });
  }
  for (auto& w : workers) w.join();
  return completed.load();
}

// T application threads × M peers hammering the submit path concurrently:
// every message must complete and the hub must be quiescent afterwards.
// (Whether the submit ring actually carries any of them depends on observed
// contention — on a single-core host the threads serialize and uncontended
// posts combine inline, legitimately never touching the ring. The
// deterministic ring-engagement proof is ContendedPostsParkInRing below.)
TEST(ConcurrencyStress, MultiPeerSubmitStorm) {
  constexpr std::size_t kThreads = 4, kPeers = 4, kPerThread = 400;
  HubWorld w(kPeers, EngineConfig{});
  const std::uint64_t done =
      submit_storm(*w.hub, kThreads, kPeers, kPerThread);
  EXPECT_EQ(done, kThreads * kPerThread);
  EXPECT_TRUE(w.hub->flush());
  auto counters = w.hub->counters_snapshot();
  EXPECT_EQ(counters["tx.msgs"], kThreads * kPerThread);
}

/// Endpoint whose send() parks on a flag: a pump that reaches the driver
/// then holds the peer-shard lock for as long as the test wants, making
/// submit-path contention deterministic instead of scheduler-dependent.
class BlockingEndpoint final : public drv::DriverEndpoint {
 public:
  const drv::Capabilities& caps() const override { return caps_; }
  void set_handler(drv::EndpointHandler* h) override { handler_ = h; }
  bool send(drv::TrackId track, const GatherList&,
            std::uint64_t token) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_.emplace_back(track, token);
    }
    in_send_.store(true, std::memory_order_release);
    while (hold_.load(std::memory_order_acquire)) std::this_thread::yield();
    return false;
  }
  void progress() override {
    std::vector<std::pair<drv::TrackId, std::uint64_t>> done;
    {
      std::lock_guard<std::mutex> lk(mu_);
      done.swap(pending_);
    }
    for (const auto& [track, token] : done)
      handler_->on_send_complete(track, token);
  }

  bool in_send() const { return in_send_.load(std::memory_order_acquire); }
  void release() { hold_.store(false, std::memory_order_release); }

 private:
  drv::Capabilities caps_;
  drv::EndpointHandler* handler_ = nullptr;
  std::mutex mu_;
  std::vector<std::pair<drv::TrackId, std::uint64_t>> pending_;
  std::atomic<bool> in_send_{false};
  std::atomic<bool> hold_{true};
};

// Deterministic ring engagement: a pump thread is parked inside the driver's
// send() — holding the peer-shard lock — while this thread posts. Every one
// of those posts MUST find the lock busy and park in the submit ring; after
// the pump is released they all drain, complete, and are counted by
// submit.ring_ops exactly.
TEST(ConcurrencyStress, ContendedPostsParkInRing) {
  RealTimerHost timer;
  Engine hub(0, EngineConfig{}, timer);
  auto ep = std::make_unique<BlockingEndpoint>();
  BlockingEndpoint* raw = ep.get();
  hub.add_rail(1, std::move(ep));
  Channel ch = hub.open_channel(1, 1);

  std::thread pumper([&] {
    send_bytes(ch, pattern(64));  // uncontended: combines inline
    hub.progress();               // pump reaches send() and parks there
  });
  while (!raw->in_send()) std::this_thread::yield();

  // The shard lock is held inside the pump: these posts cannot take it.
  constexpr std::uint64_t kParked = 8;
  std::vector<SendHandle> handles;
  for (std::uint64_t i = 0; i < kParked; ++i)
    handles.push_back(send_bytes(ch, pattern(64)));

  raw->release();
  pumper.join();
  for (SendHandle& h : handles) EXPECT_TRUE(hub.wait_send(h));
  EXPECT_TRUE(hub.flush());

  auto counters = hub.counters_snapshot();
  EXPECT_EQ(counters["submit.ring_ops"], kParked)
      << "posts against a held shard must ride the ring";
  EXPECT_EQ(counters["tx.msgs"], kParked + 1);
}

// Senders and receivers in separate threads over two channels: data
// integrity end to end while the per-peer cv machinery (wait_frag /
// finish_recv) runs concurrently with submits on the same peer shard.
TEST(ConcurrencyStress, SendRecvThreadsDataIntegrity) {
  constexpr int kMsgs = 300;
  ShmWorld world{EngineConfig{}};
  std::vector<std::thread> ts;
  for (ChannelId c = 1; c <= 2; ++c) {
    ts.emplace_back([&world, c] {
      Channel tx = world.node(0).open_channel(1, c);
      for (int i = 0; i < kMsgs; ++i)
        send_bytes(tx, pattern(96, static_cast<std::uint32_t>(c) * 1000u + static_cast<std::uint32_t>(i)));
      world.node(0).flush();
    });
    ts.emplace_back([&world, c] {
      Channel rx = world.node(1).open_channel(0, c);
      for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(recv_bytes(rx, 96),
                  pattern(96, static_cast<std::uint32_t>(c) * 1000u + static_cast<std::uint32_t>(i)))
            << "channel " << c << " message " << i;
    });
  }
  for (auto& t : ts) t.join();
}

// A monitoring thread hammers counters_snapshot() + snapshot() +
// stats().to_string() while traffic flows: no locks are shared with the hot
// path, reads must stay consistent (counters monotonic) and never crash.
TEST(ConcurrencyStress, SnapshotsRaceTheHotPath) {
  HubWorld w(2, EngineConfig{});
  std::atomic<bool> stop{false};
  std::uint64_t last_tx = 0;
  bool monotonic = true;
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto counters = w.hub->counters_snapshot();
      const std::uint64_t tx = counters["tx.packets"];
      if (tx < last_tx) monotonic = false;
      last_tx = tx;
      Engine::Snapshot snap = w.hub->snapshot();
      for (const auto& p : snap.peers)
        if (p.rails.empty()) monotonic = false;  // never observed torn
      (void)w.hub->stats().to_string();
    }
  });
  const std::uint64_t done = submit_storm(*w.hub, 2, 2, 300);
  stop.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(done, 600u);
  EXPECT_TRUE(monotonic) << "aggregated counters went backwards";
  EXPECT_TRUE(w.hub->flush());
}

// A deliberately tiny submit ring (capacity 2) overflows constantly under
// two submitter threads; the locked fallback path must carry the overflow
// without losing or reordering anything within a channel.
TEST(ConcurrencyStress, TinySubmitRingFallsBackWhenFull) {
  EngineConfig cfg;
  cfg.submit_ring = 2;
  HubWorld w(1, cfg);
  const std::uint64_t done = submit_storm(*w.hub, 2, 1, 500);
  EXPECT_EQ(done, 1000u);
  EXPECT_TRUE(w.hub->flush());
  auto counters = w.hub->counters_snapshot();
  // Ring-carried and fallback submits must add up to every message posted.
  EXPECT_EQ(counters["tx.msgs"], 1000u);
}

// With the ring disabled entirely every submit takes the locked path; the
// engine must behave identically from the application's point of view.
TEST(ConcurrencyStress, RingDisabledLockedPathOnly) {
  EngineConfig cfg;
  cfg.submit_ring = 0;
  HubWorld w(1, cfg);
  const std::uint64_t done = submit_storm(*w.hub, 2, 1, 300);
  EXPECT_EQ(done, 600u);
  EXPECT_TRUE(w.hub->flush());
  auto counters = w.hub->counters_snapshot();
  EXPECT_EQ(counters["submit.ring_ops"], 0u);
}

// Many threads blocked in wait_send() on the SAME peer: per-peer cv
// notify-with-token must wake all of them exactly as completions land.
TEST(ConcurrencyStress, WaitSendManyThreadsOnePeer) {
  HubWorld w(1, EngineConfig{});
  constexpr std::size_t kThreads = 8;
  std::vector<Channel> chans;
  for (std::size_t t = 0; t < kThreads; ++t)
    chans.push_back(w.hub->open_channel(1, static_cast<ChannelId>(t)));
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        SendHandle h = send_bytes(chans[t], pattern(64));
        if (w.hub->wait_send(h)) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ok.load(), kThreads * 50);
}

// Concurrent one-sided traffic: rma_put and rma_get threads against the
// same exposed window exercise the receive-side RMA tables (pending_gets /
// rma_acks — now peer-shard state) under contention.
TEST(ConcurrencyStress, RmaPutGetConcurrent) {
  ShmWorld world{EngineConfig{}};
  Bytes window(64 * 1024, Byte{0});
  world.node(1).expose_window(3, window.data(), window.size());
  constexpr int kOps = 100;
  std::atomic<std::uint64_t> ok{0};
  std::thread putter([&] {
    const Bytes data = pattern(1024, 7);
    for (int i = 0; i < kOps; ++i) {
      SendHandle h = world.node(0).rma_put(1, 3, 0, data.data(), data.size());
      if (world.node(0).wait_send(h)) ok.fetch_add(1);
    }
  });
  std::thread getter([&] {
    Bytes out(1024);
    for (int i = 0; i < kOps; ++i) {
      SendHandle h =
          world.node(0).rma_get(1, 3, 32 * 1024, out.data(), out.size());
      if (world.node(0).wait_send(h)) ok.fetch_add(1);
    }
  });
  putter.join();
  getter.join();
  EXPECT_EQ(ok.load(), 2u * kOps);
}

// Single-threaded determinism: with one application thread the flat-combining
// try_lock always succeeds, so the ring-enabled engine bypasses the ring and
// must produce the EXACT same packetization as the ring-disabled one in the
// deterministic simulation world — and must never have touched the ring
// (submit.ring_ops stays 0; the ring only carries under contention).
TEST(ConcurrencyStress, SingleThreadSimDeterminismRingOnVsOff) {
  auto run = [](std::size_t ring) {
    EngineConfig cfg;
    cfg.submit_ring = ring;
    SimWorld world(2, cfg);
    world.connect(0, 1, drv::test_profile());
    Channel tx = world.node(0).open_channel(1, 4);
    Channel rx = world.node(1).open_channel(0, 4);
    for (int i = 0; i < 64; ++i)
      send_bytes(tx, pattern(100, static_cast<std::uint32_t>(i)));
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(recv_bytes(rx, 100),
                pattern(100, static_cast<std::uint32_t>(i)));
    world.node(0).flush();
    return world.node(0).counters_snapshot();
  };
  auto with_ring = run(256);
  auto no_ring = run(0);
  for (const char* key : {"tx.packets", "tx.msgs", "tx.frags", "tx.bytes"})
    EXPECT_EQ(with_ring[key], no_ring[key])
        << key << " diverged between ring-on and ring-off";
  // Uncontended posts combine inline; the ring is a contention escape
  // hatch, so a single-threaded run never pays its round-trip.
  EXPECT_EQ(with_ring["submit.ring_ops"], 0u);
  EXPECT_EQ(no_ring["submit.ring_ops"], 0u);
}

// ---------------------------------------------------------------------------
// ISSUE 6: shard-owning progress threads.
// ---------------------------------------------------------------------------

// Regression for the lost-wakeup park race: a submit landing in the gap
// between the progress thread's idle check and its cv wait used to sleep out
// the whole prog_idle_wait before being noticed. Make the park long (200ms)
// and the spin/yield window tiny so an un-woken park is unmissable, then
// assert post-idle submit-to-complete latency stays far below the park bound.
TEST(ProgressWakeup, PostIdleSubmitLatencyBounded) {
  EngineConfig hub_cfg;
  hub_cfg.prog_spin_laps = 4;
  hub_cfg.prog_yield_laps = 4;
  hub_cfg.prog_idle_wait = 200 * kNanosPerMilli;
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, hub_cfg, hub_timer);
  Engine peer(1, EngineConfig{}, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel ch = hub.open_channel(1, 1);
  for (int i = 0; i < 8; ++i) {
    // Let the hub's progress thread run dry and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const auto t0 = std::chrono::steady_clock::now();
    SendHandle h = send_bytes(ch, pattern(64));
    ASSERT_TRUE(hub.wait_send(h));
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 100)
        << "post-idle submit slept out the park (lost wakeup), iter " << i;
  }
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

// With a progress thread attached, blocked waiters must park on their cv
// instead of pumping the engine themselves; self-pumping resumes (and is
// counted) only once the threads are stopped.
TEST(ProgressWakeup, WaitersParkWithProgressThreadAttached) {
  HubWorld w(1, EngineConfig{});
  const std::uint64_t before = w.hub->counters_snapshot()["prog.self_pumps"];
  std::atomic<bool> flag{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    flag.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(
      w.hub->wait_until([&] { return flag.load(std::memory_order_acquire); }));
  setter.join();
  EXPECT_EQ(w.hub->counters_snapshot()["prog.self_pumps"], before)
      << "waiters must not pump while progress threads run";
  w.hub->stop_progress_thread();
  EXPECT_TRUE(w.hub->wait_until([] { return true; }));
  EXPECT_GT(w.hub->counters_snapshot()["prog.self_pumps"], before)
      << "with no progress thread the waiter must pump for itself";
}

/// Decorator that detects two threads inside the wrapped endpoint's
/// progress() at once. The shard pump claim promises this never happens, no
/// matter how owners, stealers and manual progress() calls interleave.
class ExclusivePumpEndpoint final : public drv::DriverEndpoint {
 public:
  ExclusivePumpEndpoint(std::unique_ptr<drv::DriverEndpoint> inner,
                        std::atomic<std::uint64_t>* violations)
      : inner_(std::move(inner)), violations_(violations) {}
  const drv::Capabilities& caps() const override { return inner_->caps(); }
  void set_handler(drv::EndpointHandler* h) override {
    inner_->set_handler(h);
  }
  bool send(drv::TrackId track, const GatherList& gl,
            std::uint64_t token) override {
    return inner_->send(track, gl, token);
  }
  void progress() override {
    if (entered_.exchange(true, std::memory_order_acq_rel))
      violations_->fetch_add(1, std::memory_order_relaxed);
    inner_->progress();
    entered_.store(false, std::memory_order_release);
  }
  void close() override { inner_->close(); }
  bool link_up() const override { return inner_->link_up(); }

 private:
  std::unique_ptr<drv::DriverEndpoint> inner_;
  std::atomic<std::uint64_t>* violations_;
  std::atomic<bool> entered_{false};
};

// Shard-ownership determinism: under four progress threads and a full
// submit storm, every peer's endpoints are pumped by exactly one thread at
// a time (the claim holder) — the decorator sees zero concurrent entries.
TEST(ShardOwnership, ExclusivePumpPerShard) {
  EngineConfig cfg;
  cfg.progress_threads = 4;
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::unique_ptr<RealTimerHost>> timers;
  timers.push_back(std::make_unique<RealTimerHost>());
  Engine hub(0, cfg, *timers.back());
  std::vector<std::unique_ptr<Engine>> peers;
  constexpr std::size_t kPeers = 8;
  for (std::size_t m = 0; m < kPeers; ++m) {
    timers.push_back(std::make_unique<RealTimerHost>());
    auto peer = std::make_unique<Engine>(static_cast<NodeId>(m + 1),
                                         EngineConfig{}, *timers.back());
    auto pair = drv::ShmEndpoint::make_pair();
    hub.add_rail(static_cast<NodeId>(m + 1),
                 std::make_unique<ExclusivePumpEndpoint>(std::move(pair.a),
                                                         &violations));
    peer->add_rail(0, std::move(pair.b));
    peer->start_progress_thread();
    peers.push_back(std::move(peer));
  }
  hub.start_progress_thread();
  const std::uint64_t done = submit_storm(hub, 4, kPeers, 200);
  EXPECT_EQ(done, 800u);
  EXPECT_TRUE(hub.flush());
  hub.stop_progress_thread();
  for (auto& p : peers) p->stop_progress_thread();
  EXPECT_EQ(violations.load(), 0u)
      << "a shard's endpoints were pumped by two threads at once";
  auto counters = hub.counters_snapshot();
  EXPECT_GT(counters["prog.shard_laps"], 0u);
}

/// Endpoint whose progress() wedges its pumping thread until released.
/// Sleeps rather than spins: a single-core CI host must keep scheduling the
/// healthy threads while this owner stays stuck.
class StallEndpoint final : public drv::DriverEndpoint {
 public:
  const drv::Capabilities& caps() const override { return caps_; }
  void set_handler(drv::EndpointHandler*) override {}
  bool send(drv::TrackId, const GatherList&, std::uint64_t) override {
    return false;
  }
  void progress() override {
    if (!stall_.load(std::memory_order_acquire)) return;
    stalled_.store(true, std::memory_order_release);
    while (stall_.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  bool stalled() const { return stalled_.load(std::memory_order_acquire); }
  void release() { stall_.store(false, std::memory_order_release); }

 private:
  drv::Capabilities caps_;
  std::atomic<bool> stall_{true};
  std::atomic<bool> stalled_{false};
};

// Work stealing: owners are assigned in peer-insertion order modulo
// progress_threads, so with two threads peers 1 and 3 land on thread 0 and
// peer 2 on thread 1. The StallEndpoint wedges whichever thread pumps peer
// 1's shard first: its owner t0, or t1 stealing it before t0's first lap.
// Traffic to a peer the wedged thread owns (3 for t0, 2 for t1) can then
// only complete if the healthy thread steals that shard.
TEST(ShardOwnership, StalledOwnerShardIsStolen) {
  EngineConfig cfg;
  cfg.progress_threads = 2;
  cfg.prog_spin_laps = 4;
  cfg.prog_yield_laps = 4;
  RealTimerHost t0, t2, t3;
  Engine hub(0, cfg, t0);
  auto stall = std::make_unique<StallEndpoint>();
  StallEndpoint* wedge = stall.get();
  hub.add_rail(1, std::move(stall));
  Engine peer2(2, EngineConfig{}, t2);
  auto p2 = drv::ShmEndpoint::make_pair();
  hub.add_rail(2, std::move(p2.a));
  peer2.add_rail(0, std::move(p2.b));
  Engine peer3(3, EngineConfig{}, t3);
  auto p3 = drv::ShmEndpoint::make_pair();
  hub.add_rail(3, std::move(p3.a));
  peer3.add_rail(0, std::move(p3.b));
  peer2.start_progress_thread();
  peer3.start_progress_thread();
  hub.start_progress_thread();
  while (!wedge->stalled()) std::this_thread::yield();

  // From here the wedged thread never finishes its lap, so its shard_laps
  // counter is frozen; the healthy thread keeps lapping (it parks for at
  // most prog_idle_wait). The first counter to move names the healthy one.
  auto laps = [&hub](int t) {
    return hub.counters_snapshot()["prog.t" + std::to_string(t) +
                                   ".shard_laps"];
  };
  const std::uint64_t from0 = laps(0), from1 = laps(1);
  int healthy = -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (healthy < 0 && std::chrono::steady_clock::now() < deadline) {
    const bool moved0 = laps(0) != from0, moved1 = laps(1) != from1;
    ASSERT_FALSE(moved0 && moved1) << "both progress threads are lapping";
    if (moved0) healthy = 0;
    if (moved1) healthy = 1;
    std::this_thread::yield();
  }
  ASSERT_GE(healthy, 0) << "neither progress thread laps";
  const NodeId target = healthy == 1 ? 3 : 2;  // owned by the wedged thread

  Channel ch = hub.open_channel(target, 1);
  for (int i = 0; i < 50; ++i) {
    SendHandle h = send_bytes(ch, pattern(64));
    ASSERT_TRUE(hub.wait_send(h, 5 * kNanosPerSec))
        << "message " << i << " to peer " << target
        << " wedged behind the stalled owner: steal failed";
  }
  auto counters = hub.counters_snapshot();
  EXPECT_GE(counters["prog.steals"], 1u);
  EXPECT_GE(counters["prog.t" + std::to_string(healthy) + ".steals"], 1u)
      << "the healthy thread must be the one stealing";
  wedge->release();
  hub.stop_progress_thread();
  peer2.stop_progress_thread();
  peer3.stop_progress_thread();
}

// Ring-on vs ring-off parity must hold at every progress-thread count: the
// submit ring and the shard pump are independent axes, and neither may lose
// or double-count messages as threads scale.
TEST(ShardOwnership, RingParityAcrossProgressThreads) {
  for (const std::size_t pt : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto run = [pt](std::size_t ring) {
      EngineConfig cfg;
      cfg.submit_ring = ring;
      cfg.progress_threads = pt;
      HubWorld w(2, cfg);
      const std::uint64_t done = submit_storm(*w.hub, 2, 2, 200);
      EXPECT_EQ(done, 400u);
      EXPECT_TRUE(w.hub->flush());
      return w.hub->counters_snapshot();
    };
    auto with_ring = run(256);
    auto no_ring = run(0);
    // Wire-level counters (tx.bytes/tx.packets) legitimately vary with
    // real-time coalescing; the message-level accounting may not. Exact
    // packetization parity is SingleThreadSimDeterminismRingOnVsOff's job.
    for (const char* key : {"tx.msgs", "tx.frags_submitted", "tx.msgs_completed"})
      EXPECT_EQ(with_ring[key], no_ring[key])
          << key << " diverged at progress_threads=" << pt;
    EXPECT_EQ(no_ring["submit.ring_ops"], 0u);
  }
}

// Teardown under load: stop_progress_thread() races live posters, yet every
// staged RxEvent and parked submit-ring op must still drain — first by the
// stopping thread's final sweep, then by the waiters' own self-pumping — and
// the engine must restart cleanly afterwards. ASan/TSan runs of this test
// are the real assertion.
TEST(ConcurrencyTeardown, ShutdownUnderLoadDrainsStagedWork) {
  for (int round = 0; round < 3; ++round) {
    HubWorld w(2, EngineConfig{});
    std::vector<Channel> chans;
    chans.push_back(w.hub->open_channel(1, 1));
    chans.push_back(w.hub->open_channel(2, 1));
    std::mutex handles_mu;
    std::vector<SendHandle> handles;
    std::vector<std::thread> posters;
    for (int t = 0; t < 2; ++t) {
      posters.emplace_back([&, t] {
        for (int i = 0; i < 300; ++i) {
          SendHandle h = send_bytes(chans[static_cast<std::size_t>(t)],
                                    pattern(128));
          std::lock_guard<std::mutex> lk(handles_mu);
          handles.push_back(std::move(h));
        }
      });
    }
    // Stop the progress threads mid-burst, racing the posters.
    w.hub->stop_progress_thread();
    for (auto& th : posters) th.join();
    // No progress threads left: the waits below self-pump the drain.
    for (SendHandle& h : handles) EXPECT_TRUE(w.hub->wait_send(h));
    EXPECT_TRUE(w.hub->flush());
    auto counters = w.hub->counters_snapshot();
    EXPECT_EQ(counters["tx.msgs"], 600u) << "round " << round;
    Engine::Snapshot snap = w.hub->snapshot();
    EXPECT_TRUE(snap.quiescent()) << snap.to_string();
    // And the engine must come back up after a stop.
    w.hub->start_progress_thread();
    SendHandle h = send_bytes(chans[0], pattern(128));
    EXPECT_TRUE(w.hub->wait_send(h)) << "restart after stop failed";
  }
}

// ---------------------------------------------------------------------------
// ISSUE 7: timer wheel integration — idle engines hold no timers, and a
// parked owner honors a deadline armed after it went to sleep.
// ---------------------------------------------------------------------------

// Regression for the stale-timer family: superseded nagle/RTO entries used
// to linger in the heap until their deadline passed, so a logically idle
// engine still reported pending timers (and parks woke for nothing). With
// true cancellation the timer host must drain to empty once traffic stops:
// acks cancel RTO timers, an empty backlog cancels the rail's nagle timer.
TEST(TimerIntegration, IdleEngineHasNoPendingTimers) {
  EngineConfig hub_cfg;
  hub_cfg.reliability = true;
  hub_cfg.strategy = "nagle";
  hub_cfg.nagle_delay = 50 * kNanosPerMicro;
  EngineConfig peer_cfg;
  peer_cfg.reliability = true;
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, hub_cfg, hub_timer);
  Engine peer(1, peer_cfg, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel ch = hub.open_channel(1, 1);
  for (int i = 0; i < 32; ++i) {
    SendHandle h = send_bytes(ch, pattern(64, static_cast<std::uint32_t>(i)));
    ASSERT_TRUE(hub.wait_send(h));
  }
  ASSERT_TRUE(hub.flush());
  // Everything is sent and acked; RTO/nagle cancellation races the last ack
  // by at most one progress lap — poll briefly, then the host must be empty.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (hub_timer.has_pending() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(hub_timer.has_pending())
      << "idle engine left timers armed (stale nagle/RTO entries)";
  EXPECT_EQ(hub_timer.next_deadline(), TimerHost::kNoDeadline);
  auto counters = hub.counters_snapshot();
  EXPECT_GT(counters["timer.arms"], 0u);
  EXPECT_GT(counters["timer.cancelled"], 0u)
      << "acks/empty-backlog must cancel timers, not abandon them";
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

// Regression alongside PostIdleSubmitLatencyBounded: a progress thread
// parked against a 200ms bound must re-derive that bound when a nagle hold
// arms a much earlier deadline after the park began. If the arm path fails
// to wake the shard owner, the lone fragment sleeps out the full park.
TEST(TimerIntegration, ParkedOwnerHonorsTimerArmedAfterPark) {
  EngineConfig hub_cfg;
  hub_cfg.strategy = "nagle";
  hub_cfg.nagle_delay = 2 * kNanosPerMilli;
  hub_cfg.prog_spin_laps = 4;
  hub_cfg.prog_yield_laps = 4;
  hub_cfg.prog_idle_wait = 200 * kNanosPerMilli;
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, hub_cfg, hub_timer);
  Engine peer(1, EngineConfig{}, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel ch = hub.open_channel(1, 1);
  // The only peer's shard belongs to progress thread 0.
  auto owner_counter = [&hub](const char* name) {
    return hub.counters_snapshot()[std::string("prog.t0.") + name];
  };
  for (int i = 0; i < 8; ++i) {
    // Let the hub's progress thread run dry and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const std::uint64_t wakeups0 = owner_counter("wakeups");
    const std::uint64_t sleeps0 = owner_counter("idle_sleeps");
    const auto t0 = std::chrono::steady_clock::now();
    // A lone small fragment: the nagle strategy holds it and arms a 2ms
    // timer — the only thing that can flush it on an otherwise idle engine.
    SendHandle h = send_bytes(ch, pattern(16));
    ASSERT_TRUE(hub.wait_send(h));
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    // A missed timer-arm wakeup shows as a full park: no new wakeup. A
    // merely slow host (sanitizers) shows wakeups that arrived late.
    EXPECT_LT(ms, 100) << "nagle deadline slept out the park bound, iter "
                       << i << " (" << ms << " ms; owner wakeups +"
                       << owner_counter("wakeups") - wakeups0
                       << ", idle_sleeps +"
                       << owner_counter("idle_sleeps") - sleeps0 << ")";
  }
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

}  // namespace
}  // namespace mado::core

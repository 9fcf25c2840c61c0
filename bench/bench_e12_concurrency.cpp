// E12 — multi-threaded multi-peer submit throughput (ISSUE 5): proves the
// sharded engine lock. A hub engine talks to M peer engines over real
// shared-memory rails (one progress thread per engine), while T application
// threads submit small eager messages round-robin across the peers and wait
// for completion in a bounded window. The metric is aggregate
// submit-to-complete throughput (messages/s across all threads).
//
// With the single global engine mutex, every submit, driver completion and
// counter read serializes: adding threads/peers adds contention, not
// throughput. With per-peer sharding + the lock-free submit ring, threads
// talking to different peers never touch the same lock and the enqueue
// fast path never blocks on the progressor.
//
// Output: one JSON line per configuration (machine-readable artifact), a
// trailing summary line, and a scaling assertion:
//   throughput(T=8, M=8)  >=  factor(hw) * throughput(T=1, M=1)
// where factor(hw) is 2.5 with >= 8 hardware threads, 1.5 with >= 4, and
// 1.02 with 2-3 (the win is reduced convoy overhead, not parallelism). On
// a 1-hardware-thread host 17 runnable threads timeslice one core, so no
// gain is possible; there the gate only requires the 8x8 config not to
// collapse (>= 0.5x — the sharded lock must not convoy under extreme
// oversubscription).
//
// Also measured: single-thread single-peer submit-to-complete latency over
// the in-process shm driver (pure engine-path cost, no timing model, no
// second thread) — the sharding must leave this flat.
//
// ISSUE 6 adds --progress-threads N: every engine (hub and peers) runs N
// shard-owning progress threads instead of one. With N > 1 the scaling gate
// tightens — on a >= 8-hardware-thread host the 8x8 config must reach 4x
// the 1x1 baseline (2x with >= 4 hardware threads), because completions now
// drain in parallel across shards instead of serializing behind one pump.
//
// Flags:
//   --smoke              short measurement windows (CI gate)
//   --no-assert          emit JSON only (used to capture the pre-PR baseline)
//   --out PATH           append JSON lines to PATH as well as stdout
//   --progress-threads N shard-owning progress threads per engine (default 1)
//   --benchmark_*        ignored (so the generic bench smoke loop can run this)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"

namespace {

using namespace mado;
using namespace mado::core;

constexpr std::size_t kMsgBytes = 256;
constexpr std::size_t kWindow = 64;  // outstanding sends per thread

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Hub topology: engine 0 with one shm rail to each of `peers` peer
/// engines; progress threads everywhere (the threaded regime the sharding
/// targets). Peer engines only sink traffic.
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

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t npeers = 0;
  double msgs_per_sec = 0;
  double mb_per_sec = 0;
  std::uint64_t completed = 0;
  double wall_sec = 0;
};

/// T submitter threads × M peers for `duration_sec` of wall time. Each
/// thread owns one channel per peer (channel id = thread index), posts
/// kMsgBytes messages round-robin across peers with a bounded window of
/// outstanding handles, and counts completions. A watcher thread hammers
/// counters_snapshot()/snapshot() like a monitoring sampler would.
SweepPoint run_sweep(std::size_t threads, std::size_t npeers,
                     double duration_sec, const EngineConfig& cfg) {
  HubWorld w(npeers, cfg);
  // Channels: [thread][peer].
  std::vector<std::vector<Channel>> chans(threads);
  for (std::size_t t = 0; t < threads; ++t)
    for (std::size_t m = 0; m < npeers; ++m)
      chans[t].push_back(w.hub->open_channel(
          static_cast<NodeId>(m + 1), static_cast<ChannelId>(t),
          TrafficClass::SmallEager));

  std::atomic<bool> go{false}, stop{false};
  std::vector<std::uint64_t> done(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const Bytes data(kMsgBytes, Byte{0x5a});
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::deque<SendHandle> window;
      std::uint64_t n = 0;
      std::size_t rr = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Message m;
        m.pack(data.data(), data.size(), SendMode::Safe);
        window.push_back(chans[t][rr % npeers].post(std::move(m)));
        ++rr;
        if (window.size() >= kWindow) {
          w.hub->wait_send(window.front());
          window.pop_front();
          ++n;
        }
      }
      while (!window.empty()) {
        w.hub->wait_send(window.front());
        window.pop_front();
        ++n;
      }
      done[t] = n;
    });
  }
  // Monitoring reader: the sharded-counter satellite says snapshots must
  // not stall TX — run one all through the measurement so the number below
  // includes that load.
  std::thread watcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto counters = w.hub->counters_snapshot();
      auto snap = w.hub->snapshot();
      (void)counters;
      (void)snap;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const double t0 = now_sec();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(duration_sec));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : workers) th.join();
  const double wall = now_sec() - t0;
  watcher.join();

  SweepPoint p;
  p.threads = threads;
  p.npeers = npeers;
  p.wall_sec = wall;
  for (std::uint64_t n : done) p.completed += n;
  p.msgs_per_sec = static_cast<double>(p.completed) / wall;
  p.mb_per_sec =
      p.msgs_per_sec * static_cast<double>(kMsgBytes) / (1024.0 * 1024.0);
  return p;
}

/// Single-thread single-peer submit-to-complete latency over shm: no
/// progress threads, no timing model — the measuring thread pumps the hub
/// engine itself, so the number is the pure engine-path cost the sharding
/// must not regress.
double run_shm_latency_ns(std::size_t iters, const EngineConfig& cfg) {
  RealTimerHost th_hub, th_peer;
  Engine hub(0, cfg, th_hub);
  Engine peer(1, cfg, th_peer);
  auto pair = drv::ShmEndpoint::make_pair(drv::mx_myrinet_profile());
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  Channel ch = hub.open_channel(1, 7);
  const Bytes data(kMsgBytes, Byte{0x5a});

  // Warmup.
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.pack(data.data(), data.size(), SendMode::Safe);
    SendHandle h = ch.post(std::move(m));
    while (!hub.send_done(h)) hub.progress();
    peer.progress();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    Message m;
    m.pack(data.data(), data.size(), SendMode::Safe);
    SendHandle h = ch.post(std::move(m));
    while (!hub.send_done(h)) hub.progress();
    peer.progress();  // drain the peer inbox so memory stays flat
  }
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                 .count()) /
         static_cast<double>(iters);
}

void emit(std::FILE* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  if (out) {
    va_start(args, fmt);
    std::vfprintf(out, fmt, args);
    va_end(args);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, do_assert = true;
  const char* out_path = nullptr;
  std::size_t progress_threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--no-assert") == 0) do_assert = false;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    else if (std::strcmp(argv[i], "--progress-threads") == 0 && i + 1 < argc)
      progress_threads =
          static_cast<std::size_t>(std::max(1, std::atoi(argv[++i])));
    // --benchmark_* and anything else: ignored (generic smoke loop).
  }
  std::FILE* out = out_path ? std::fopen(out_path, "w") : nullptr;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double dur = smoke ? 0.08 : 0.5;

  EngineConfig cfg;
  cfg.strategy = "aggreg";
  cfg.progress_threads = progress_threads;

  struct Cfg {
    std::size_t t, m;
  };
  std::vector<Cfg> points;
  if (smoke) {
    points = {{1, 1}, {8, 8}};
  } else {
    points = {{1, 1}, {1, 8}, {2, 2}, {4, 4}, {8, 1}, {8, 8}};
  }

  double base_11 = 0, top_88 = 0;
  for (const Cfg& c : points) {
    const SweepPoint p = run_sweep(c.t, c.m, dur, cfg);
    if (c.t == 1 && c.m == 1) base_11 = p.msgs_per_sec;
    if (c.t == 8 && c.m == 8) top_88 = p.msgs_per_sec;
    emit(out,
         "{\"bench\":\"e12_concurrency\",\"transport\":\"shm\","
         "\"threads\":%zu,\"peers\":%zu,\"progress_threads\":%zu,"
         "\"msg_bytes\":%zu,"
         "\"window\":%zu,\"duration_s\":%.3f,\"completed\":%llu,"
         "\"msgs_per_sec\":%.0f,\"MBps\":%.2f,\"hw_threads\":%u}\n",
         c.t, c.m, progress_threads, kMsgBytes, kWindow, p.wall_sec,
         static_cast<unsigned long long>(p.completed), p.msgs_per_sec,
         p.mb_per_sec, hw);
    std::fflush(stdout);
  }

  const double lat_ns =
      run_shm_latency_ns(smoke ? 2000 : 20000, cfg);
  emit(out,
       "{\"bench\":\"e12_concurrency\",\"transport\":\"shm\","
       "\"threads\":1,\"peers\":1,\"msg_bytes\":%zu,"
       "\"submit_to_complete_ns\":%.0f}\n",
       kMsgBytes, lat_ns);

  // Same measurement with the submit ring disabled: post() takes the locked
  // path directly. The spread between the two lines is the single-thread
  // cost (or saving) of the ring enqueue + flat-combining drain, isolated
  // from the rest of the sharding.
  EngineConfig cfg_no_ring = cfg;
  cfg_no_ring.submit_ring = 0;
  const double lat_no_ring_ns =
      run_shm_latency_ns(smoke ? 2000 : 20000, cfg_no_ring);
  emit(out,
       "{\"bench\":\"e12_concurrency\",\"transport\":\"shm\","
       "\"threads\":1,\"peers\":1,\"msg_bytes\":%zu,\"submit_ring\":0,"
       "\"submit_to_complete_ns\":%.0f}\n",
       kMsgBytes, lat_no_ring_ns);

  const double scaling = base_11 > 0 ? top_88 / base_11 : 0;
  // With parallel shard-owning progress threads the bar rises: completions
  // drain concurrently, so on real multi-core hardware the 8x8 config must
  // scale harder than the single-pump engine ever could. Oversubscribed
  // hosts keep the no-collapse floor.
  const double required =
      progress_threads > 1
          ? (hw >= 8 ? 4.0 : (hw >= 4 ? 2.0 : (hw >= 2 ? 1.02 : 0.5)))
          : (hw >= 8 ? 2.5 : (hw >= 4 ? 1.5 : (hw >= 2 ? 1.02 : 0.5)));
  emit(out,
       "{\"bench\":\"e12_concurrency\",\"summary\":true,"
       "\"progress_threads\":%zu,"
       "\"scaling_8x8_vs_1x1\":%.2f,\"required\":%.2f,"
       "\"shm_latency_ns\":%.0f,\"hw_threads\":%u}\n",
       progress_threads, scaling, required, lat_ns, hw);
  if (out) std::fclose(out);

  if (do_assert && scaling < required) {
    std::fprintf(stderr,
                 "FAIL: 8x8 aggregate throughput is %.2fx the 1x1 baseline "
                 "(required >= %.2fx on %u hardware threads)\n",
                 scaling, required, hw);
    return 1;
  }
  std::printf("OK: scaling 8x8/1x1 = %.2fx (required %.2fx)\n", scaling,
              required);
  return 0;
}

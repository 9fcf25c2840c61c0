// E13 — million-flow capacity (ISSUE 7): proves the hierarchical timing
// wheel and the open-addressing state tables keep the engine's per-decision
// cost FLAT while it holds a million concurrent reliable flows across a
// hundred thousand peers, inside a bounded memory footprint.
//
// Topology: one hub engine with one NullEndpoint rail per simulated peer.
// The endpoint completes driver sends on progress() but never delivers
// anything, so with reliability on every sent packet parks in the
// retransmit tracking as a resident un-acked flow (its RTO is pushed out to
// 600s — armed in the wheel, never firing). 100k peers x 10 small messages
// = 1M resident flows and 100k armed RTO timers.
//
// Measurements (JSON artifact, one line each):
//   - probe decision cost: median ns per channel.post() on a designated
//     probe peer, measured first with ~1k resident flows, again with the
//     full population. GATE: ratio <= 1.25 (per-decision cost must not grow
//     with resident state — the tentpole claim).
//   - idle progress poll with 100k armed timers: ns per run_due() when
//     nothing is due (the wheel's two-atomic-load fast path).
//   - timer re-arm: ns and HEAP ALLOCATIONS per arm on a persistent
//     TimerHandle. GATE: 0 allocs per re-arm in steady state (the pooled /
//     intrusive wheel contract; the old heap allocated a std::function
//     closure per schedule).
//   - RSS: VmRSS after the full population is loaded. GATE: under the
//     configured per-peer budget (48 KB/peer + fixed base) — bounded
//     per-peer memory.
//
// Flags: --smoke (2k peers / 20k flows), --no-assert, --out PATH,
// --benchmark_* ignored.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/driver.hpp"

// ---- counting global allocator (same pattern as bench_e9) -------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace mado;
using namespace mado::core;

constexpr std::size_t kMsgBytes = 64;
constexpr std::size_t kFlowsPerPeer = 10;

/// Completes driver sends on progress(), never delivers, never acks: the
/// cheapest possible wire that still drives the engine's full TX + rel
/// bookkeeping. Deep tracks so probe batches never hit the busy gate.
class NullEndpoint final : public drv::DriverEndpoint {
 public:
  NullEndpoint() {
    caps_.name = "null";
    caps_.max_eager = 8 * 1024;
    caps_.rdv_threshold = 1u << 20;  // everything here is eager
    caps_.track_depth = 4096;
  }
  const drv::Capabilities& caps() const override { return caps_; }
  void set_handler(drv::EndpointHandler* h) override { handler_ = h; }
  void send(drv::TrackId track, const GatherList& gl,
            std::uint64_t token) override {
    (void)gl;
    pending_.emplace_back(track, token);
  }
  void progress() override {
    if (pending_.empty()) return;
    // Completions may trigger follow-on sends from inside the handler.
    scratch_.swap(pending_);
    for (const auto& [track, token] : scratch_)
      handler_->on_send_complete(track, token);
    scratch_.clear();
  }

 private:
  drv::Capabilities caps_;
  drv::EndpointHandler* handler_ = nullptr;
  std::vector<std::pair<drv::TrackId, std::uint64_t>> pending_, scratch_;
};

std::size_t vm_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

double now_ns() {
  using clock = std::chrono::steady_clock;
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock::now().time_since_epoch())
          .count());
}

/// Pump the hub until a lap finds no work (all NullEndpoint completions
/// delivered and drained).
void drain(Engine& hub) {
  while (hub.progress()) {
  }
}

/// Load `flows` resident flows spread kFlowsPerPeer-per-peer starting at
/// `first_peer`. Handles are dropped: completion is driver-side only and
/// the flows stay resident as un-acked rel state by construction.
void load_flows(Engine& hub, std::vector<Channel>& chans,
                std::size_t first_peer, std::size_t flows) {
  const Bytes data(kMsgBytes, Byte{0x5a});
  std::size_t peer = first_peer;
  for (std::size_t i = 0; i < flows; ++i) {
    Message m;
    m.pack(data.data(), data.size(), SendMode::Safe);
    chans[peer].post(std::move(m));
    if (++peer == chans.size()) peer = first_peer;
  }
  drain(hub);
}

/// Median ns per channel.post() on the probe channel: `batches` bursts of
/// `per_batch` posts, each post timed individually, drained between bursts
/// (outside the timed region). The median over all posts is what the gate
/// compares — it is robust to the cold-cache tail right after a drain()
/// walked every peer's state, which would otherwise dominate a batch mean
/// once the resident population is large.
double probe_post_ns(Engine& hub, Channel& probe, std::size_t batches,
                     std::size_t per_batch) {
  const Bytes data(kMsgBytes, Byte{0x5a});
  std::vector<double> ns;
  ns.reserve(batches * per_batch);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < per_batch; ++i) {
      Message m;
      m.pack(data.data(), data.size(), SendMode::Safe);
      const double t0 = now_ns();
      probe.post(std::move(m));
      ns.push_back(now_ns() - t0);
    }
    drain(hub);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--no-assert") == 0) do_assert = false;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
    // --benchmark_* and anything else: ignored (generic smoke loop).
  }
  std::FILE* out = out_path ? std::fopen(out_path, "w") : nullptr;

  const std::size_t npeers = smoke ? 2'000 : 100'000;
  const std::size_t flows_full = npeers * kFlowsPerPeer;
  const std::size_t flows_base = 1'000;
  // The acceptance gate is a per-peer budget, not a flat number: 48 KB per
  // peer (10 resident 64 B flows, their retained wire images, rel tracking,
  // tables at their 16-slot floor, a 4-slot submit ring) plus a fixed base
  // for the binary, the wheel and the channel vector. Measured: ~40 KB/peer
  // at 100k peers, ~45 KB/peer at 2k (fixed costs amortize less).
  const std::size_t kPerPeerBudget = 48 * 1024;
  const std::size_t rss_budget =
      std::size_t{128} * 1024 * 1024 + npeers * kPerPeerBudget;

  EngineConfig cfg;
  cfg.strategy = "aggreg";
  cfg.reliability = true;
  // Single application thread: the flat-combining inline path always wins,
  // so the per-peer MPMC submit ring would be 100k x ~40 KB of preallocated
  // slots serving nothing. At this peer count the ring is the single
  // largest per-peer allocation — size it down, don't disable it, so the
  // submit path stays the production one (try_lock fast path + ring code).
  cfg.submit_ring = 4;
  // Wide enough that the probe peer's cumulative un-acked packets never
  // close the go-back-N window mid-bench (a closed window short-circuits
  // the pump and would make late probes measure a different code path).
  cfg.rel_window = 1u << 20;
  // The flows must stay resident, not retransmit: park the RTO far beyond
  // the bench's wall time. 100k of these sit armed in the wheel throughout.
  cfg.rel_rto_initial = 600 * kNanosPerSec;
  cfg.rel_rto_max = 600 * kNanosPerSec;

  const std::size_t rss_start = vm_rss_bytes();
  RealTimerHost timers;
  Engine hub(0, cfg, timers);
  std::vector<Channel> chans;
  chans.reserve(npeers + 1);
  chans.push_back(Channel{});  // index 0 unused: peers are 1-based
  for (std::size_t p = 1; p <= npeers; ++p) {
    hub.add_rail(static_cast<NodeId>(p), std::make_unique<NullEndpoint>());
    chans.push_back(hub.open_channel(static_cast<NodeId>(p), 1,
                                     TrafficClass::SmallEager));
  }
  Channel probe = hub.open_channel(1, 2, TrafficClass::SmallEager);

  const std::size_t batches = 5;
  const std::size_t per_batch = smoke ? 200 : 400;

  // ---- phase A: ~1k resident flows -----------------------------------------
  load_flows(hub, chans, 2, flows_base);
  probe_post_ns(hub, probe, 2, per_batch);  // warmup
  const double base_ns = probe_post_ns(hub, probe, batches, per_batch);

  // ---- phase B: full population --------------------------------------------
  load_flows(hub, chans, 2, flows_full - flows_base);
  const double full_ns = probe_post_ns(hub, probe, batches, per_batch);

  auto counters = hub.counters_snapshot();
  const std::uint64_t sent_msgs = counters["tx.msgs"];
  const std::uint64_t acks_rx = counters["rel.acks_rx"];
  const std::size_t rss_now = vm_rss_bytes();
  const double per_flow =
      static_cast<double>(rss_now - std::min(rss_now, rss_start)) /
      static_cast<double>(flows_full);

  // ---- idle poll cost with ~npeers armed RTO timers ------------------------
  const std::size_t polls = 1'000'000;
  double t0 = now_ns();
  for (std::size_t i = 0; i < polls; ++i) timers.run_due();
  const double poll_ns = (now_ns() - t0) / static_cast<double>(polls);

  // ---- timer re-arm: O(1) and allocation-free ------------------------------
  double rearm_ns = 0;
  std::uint64_t rearm_allocs = 0;
  {
    RealTimerHost th;
    TimerHandle h;
    h.set_callback([](std::uint64_t) {});
    th.arm(h, th.now() + kNanosPerSec);  // first arm pins the keep-alive
    const std::size_t rearms = 1'000'000;
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    t0 = now_ns();
    for (std::size_t i = 0; i < rearms; ++i)
      th.arm(h, th.now() + kNanosPerSec + i);
    rearm_ns = (now_ns() - t0) / static_cast<double>(rearms);
    rearm_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    th.cancel(h);
  }

  const double ratio = base_ns > 0 ? full_ns / base_ns : 0;
  emit(out,
       "{\"bench\":\"e13_capacity\",\"peers\":%zu,\"flows\":%zu,"
       "\"msg_bytes\":%zu,\"sent_msgs\":%llu,\"acks_rx\":%llu,"
       "\"probe_ns_1k\":%.1f,\"probe_ns_full\":%.1f,\"cost_ratio\":%.3f,"
       "\"idle_poll_ns\":%.2f,\"rearm_ns\":%.1f,\"rearm_allocs\":%llu,"
       "\"rss_bytes\":%zu,\"rss_per_flow\":%.1f,"
       "\"timer_arms\":%llu,\"timer_cancelled\":%llu,"
       "\"table_growths\":%llu,\"table_shrinks\":%llu}\n",
       npeers, flows_full, kMsgBytes,
       static_cast<unsigned long long>(sent_msgs),
       static_cast<unsigned long long>(acks_rx), base_ns, full_ns, ratio,
       poll_ns, rearm_ns, static_cast<unsigned long long>(rearm_allocs),
       rss_now, per_flow,
       static_cast<unsigned long long>(counters["timer.arms"]),
       static_cast<unsigned long long>(counters["timer.cancelled"]),
       static_cast<unsigned long long>(counters["cap.table_growths"]),
       static_cast<unsigned long long>(counters["cap.table_shrinks"]));
  if (out) std::fclose(out);

  int rc = 0;
  if (do_assert) {
    if (sent_msgs < flows_full || acks_rx != 0) {
      std::fprintf(stderr,
                   "FAIL: flows not resident (sent %llu of %zu, acks %llu)\n",
                   static_cast<unsigned long long>(sent_msgs), flows_full,
                   static_cast<unsigned long long>(acks_rx));
      rc = 1;
    }
    if (ratio > 1.25) {
      std::fprintf(stderr,
                   "FAIL: per-decision cost grew %.2fx from 1k to %zu flows "
                   "(budget 1.25x): %.1f -> %.1f ns\n",
                   ratio, flows_full, base_ns, full_ns);
      rc = 1;
    }
    if (rearm_allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu heap allocations across 1M timer re-arms "
                   "(contract: 0)\n",
                   static_cast<unsigned long long>(rearm_allocs));
      rc = 1;
    }
    if (rss_now > rss_budget) {
      std::fprintf(stderr,
                   "FAIL: RSS %zu exceeds per-peer budget %zu "
                   "(48 KB x %zu peers + 128 MB base)\n",
                   rss_now, rss_budget, npeers);
      rc = 1;
    }
  }
  if (rc == 0)
    std::printf("OK: %zu flows, cost ratio %.2fx, %.1f B/flow, "
                "re-arm %.0f ns / %llu allocs\n",
                flows_full, ratio, per_flow, rearm_ns,
                static_cast<unsigned long long>(rearm_allocs));
  return rc;
}

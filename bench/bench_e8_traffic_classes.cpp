// E8 — paper §2: a scheduler with global control "may assign some of these
// resources to different classes of traffic" and "dynamically change the
// assignment of networking resources to traffic classes ... as the needs of
// the application evolve."
//
// Workload: a saturating rendezvous bulk stream pinned to rail 0, while a
// latency-sensitive control ping-pong runs. Three resource policies:
//   shared     — control class assigned to the bulk-loaded rail 0
//   separated  — control class statically assigned to rail 1
//   rebalanced — control starts on rail 0; Engine::rebalance_classes()
//                moves it off the loaded rail mid-run (dynamic policy)
//
// Expected shape: control RTT under "shared" inflates by the bulk chunk
// serialization it queues behind; "separated" stays near the unloaded
// RTT; "rebalanced" starts like shared and converges to separated.
//
// Gates (the binary exits non-zero when one fails): "separated" mean
// control RTT is at most a tenth of "shared", and "rebalanced" is below
// "shared". All figures are virtual (simulated) time: identical in every
// build type.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

using namespace mado;
using namespace mado::bench;

enum class Policy { Shared, Separated, Rebalanced };

int g_gate_failures = 0;

void fail_gate(benchmark::State& state, const char* why) {
  ++g_gate_failures;
  state.SkipWithError(why);
}

struct E8Result {
  double mean_rtt_us = 0;
  double worst_rtt_us = 0;
};

E8Result run_classes(Policy policy) {
  EngineConfig cfg;
  cfg.rdv_chunk = 256 * 1024;
  cfg.class_rail = {0, 0, 0, 0};  // every class, bulk too, on rail 0
  if (policy == Policy::Separated) cfg.class_rail[0] = 1;  // Control → rail 1
  SimWorld w(2, cfg);
  w.connect(0, 1, drv::mx_myrinet_profile());
  w.connect(0, 1, drv::mx_myrinet_profile());

  core::Channel bulk_tx = w.node(0).open_channel(1, 1, core::TrafficClass::Bulk);
  core::Channel bulk_rx = w.node(1).open_channel(0, 1, core::TrafficClass::Bulk);
  core::Channel ping_a = w.node(0).open_channel(1, 2, core::TrafficClass::Control);
  core::Channel ping_b = w.node(1).open_channel(0, 2, core::TrafficClass::Control);

  // Start a long bulk transfer; the receiver posts the unpack so the data
  // flows "in the background" while we pump for pings.
  const std::size_t kBulkBytes = 32u << 20;
  Bytes bulk = payload(kBulkBytes);
  post_bytes(bulk_tx, bulk, core::SendMode::Later);
  Bytes bulk_out(kBulkBytes);
  core::IncomingMessage bulk_im = bulk_rx.begin_recv();
  bulk_im.unpack(bulk_out.data(), bulk_out.size(), core::RecvMode::Cheaper);

  constexpr int kPings = 40;
  double total = 0, worst = 0;
  Bytes ping = payload(64);
  Bytes pong(64);
  for (int i = 0; i < kPings; ++i) {
    if (policy == Policy::Rebalanced && i == kPings / 4) {
      w.node(0).rebalance_classes();
      w.node(1).rebalance_classes();
    }
    const Nanos t0 = w.now();
    post_bytes(ping_a, ping);
    recv_into(ping_b, pong);
    post_bytes(ping_b, pong);
    recv_into(ping_a, pong);
    const double rtt = to_usec(w.now() - t0);
    total += rtt;
    worst = std::max(worst, rtt);
  }
  bulk_im.finish();
  w.node(0).flush();
  E8Result r;
  r.mean_rtt_us = total / kPings;
  r.worst_rtt_us = worst;
  return r;
}

const char* kNames[] = {"shared", "separated", "rebalanced"};

// The gates compare against the shared run; it is deterministic, so a row
// run on its own (--benchmark_filter) recomputes it once.
double shared_mean_rtt_us() {
  static const double mean = run_classes(Policy::Shared).mean_rtt_us;
  return mean;
}

void BM_E8_TrafficClasses(benchmark::State& state) {
  const auto policy = static_cast<Policy>(state.range(0));
  E8Result r;
  for (auto _ : state) r = run_classes(policy);
  state.counters["mean_ctrl_rtt_us"] = r.mean_rtt_us;
  state.counters["worst_ctrl_rtt_us"] = r.worst_rtt_us;
  state.SetLabel(kNames[state.range(0)]);
  if (policy == Policy::Separated && r.mean_rtt_us > shared_mean_rtt_us() / 10)
    fail_gate(state, "separated control RTT is above a tenth of shared");
  if (policy == Policy::Rebalanced && r.mean_rtt_us >= shared_mean_rtt_us())
    fail_gate(state, "rebalancing did not bring control RTT below shared");
}

// Second scenario: the contention is INSIDE one rail's collect layer —
// bulk-class eager messages (16 KiB, below the rdv threshold) pile up in
// the same backlog as control pings. The class-aware "priority" strategy
// lets control fragments overtake the queued bulk without any resource
// re-assignment; "aggreg" serves the backlog in age order.
double run_backlog_contention(const char* strategy) {
  EngineConfig cfg;
  cfg.strategy = strategy;
  SimWorld w(2, cfg);
  w.connect(0, 1, drv::mx_myrinet_profile());
  core::Channel bulk_tx = w.node(0).open_channel(1, 1, core::TrafficClass::Bulk);
  core::Channel bulk_rx = w.node(1).open_channel(0, 1, core::TrafficClass::Bulk);
  core::Channel ping_a = w.node(0).open_channel(1, 2, core::TrafficClass::Control);
  core::Channel ping_b = w.node(1).open_channel(0, 2, core::TrafficClass::Control);

  constexpr int kPings = 20;
  double total = 0;
  Bytes chunk = payload(16 * 1024);
  Bytes ping = payload(64), pong(64);
  Bytes sink(16 * 1024);
  for (int i = 0; i < kPings; ++i) {
    // Refill the backlog with bulk-class eager messages, then ping.
    for (int k = 0; k < 6; ++k)
      post_bytes(bulk_tx, chunk, core::SendMode::Later);
    const Nanos t0 = w.now();
    post_bytes(ping_a, ping);
    recv_into(ping_b, pong);
    post_bytes(ping_b, pong);
    recv_into(ping_a, pong);
    total += to_usec(w.now() - t0);
    for (int k = 0; k < 6; ++k) recv_into(bulk_rx, sink);
  }
  w.node(0).flush();
  return total / kPings;
}

void BM_E8_BacklogPriority(benchmark::State& state) {
  const char* strategy = state.range(0) ? "priority" : "aggreg";
  double rtt = 0;
  for (auto _ : state) rtt = run_backlog_contention(strategy);
  state.counters["mean_ctrl_rtt_us"] = rtt;
  state.SetLabel(strategy);
}

}  // namespace

BENCHMARK(BM_E8_TrafficClasses)
    ->Arg(0)->Arg(1)->Arg(2)
    ->ArgNames({"policy"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_E8_BacklogPriority)
    ->Arg(0)->Arg(1)
    ->ArgNames({"priority"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_gate_failures > 0) {
    std::fprintf(stderr, "bench_e8_traffic_classes: %d gate(s) failed\n",
                 g_gate_failures);
    return 1;
  }
  return 0;
}

// E6 — paper §2: "dynamic load balancing on multiple resources, multiple
// NICs, or even NICs from multiple technologies."
//
// Workload: one rendezvous bulk transfer over a heterogeneous pair of rails
// (MX/Myrinet ≈ 250 MB/s + Elan/Quadrics ≈ 900 MB/s), under the two kinds
// of Bulk class entry: pinned to rail 0, or kAllRails (stripe).
//
// Expected shape: pinned caps at the chosen rail's bandwidth; stripe
// approaches the 1150 MB/s aggregate — stripe > pinned.
//
// Every gate below records its failure and the binary exits non-zero, so a
// smoke run that only checks the exit status still catches a regression.
// All figures are virtual (simulated) time: identical in every build type.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

using namespace mado;
using namespace mado::bench;

int g_gate_failures = 0;

void fail_gate(benchmark::State& state, const char* why) {
  ++g_gate_failures;
  state.SkipWithError(why);
}

// One transfer with the Bulk class entry set to `bulk_rail` (a rail id
// pins it, core::kAllRails stripes it over every rail).
double run_rails_mbps(core::RailId bulk_rail, std::size_t bytes,
                      const std::vector<drv::Capabilities>& rails) {
  EngineConfig cfg;
  cfg.class_rail[static_cast<std::size_t>(core::TrafficClass::Bulk)] =
      bulk_rail;
  cfg.rdv_chunk = 64 * 1024;
  cfg.rdv_threshold_override = 32 * 1024;
  SimWorld w(2, cfg);
  for (const auto& caps : rails) w.connect(0, 1, caps);
  core::Channel tx = w.node(0).open_channel(1, 7, core::TrafficClass::Bulk);
  core::Channel rx = w.node(1).open_channel(0, 7, core::TrafficClass::Bulk);
  Bytes data = payload(bytes);
  post_bytes(tx, data, core::SendMode::Later);
  Bytes out(bytes);
  recv_into(rx, out);
  w.node(0).flush();
  return static_cast<double>(bytes) / to_usec(w.now());
}

double run_bulk_mbps(core::RailId bulk_rail, std::size_t bytes) {
  return run_rails_mbps(
      bulk_rail, bytes,
      {drv::mx_myrinet_profile(), drv::elan_quadrics_profile()});
}

const char* kPolicyNames[] = {"pinned", "stripe"};
const core::RailId kBulkRails[] = {0, core::kAllRails};

// Floor for the stripe row at each size: the best figure either retired
// chunk splitter (bandwidth-weighted static assignment, shared pull queue)
// reached on this table. Striping must never do worse than they did.
struct StripeFloor {
  std::int64_t bytes;
  double mbps;
};
constexpr StripeFloor kStripeFloors[] = {
    {256 << 10, 961.5}, {1 << 20, 1095.5}, {4 << 20, 1138.3}, {8 << 20, 1139.8}};

void BM_E6_Multirail(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const core::RailId bulk_rail = kBulkRails[state.range(1)];
  double mbps = 0;
  for (auto _ : state) mbps = run_bulk_mbps(bulk_rail, bytes);
  state.counters["MBps"] = mbps;
  state.counters["size_KiB"] = static_cast<double>(bytes >> 10);
  state.SetLabel(kPolicyNames[state.range(1)]);
  if (bulk_rail != core::kAllRails) return;
  for (const StripeFloor& f : kStripeFloors)
    if (f.bytes == state.range(0) && mbps < f.mbps)
      fail_gate(state, "stripe fell below the best retired split policy");
}

// ---- Heterogeneous striping sweep -----------------------------------------
//
// Rails of deliberately skewed speed: 10:1, 4:1 and the 2:1 "10G + 5G" pair
// (1250 / 625 bytes per µs). Rail 0 is the SLOW rail on purpose: "pinned"
// below is Bulk pinned to rail 0, the rail the eager classes use by
// default, so it is the worst single-rail choice striping must beat.
//
// Each configuration emits one machine-readable JSON line on stdout and the
// run *asserts* (fail_gate: the bench exits non-zero):
//   * stripe ≥ 90% of the ideal sum of the two solo-rail bandwidths;
//   * stripe ≥ 1.5× the pinned-to-rail-0 baseline;
//   * Bulk pinned to the FAST rail of the two-rail world is within 2% of
//     the fast rail alone (a pinned entry leaves the plan one rail, and the
//     idle slow rail must neither take nor steal a chunk).

struct RatePair {
  const char* name;
  double slow;  // bytes/µs of rail 0
  double fast;  // bytes/µs of rail 1
};
constexpr RatePair kRatios[] = {
    {"10:1", 125.0, 1250.0},
    {"4:1", 312.0, 1250.0},
    {"2:1(10G+5G)", 625.0, 1250.0},
};

drv::Capabilities rail_at(double bytes_per_us, const char* name) {
  drv::Capabilities caps = drv::elan_quadrics_profile();
  caps.name = name;
  caps.cost.link_bytes_per_us = bytes_per_us;
  caps.bandwidth_hint_bytes_per_us = 0.0;  // plan from the cost model
  return caps;
}

void BM_E6_HeteroStripe(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const RatePair& rp = kRatios[state.range(1)];
  const drv::Capabilities slow = rail_at(rp.slow, "slow");
  const drv::Capabilities fast = rail_at(rp.fast, "fast");

  double stripe = 0, pinned = 0, solo_slow = 0, solo_fast = 0;
  double pinned_fast = 0;
  for (auto _ : state) {
    stripe = run_rails_mbps(core::kAllRails, bytes, {slow, fast});
    pinned = run_rails_mbps(0, bytes, {slow, fast});
    solo_slow = run_rails_mbps(0, bytes, {slow});
    solo_fast = run_rails_mbps(0, bytes, {fast});
    pinned_fast = run_rails_mbps(1, bytes, {slow, fast});
  }
  const double ideal = solo_slow + solo_fast;
  const double efficiency = stripe / ideal;
  const double speedup = stripe / pinned;
  const double pinned_fast_delta = pinned_fast / solo_fast - 1.0;

  state.counters["stripe_MBps"] = stripe;
  state.counters["pinned_MBps"] = pinned;
  state.counters["ideal_MBps"] = ideal;
  state.counters["efficiency"] = efficiency;
  state.counters["speedup_vs_pinned"] = speedup;
  state.SetLabel(rp.name);

  // One JSON row per point, on stderr: stdout belongs to the benchmark
  // reporter, and --benchmark_format=json must stay one parseable document.
  std::fprintf(
      stderr,
      "{\"bench\":\"e6_hetero\",\"ratio\":\"%s\",\"bytes\":%zu,"
      "\"stripe_MBps\":%.1f,\"pinned_MBps\":%.1f,\"solo_slow_MBps\":%.1f,"
      "\"solo_fast_MBps\":%.1f,\"ideal_MBps\":%.1f,\"efficiency\":%.3f,"
      "\"speedup_vs_pinned\":%.2f,\"pinned_fast_MBps\":%.1f,"
      "\"pinned_fast_delta\":%.4f}\n",
      rp.name, bytes, stripe, pinned, solo_slow, solo_fast, ideal,
      efficiency, speedup, pinned_fast, pinned_fast_delta);

  if (efficiency < 0.90)
    fail_gate(state, "striping delivered < 90% of the ideal rail sum");
  if (speedup < 1.5)
    fail_gate(state, "striping < 1.5x over pinning to rail 0");
  if (pinned_fast_delta < -0.02 || pinned_fast_delta > 0.02)
    fail_gate(state,
              "Bulk pinned to the fast rail is not within 2% of it alone");
}

}  // namespace

BENCHMARK(BM_E6_Multirail)
    ->ArgsProduct({{256 << 10, 1 << 20, 4 << 20, 8 << 20}, {0, 1}})
    ->ArgNames({"bytes", "policy"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_E6_HeteroStripe)
    ->ArgsProduct({{4 << 20, 16 << 20}, {0, 1, 2}})
    ->ArgNames({"bytes", "ratio"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_gate_failures > 0) {
    std::fprintf(stderr, "bench_e6_multirail: %d gate(s) failed\n",
                 g_gate_failures);
    return 1;
  }
  return 0;
}

// E6 — paper §2: "dynamic load balancing on multiple resources, multiple
// NICs, or even NICs from multiple technologies."
//
// Workload: one rendezvous bulk transfer over a heterogeneous pair of rails
// (MX/Myrinet ≈ 250 MB/s + Elan/Quadrics ≈ 900 MB/s), under the two bulk
// placement policies.
//
// Expected shape: single-rail caps at the chosen rail's bandwidth; stripe
// approaches the 1150 MB/s aggregate — stripe > single.
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

double run_rails_mbps(core::MultirailPolicy policy, std::size_t bytes,
                      const std::vector<drv::Capabilities>& rails) {
  EngineConfig cfg;
  cfg.multirail = policy;
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

double run_bulk_mbps(core::MultirailPolicy policy, std::size_t bytes) {
  return run_rails_mbps(
      policy, bytes,
      {drv::mx_myrinet_profile(), drv::elan_quadrics_profile()});
}

const char* kPolicyNames[] = {"single-rail", "stripe"};
const core::MultirailPolicy kPolicies[] = {core::MultirailPolicy::SingleRail,
                                           core::MultirailPolicy::Stripe};

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
  const auto policy = kPolicies[state.range(1)];
  double mbps = 0;
  for (auto _ : state) mbps = run_bulk_mbps(policy, bytes);
  state.counters["MBps"] = mbps;
  state.counters["size_KiB"] = static_cast<double>(bytes >> 10);
  state.SetLabel(kPolicyNames[state.range(1)]);
  if (policy != core::MultirailPolicy::Stripe) return;
  for (const StripeFloor& f : kStripeFloors)
    if (f.bytes == state.range(0) && mbps < f.mbps)
      fail_gate(state, "stripe fell below the best retired split policy");
}

// ---- Heterogeneous striping sweep -----------------------------------------
//
// Rails of deliberately skewed speed: 10:1, 4:1 and the 2:1 "10G + 5G" pair
// (1250 / 625 bytes per µs). Rail 0 is the SLOW rail on purpose — the
// default class map pins Bulk to rail 0, so "pinned" below is exactly what
// a transfer gets today with no striping and no manual rail choice.
//
// Each configuration emits one machine-readable JSON line on stdout and the
// run *asserts* (fail_gate: the bench exits non-zero):
//   * stripe ≥ 90% of the ideal sum of the two solo-rail bandwidths;
//   * stripe ≥ 1.5× the single-rail-pinned baseline;
//   * Stripe on ONE rail is within 2% of the pre-stripe SingleRail
//     baseline (the policy must degenerate cleanly).

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
  double one_rail_stripe = 0;
  for (auto _ : state) {
    stripe = run_rails_mbps(core::MultirailPolicy::Stripe, bytes,
                            {slow, fast});
    pinned = run_rails_mbps(core::MultirailPolicy::SingleRail, bytes,
                            {slow, fast});
    solo_slow =
        run_rails_mbps(core::MultirailPolicy::SingleRail, bytes, {slow});
    solo_fast =
        run_rails_mbps(core::MultirailPolicy::SingleRail, bytes, {fast});
    one_rail_stripe =
        run_rails_mbps(core::MultirailPolicy::Stripe, bytes, {fast});
  }
  const double ideal = solo_slow + solo_fast;
  const double efficiency = stripe / ideal;
  const double speedup = stripe / pinned;
  const double one_rail_delta = one_rail_stripe / solo_fast - 1.0;

  state.counters["stripe_MBps"] = stripe;
  state.counters["pinned_MBps"] = pinned;
  state.counters["ideal_MBps"] = ideal;
  state.counters["efficiency"] = efficiency;
  state.counters["speedup_vs_pinned"] = speedup;
  state.SetLabel(rp.name);

  std::printf(
      "{\"bench\":\"e6_hetero\",\"ratio\":\"%s\",\"bytes\":%zu,"
      "\"stripe_MBps\":%.1f,\"pinned_MBps\":%.1f,\"solo_slow_MBps\":%.1f,"
      "\"solo_fast_MBps\":%.1f,\"ideal_MBps\":%.1f,\"efficiency\":%.3f,"
      "\"speedup_vs_pinned\":%.2f,\"one_rail_stripe_MBps\":%.1f,"
      "\"one_rail_delta\":%.4f}\n",
      rp.name, bytes, stripe, pinned, solo_slow, solo_fast, ideal,
      efficiency, speedup, one_rail_stripe, one_rail_delta);

  if (efficiency < 0.90)
    fail_gate(state, "striping delivered < 90% of the ideal rail sum");
  if (speedup < 1.5)
    fail_gate(state, "striping < 1.5x over single-rail pinning");
  if (one_rail_delta < -0.02 || one_rail_delta > 0.02)
    fail_gate(state,
              "Stripe on one rail is not within 2% of the SingleRail baseline");
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

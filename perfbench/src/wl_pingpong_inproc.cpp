// pingpong_inproc: two engines joined by one ShmEndpoint rail and no
// progress threads. The bench thread posts, pumps both engines and
// receives, so every step of the message path runs on one core with no
// thread hand-off and per-message CPU and allocation cost dominate.
// Seeded 8 B - 2 KiB payloads, all eager.
#include <algorithm>
#include <array>
#include <memory>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/shm_driver.hpp"
#include "pingpong.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace mado;
using namespace mado::core;

constexpr ChannelId kChannel = 1;
constexpr std::size_t kPatternBytes = 1 << 16;
constexpr std::size_t kMinPayload = 8;
constexpr std::size_t kMaxPayload = 2048;
constexpr std::uint64_t kTimeoutNs = 2 * kNsPerSec;
/// Round-trip samples kept per phase (16 MB), far above what the host
/// completes in one phase.
constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
/// Messages in the allocation replay, after as many unmeasured warm-up
/// messages: enough to amortise slab and table growth into a steady rate.
constexpr std::size_t kReplayMsgs = 2048;
/// Reconciliation rounds (see reconcile_round) and their tolerance: the
/// median round's ratio must lie in [kReconcileMin, kReconcileMax].
constexpr std::size_t kReconcileRounds = 21;
constexpr double kRoundSeconds = 0.1;
constexpr double kReconcileMin = 0.85;
constexpr double kReconcileMax = 1.10;

struct World {
  static constexpr const char* kName = "pingpong_inproc";
  RealTimerHost ta, tb;
  std::unique_ptr<Engine> a, b;
  drv::ShmEndpoint* ep_a = nullptr;  // owned by the engines
  drv::ShmEndpoint* ep_b = nullptr;
  Channel ca, cb;

  World() {
    const EngineConfig cfg;
    a = std::make_unique<Engine>(0, cfg, ta);
    b = std::make_unique<Engine>(1, cfg, tb);
    auto pair = drv::ShmEndpoint::make_pair();
    ep_a = pair.a.get();
    ep_b = pair.b.get();
    a->add_rail(1, std::move(pair.a));
    b->add_rail(0, std::move(pair.b));
    ca = a->open_channel(1, kChannel);
    cb = b->open_channel(0, kChannel);
  }

  /// No progress threads: pump the sending and the receiving engine until
  /// the receiver's channel shows the message.
  std::size_t one_way(int dir, pingpong::Loop& lp, Chain& ch) {
    Engine& tx = dir == 0 ? *a : *b;
    Engine& rx = dir == 0 ? *b : *a;
    Channel& crx = dir == 0 ? cb : ca;
    auto arrive = [&](std::uint32_t id) {
      std::uint64_t deadline = 0;
      for (std::uint64_t spin = 1;; ++spin) {
        lp.pump.useful += tx.progress() ? 1 : 0;
        ch.mark(kProgressTx, id);
        lp.pump.useful += rx.progress() ? 1 : 0;
        ch.mark(kProgressRx, id);
        lp.pump.calls += 2;
        const bool arrived = crx.probe();
        ch.mark(kRecv, id);
        if (arrived) return true;
        if (spin % 256 == 0) {
          const std::uint64_t now = now_ns();
          if (deadline == 0) deadline = now + kTimeoutNs;
          if (now > deadline) return false;
        }
      }
    };
    return pingpong::one_way(tx, dir == 0 ? ca : cb, crx, lp, ch, kTimeoutNs,
                             arrive);
  }
  Counters counters() const {
    Counters c = a->counters_snapshot();
    c += b->counters_snapshot();
    return c;
  }
};

/// The library layers a one-way message passes through.
constexpr Layer kMessageLayers[] = {kPack,       kPost, kProgressTx,
                                    kProgressRx, kRecv, kWaitSend};

/// One reconciliation round: an untraced stretch, then a traced one, back
/// to back so both see the host in the same state. Returns the layers'
/// summed self time per one-way message over the untraced end-to-end time
/// per one-way message. Every span holds about one mark's worth of tracing
/// work (mark_cost_ns, measured in the round), taken off first. The layers
/// leave out the harness's own work between calls (payload generation and
/// check, bookkeeping: the "bench" span), so the ratio sits a little
/// below 1.
double reconcile_round(std::unique_ptr<World>& w, pingpong::Loop& lp,
                       Report& rep) {
  const PhaseStats un =
      pingpong::run_phase(w, lp, kRoundSeconds, nullptr, rep, 0);
  const double mark_ns = mark_cost_ns();
  SpanLog log(0);
  const PhaseStats tr =
      pingpong::run_phase(w, lp, kRoundSeconds, &log, rep, 0);
  double layers_ns = 0, spans = 0;
  for (Layer l : kMessageLayers) {
    layers_ns += static_cast<double>(log.total(l).ns);
    spans += static_cast<double>(log.total(l).calls);
  }
  const double layer_msg_ns =
      ratio(layers_ns - spans * mark_ns, static_cast<double>(tr.ops));
  const double msg_ns = ratio(un.wall_s * 1e9, static_cast<double>(un.ops));
  return ratio(layer_msg_ns, msg_ns);
}

/// Per-layer allocation totals over kReplayMsgs messages of a fresh world,
/// after kReplayMsgs unmeasured ones. Single-threaded and seeded, so two
/// replays with one seed must agree exactly.
std::array<std::uint64_t, kLayerCount> alloc_replay(const Pattern& pat,
                                                    std::uint64_t seed,
                                                    Report& rep) {
  auto w = std::make_unique<World>();
  pingpong::Loop lp(pat, seed, kMinPayload, kMaxPayload);
  Chain off(nullptr);
  for (std::size_t i = 0; i < kReplayMsgs / 2; ++i)
    pingpong::round_trip(w, lp, off, rep);
  SpanLog log(0);
  Chain ch(&log);
  for (std::size_t i = 0; i < kReplayMsgs / 2; ++i)
    pingpong::round_trip(w, lp, ch, rep);
  std::array<std::uint64_t, kLayerCount> out{};
  for (std::size_t l = 0; l < kLayerCount; ++l)
    out[l] = log.total(static_cast<Layer>(l)).allocs;
  return out;
}

}  // namespace

void run_pingpong_inproc(const RunArgs& args, Report& rep) {
  const Pattern pat(args.seed, kPatternBytes);
  pingpong::Loop lp(pat, args.seed, kMinPayload, kMaxPayload);
  auto m = pingpong::measure<World>(args, rep, lp, kMaxSamples);
  if (!args.trace) return;

  rep.set("core.progress.useful_ratio",
          ratio(static_cast<double>(m.pump.useful),
                static_cast<double>(m.pump.calls)),
          "ratio");
  rep.set("drivers.shm.packets_per_msg",
          ratio(static_cast<double>(m.world->ep_a->packets_sent() +
                                    m.world->ep_b->packets_sent()),
                get(m.world->counters(), "tx.msgs")),
          "ratio");

  // core.reconcile.coverage, the layers' share of the traced half's own
  // message time, is reported only: the chained spans partition that time,
  // so it measures the bench span, not the layers' accuracy.
  double layers_ns = 0;
  for (Layer l : kMessageLayers)
    layers_ns += static_cast<double>(m.log->total(l).ns);
  rep.set("core.reconcile.coverage", ratio(layers_ns, m.traced.wall_s * 1e9),
          "ratio");
  std::vector<double> rounds;
  for (std::size_t i = 0; i < kReconcileRounds; ++i)
    rounds.push_back(reconcile_round(m.world, lp, rep));
  const double reconcile = median(rounds);
  std::fprintf(stderr, "reconcile: median %.3f over %zu rounds (%.3f-%.3f)\n",
               reconcile, rounds.size(),
               *std::min_element(rounds.begin(), rounds.end()),
               *std::max_element(rounds.begin(), rounds.end()));
  rep.set("core.reconcile.ratio", reconcile, "ratio");
  rep.check(reconcile >= kReconcileMin && reconcile <= kReconcileMax,
            "layer self times sum to " + std::to_string(reconcile) +
                " of the untraced one-way message time");

  const auto r1 = alloc_replay(pat, args.seed, rep);
  const auto r2 = alloc_replay(pat, args.seed, rep);
  rep.check(r1 == r2, "allocation replay is not repeatable");
  static const std::pair<Layer, const char*> kAllocs[] = {
      {kPack, "core.pack.allocs"},
      {kPost, "core.post.allocs"},
      {kProgressTx, "core.progress_tx.allocs"},
      {kProgressRx, "core.progress_rx.allocs"},
      {kRecv, "core.recv.allocs"}};
  for (const auto& [layer, name] : kAllocs)
    rep.set(name, static_cast<double>(r1[layer]) / kReplayMsgs, "count");
}

}  // namespace pb

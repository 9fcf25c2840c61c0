// The measuring loop shared by the two ping-pong workloads: one bench
// thread sends a message, receives it on the other engine, then sends the
// next one back. One round trip is two one-way messages; the latency
// sample is the round trip. Messages are an 8 B header (the sequence
// number) plus a seeded payload, one message in flight.
//
// A World type provides
//   std::size_t one_way(int dir, Loop&, Chain&)   dir 0: a -> b, 1: b -> a
//   Counters counters()                           summed over both engines
#pragma once

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/api.hpp"
#include "core/engine.hpp"
#include "harness.hpp"

namespace pb::pingpong {

constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;

/// Engine::progress calls the bench made itself, and how many did work.
struct PumpStats {
  std::uint64_t calls = 0;
  std::uint64_t useful = 0;
};

/// State of one measuring loop: the seeded payload sequence and scratch.
struct Loop {
  Loop(const Pattern& p, std::uint64_t seed, std::size_t min_len,
       std::size_t max_len)
      : pat(p), gen(seed, min_len, max_len, p.size()), rbuf(max_len) {}
  const Pattern& pat;
  SliceGen gen;
  std::vector<std::uint8_t> rbuf;
  std::uint64_t seq = 0;
  PumpStats pump;
};

/// One message from (tx, ctx) to crx, then checked. `arrive(id)` runs
/// between post and receive and returns false if the message did not
/// arrive in time. Returns the payload bytes delivered, 0 on a failure.
template <class Arrive>
std::size_t one_way(mado::core::Engine& tx, mado::core::Channel& ctx,
                    mado::core::Channel& crx, Loop& lp, Chain& ch,
                    std::uint64_t timeout_ns, Arrive&& arrive) {
  using namespace mado::core;
  const std::uint64_t seq = ++lp.seq;
  const auto id = static_cast<std::uint32_t>(seq);
  const Slice s = lp.gen.next();
  const std::uint64_t hdr = seq;
  ch.mark(kBench, id);
  Message m;
  m.pack(&hdr, sizeof hdr);
  m.pack(lp.pat.at(s.off), s.len);
  ch.mark(kPack, id);
  const SendHandle h = ctx.post(std::move(m));
  ch.mark(kPost, id);
  if (!arrive(id)) return 0;
  IncomingMessage im = crx.begin_recv();
  std::uint64_t got = 0;
  im.unpack(&got, sizeof got);
  im.unpack(lp.rbuf.data(), s.len);
  im.finish();
  ch.mark(kRecv, id);
  const bool sent = tx.wait_send(h, timeout_ns);
  ch.mark(kWaitSend, id);
  const bool ok = sent && got == seq &&
                  std::memcmp(lp.rbuf.data(), lp.pat.at(s.off), s.len) == 0;
  ch.mark(kBench, id);
  return ok ? s.len : 0;
}

/// One round trip a -> b -> a; returns the payload bytes delivered. A
/// failed message (or a library error) counts as a failure and replaces
/// the world, whose channels may be out of step; the run goes on.
template <class World>
std::uint64_t round_trip(std::unique_ptr<World>& w, Loop& lp, Chain& ch,
                         Report& rep) {
  std::uint64_t bytes = 0;
  for (int dir = 0; dir < 2; ++dir) {
    std::size_t n = 0;
    try {
      n = w->one_way(dir, lp, ch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", World::kName, e.what());
    }
    rep.op(n > 0);
    if (n == 0) {
      w = std::make_unique<World>();
      return 0;
    }
    bytes += n;
  }
  return bytes;
}

template <class World>
PhaseStats run_phase(std::unique_ptr<World>& w, Loop& lp, double seconds,
                     SpanLog* log, Report& rep, std::size_t max_samples) {
  PhaseRecorder rec(seconds, max_samples);
  Chain ch(log);
  std::uint64_t t = now_ns();
  for (;;) {
    const std::uint64_t bytes = round_trip(w, lp, ch, rep);
    const std::uint64_t now = now_ns();
    if (bytes) rec.sample(now - t);
    const bool more = rec.record(now, bytes ? 2 : 0, bytes);
    ch.mark(kBench, 0);
    if (!more) break;
    t = now;
  }
  return rec.finish();
}

/// Everything both ping-pong workloads measure the same way.
template <class World>
struct Measured {
  std::unique_ptr<World> world;
  PumpStats pump;  // over the untraced phase
  PhaseStats untraced, traced;
  ProcWindow proc;
  Counters counters;  // engine counter deltas over the untraced phase
  std::unique_ptr<SpanLog> log;
};

/// Time set-ups (world build through the first delivered message), warm
/// up, run the untraced phase and, for trace runs, the traced phase, whose
/// spans are exported. For trace 0 runs a second batch of set-ups follows
/// the untraced phase and the end-to-end metrics are reported here.
template <class World>
Measured<World> measure(const RunArgs& args, Report& rep, Loop& lp,
                        std::size_t max_samples) {
  Measured<World> m;
  SetupTimer setup;
  const auto setup_once = [&] {
    const std::uint64_t t0 = now_ns();
    auto w = std::make_unique<World>();
    Loop first(lp.pat, args.seed, 8, 8);
    Chain off(nullptr);
    std::size_t n = 0;
    try {
      n = w->one_way(0, first, off);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s setup: %s\n", World::kName, e.what());
    }
    rep.op(n > 0);
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  setup.batch(setup_once);

  m.world = std::make_unique<World>();
  run_phase(m.world, lp, warmup_s(args.seconds), nullptr, rep, 0);
  const Counters c0 = m.world->counters();
  const PumpStats p0 = lp.pump;
  m.proc.begin();
  m.untraced =
      run_phase(m.world, lp, phase_s(args), nullptr, rep, max_samples);
  m.proc.end();
  m.counters = delta(c0, m.world->counters());
  m.pump = {lp.pump.calls - p0.calls, lp.pump.useful - p0.useful};
  if (!args.trace) {
    setup.batch(setup_once);
    report_end_to_end(rep, setup.median_s(), m.untraced);
    return m;
  }

  m.log = std::make_unique<SpanLog>(kSpanCapacity);
  const std::uint64_t origin = now_ns();
  m.traced =
      run_phase(m.world, lp, phase_s(args), m.log.get(), rep, max_samples);
  export_spans(args, {{"main", m.log.get()}}, origin);
  report_span_layers(rep, {m.log.get()},
                     static_cast<double>(m.traced.ops));
  report_engine_counters(rep, m.counters,
                         static_cast<double>(m.untraced.ops));
  report_common_layers(rep, m.untraced, m.traced, m.proc, {current_tid()});
  return m;
}

}  // namespace pb::pingpong

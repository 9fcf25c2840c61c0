// collective_sim: a 32-node fully connected SimWorld (MX profile) driven
// by one thread through a seeded sequence of barrier, 8-double allreduce,
// 256 KiB allreduce, 64 KiB bcast (seeded root) and 1 KiB-block alltoall,
// every result checked. The only workload that exercises the collectives
// (mw.coll) and the simulator (sim), at many peers per engine.
//
// The sequence runs in cycles that hold each operation once, in a seeded
// order, so every seed gives the same mix. The latency sample is one
// cycle's wall time: for each collective, creating the ranks' operations,
// drive_all, and draining the fabric with SimWorld::run.
#include <array>
#include <cstring>
#include <memory>

#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "mw/collectives.hpp"
#include "tests/mw/collective_oracle.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace mado;
using mw::CollKind;
using mw::Collectives;

constexpr mw::CollRank kNodes = 32;
constexpr std::size_t kPatternBytes = 1 << 20;
constexpr std::size_t kMaxSamples = std::size_t{1} << 18;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;

enum Op { kBarrier, kAllreduce8, kAllreduce256k, kBcast64k, kAlltoall1k,
          kOpCount };
struct OpInfo {
  const char* name;
  CollKind kind;
  std::size_t bytes;  // vector bytes; per-(src,dst) block for alltoall
};
constexpr OpInfo kOps[kOpCount] = {
    {"barrier", CollKind::Barrier, 0},
    {"allreduce8", CollKind::Allreduce, 8 * sizeof(double)},
    {"allreduce256k", CollKind::Allreduce, 256 * 1024},
    {"bcast64k", CollKind::Bcast, 64 * 1024},
    {"alltoall1k", CollKind::Alltoall, 1024},
};

/// Payload bytes one operation delivers across all ranks.
std::uint64_t delivered_bytes(Op op) {
  const std::uint64_t b = kOps[op].bytes;
  switch (op) {
    case kAllreduce8:
    case kAllreduce256k: return b * kNodes;
    case kBcast64k: return b * (kNodes - 1);
    case kAlltoall1k: return b * kNodes * (kNodes - 1);
    default: return 0;
  }
}

drv::Capabilities caps() { return drv::mx_myrinet_profile(); }

struct World {
  core::SimWorld sim{kNodes};
  std::vector<std::unique_ptr<Collectives>> colls;
  World() {
    const drv::Capabilities c = caps();
    for (mw::CollRank a = 0; a < kNodes; ++a)
      for (mw::CollRank b = a + 1; b < kNodes; ++b) sim.connect(a, b, c);
    for (mw::CollRank r = 0; r < kNodes; ++r)
      colls.push_back(std::make_unique<Collectives>(sim.node(r), r, kNodes));
  }
  Counters counters() {
    Counters c;
    for (mw::CollRank r = 0; r < kNodes; ++r)
      c += sim.node(r).counters_snapshot();
    return c;
  }
};

/// Forwards to a rank's operation and closes a span around each step.
class TimedOp final : public Collectives::Op {
 public:
  TimedOp(Collectives::Op& inner, Chain& ch, std::uint32_t id)
      : inner_(inner), ch_(ch), id_(id) {}
  bool step() override {
    const bool progressed = inner_.step();
    ch_.mark(kCollStep, id_);
    return progressed;
  }
  bool done() const override { return inner_.done(); }

 private:
  Collectives::Op& inner_;
  Chain& ch_;
  std::uint32_t id_;
};

struct OpResult {
  bool ok = false;
  std::uint64_t wall_ns = 0;
  Nanos virt_ns = 0;
  std::uint64_t events = 0;
};

/// Buffers and per-operation scratch, allocated once per run so the
/// measured loop allocates only inside the library.
class Runner {
 public:
  Runner(const Pattern& pat, std::uint64_t seed)
      : pat_(pat), rng_(seed) {
    const std::size_t n = kOps[kAllreduce256k].bytes / sizeof(double);
    for (mw::CollRank r = 0; r < kNodes; ++r) {
      din_.emplace_back(n);
      dout_.emplace_back(n);
      bbuf_.emplace_back(kOps[kBcast64k].bytes);
      asend_.emplace_back(kOps[kAlltoall1k].bytes * kNodes);
      arecv_.emplace_back(kOps[kAlltoall1k].bytes * kNodes);
    }
    ops_.resize(kNodes);
    raw_.reserve(kNodes);
    timed_.reserve(kNodes);
  }

  bool cycle_done() const { return cycle_pos_ == kOpCount; }

  /// The next operation of the seeded sequence.
  Op next_op() {
    if (cycle_pos_ == kOpCount) {
      for (int i = kOpCount - 1; i > 0; --i)
        std::swap(cycle_[static_cast<std::size_t>(i)],
                  cycle_[rng_.range(0, static_cast<std::uint64_t>(i))]);
      cycle_pos_ = 0;
    }
    return cycle_[cycle_pos_++];
  }

  /// Run one collective on every rank and check every rank's result. A
  /// traced run also times a fresh CollectivePlanner::plan of the same
  /// shape, outside the operation's wall time.
  OpResult run(World& w, Op op, Chain& ch, std::uint32_t id) {
    const std::uint64_t salt = rng_.next();
    const auto root = static_cast<mw::CollRank>(salt % kNodes);
    prepare(op, salt, root);
    ch.mark(kBench, id);
    if (ch.on()) {
      const auto plan = w.colls[0]->planner().plan(
          kOps[op].kind, kOps[op].bytes, root, mw::CollAlgo::Auto,
          kOps[op].kind == CollKind::Allreduce ? sizeof(double) : 1);
      ch.mark(kPlan, id);
    }

    OpResult res;
    const std::uint64_t t0 = now_ns();
    const Nanos v0 = w.sim.now();
    for (mw::CollRank r = 0; r < kNodes; ++r) ops_[r] = create(w, op, r, root);
    raw_.clear();
    timed_.clear();
    for (auto& o : ops_) {
      if (ch.on()) {
        timed_.emplace_back(*o, ch, id);
        raw_.push_back(&timed_.back());
      } else {
        raw_.push_back(o.get());
      }
    }
    ch.mark(kCollCreate, id);
    Pump pump{&w, &ch, id, 0};
    const bool done =
        mw::drive_all([p = &pump] { return p->step(); }, raw_);
    res.virt_ns = w.sim.now() - v0;
    res.events = pump.events + w.sim.run();
    ch.mark(kSimDrain, id);
    res.wall_ns = now_ns() - t0;
    res.ok = done && verify(op, salt, root);
    ch.mark(kBench, id);
    return res;
  }

 private:
  struct Pump {
    World* w;
    Chain* ch;
    std::uint32_t id;
    std::uint64_t events;
    bool step() {
      const bool stepped = w->sim.fabric().step();
      events += stepped ? 1 : 0;
      ch->mark(kSimStep, id);
      return stepped;
    }
  };

  static double input(std::uint64_t salt, mw::CollRank r, std::size_t i) {
    return static_cast<double>(salt % 1000 + 3 * r + i % 97);
  }
  static double expected_sum(std::uint64_t salt, std::size_t i) {
    return static_cast<double>(kNodes * (salt % 1000) +
                               3 * kNodes * (kNodes - 1) / 2 +
                               kNodes * (i % 97));
  }
  std::size_t block_off(std::uint64_t salt, mw::CollRank src,
                        mw::CollRank dst) const {
    const std::size_t span = pat_.size() - kOps[kAlltoall1k].bytes;
    return static_cast<std::size_t>((salt + (src * kNodes + dst) * 7919) %
                                    span);
  }

  const std::uint8_t* bcast_src(std::uint64_t salt) const {
    return pat_.at(salt % (pat_.size() - kOps[kBcast64k].bytes));
  }

  void prepare(Op op, std::uint64_t salt, mw::CollRank root) {
    switch (op) {
      case kAllreduce8:
      case kAllreduce256k: {
        const std::size_t n = kOps[op].bytes / sizeof(double);
        for (mw::CollRank r = 0; r < kNodes; ++r)
          for (std::size_t i = 0; i < n; ++i) {
            din_[r][i] = input(salt, r, i);
            dout_[r][i] = -1;
          }
        break;
      }
      case kBcast64k:
        for (mw::CollRank r = 0; r < kNodes; ++r)
          if (r == root)
            std::memcpy(bbuf_[r].data(), bcast_src(salt), bbuf_[r].size());
          else
            std::memset(bbuf_[r].data(), 0xee, bbuf_[r].size());
        break;
      case kAlltoall1k: {
        const std::size_t blk = kOps[op].bytes;
        for (mw::CollRank r = 0; r < kNodes; ++r) {
          for (mw::CollRank d = 0; d < kNodes; ++d)
            std::memcpy(asend_[r].data() + d * blk,
                        pat_.at(block_off(salt, r, d)), blk);
          std::memset(arecv_[r].data(), 0xee, arecv_[r].size());
        }
        break;
      }
      default:
        break;
    }
  }

  std::unique_ptr<Collectives::Op> create(World& w, Op op, mw::CollRank r,
                                          mw::CollRank root) {
    Collectives& c = *w.colls[r];
    switch (op) {
      case kBarrier: return c.barrier();
      case kAllreduce8:
      case kAllreduce256k:
        return c.allreduce_sum(din_[r].data(), dout_[r].data(),
                               kOps[op].bytes / sizeof(double));
      case kBcast64k:
        return c.bcast(bbuf_[r].data(), bbuf_[r].size(), root);
      default:
        return c.alltoall(asend_[r].data(), arecv_[r].data(),
                          kOps[kAlltoall1k].bytes);
    }
  }

  bool verify(Op op, std::uint64_t salt, mw::CollRank root) const {
    switch (op) {
      case kAllreduce8:
      case kAllreduce256k: {
        const std::size_t n = kOps[op].bytes / sizeof(double);
        for (mw::CollRank r = 0; r < kNodes; ++r)
          for (std::size_t i = 0; i < n; ++i)
            if (dout_[r][i] != expected_sum(salt, i)) return false;
        return true;
      }
      case kBcast64k:
        for (mw::CollRank r = 0; r < kNodes; ++r)
          if (std::memcmp(bbuf_[r].data(), bcast_src(salt),
                          bbuf_[r].size()) != 0)
            return false;
        return true;
      case kAlltoall1k: {
        const std::size_t blk = kOps[op].bytes;
        for (mw::CollRank r = 0; r < kNodes; ++r)
          for (mw::CollRank s = 0; s < kNodes; ++s)
            if (std::memcmp(arecv_[r].data() + s * blk,
                            pat_.at(block_off(salt, s, r)), blk) != 0)
              return false;
        return true;
      }
      default:
        return true;
    }
  }

  const Pattern& pat_;
  Rng rng_;
  std::array<Op, kOpCount> cycle_{kBarrier, kAllreduce8, kAllreduce256k,
                                  kBcast64k, kAlltoall1k};
  std::size_t cycle_pos_ = kOpCount;
  std::vector<std::vector<double>> din_, dout_;
  std::vector<std::vector<std::uint8_t>> bbuf_, asend_, arecv_;
  std::vector<std::unique_ptr<Collectives::Op>> ops_;
  std::vector<Collectives::Op*> raw_;
  std::vector<TimedOp> timed_;
};

struct PhaseOut {
  PhaseStats stats;
  std::uint64_t events = 0;
  std::array<double, kOpCount> virt_sum{};
  std::array<std::uint64_t, kOpCount> count{};
};

/// One collective with failure accounting: a failed operation replaces the
/// world (its channels may be out of step) and the run goes on.
OpResult run_checked(std::unique_ptr<World>& w, Runner& run, Op op,
                     Chain& ch, std::uint32_t id, Report& rep) {
  OpResult res;
  try {
    res = run.run(*w, op, ch, id);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "collective_sim: %s\n", e.what());
  }
  rep.op(res.ok);
  if (!res.ok) {
    std::fprintf(stderr, "collective_sim: %s failed\n", kOps[op].name);
    w = std::make_unique<World>();
  }
  return res;
}

PhaseOut run_phase(std::unique_ptr<World>& w, Runner& run, double seconds,
                   SpanLog* log, Report& rep, std::size_t max_samples,
                   std::uint32_t& id) {
  PhaseOut out;
  PhaseRecorder rec(seconds, max_samples);
  Chain ch(log);
  // Counted into the recorder a whole cycle at a time, so every window
  // holds the same mix of operations, and sampled per cycle: a percentile
  // over five different operations would fall between their times.
  std::uint64_t ops = 0, bytes = 0, cycle_ns = 0;
  for (;;) {
    const Op op = run.next_op();
    const OpResult r = run_checked(w, run, op, ch, ++id, rep);
    if (r.ok) {
      cycle_ns += r.wall_ns;
      ++ops;
      bytes += delivered_bytes(op);
      out.events += r.events;
      out.virt_sum[op] += static_cast<double>(r.virt_ns);
      ++out.count[op];
    }
    ch.mark(kBench, 0);
    if (!run.cycle_done()) continue;
    if (ops == kOpCount) rec.sample(cycle_ns);
    const bool more = rec.record(now_ns(), ops, bytes);
    ops = bytes = cycle_ns = 0;
    if (!more) break;
  }
  out.stats = rec.finish();
  return out;
}

/// `run` is made once, outside the timed span: its buffers are the
/// benchmark's, not the world's.
double setup_once(Runner& run, Report& rep) {
  const std::uint64_t t0 = now_ns();
  auto w = std::make_unique<World>();
  Chain off(nullptr);
  run_checked(w, run, kBarrier, off, 0, rep);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace

void run_collective_sim(const RunArgs& args, Report& rep) {
  const Pattern pat(args.seed, kPatternBytes);
  Runner setup_run(pat, args.seed);
  SetupTimer setup;
  setup.batch([&] { return setup_once(setup_run, rep); });

  auto w = std::make_unique<World>();
  Runner run(pat, args.seed);
  std::uint32_t id = 0;
  run_phase(w, run, warmup_s(args.seconds), nullptr, rep, 0, id);

  const Counters c0 = w->counters();
  ProcWindow pw;
  pw.begin();
  const PhaseOut un =
      run_phase(w, run, phase_s(args), nullptr, rep, kMaxSamples, id);
  pw.end();
  const Counters d = delta(c0, w->counters());
  if (!args.trace) {
    // The second batch of set-ups runs without the measured world, so the
    // peak resident set stays that of one world.
    w.reset();
    setup.batch([&] { return setup_once(setup_run, rep); });
    report_end_to_end(rep, setup.median_s(), un.stats);
    return;
  }

  SpanLog log(kSpanCapacity);
  const std::uint64_t origin = now_ns();
  const PhaseOut tr =
      run_phase(w, run, phase_s(args), &log, rep, kMaxSamples, id);
  export_spans(args, {{"main", &log}}, origin);

  const auto ops = static_cast<double>(un.stats.ops);
  report_engine_counters(rep, d, get(d, "tx.msgs"));
  report_common_layers(rep, un.stats, tr.stats, pw, {current_tid()});
  rep.set("mw.plan.ns",
          ratio(static_cast<double>(log.total(kPlan).ns),
                static_cast<double>(log.total(kPlan).calls)),
          "ns");
  rep.set("mw.coll.steps_per_op", ratio(get(d, "coll.steps"), ops), "ratio");
  rep.set("mw.coll.allocs_per_op",
          ratio(static_cast<double>(pw.allocs1 - pw.allocs0), ops), "count");
  rep.set("sim.events_per_op", ratio(static_cast<double>(un.events), ops),
          "ratio");
  rep.set("sim.ns_per_event",
          ratio(static_cast<double>(log.total(kSimStep).ns +
                                    log.total(kSimDrain).ns),
                static_cast<double>(tr.events)),
          "ns");
  for (int op = 0; op < kOpCount; ++op) {
    const double virt_ns = ratio(un.virt_sum[op],
                                 static_cast<double>(un.count[op]));
    const Nanos bound = mw::oracle::lower_bound(kOps[op].kind, kNodes,
                                                kOps[op].bytes, caps());
    const std::string base = std::string("mw.coll.") + kOps[op].name;
    rep.set(base + ".virtual_us", virt_ns / 1e3, "sim_us");
    rep.set(base + ".oracle_gap", ratio(virt_ns, static_cast<double>(bound)),
            "ratio");
  }
}

}  // namespace pb

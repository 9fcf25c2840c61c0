// Measurement harness shared by the benchmark workloads: clocks, seeded
// inputs, allocation counters, /proc readers, the host-speed probe, the
// in-memory span log, phase recorders and the result report.
//
// Everything here observes the mado libraries from outside: spans are
// taken around calls into their public functions, counters are read
// through Engine::counters_snapshot() and the driver endpoints' getters.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

// ---- time ------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
std::uint64_t process_cpu_ns();
constexpr std::uint64_t kNsPerSec = 1'000'000'000;

// ---- heap allocations (alloc_count.cpp) -----------------------------------

/// operator new calls made by the calling thread since it started.
std::uint64_t thread_allocs();
/// operator new calls made by every thread of the process.
std::uint64_t process_allocs();

// ---- seeded inputs ---------------------------------------------------------

/// SplitMix64: the only source of randomness, so a seed fixes every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t s_;
};

/// Read-only random bytes that every payload is cut from. Sender and
/// checker derive the same (offset, length) slices from the seed, so a
/// payload is checked against its seeded pattern without storing it.
class Pattern {
 public:
  Pattern(std::uint64_t seed, std::size_t bytes);
  const std::uint8_t* at(std::size_t off) const { return bytes_.data() + off; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

struct Slice {
  std::size_t off = 0;
  std::size_t len = 0;
};

/// One flow's seeded payload sequence: lengths uniform in [min_len,
/// max_len], offsets uniform over the pattern.
class SliceGen {
 public:
  SliceGen(std::uint64_t seed, std::size_t min_len, std::size_t max_len,
           std::size_t pattern_bytes)
      : rng_(seed), min_(min_len), max_(max_len), pat_(pattern_bytes) {}
  Slice next() {
    Slice s;
    s.len = rng_.range(min_, max_);
    s.off = rng_.range(0, pat_ - s.len);
    return s;
  }

 private:
  Rng rng_;
  std::size_t min_, max_, pat_;
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample of n values.
double quantile_sorted(const std::uint32_t* v, std::size_t n, double q);
double median(std::vector<double> v);
/// Mean of the values less the highest and the lowest tenth (all of them
/// when there are fewer than ten).
double trimmed_mean(std::vector<double> v);

// ---- /proc -----------------------------------------------------------------

int current_tid();
/// tid -> utime + stime in clock ticks, for every thread of the process.
std::map<int, std::uint64_t> task_cpu_ticks();
double ticks_to_us(std::uint64_t ticks);
double peak_rss_mb();
/// CPU time the hypervisor gave to other guests while this VM's vCPUs
/// wanted it ("steal" in /proc/stat), summed over all vCPUs, in clock
/// ticks; 0 where the kernel does not report it.
std::uint64_t steal_ticks();

// ---- host-speed probe ------------------------------------------------------

/// Median time (ns) of a fixed integer + memcpy loop. Timed at the start
/// and end of every run so host drift can be told from a regression; it
/// is reported only, never used to scale other metrics.
double host_calib_ns();

// ---- spans -----------------------------------------------------------------

/// The layer a span's time belongs to. kBench is the harness's own work
/// between library calls (payload checks, bookkeeping).
enum Layer : std::uint8_t {
  kBench,
  kPack,        // core.collect: Message::pack
  kPost,        // core.collect: Channel::post (incl. inline pump)
  kProgressTx,  // core.progress: Engine::progress on the sending engine
  kProgressRx,  // core.progress: Engine::progress on the receiving engine
  kRecv,        // core.rx: probe/begin_recv/unpack/finish
  kWaitSend,    // core: Engine::wait_send
  kPlan,        // mw.coll: CollectivePlanner::plan
  kCollCreate,  // mw.coll: Collectives::<op>() on every rank
  kCollStep,    // mw.coll: Collectives::Op::step inside drive_all
  kSimStep,     // sim: Fabric::step inside drive_all
  kSimDrain,    // sim: SimWorld::run after a collective
  kLayerCount
};
const char* layer_name(Layer l);

/// One thread's spans. Spans live in a buffer reserved up front (so
/// recording never allocates) and are written out after the run; the
/// per-layer totals cover every span, including those past the buffer.
class SpanLog {
 public:
  struct Rec {
    std::uint64_t start = 0;
    std::uint32_t dur = 0;
    std::uint32_t id = 0;
    std::uint32_t allocs = 0;
    std::uint8_t layer = 0;
  };
  struct Total {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t allocs = 0;
  };

  explicit SpanLog(std::size_t capacity) { recs_.reserve(capacity); }

  void add(Layer l, std::uint32_t id, std::uint64_t t0, std::uint64_t t1,
           std::uint64_t allocs) {
    Total& t = totals_[l];
    t.ns += t1 - t0;
    ++t.calls;
    t.allocs += allocs;
    if (recs_.size() < recs_.capacity())
      recs_.push_back({t0, static_cast<std::uint32_t>(t1 - t0), id,
                       static_cast<std::uint32_t>(allocs),
                       static_cast<std::uint8_t>(l)});
  }
  const Total& total(Layer l) const { return totals_[l]; }
  /// CSV rows: thread,id,layer,start_ns,dur_ns,allocs (start relative to
  /// `origin`).
  void write_csv(std::FILE* f, const char* thread, std::uint64_t origin) const;

 private:
  std::vector<Rec> recs_;
  std::array<Total, kLayerCount> totals_{};
};

/// Chained span clock: one clock read per boundary. Each mark() closes the
/// span that began at the previous mark, so consecutive marks partition
/// the thread's time into layers without gaps. With a null log every call
/// is a no-op (the untraced run).
class Chain {
 public:
  explicit Chain(SpanLog* log) : log_(log) {
    if (!log_) return;
    t_ = now_ns();
    a_ = thread_allocs();
  }
  void mark(Layer l, std::uint32_t id) {
    if (!log_) return;
    const std::uint64_t t = now_ns();
    const std::uint64_t a = thread_allocs();
    log_->add(l, id, t_, t, a - a_);
    t_ = t;
    a_ = a;
  }
  bool on() const { return log_ != nullptr; }

 private:
  SpanLog* log_;
  std::uint64_t t_ = 0;
  std::uint64_t a_ = 0;
};

/// Cost (ns) of one Chain::mark into a live log: a clock read, an
/// allocation-counter read and a log entry. A mark's work falls partly in
/// the span it closes and partly in the one it opens, so each span's
/// duration holds about one mark's cost of tracing.
double mark_cost_ns();

// ---- phases ----------------------------------------------------------------

/// Length of one measurement window (see PhaseRecorder::finish).
constexpr double kWindowSeconds = 0.1;
/// Largest share of the VM's CPU time the hypervisor may have taken in a
/// window for the window to be used (see PhaseRecorder::finish).
constexpr double kMaxSteal = 0.01;
/// Fewest samples a p99 is taken over: ten lie beyond it. A phase with
/// fewer samples in all reports the quantile with ten beyond it instead.
constexpr std::size_t kTailSamples = 1000;

/// End-to-end figures of one measured phase: rates, CPU per operation and
/// latency percentiles per window, reduced over the windows (see finish());
/// `ops` and `wall_s` cover the whole phase.
struct PhaseStats {
  double ops_per_s = 0;
  double mb_per_s = 0;
  double cpu_us_per_op = 0;
  double p50_us = 0, p99_us = 0;
  double p999_us = 0;       // over the whole phase
  double steal_pct = 0;     // CPU time the hypervisor took, whole phase
  double used_windows = 0;  // share of the windows the timings rest on
  std::size_t samples = 0;
  std::uint64_t ops = 0;
  double wall_s = 0;
};

/// Records one phase from the measuring thread: an operation count, the
/// payload bytes those operations delivered, optional latency samples,
/// and equal time windows of about kWindowSeconds.
class PhaseRecorder {
 public:
  PhaseRecorder(double seconds, std::size_t max_samples);
  /// Count `ops` completed operations carrying `bytes` payload bytes.
  /// Returns false once the phase's time is up.
  bool record(std::uint64_t now, std::uint64_t ops, std::uint64_t bytes) {
    ops_ += ops;
    bytes_ += bytes;
    if (now < next_) return true;
    return roll(now);
  }
  void sample(std::uint64_t lat_ns) {
    if (n_ < lat_.size())
      lat_[n_++] = static_cast<std::uint32_t>(
          lat_ns > 0xffffffffull ? 0xffffffffull : lat_ns);
  }
  PhaseStats finish();

 private:
  bool roll(std::uint64_t now);
  struct Mark {
    std::uint64_t t, ops, bytes, cpu, steal;
    std::size_t samples;
  };
  std::vector<Mark> marks_;
  /// Sized and zero-filled up front, so the sample store's resident size
  /// does not grow with throughput (peak_rss_mb would follow it).
  std::vector<std::uint32_t> lat_;
  std::size_t n_ = 0;
  std::uint64_t ops_ = 0, bytes_ = 0;
  std::uint64_t step_, next_, end_;
};

// ---- counters --------------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t, std::less<>>;
/// Sum of several engines' counters_snapshot() maps.
Counters& operator+=(Counters& a, const Counters& b);
/// b - a per key (counters are monotonic).
Counters delta(const Counters& a, const Counters& b);
inline double get(const Counters& c, const char* key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : static_cast<double>(it->second);
}
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- report ----------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where span CSVs are written (trace runs)
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// One operation's outcome; a failure never stops the run.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A benchmark self-check; its failure marks the run incorrect.
  void check(bool ok, const std::string& what);
  /// The result line with exactly the metrics in `spec`; one the run did
  /// not set reads 0.
  std::string json(const std::vector<MetricSpec>& spec);

  bool self_checks_ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Value {
    double v;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
};

// ---- shared workload plumbing ----------------------------------------------

/// Set-ups a batch times at least, and the time it keeps repeating them.
constexpr std::size_t kMinSetups = 21;
constexpr double kSetupBatchSeconds = 0.5;

/// Times set-ups: world build through the first completed operation. A
/// run takes one batch before its measured phase and one after it, and
/// reports the median of both, so the figure does not rest on the host's
/// speed during a single half second. `once` builds a world, runs its
/// first operation and returns the elapsed seconds; the world is torn
/// down outside the timed span.
class SetupTimer {
 public:
  /// At least kMinSetups set-ups and kSetupBatchSeconds, at most 1001.
  template <class Once>
  void batch(Once&& once) {
    const std::uint64_t start = now_ns();
    const auto min_ns = static_cast<std::uint64_t>(kSetupBatchSeconds * 1e9);
    std::size_t n = 0;
    do {
      v_.push_back(once());
      ++n;
    } while (n < 1001 && (n < kMinSetups || now_ns() - start < min_ns));
  }
  double median_s() const { return median(v_); }

 private:
  std::vector<double> v_;
};

/// Warm-up before any measured phase: caches fill and lazy set-up ends.
inline double warmup_s(double seconds) {
  return seconds * 0.05 < 0.5 ? seconds * 0.05 : 0.5;
}

/// Untraced end-to-end phase length and, for trace runs, the split into
/// an untraced half and a traced half.
inline double phase_s(const RunArgs& a) {
  return a.trace ? a.seconds / 2 : a.seconds;
}

/// Fill the end-to-end metrics from an untraced phase.
void report_end_to_end(Report& r, double setup_s, const PhaseStats& s);

/// Per-thread CPU ticks and process-wide allocations across a phase.
struct ProcWindow {
  std::map<int, std::uint64_t> ticks0, ticks1;
  std::uint64_t allocs0 = 0, allocs1 = 0;
  std::size_t threads = 0;
  void begin();
  void end();
};

/// Fill the per-layer metrics every workload shares: tail latency, trace
/// overhead, CPU split (threads in `bench_tids` are the benchmark's own),
/// allocation rate and thread count.
void report_common_layers(Report& r, const PhaseStats& untraced,
                          const PhaseStats& traced, const ProcWindow& pw,
                          const std::vector<int>& bench_tids);

/// Engine-counter metrics over a phase (`d` is the summed delta of every
/// engine in the world); `msgs` normalises the per-message ratios.
void report_engine_counters(Report& r, const Counters& d, double msgs);

/// Span metrics shared by the message workloads: per-message self time of
/// each core layer that has spans.
void report_span_layers(Report& r, const std::vector<const SpanLog*>& logs,
                        double msgs);

/// Write every log's spans to <trace_dir>/<workload>.spans.csv.
void export_spans(const RunArgs& a,
                  const std::vector<std::pair<const char*, const SpanLog*>>&
                      logs,
                  std::uint64_t origin);

}  // namespace pb

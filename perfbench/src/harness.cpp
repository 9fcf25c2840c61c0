#include "harness.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

namespace pb {

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * kNsPerSec +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Pattern::Pattern(std::uint64_t seed, std::size_t bytes) : bytes_(bytes) {
  Rng rng(seed ^ 0x7061747465726eull);
  for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(bytes_.data() + i, &v, 8);
  }
}

double quantile_sorted(const std::uint32_t* v, std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, n) - 1]);
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// ---- /proc -----------------------------------------------------------------

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

std::map<int, std::uint64_t> task_cpu_ticks() {
  std::map<int, std::uint64_t> out;
  DIR* d = opendir("/proc/self/task");
  if (!d) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    if (!std::getline(f, line)) continue;
    // Fields after the parenthesised command: state is field 3, utime 14,
    // stime 15 (1-based, see proc(5)).
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    std::uint64_t utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    out[std::atoi(e->d_name)] = utime + stime;
  }
  closedir(d);
  return out;
}

std::uint64_t steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  f >> cpu;
  for (std::uint64_t& x : v) f >> x;
  return f ? v[7] : 0;
}

double ticks_to_us(std::uint64_t ticks) {
  return static_cast<double>(ticks) * 1e6 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

// ---- host-speed probe ------------------------------------------------------

double host_calib_ns() {
  static std::vector<std::uint8_t> a(256 * 1024, 1), b(256 * 1024, 2);
  std::vector<double> t;
  std::uint64_t h = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 16; ++i) {
      std::memcpy(b.data(), a.data(), a.size());
      for (std::size_t j = 0; j < b.size(); j += 64)
        h = (h ^ b[j]) * 0x100000001b3ull;
      a[static_cast<std::size_t>(h % a.size())] ^= 1;
    }
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  // Keep the hash observable so the loop is not optimised away.
  if (h == 42) std::fputs("", stderr);
  return median(t);
}

// ---- spans -----------------------------------------------------------------

const char* layer_name(Layer l) {
  static const char* const names[kLayerCount] = {
      "bench",          "core.pack",      "core.post",
      "core.progress_tx", "core.progress_rx", "core.recv",
      "core.wait_send", "mw.plan",        "mw.coll.create",
      "mw.coll.step",   "sim.step",       "sim.drain"};
  return names[l];
}

void SpanLog::write_csv(std::FILE* f, const char* thread,
                        std::uint64_t origin) const {
  for (const Rec& r : recs_)
    std::fprintf(f, "%s,%u,%s,%llu,%u,%u\n", thread, r.id,
                 layer_name(static_cast<Layer>(r.layer)),
                 static_cast<unsigned long long>(r.start - origin), r.dur,
                 r.allocs);
}

double mark_cost_ns() {
  constexpr std::size_t kMarks = std::size_t{1} << 16;
  std::vector<double> t;
  for (int rep = 0; rep < 7; ++rep) {
    SpanLog log(kMarks);
    Chain ch(&log);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kMarks; ++i) ch.mark(kBench, 0);
    t.push_back(static_cast<double>(now_ns() - t0) / kMarks);
  }
  return median(t);
}

// ---- phases ----------------------------------------------------------------

PhaseRecorder::PhaseRecorder(double seconds, std::size_t max_samples)
    : lat_(max_samples) {
  const auto windows =
      static_cast<std::size_t>(std::max(1.0, std::round(seconds / kWindowSeconds)));
  marks_.reserve(windows + 2);
  const std::uint64_t now = now_ns();
  step_ = static_cast<std::uint64_t>(seconds * 1e9) / windows;
  end_ = now + step_ * windows;
  next_ = now + step_;
  marks_.push_back({now, 0, 0, process_cpu_ns(), steal_ticks(), 0});
}

bool PhaseRecorder::roll(std::uint64_t now) {
  if (next_ == 0) return false;  // the phase already ended
  marks_.push_back({now, ops_, bytes_, process_cpu_ns(), steal_ticks(), n_});
  next_ = now < end_ ? marks_.front().t + step_ * marks_.size() : 0;
  return next_ != 0;
}

namespace {

/// A per-window (or per-group) figure and the share of the VM's CPU time
/// the hypervisor took while it was measured.
struct Windowed {
  double value;
  double stolen;
};

/// Trimmed mean over the entries the hypervisor left alone: those whose
/// stolen share is at most kMaxSteal or, when fewer than a quarter are,
/// the least stolen quarter. `used` receives the share of entries kept.
double undisturbed_mean(std::vector<Windowed> e, double* used = nullptr) {
  if (e.empty()) return 0;
  std::stable_sort(e.begin(), e.end(),
                   [](const Windowed& x, const Windowed& y) {
                     return x.stolen < y.stolen;
                   });
  std::size_t keep = 0;
  while (keep < e.size() && e[keep].stolen <= kMaxSteal) ++keep;
  keep = std::max(keep, (e.size() + 3) / 4);
  std::vector<double> v;
  for (std::size_t i = 0; i < keep; ++i) v.push_back(e[i].value);
  if (used) *used = static_cast<double>(keep) / static_cast<double>(e.size());
  return trimmed_mean(std::move(v));
}

}  // namespace

PhaseStats PhaseRecorder::finish() {
  PhaseStats s;
  const Mark& first = marks_.front();
  const Mark& last = marks_.back();
  s.ops = last.ops - first.ops;
  s.wall_s = static_cast<double>(last.t - first.t) / 1e9;

  // Every timing is taken per window and reduced to the mean over the
  // windows the hypervisor left alone, less their highest and lowest
  // tenth. The host is a VM whose vCPUs are shared with other guests.
  // When the hypervisor takes a vCPU away (steal), the thread on it stops
  // for milliseconds; on the threaded workloads every hand-off to that
  // thread waits, and a window's rate drops several-fold at a few percent
  // of steal, so such windows measure the host, not the program. Besides,
  // this code's speed moves between a faster and a slower state up to
  // 1.6x apart, each lasting seconds; the mean moves in proportion to the
  // states' shares, where a median or a quartile would jump between the
  // states as their shares cross it. The trim drops stray windows. A
  // change of the program moves every window. p99 is taken per group of
  // consecutive windows holding at least kTailSamples samples (ten beyond
  // the p99) and reduced the same way; a phase with fewer samples is one
  // group, and its tail is the quantile with ten samples beyond it.
  const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  const auto vcpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const auto stolen = [&](const Mark& a, const Mark& b) {
    return ratio(static_cast<double>(b.steal - a.steal) * tick_s,
                 static_cast<double>(b.t - a.t) / 1e9 * vcpus);
  };
  std::vector<Windowed> rate, mbps, cpu, p50, p99;
  std::size_t group = 0;       // first sample of the open tail group
  std::size_t group_mark = 0;  // the mark that opened it
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const Mark& a = marks_[i - 1];
    const Mark& b = marks_[i];
    const double st = stolen(a, b);
    const double dt = static_cast<double>(b.t - a.t) / 1e9;
    const auto ops = static_cast<double>(b.ops - a.ops);
    rate.push_back({ratio(ops, dt), st});
    mbps.push_back(
        {ratio(static_cast<double>(b.bytes - a.bytes) / 1e6, dt), st});
    if (ops > 0)
      cpu.push_back({static_cast<double>(b.cpu - a.cpu) / 1e3 / ops, st});
    const std::size_t from = a.samples, to = b.samples;
    if (to == from) continue;
    std::sort(lat_.data() + from, lat_.data() + to);
    p50.push_back({quantile_sorted(lat_.data() + from, to - from, 0.50), st});
    // Close the group here unless it is short or the rest would be.
    if (to - group < kTailSamples || n_ - to < kTailSamples) continue;
    std::sort(lat_.data() + group, lat_.data() + to);
    p99.push_back({quantile_sorted(lat_.data() + group, to - group, 0.99),
                   stolen(marks_[group_mark], b)});
    group = to;
    group_mark = i;
  }
  if (group < n_) {
    const std::size_t n = n_ - group;
    std::sort(lat_.data() + group, lat_.data() + n_);
    const double q = n < kTailSamples ? 1.0 - 10.0 / static_cast<double>(n)
                                      : 0.99;
    p99.push_back({quantile_sorted(lat_.data() + group, n, std::max(q, 0.5)),
                   stolen(marks_[group_mark], last)});
  }
  s.ops_per_s = undisturbed_mean(std::move(rate), &s.used_windows);
  s.mb_per_s = undisturbed_mean(std::move(mbps));
  s.cpu_us_per_op = undisturbed_mean(std::move(cpu));
  s.p50_us = undisturbed_mean(std::move(p50)) / 1e3;
  s.p99_us = undisturbed_mean(std::move(p99)) / 1e3;
  s.steal_pct = stolen(first, last) * 100;
  std::sort(lat_.begin(), lat_.begin() + static_cast<std::ptrdiff_t>(n_));
  s.samples = n_;
  s.p999_us = quantile_sorted(lat_.data(), n_, 0.999) / 1e3;
  return s;
}

// ---- counters --------------------------------------------------------------

Counters& operator+=(Counters& a, const Counters& b) {
  for (const auto& [k, v] : b) a[k] += v;
  return a;
}

Counters delta(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [k, v] : b) {
    auto it = a.find(k);
    d[k] = v - (it == a.end() ? 0 : it->second);
  }
  return d;
}

// ---- report ----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  self_checks_ok = false;
  std::fprintf(stderr, "self-check failed: %s\n", what.c_str());
}

std::string Report::json(const std::vector<MetricSpec>& spec) {
  std::ostringstream m;
  char num[64];
  for (const MetricSpec& ms : spec) {
    auto it = metrics_.find(ms.name);
    double v = 0;
    if (it != metrics_.end()) {
      v = std::isfinite(it->second.v) ? it->second.v : 0.0;
      check(it->second.unit == ms.unit,
            std::string(ms.name) + " measured in " + it->second.unit);
    }
    std::snprintf(num, sizeof num, "%.17g", v);
    m << (m.tellp() > 0 ? ", " : "") << '"' << ms.name
      << "\": {\"value\": " << num << ", \"unit\": \"" << ms.unit << "\"}";
  }
  std::ostringstream o;
  o << "{\"correct\": "
    << (failed == 0 && attempted > 0 && self_checks_ok ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {" << m.str() << "}}";
  return o.str();
}

// ---- shared workload plumbing ----------------------------------------------

void report_end_to_end(Report& r, double setup_s, const PhaseStats& s) {
  std::fprintf(stderr, "measured phase: %.2f %% stolen, %.0f %% of windows "
               "used\n", s.steal_pct, s.used_windows * 100);
  r.set("setup_s", setup_s, "s");
  r.set("lat_p50_us", s.p50_us, "us");
  r.set("lat_p99_us", s.p99_us, "us");
  r.set("ops_per_s", s.ops_per_s, "1/s");
  r.set("MBps", s.mb_per_s, "MB/s");
  r.set("cpu_us_per_op", s.cpu_us_per_op, "us");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void ProcWindow::begin() {
  ticks0 = task_cpu_ticks();
  allocs0 = process_allocs();
}

void ProcWindow::end() {
  allocs1 = process_allocs();
  ticks1 = task_cpu_ticks();
  threads = ticks1.size();
}

void report_common_layers(Report& r, const PhaseStats& untraced,
                          const PhaseStats& traced, const ProcWindow& pw,
                          const std::vector<int>& bench_tids) {
  r.set("lat.p999_us", untraced.p999_us, "us");
  r.set("lat.samples", static_cast<double>(untraced.samples), "count");
  r.set("host.steal_pct", untraced.steal_pct, "%");
  r.set("host.used_windows", untraced.used_windows, "ratio");
  // Whole-phase rates: the traced half's spans cover all of its windows.
  const double un_rate = ratio(static_cast<double>(untraced.ops),
                               untraced.wall_s);
  const double tr_rate = ratio(static_cast<double>(traced.ops), traced.wall_s);
  r.set("trace.overhead_pct", ratio(un_rate - tr_rate, un_rate) * 100, "%");
  std::uint64_t app = 0, engine = 0;
  for (const auto& [tid, t1] : pw.ticks1) {
    auto it = pw.ticks0.find(tid);
    const std::uint64_t d = t1 - (it == pw.ticks0.end() ? 0 : it->second);
    const bool mine = std::find(bench_tids.begin(), bench_tids.end(), tid) !=
                      bench_tids.end();
    (mine ? app : engine) += d;
  }
  const auto ops = static_cast<double>(untraced.ops);
  r.set("cpu.app_us_per_msg", ratio(ticks_to_us(app), ops), "us");
  r.set("cpu.engine_us_per_msg", ratio(ticks_to_us(engine), ops), "us");
  r.set("proc.threads", static_cast<double>(pw.threads), "count");
  r.set("mem.allocs_per_msg",
        ratio(static_cast<double>(pw.allocs1 - pw.allocs0), ops), "count");
}

void report_engine_counters(Report& r, const Counters& d, double msgs) {
  r.set("core.opt.frags_per_packet", ratio(get(d, "tx.frags"),
                                           get(d, "tx.packets")),
        "ratio");
  r.set("core.opt.decisions_per_msg", ratio(get(d, "opt.decisions"), msgs),
        "ratio");
  r.set("core.opt.slab_miss_ratio",
        ratio(get(d, "opt.slab_misses"),
              get(d, "opt.slab_hits") + get(d, "opt.slab_misses")),
        "ratio");
  r.set("core.opt.lock_wait_ns_per_msg", ratio(get(d, "opt.lock_wait_ns"),
                                               msgs),
        "ns");
  r.set("core.submit.ring_share", ratio(get(d, "submit.ring_ops"),
                                        get(d, "tx.msgs")),
        "ratio");
  r.set("core.submit.ring_full", get(d, "submit.ring_full"), "count");
  r.set("core.prog.wakeups_per_msg", ratio(get(d, "prog.wakeups"), msgs),
        "ratio");
  r.set("core.prog.idle_sleeps_per_msg",
        ratio(get(d, "prog.idle_sleeps"), msgs), "ratio");
  r.set("core.prog.steals", get(d, "prog.steals"), "count");
  r.set("core.rx.unexpected_share", ratio(get(d, "rx.unexpected_frags"),
                                          get(d, "rx.frags")),
        "ratio");
}

void report_span_layers(Report& r, const std::vector<const SpanLog*>& logs,
                        double msgs) {
  static const std::pair<Layer, const char*> kNs[] = {
      {kPack, "core.pack.ns"},
      {kPost, "core.post.ns"},
      {kProgressTx, "core.progress_tx.ns"},
      {kProgressRx, "core.progress_rx.ns"},
      {kRecv, "core.recv.ns"},
      {kWaitSend, "core.wait_send.ns"}};
  for (const auto& [layer, name] : kNs) {
    std::uint64_t ns = 0, calls = 0;
    for (const SpanLog* l : logs) {
      ns += l->total(layer).ns;
      calls += l->total(layer).calls;
    }
    if (calls) r.set(name, ratio(static_cast<double>(ns), msgs), "ns");
  }
}

void export_spans(
    const RunArgs& a,
    const std::vector<std::pair<const char*, const SpanLog*>>& logs,
    std::uint64_t origin) {
  if (a.trace_dir.empty()) return;
  const std::string path = a.trace_dir + "/" + a.workload + ".spans.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread,id,layer,start_ns,dur_ns,allocs\n");
  for (const auto& [name, log] : logs) log->write_csv(f, name, origin);
  std::fclose(f);
}

}  // namespace pb

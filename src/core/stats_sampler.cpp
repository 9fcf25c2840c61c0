#include "core/stats_sampler.hpp"

#include <cstdio>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

#include "core/engine.hpp"
#include "util/assert.hpp"

namespace mado::core {

namespace {

/// Per-interval delta for `name` between two cumulative snapshots. A counter
/// missing from a snapshot simply has not been bumped yet — it reads as 0.
std::uint64_t delta_of(
    const std::map<std::string, std::uint64_t, std::less<>>& prev,
    const std::map<std::string, std::uint64_t, std::less<>>& cur,
    const std::string& name) {
  const auto ci = cur.find(name);
  const std::uint64_t c = ci == cur.end() ? 0 : ci->second;
  const auto pi = prev.find(name);
  const std::uint64_t p = pi == prev.end() ? 0 : pi->second;
  // Counters are monotonic, but be defensive: a reset() between ticks must
  // not wrap around to a huge delta.
  return c >= p ? c - p : c;
}

}  // namespace

StatsSampler::StatsSampler(Engine& engine, Nanos interval)
    : engine_(engine), interval_(interval) {
  MADO_CHECK(interval > 0);
}

StatsSampler::~StatsSampler() { stop(); }

void StatsSampler::start() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    MADO_CHECK_MSG(!started_, "StatsSampler::start called twice");
    started_ = true;
    baseline_.time = engine_.timers().now();
    baseline_.counters = engine_.counters_snapshot();
  }
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, alive = alive_,
           weak = std::weak_ptr<std::function<void()>>(tick)] {
    std::lock_guard<std::mutex> lk(alive->mu);
    if (!alive->alive) return;
    record_tick();
    auto self = weak.lock();  // null once the sampler dropped the chain
    if (self)
      engine_.timers().schedule_at(engine_.timers().now() + interval_, *self);
  };
  tick_ = tick;
  engine_.timers().schedule_at(engine_.timers().now() + interval_, *tick);
}

void StatsSampler::stop() {
  {
    std::lock_guard<std::mutex> lk(alive_->mu);
    alive_->alive = false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  tick_.reset();  // break the re-arm chain; in-flight copies see !alive
}

void StatsSampler::record_tick() {
  Sample s;
  s.time = engine_.timers().now();
  s.counters = engine_.counters_snapshot();
  std::lock_guard<std::mutex> lk(mu_);
  samples_.push_back(std::move(s));
}

std::vector<StatsSampler::Sample> StatsSampler::samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  return samples_;
}

std::string StatsSampler::to_csv() const {
  std::vector<Sample> samples;
  Sample baseline;
  {
    std::lock_guard<std::mutex> lk(mu_);
    samples = samples_;
    baseline = baseline_;
  }
  // Union of counter names across all ticks: counters created mid-run get a
  // column too (reading 0 before they first appear).
  std::set<std::string> names;
  for (const auto& s : samples)
    for (const auto& [name, v] : s.counters) names.insert(name);

  std::ostringstream os;
  os << "time_ns";
  for (const auto& name : names) os << "," << name;
  os << "\n";
  const auto* prev = &baseline.counters;
  for (const auto& s : samples) {
    os << s.time;
    for (const auto& name : names)
      os << "," << delta_of(*prev, s.counters, name);
    os << "\n";
    prev = &s.counters;
  }
  return os.str();
}

std::string StatsSampler::to_json() const {
  std::vector<Sample> samples;
  Sample baseline;
  {
    std::lock_guard<std::mutex> lk(mu_);
    samples = samples_;
    baseline = baseline_;
  }
  std::ostringstream os;
  os << "{\"interval_ns\":" << interval_ << ",\"samples\":[";
  const auto* prev = &baseline.counters;
  bool first_sample = true;
  for (const auto& s : samples) {
    if (!first_sample) os << ",";
    first_sample = false;
    os << "{\"t\":" << s.time << ",\"counters\":{";
    bool first_counter = true;
    for (const auto& [name, v] : s.counters) {
      if (!first_counter) os << ",";
      first_counter = false;
      // Counter names are engine-chosen ASCII identifiers ("tx.packets");
      // no JSON escaping is required.
      os << "\"" << name << "\":" << delta_of(*prev, s.counters, name);
    }
    os << "}}";
    prev = &s.counters;
  }
  os << "]}";
  return os.str();
}

}  // namespace mado::core

// Timer-driven periodic sampling of an engine's counter registry.
//
// A StatsSampler snapshots Engine::counters_snapshot() every `interval`
// nanoseconds of TimerHost time, producing a time series of counter values
// that can be exported as CSV (one column per counter, one row per tick,
// values are per-interval deltas) or JSON. Because it runs off the engine's
// own TimerHost it works identically under virtual time (SimTimerHost —
// deterministic samples at exact virtual instants) and wall-clock time
// (RealTimerHost — samples on the timer thread).
//
// Contract:
//  - start() may be called once; stop() is idempotent and is also called by
//    the destructor. The sampler must be destroyed (or stopped) BEFORE the
//    engine it observes.
//  - Under simulation the self-re-arming tick keeps the fabric event queue
//    non-empty forever; drive such runs with run_until()/wait_until(), not
//    run_until_idle() (same caveat as Engine::set_auto_rebalance).
//  - samples()/to_csv()/to_json() may be called from any thread, including
//    while sampling is live.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace mado::core {

class Engine;

class StatsSampler {
 public:
  struct Sample {
    Nanos time = 0;  ///< TimerHost time at which the snapshot was taken.
    /// Cumulative counter values at `time` (not deltas; exporters derive
    /// per-interval deltas against the previous sample / start baseline).
    std::map<std::string, std::uint64_t, std::less<>> counters;
  };

  /// Observes `engine`'s counters every `interval` ns once started.
  StatsSampler(Engine& engine, Nanos interval);
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// Capture the baseline snapshot and arm the periodic tick.
  void start();

  /// Disarm the tick. Idempotent; safe to call concurrently with a firing
  /// tick: it waits for a tick already recording, and later ticks find the
  /// alive flag cleared and touch nothing.
  void stop();

  Nanos interval() const { return interval_; }

  /// Copy of the samples recorded so far (excludes the start() baseline).
  std::vector<Sample> samples() const;

  /// CSV: header "time_ns,<name>,..." over the union of counter names seen
  /// in any sample; one row per tick with per-interval deltas. Counters
  /// absent from a snapshot (not yet created) read as 0.
  std::string to_csv() const;

  /// JSON: {"interval_ns":N,"samples":[{"t":ns,"counters":{name:delta}}]}.
  /// Deltas follow the same convention as to_csv().
  std::string to_json() const;

 private:
  void record_tick();

  Engine& engine_;
  const Nanos interval_;

  mutable std::mutex mu_;               // guards samples_, baseline_, started_
  std::vector<Sample> samples_;
  Sample baseline_;
  bool started_ = false;

  // Liveness handshake with in-flight timer closures: TimerHost cannot
  // cancel, so scheduled ticks share this flag and bail once it is
  // cleared. A tick holds `mu` from its check through its last use of the
  // sampler, so once stop() has cleared the flag under `mu` no tick is
  // still touching a sampler that may be gone.
  struct Liveness {
    std::mutex mu;
    bool alive = true;
  };
  std::shared_ptr<Liveness> alive_ = std::make_shared<Liveness>();
  // Strong owner of the tick chain; scheduled copies capture a weak_ptr so
  // the closure never owns itself (see Engine::set_auto_rebalance).
  std::shared_ptr<std::function<void()>> tick_;
};

}  // namespace mado::core

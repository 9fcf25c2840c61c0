// Shared test handler that records driver callbacks.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "drivers/driver.hpp"

namespace mado::drv::testing {

/// True on a thread while it is inside DriverEndpoint::send() (set by
/// SendScope), so a handler can tell a synchronous callback from one that
/// an IO thread delivers concurrently.
inline thread_local bool t_in_send = false;

struct SendScope {
  SendScope() { t_in_send = true; }
  ~SendScope() { t_in_send = false; }
  SendScope(const SendScope&) = delete;
  SendScope& operator=(const SendScope&) = delete;
};

/// Records every callback. Thread-safe: drivers with an IO thread call it
/// from that thread while the test thread reads snapshots.
class RecordingHandler final : public EndpointHandler {
 public:
  struct Sent {
    TrackId track;
    std::uint64_t token;
  };
  struct Got {
    TrackId track;
    Bytes payload;
  };

  void on_send_complete(TrackId track, std::uint64_t token) override {
    std::lock_guard<std::mutex> lk(mu_);
    note_call();
    completions_.push_back({track, token});
  }
  void on_packet(TrackId track, Bytes payload) override {
    std::lock_guard<std::mutex> lk(mu_);
    note_call();
    packets_.push_back({track, std::move(payload)});
  }
  void on_send_failed(TrackId track, std::uint64_t token) override {
    std::lock_guard<std::mutex> lk(mu_);
    note_call();
    failures_.push_back({track, token});
  }
  void on_link_down() override {
    std::lock_guard<std::mutex> lk(mu_);
    note_call();
    ++link_downs_;
    failures_at_link_down_ = failures_.size();
    completions_at_link_down_ = completions_.size();
  }

  std::vector<Sent> completions() const {
    std::lock_guard<std::mutex> lk(mu_);
    return completions_;
  }
  std::vector<Got> packets() const {
    std::lock_guard<std::mutex> lk(mu_);
    return packets_;
  }
  std::vector<Sent> failures() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failures_;
  }
  std::size_t completion_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return completions_.size();
  }
  std::size_t packet_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return packets_.size();
  }
  std::size_t failure_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failures_.size();
  }
  int link_downs() const {
    std::lock_guard<std::mutex> lk(mu_);
    return link_downs_;
  }
  /// failure_count() at the moment on_link_down fired (contract: every
  /// doomed send is failed BEFORE link-down is reported).
  std::size_t failures_at_link_down() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failures_at_link_down_;
  }
  /// completion_count() at the moment on_link_down fired.
  std::size_t completions_at_link_down() const {
    std::lock_guard<std::mutex> lk(mu_);
    return completions_at_link_down_;
  }
  /// Every callback so far, of any kind.
  std::size_t total_calls() const {
    std::lock_guard<std::mutex> lk(mu_);
    return total_calls_;
  }
  /// Callbacks that ran on a thread while it was inside send().
  std::size_t calls_inside_send() const {
    std::lock_guard<std::mutex> lk(mu_);
    return calls_inside_send_;
  }

 private:
  void note_call() {
    ++total_calls_;
    if (t_in_send) ++calls_inside_send_;
  }

  mutable std::mutex mu_;
  std::vector<Sent> completions_;
  std::vector<Got> packets_;
  std::vector<Sent> failures_;
  int link_downs_ = 0;
  std::size_t failures_at_link_down_ = 0;
  std::size_t completions_at_link_down_ = 0;
  std::size_t total_calls_ = 0;
  std::size_t calls_inside_send_ = 0;
};

inline Bytes make_payload(std::size_t n, std::uint8_t seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

}  // namespace mado::drv::testing

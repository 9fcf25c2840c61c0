// Exactly-once link-down reporting, shared by every threaded driver.
//
// The driver contract demands a strict teardown order when a link dies:
// every packet that made it over the wire is delivered, every accepted send
// resolves to exactly one completion or failure, and only THEN does
// on_link_down fire — at most once, and never for a deliberate local
// close(). Both the socketpair driver (whose loop thread delivers while
// application threads keep calling send()) and the UDP driver (whose event
// loop and progress callers race the same way) need the identical
// protocol, so it lives here instead of being re-derived per driver.
//
// Protocol:
//   IO path           — mark_broken() when the wire dies (any number of
//                       threads, any number of times).
//   submit path       — accept() when a send is taken, before it can fail.
//   delivery path     — resolve() as each completion/failure is HANDED TO
//                       THE HANDLER (not when it is merely queued), then
//                       should_report_link_down() last. This is progress()
//                       for the UDP driver, the loop thread for the socket
//                       driver.
//   close()           — mark_closed_once() gates teardown and permanently
//                       suppresses the report (local close is not a fault).
//
// Why exactly-once holds: `reported` is claimed with a single exchange, so
// two delivery calls racing past the broken/outstanding checks cannot both
// report. Why no report is lost: outstanding_ is decremented only by the
// delivery path itself, immediately before the handler callback — so
// whichever delivery call resolves the LAST doomed send observes
// outstanding_ == 0 on its own gate check in the same invocation, after
// every failure has already been delivered. A concurrent IO thread pushing
// new failure events cannot recreate outstanding_ > 0 without a matching
// accept() that happened before the break was drained. A send accepted
// after the report is failed after it.
#pragma once

#include <atomic>
#include <cstdint>

namespace mado::drv {

class LinkDownGate {
 public:
  /// Submit path: a send was accepted and will resolve exactly once.
  void accept() { outstanding_.fetch_add(1, std::memory_order_acq_rel); }

  /// Delivery path: one accepted send just resolved (completion OR failure
  /// was handed to the handler).
  void resolve() { outstanding_.fetch_sub(1, std::memory_order_acq_rel); }

  /// IO path: the wire is dead. Idempotent, callable from any thread.
  void mark_broken() { broken_.store(true, std::memory_order_release); }

  /// Teardown: returns true exactly once (the caller runs close teardown);
  /// also suppresses any future link-down report.
  bool mark_closed_once() { return !closed_.exchange(true); }

  bool broken() const { return broken_.load(std::memory_order_acquire); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  std::uint64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  /// Delivery path, called AFTER draining events: true exactly once, and
  /// only when the break is fully resolved (no send still awaits its
  /// failure) on a link that was not locally closed.
  bool should_report_link_down() {
    return broken() && outstanding() == 0 && !closed() &&
           !reported_.exchange(true, std::memory_order_acq_rel);
  }

 private:
  std::atomic<bool> broken_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> reported_{false};
  /// Sends accepted but not yet resolved by a delivery. Gates
  /// the report: it must not fire while a doomed send still awaits its
  /// on_send_failed.
  std::atomic<std::uint64_t> outstanding_{0};
};

}  // namespace mado::drv

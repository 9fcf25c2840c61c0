// Simulated NIC endpoint on top of the discrete-event fabric.
//
// Models, per direction, a NIC whose tracks share one physical link:
// injections serialize on the link (start = max(now, link_free)), each
// charged with the LogGP-style NicModel of the *sending* side's
// capabilities. Completion fires when the wire accepts the last byte;
// delivery fires one propagation latency later. Both are fabric events, so
// the driver contract (no synchronous callbacks from send()) holds.
//
// Endpoints are created in pairs over a shared LinkState kept alive by
// shared_ptr, so events in flight never dangle even if one endpoint is
// destroyed first (delivery to a dead endpoint is dropped).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "drivers/driver.hpp"
#include "sim/fabric.hpp"

namespace mado::drv {

/// Deterministic fault injection for one direction of a simulated link.
/// Probabilities are evaluated per packet from a seeded xoshiro stream, so
/// a given (plan, traffic) pair replays bit-identically. All faults model
/// the *wire*: the local NIC still reports on_send_complete normally.
struct FaultPlan {
  double drop = 0.0;       ///< P(packet vanishes in transit)
  double corrupt = 0.0;    ///< P(one payload bit flips in transit)
  double duplicate = 0.0;  ///< P(packet is delivered twice)
  double reorder = 0.0;    ///< P(delivery is delayed past later packets)
  Nanos reorder_delay = 5 * kNanosPerMicro;  ///< extra latency when reordered
  std::uint64_t seed = 0x5eedu;
  /// When > 0: the whole link hard-fails at this simulated time (both
  /// directions), as if the cable were pulled. Equivalent to calling
  /// fail_link() at that instant.
  Nanos fail_at = 0;

  bool active() const {
    return drop > 0 || corrupt > 0 || duplicate > 0 || reorder > 0 ||
           fail_at > 0;
  }
};

/// What the injector actually did (per TX direction); for tests.
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
};

class SimEndpoint final : public DriverEndpoint {
 public:
  struct PairResult {
    std::unique_ptr<SimEndpoint> a;
    std::unique_ptr<SimEndpoint> b;
  };

  /// Create both sides of a link. `caps_a`/`caps_b` describe each side's
  /// NIC; pass the same value twice for a homogeneous link.
  static PairResult make_pair(sim::Fabric& fabric, const Capabilities& caps_a,
                              const Capabilities& caps_b);
  static PairResult make_pair(sim::Fabric& fabric, const Capabilities& caps) {
    return make_pair(fabric, caps, caps);
  }

  ~SimEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override;
  void send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  void progress() override {}  // events run from the shared Fabric loop
  /// Detaches the handler: fabric events for this side are dropped.
  void close() override;
  std::string describe() const override;
  bool link_up() const override;

  /// Install a fault plan for THIS endpoint's transmit direction. A
  /// `fail_at` deadline schedules a whole-link failure on the fabric.
  /// Call before traffic starts; replaces any previous plan and reseeds.
  void set_fault_plan(const FaultPlan& plan);

  /// Hard-kill the link now (both directions): packets still on the wire
  /// are lost, future sends go nowhere, and both sides get on_link_down
  /// from the fabric loop.
  void fail_link();

  // Observability for tests/benches.
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t flatten_copies() const { return flatten_copies_; }
  /// Faults injected on this endpoint's TX direction.
  const FaultStats& fault_stats() const;

 private:
  struct LinkState;

  SimEndpoint(sim::Fabric& fabric, Capabilities caps,
              std::shared_ptr<LinkState> link, int side);

  sim::Fabric& fabric_;
  Capabilities caps_;
  std::shared_ptr<LinkState> link_;
  int side_;  // 0 or 1; peer is 1 - side_
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t flatten_copies_ = 0;
};

}  // namespace mado::drv

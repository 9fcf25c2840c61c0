// Abstract transfer-layer endpoint (one side of a point-to-point link).
//
// Driver contract (every implementation MUST follow it; the engine's
// locking depends on it):
//
//  1. send() never invokes handler callbacks synchronously. Completions and
//     arrivals are delivered later — from Fabric::step() for the simulated
//     driver, from progress() for the shm and UDP drivers, or from the
//     driver's own IO thread (the socket driver's IoLoop) — and never from
//     inside send().
//  2. Handler callbacks are invoked WITHOUT any engine lock held, and
//     without any lock of the driver's own; the engine re-acquires its own
//     lock inside the callback and may call send() from there.
//  3. Per track, completions are reported in send order, and packets are
//     delivered to the peer in send order (tracks are FIFO channels).
//     No ordering holds ACROSS tracks.
//  4. The GatherList segments passed to send() remain valid until the
//     matching on_send_complete fires.
#pragma once

#include <cstdint>
#include <string>

#include "drivers/capabilities.hpp"
#include "util/iovec.hpp"
#include "util/wire.hpp"

namespace mado::drv {

class EndpointHandler {
 public:
  virtual ~EndpointHandler() = default;

  /// The packet identified by `token` left the NIC; the track slot is free.
  virtual void on_send_complete(TrackId track, std::uint64_t token) = 0;

  /// A packet arrived from the peer on `track`. Payload ownership moves to
  /// the handler.
  virtual void on_packet(TrackId track, Bytes payload) = 0;

  /// A queued send will never complete: the wire broke while (or before)
  /// the driver was transmitting it. Fired exactly once per affected token
  /// — every send() gets exactly one of on_send_complete / on_send_failed —
  /// and, for every send accepted before the endpoint's on_link_down, before
  /// it (a send made after the link-down report fails after it). Default:
  /// ignore (the link-down failover then sweeps up the in-flight record;
  /// lossless drivers never call it).
  virtual void on_send_failed(TrackId track, std::uint64_t token) {
    (void)track;
    (void)token;
  }

  /// The link died (peer closed, transport error, injected failure). Fired
  /// at most once per endpoint, after every packet that arrived before the
  /// failure has been delivered via on_packet and every doomed send has
  /// been failed via on_send_failed. Default: ignore (lossless drivers
  /// never call it).
  virtual void on_link_down() {}
};

class DriverEndpoint {
 public:
  virtual ~DriverEndpoint() = default;

  DriverEndpoint(const DriverEndpoint&) = delete;
  DriverEndpoint& operator=(const DriverEndpoint&) = delete;

  virtual const Capabilities& caps() const = 0;

  /// Register the engine-side handler. Must be called before first send.
  virtual void set_handler(EndpointHandler* handler) = 0;

  /// Enqueue one packet on `track`. See the contract above.
  virtual void send(TrackId track, const GatherList& gl,
                    std::uint64_t token) = 0;

  /// Drain pending completions/arrivals (no-op for the simulated driver,
  /// whose events run from the shared Fabric loop, and for the socket
  /// driver, whose IO thread delivers them).
  virtual void progress() = 0;

  /// Detach from the wire and from the handler: once close() returns, no
  /// callback runs and none will, from progress() or from an IO thread.
  /// Idempotent.
  virtual void close() {}

  /// False once the link has failed (on_link_down fired or is pending).
  virtual bool link_up() const { return true; }

  virtual std::string describe() const { return caps().name; }

 protected:
  DriverEndpoint() = default;
};

}  // namespace mado::drv

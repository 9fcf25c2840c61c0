// Shared-memory endpoint: intra-node transport between two threads of one
// process, exchanging frames through thread-safe queues — the SMP-node
// sibling of the network drivers (Madeleine was multi-protocol: cluster
// nodes talked Myrinet between boxes and shared memory within one).
//
// Unlike the socket driver there are no IO threads: send() enqueues the
// frame directly into the peer's inbox and the completion into the local
// outbox; both are delivered by the respective progress() calls, which
// keeps the driver contract (no synchronous callbacks) and makes the
// driver usable from both cooperative and threaded worlds. It is the one
// in-process driver: manually pumped single-thread tests use it too.
#pragma once

#include <cstdint>
#include <memory>

#include "drivers/driver.hpp"
#include "util/queues.hpp"

namespace mado::drv {

/// Capability profile for the shared-memory transport: latency far below
/// any NIC, bandwidth at memcpy speed, no gather support (frames are
/// flattened into the queue anyway).
Capabilities shm_profile();

class ShmEndpoint final : public DriverEndpoint {
 public:
  struct PairResult {
    std::unique_ptr<ShmEndpoint> a;
    std::unique_ptr<ShmEndpoint> b;
  };
  static PairResult make_pair(const Capabilities& caps);
  static PairResult make_pair() { return make_pair(shm_profile()); }

  ~ShmEndpoint() override;

  const Capabilities& caps() const override { return caps_; }
  void set_handler(EndpointHandler* handler) override { handler_ = handler; }
  bool send(TrackId track, const GatherList& gl, std::uint64_t token) override;
  void progress() override;
  /// Detaches the handler: progress() delivers nothing from now on.
  void close() override { handler_ = nullptr; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Frame {
    TrackId track = 0;
    Bytes payload;
  };
  struct Completion {
    TrackId track = 0;
    std::uint64_t token = 0;
  };
  struct Shared {
    MpscQueue<Frame> inbox[2];  // indexed by receiver side
  };

  ShmEndpoint(Capabilities caps, std::shared_ptr<Shared> shared, int side);

  Capabilities caps_;
  std::shared_ptr<Shared> shared_;
  int side_;
  EndpointHandler* handler_ = nullptr;
  MpscQueue<Completion> completions_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mado::drv

#include "drivers/shm_driver.hpp"

#include "util/assert.hpp"

namespace mado::drv {

Capabilities shm_profile() {
  Capabilities c;
  c.name = "shm";
  c.max_eager = 16 * 1024;
  c.rdv_threshold = 64 * 1024;
  c.gather_scatter = false;  // frames are contiguous copies
  c.max_gather_segments = 1;
  c.track_count = 2;
  c.cost.pio_overhead = 80;          // one queue handoff
  c.cost.dma_overhead = 80;
  c.cost.per_segment = 0;
  c.cost.pio_threshold = 256;
  c.cost.pio_bytes_per_us = 4000.0;  // memcpy-bound
  c.cost.link_bytes_per_us = 4000.0;
  c.cost.gap = 20;
  c.cost.latency = 200;              // ~0.2 us cross-thread
  c.cost.copy_bytes_per_us = 4000.0;
  return c;
}

ShmEndpoint::PairResult ShmEndpoint::make_pair(const Capabilities& caps) {
  auto shared = std::make_shared<Shared>();
  PairResult r;
  r.a.reset(new ShmEndpoint(caps, shared, 0));
  r.b.reset(new ShmEndpoint(caps, shared, 1));
  return r;
}

ShmEndpoint::ShmEndpoint(Capabilities caps, std::shared_ptr<Shared> shared,
                         int side)
    : caps_(std::move(caps)), shared_(std::move(shared)), side_(side) {}

ShmEndpoint::~ShmEndpoint() = default;

bool ShmEndpoint::send(TrackId track, const GatherList& gl,
                       std::uint64_t token) {
  MADO_CHECK(track < caps_.track_count);
  Frame f;
  f.track = track;
  f.payload = gl.flatten();
  ++packets_sent_;
  bytes_sent_ += f.payload.size();
  shared_->inbox[1 - side_].push(std::move(f));
  // Deferred to progress(): a burst posted before the next lap piles up
  // behind the busy track, which is the backlog the optimizer aggregates.
  completions_.push(Completion{track, token});
  return false;
}

void ShmEndpoint::progress() {
  if (!handler_) return;
  while (auto c = completions_.try_pop())
    handler_->on_send_complete(c->track, c->token);
  while (auto f = shared_->inbox[side_].try_pop())
    handler_->on_packet(f->track, std::move(f->payload));
}

}  // namespace mado::drv

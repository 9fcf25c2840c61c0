#include "core/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/packet.hpp"
#include "core/strategies.hpp"
#include "util/assert.hpp"

namespace mado::core {

StrategyRegistry& StrategyRegistry::instance() {
  static StrategyRegistry reg;
  return reg;
}

StrategyRegistry::StrategyRegistry() { register_builtin_strategies(*this); }

void StrategyRegistry::register_strategy(const std::string& name,
                                         Factory factory) {
  MADO_CHECK_MSG(!name.empty(), "strategy name must be non-empty");
  MADO_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  factories_[name] = std::move(factory);
}

bool StrategyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return factories_.count(name) != 0;
}

std::unique_ptr<Strategy> StrategyRegistry::create(
    const std::string& name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = factories_.find(name);
    MADO_CHECK_MSG(it != factories_.end(), "unknown strategy: " << name);
    factory = it->second;  // run outside the lock
  }
  auto s = factory();
  MADO_CHECK(s != nullptr);
  return s;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, _] : factories_) out.push_back(name);
  return out;
}

namespace strategy_detail {

std::size_t take_controls(TxBacklog& backlog, std::size_t budget,
                          FragList& out) {
  std::size_t used = 0;
  while (backlog.has_control()) {
    const std::size_t need =
        FragHeader::kWireSize + backlog.peek_control().len;
    if (!out.empty() && used + need > budget) break;
    used += need;
    out.push_back(backlog.pop_control());
  }
  return used;
}

Nanos packet_cost(const drv::Capabilities& caps, std::size_t payload_bytes,
                  std::size_t payload_segs, std::size_t header_bytes) {
  const sim::NicModel model(caps.cost);
  const std::size_t total = payload_bytes + header_bytes;
  const std::size_t segs = 1 + payload_segs;  // header block + payloads
  if (caps.gather_scatter && segs <= caps.max_gather_segments)
    return model.busy_time(total, segs);
  return model.copy_time(total) + model.busy_time(total, 1);
}

// ---- stripe hook -----------------------------------------------------------

double stripe_rail_rate(const drv::Capabilities& caps, std::size_t chunk) {
  if (chunk == 0) chunk = 1;
  const sim::NicModel model(caps.cost);
  const std::size_t wire_bytes = chunk + BulkHeader::kWireSize;
  // Injection setup per chunk (header block + one data segment). uses_pio /
  // dma_overhead come straight from the NicModelParams so a PIO-heavy NIC
  // is charged its per-byte host cost on small chunks.
  const Nanos inject = model.injection_time(wire_bytes, 2);
  // Wire occupancy at the *effective* bandwidth: the per-rail hint wins
  // over the profile's nominal link rate when set.
  const double bw = caps.effective_bandwidth();  // bytes/us
  const auto wire = static_cast<Nanos>(
      static_cast<double>(wire_bytes) * 1000.0 / std::max(bw, 1e-9));
  const Nanos per_chunk = std::max(inject, wire) + model.gap();
  return static_cast<double>(chunk) /
         static_cast<double>(std::max<Nanos>(per_chunk, 1));
}

double stripe_shares(const std::vector<StripeRail>& rails,
                     std::uint64_t total, std::size_t chunk,
                     std::size_t min_chunk,
                     std::vector<std::uint64_t>& shares) {
  shares.assign(rails.size(), 0);
  if (total == 0) return 0.0;

  struct Cand {
    std::size_t idx;
    double rate;        // bytes/ns
    double drain_time;  // ns until the existing backlog clears
  };
  // Inline for up to 8 rails: the engine plans every rendezvous through
  // here, so the common case must not touch the heap.
  mado::SmallVector<Cand, 8> cands;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    if (!rails[i].up || rails[i].caps == nullptr) continue;
    const double rate = stripe_rail_rate(*rails[i].caps, chunk);
    if (rate <= 0.0) continue;
    cands.push_back(
        {i, rate, static_cast<double>(rails[i].backlog_bytes) / rate});
  }
  if (cands.empty()) return 0.0;

  // Water-filling: find the common finish time T with
  //   sum_i max(0, (T - drain_i) * rate_i) == total.
  // Process rails in drain-time order; a rail whose backlog already reaches
  // past T is excluded (it would finish late even with zero new bytes).
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) {
              return a.drain_time < b.drain_time;
            });
  double rate_sum = 0.0, weighted = 0.0;
  double finish = std::numeric_limits<double>::infinity();
  std::size_t active = 0;
  for (std::size_t k = 0; k < cands.size(); ++k) {
    rate_sum += cands[k].rate;
    weighted += cands[k].drain_time * cands[k].rate;
    const double t = (static_cast<double>(total) + weighted) / rate_sum;
    // Valid iff every rail past k would start later than t finishes.
    if (k + 1 < cands.size() && cands[k + 1].drain_time < t) continue;
    finish = t;
    active = k + 1;
    break;
  }
  MADO_ASSERT(active > 0);

  // Integer shares, fastest rail absorbs the rounding remainder and any
  // below-min_chunk crumbs (no rail should join the stripe for a pittance).
  std::size_t fastest = cands[0].idx;
  double fastest_rate = cands[0].rate;
  for (std::size_t k = 1; k < active; ++k)
    if (cands[k].rate > fastest_rate) {
      fastest_rate = cands[k].rate;
      fastest = cands[k].idx;
    }
  std::uint64_t assigned = 0;
  for (std::size_t k = 0; k < active; ++k) {
    const double raw = (finish - cands[k].drain_time) * cands[k].rate;
    auto share = static_cast<std::uint64_t>(std::max(raw, 0.0));
    share = std::min<std::uint64_t>(share, total - assigned);
    if (share < min_chunk && cands[k].idx != fastest) share = 0;
    shares[cands[k].idx] = share;
    assigned += share;
  }
  shares[fastest] += total - assigned;
  if (shares[fastest] != 0 && shares[fastest] < min_chunk &&
      cands.size() > 1) {
    // The remainder landed on the fastest rail as a crumb while another
    // rail carries real volume: merge it there instead of paying a chunk.
    std::size_t biggest = fastest;
    for (std::size_t k = 0; k < active; ++k)
      if (shares[cands[k].idx] > shares[biggest]) biggest = cands[k].idx;
    if (biggest != fastest) {
      shares[biggest] += shares[fastest];
      shares[fastest] = 0;
    }
  }

  // Predicted completion-time spread after rounding, in percent.
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  std::size_t carriers = 0;
  for (const Cand& c : cands) {
    if (shares[c.idx] == 0) continue;
    ++carriers;
    const double t =
        c.drain_time + static_cast<double>(shares[c.idx]) / c.rate;
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (carriers < 2 || hi <= 0.0) return 0.0;
  return (hi - lo) / hi * 100.0;
}

// ---- rate pricing ----------------------------------------------------------

Nanos chunked_span(const drv::Capabilities& caps, std::uint64_t bytes,
                   std::size_t chunk) {
  if (bytes == 0) return 0;
  if (chunk == 0 || chunk > bytes)
    chunk = static_cast<std::size_t>(bytes);
  const std::uint64_t full = bytes / chunk;
  const std::uint64_t tail = bytes % chunk;
  double span = 0.0;
  if (full > 0) {
    const double rate = stripe_rail_rate(caps, chunk);  // bytes/ns
    span += static_cast<double>(full) * static_cast<double>(chunk) /
            std::max(rate, 1e-12);
  }
  if (tail > 0) {
    const double rate =
        stripe_rail_rate(caps, static_cast<std::size_t>(tail));
    span += static_cast<double>(tail) / std::max(rate, 1e-12);
  }
  return static_cast<Nanos>(span);
}

Nanos striped_span(const std::vector<StripeRail>& rails, std::uint64_t bytes,
                   std::size_t chunk, std::size_t min_chunk) {
  if (bytes == 0) return 0;
  std::vector<std::uint64_t> shares;
  stripe_shares(rails, bytes, chunk, min_chunk, shares);
  double worst = 0.0;
  std::uint64_t carried = 0;
  for (std::size_t i = 0; i < rails.size(); ++i) {
    if (shares[i] == 0) continue;
    carried += shares[i];
    const double rate = stripe_rail_rate(*rails[i].caps, chunk);
    const double t = (static_cast<double>(rails[i].backlog_bytes) +
                      static_cast<double>(shares[i])) /
                     std::max(rate, 1e-12);
    worst = std::max(worst, t);
  }
  if (carried == 0) return 0;
  return static_cast<Nanos>(worst);
}

std::size_t pipeline_chunk(const drv::Capabilities& caps, std::uint64_t bytes,
                           std::size_t depth, std::size_t min_chunk) {
  min_chunk = std::max<std::size_t>(min_chunk, 1);
  if (depth <= 1 || bytes <= min_chunk)
    return static_cast<std::size_t>(std::max<std::uint64_t>(bytes, 1));
  auto cost = [&](std::size_t c) {
    const auto units = (bytes + c - 1) / c;
    const double rate = stripe_rail_rate(caps, c);
    const double per = static_cast<double>(c) / std::max(rate, 1e-12);
    return (static_cast<double>(depth - 1) + static_cast<double>(units)) *
           per;
  };
  auto best = static_cast<std::size_t>(bytes);
  double best_cost = cost(best);
  for (std::size_t c = min_chunk; c < bytes; c *= 2) {
    const double t = cost(c);
    if (t < best_cost) {
      best_cost = t;
      best = c;
    }
    if (c > (std::numeric_limits<std::size_t>::max() / 2)) break;
  }
  return best;
}

}  // namespace strategy_detail
}  // namespace mado::core

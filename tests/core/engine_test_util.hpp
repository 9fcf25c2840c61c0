// Shared helpers for engine tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/trace.hpp"
#include "core/world.hpp"
#include "drivers/profiles.hpp"
#include "util/wire.hpp"

namespace mado::core::testing {

inline Bytes pattern(std::size_t n, std::uint32_t seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<Byte>((seed * 2654435761u + i * 40503u) >> 13);
  return b;
}

/// Post a single-fragment message.
inline SendHandle send_bytes(Channel& ch, const Bytes& data,
                             SendMode mode = SendMode::Safe) {
  Message m;
  m.pack(data.data(), data.size(), mode);
  return ch.post(std::move(m));
}

/// Receive a single-fragment message of known size.
inline Bytes recv_bytes(Channel& ch, std::size_t n) {
  Bytes out(n);
  IncomingMessage im = ch.begin_recv();
  im.unpack(out.data(), n, RecvMode::Express);
  im.finish();
  return out;
}

/// Count BulkTx bytes per rail from a tracer attached to the sender (node 0).
inline std::map<RailId, std::uint64_t> bulk_tx_bytes_by_rail(
    const Tracer& tracer) {
  std::map<RailId, std::uint64_t> out;
  for (const TraceRecord& r : tracer.snapshot())
    if (r.event == TraceEvent::BulkTx && r.node == 0) out[r.rail] += r.c;
  return out;
}

}  // namespace mado::core::testing

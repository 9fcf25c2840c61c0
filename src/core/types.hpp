// Core identifier and mode types shared across the engine.
#pragma once

#include <cstdint>

#include "util/clock.hpp"

namespace mado::core {

/// Process/endpoint identity within one communication world.
using NodeId = std::uint32_t;

/// Logical communication flow (Madeleine "channel"). Channel ids are chosen
/// by the application — both sides of a connection must open a channel with
/// the same id, like an MPI tag agreed upon out of band.
using ChannelId = std::uint32_t;

/// Per-channel message sequence number, assigned at submit time.
using MsgSeq = std::uint32_t;

/// Index of a fragment inside one structured message.
using FragIdx = std::uint16_t;

/// Physical rail (NIC) index toward one peer.
using RailId = std::uint8_t;

/// Class→rail map entry meaning "no pinned rail": eager traffic of the
/// class takes the least-loaded Up rail per message, and bulk data stripes
/// over every Up rail.
inline constexpr RailId kAllRails = 0xff;

/// How the sender hands a buffer to the library (Madeleine send modes).
enum class SendMode : std::uint8_t {
  /// Buffer is copied at pack() time; reusable immediately.
  Safe,
  /// Buffer is read when the optimizer builds the packet; it must stay
  /// valid until the send completes. Cheapest for large payloads.
  Later,
  /// Library picks: small fragments are copied, large ones behave as Later.
  Cheaper,
};

/// How the receiver consumes a fragment (Madeleine receive modes).
enum class RecvMode : std::uint8_t {
  /// unpack() blocks until this fragment's data is available. Used for
  /// header fragments whose content determines how to receive the rest —
  /// the "message internal dependencies" the optimizer must respect.
  Express,
  /// unpack() just registers the destination; completion is awaited at
  /// finish(). Gives the library the most freedom (e.g. zero-copy rdv).
  Cheaper,
};

/// Traffic classes the scheduler can assign to networking resources
/// (paper §2: large synchronous sends, put/get transfers, control and
/// signalling messages as distinct classes).
enum class TrafficClass : std::uint8_t {
  Control = 0,
  SmallEager = 1,
  Bulk = 2,
  PutGet = 3,
};
constexpr std::size_t kTrafficClassCount = 4;

/// Health of one rail (NIC) toward a peer, as tracked by the engine.
enum class RailState : std::uint8_t {
  /// Healthy: scheduled normally.
  Up = 0,
  /// Lossy: at least one retransmit timeout is outstanding. Still
  /// scheduled, but a candidate for load shedding.
  Degraded = 1,
  /// Dead: link-down reported or retry budget exhausted. Never scheduled;
  /// its un-acked traffic has been drained to surviving rails.
  Down = 2,
};

inline const char* to_string(RailState s) {
  switch (s) {
    case RailState::Up: return "up";
    case RailState::Degraded: return "degraded";
    case RailState::Down: return "down";
  }
  return "?";
}

}  // namespace mado::core

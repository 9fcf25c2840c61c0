// Receive side of the engine: packet demultiplexing, fragment reassembly,
// the unexpected queue, rendezvous RTS/CTS handling and incremental unpack.
//
// Locking: every handler below runs under exactly one peer lock (ps.mu).
// on_packet() is the driver entry; during a progress lap (pump_shard, on
// whichever progress thread owns or stole the shard) it stages the packet
// into the lap's event batch instead of locking (see progress_lap.hpp), so
// a pump of N endpoints costs one lock acquisition, not N. Out-of-lap
// deliveries (a driver IO thread) do the whole job under the peer lock and
// wake only the peer's waiters, never a progress thread.
#include <algorithm>
#include <cstring>
#include <mutex>

#include "core/engine.hpp"
#include "core/progress_lap.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mado::core {

namespace {

/// Smallest chunk the stripe planner will cut. A rail whose cost-model
/// share comes out below this is dropped from the stripe and its bytes
/// folded into the fastest rail — a 100:1 rail pair should not pay a
/// rendezvous round just to move a handful of bytes on the slow NIC.
constexpr std::size_t kStripeMinChunk = 8 * 1024;

}  // namespace

// ---- driver entry ------------------------------------------------------------

void Engine::on_packet(NodeId peer, RailId rail_id, drv::TrackId track,
                       Bytes payload) {
  (void)track;  // demux is by magic, so shared-track configs need no branch
  if (detail::ProgressLap* lap = detail::t_progress_lap;
      lap && lap->engine == this && lap->peer == peer) {
    // Batched drain: progress() is pumping this peer's endpoints — stage
    // the arrival and let it apply the batch under ONE lock acquisition.
    auto* evs = static_cast<std::vector<RxEvent>*>(lap->events);
    RxEvent ev;
    ev.kind = RxEvent::Kind::Packet;
    ev.rail = rail_id;
    ev.payload = std::move(payload);
    evs->push_back(std::move(ev));
    return;
  }
  PeerState* ps = find_peer(peer);
  if (!ps) return;  // torn down
  {
    PeerLock lk(*ps);
    if (!alive_->load(std::memory_order_acquire)) return;  // being destroyed
    apply_packet_locked(*ps, rail_id, payload);
    drain_submit_ring_locked(*ps);
    // Arrivals can enqueue control fragments (CTS) or bulk chunks — pump.
    pump_peer_locked(*ps);
    // If the pump found nothing to piggyback the owed ack on, send it
    // standalone (rail may have gone Down meanwhile; the helper checks).
    if (cfg_.reliability && rail_id < ps->rails.size())
      maybe_send_ack_locked(*ps, *ps->rails[rail_id]);
  }
  // Only waiters are woken. The shard's owner is not: everything it would
  // do for this arrival was done above, and a timer armed here wakes it
  // through arm_peer_timer.
  wake_peer(*ps);
}

void Engine::apply_packet_locked(PeerState& ps, RailId rail_id,
                                 const Bytes& payload) {
  if (rail_id >= ps.rails.size()) return;
  try {
    MADO_CHECK_MSG(payload.size() >= 4, "runt packet");
    const std::uint32_t magic =
        static_cast<std::uint32_t>(payload[0]) |
        (static_cast<std::uint32_t>(payload[1]) << 8) |
        (static_cast<std::uint32_t>(payload[2]) << 16) |
        (static_cast<std::uint32_t>(payload[3]) << 24);
    if (magic == kPacketMagic) {
      handle_eager_packet_locked(ps, rail_id, payload);
    } else if (magic == kBulkMagic) {
      handle_bulk_packet_locked(ps, rail_id, payload);
    } else {
      MADO_CHECK_MSG(false, "unknown packet magic");
    }
  } catch (const PayloadCrcError& err) {
    // Headers decoded cleanly but the payload was damaged on the wire.
    // The reliable sequence was NOT consumed, so the sender's retransmit
    // repairs this — counted separately from protocol violations.
    ps.stats.inc("rel.payload_crc_drops");
    MADO_WARN("node " << self_ << ": dropping corrupt payload from peer "
                      << ps.id << ": " << err.what());
  } catch (const CheckError& err) {
    // A malformed or protocol-violating packet must not take the engine
    // down with it (the socket driver's loop thread delivers these); count
    // and drop. The CRC makes corrupted headers land here.
    ps.stats.inc("rx.malformed");
    MADO_WARN("node " << self_ << ": dropping malformed packet from peer "
                      << ps.id << ": " << err.what());
  }
}

// ---- eager path ---------------------------------------------------------------

void Engine::handle_eager_packet_locked(PeerState& ps, RailId rail_id,
                                        const Bytes& payload) {
  DecodedPacket pkt = parse_packet(ByteSpan(payload), /*crc_check=*/true);
  Rail& rail = *ps.rails[rail_id];
  const PacketHeader& ph = pkt.header;
  if (cfg_.reliability && (ph.flags & kPhFlagAck)) {
    // Piggybacked acks are processed FIRST — even a duplicate or
    // out-of-order packet carries fresh cumulative acks.
    process_acks_locked(ps, rail, ph.ack_eager, ph.ack_bulk);
  }
  if (cfg_.reliability && ph.nfrags == 0 && !(ph.flags & kPhFlagRelSeq)) {
    ps.stats.inc("rel.acks_rx");  // standalone ack: nothing else to deliver
    return;
  }
  if (!rel_rx_accept_locked(ps, rail, 0, ph.flags, ph.pkt_seq)) return;
  ps.stats.inc("rx.packets");
  ps.stats.inc("rx.bytes", payload.size());
  ps.stats.inc("rx.frags", pkt.frags.size());
  trace_locked(TraceEvent::PacketRx, ps.id, rail_id, pkt.frags.size(),
               payload.size(), 0, ph.pkt_seq);
  for (std::size_t i = 0; i < pkt.frags.size(); ++i) {
    const FragHeader& fh = pkt.frags[i];
    switch (fh.kind) {
      case FragKind::Data:
        deliver_data_frag_locked(ps, fh, pkt.payloads[i]);
        break;
      case FragKind::RdvRts:
        handle_rts_locked(ps, fh, pkt.payloads[i]);
        break;
      case FragKind::RdvCts:
        handle_cts_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaPut:
        handle_rma_put_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaGet:
        handle_rma_get_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaGetData:
        handle_rma_get_data_locked(ps, pkt.payloads[i]);
        break;
      case FragKind::RmaAck:
        handle_rma_ack_locked(ps, pkt.payloads[i]);
        break;
    }
  }
}

void Engine::note_nfrags_locked(RxMessage& msg, const FragHeader& fh) {
  MADO_CHECK_MSG(fh.nfrags_total > 0, "fragment with zero message size");
  MADO_CHECK_MSG(fh.frag_idx < fh.nfrags_total, "fragment index out of range");
  MADO_CHECK_MSG(fh.last() == (fh.frag_idx + 1 == fh.nfrags_total),
                 "inconsistent last-fragment flag");
  if (msg.nfrags_total == 0) {
    msg.nfrags_total = fh.nfrags_total;
  } else {
    MADO_CHECK_MSG(msg.nfrags_total == fh.nfrags_total,
                   "inconsistent message fragment count");
  }
}

void Engine::deliver_data_frag_locked(PeerState& ps, const FragHeader& fh,
                                      ByteSpan payload) {
  if (cfg_.reliability) {
    // Cross-rail replay after a failover can re-deliver a fragment whose
    // message already finished (delivered on the dead rail, ack lost) —
    // or one that landed twice. Dedup instead of treating it as protocol
    // abuse: with reliability on, duplicates are expected physics.
    auto cit = ps.channels.find(fh.channel);
    if (cit != ps.channels.end() &&
        fh.msg_seq < cit->second.rx_done_floor) {
      ps.stats.inc("rel.dup_drops");
      return;
    }
  }
  RxMessage& msg = ps.rx_msgs[{fh.channel, fh.msg_seq}];
  note_nfrags_locked(msg, fh);
  RxSlot& slot = msg.slot(fh.frag_idx);
  if (cfg_.reliability && (slot.have_data || slot.is_rdv)) {
    ps.stats.inc("rel.dup_drops");
    return;
  }
  MADO_CHECK_MSG(!slot.have_data && !slot.is_rdv, "duplicate fragment");
  slot.have_data = true;
  if (slot.posted) {
    MADO_CHECK_MSG(slot.dest_len == payload.size(),
                   "unpack size " << slot.dest_len
                                  << " != fragment size " << payload.size());
    if (!payload.empty())
      std::memcpy(slot.dest, payload.data(), payload.size());
    mark_slot_done_locked(msg, slot);
  } else {
    slot.buffered.assign(payload.begin(), payload.end());
    ps.stats.inc("rx.unexpected_frags");
  }
}

void Engine::mark_slot_done_locked(RxMessage& msg, RxSlot& slot) {
  MADO_ASSERT(!slot.done);
  slot.done = true;
  slot.buffered = Bytes();  // release any unexpected-queue copy
  ++msg.done_count;
}

// ---- rendezvous ----------------------------------------------------------------

void Engine::handle_rts_locked(PeerState& ps, const FragHeader& fh,
                               ByteSpan payload) {
  const RtsBody rts = decode_rts(payload);
  if (rdv_was_done_locked(ps, rts.token)) {
    ps.stats.inc("rel.dup_drops");  // replayed RTS of a finished rendezvous
    return;
  }
  trace_locked(TraceEvent::RdvRts, ps.id, 0, rts.token, rts.total_len);
  switch (rts.target) {
    case RdvTarget::Message: {
      if (cfg_.reliability) {
        auto cit = ps.channels.find(fh.channel);
        if (cit != ps.channels.end() &&
            fh.msg_seq < cit->second.rx_done_floor) {
          ps.stats.inc("rel.dup_drops");
          return;
        }
      }
      RxMessage& msg = ps.rx_msgs[{fh.channel, fh.msg_seq}];
      note_nfrags_locked(msg, fh);
      RxSlot& slot = msg.slot(fh.frag_idx);
      if (cfg_.reliability && (slot.have_data || slot.is_rdv)) {
        ps.stats.inc("rel.dup_drops");
        return;
      }
      MADO_CHECK_MSG(!slot.have_data && !slot.is_rdv, "duplicate RTS");
      slot.is_rdv = true;
      slot.token = rts.token;
      slot.total = rts.total_len;
      RdvRx rx;
      rx.target = RdvTarget::Message;
      rx.channel = fh.channel;
      rx.seq = fh.msg_seq;
      rx.idx = fh.frag_idx;
      ps.rdv_rx.insert_or_assign(rts.token, std::move(rx));
      ps.stats.inc("rx.rdv_rts");
      if (slot.posted) {
        MADO_CHECK_MSG(slot.dest_len == slot.total,
                       "unpack size " << slot.dest_len
                                      << " != rendezvous size "
                                      << slot.total);
        send_cts_locked(ps, fh, slot);
      }
      return;
    }
    case RdvTarget::Window: {
      // One-sided put: the destination is an exposed window — no
      // application receive exists, so the engine answers the CTS itself.
      const RmaWindow win =
          window_checked(rts.window, rts.offset, rts.total_len);
      RdvRx rx;
      rx.target = RdvTarget::Window;
      rx.base = win.base + rts.offset;
      rx.len = rts.total_len;
      rx.ack_token = rts.aux;
      if (cfg_.reliability && ps.rdv_rx.contains(rts.token)) {
        ps.stats.inc("rel.dup_drops");  // replayed RTS, transfer in progress
        return;
      }
      MADO_CHECK_MSG(ps.rdv_rx.emplace(rts.token, std::move(rx)).second,
                     "duplicate RTS token");
      ps.stats.inc("rx.rma_put_rts");
      send_auto_cts_locked(ps, fh, rts.token);
      return;
    }
    case RdvTarget::GetBuffer: {
      // Bulk reply to our own rma_get: route chunks into the requester's
      // destination buffer.
      if (cfg_.reliability && ps.rdv_rx.contains(rts.token)) {
        ps.stats.inc("rel.dup_drops");  // replayed RTS, transfer in progress
        return;
      }
      PendingGet* pg = ps.pending_gets.find(rts.aux);
      if (cfg_.reliability && !pg) {
        ps.stats.inc("rel.dup_drops");  // replayed RTS, get already finished
        return;
      }
      MADO_CHECK_MSG(pg != nullptr, "RTS for unknown get token " << rts.aux);
      MADO_CHECK_MSG(pg->len == rts.total_len, "get reply size mismatch");
      RdvRx rx;
      rx.target = RdvTarget::GetBuffer;
      rx.base = pg->dest;
      rx.len = rts.total_len;
      rx.get_token = rts.aux;
      MADO_CHECK_MSG(ps.rdv_rx.emplace(rts.token, std::move(rx)).second,
                     "duplicate RTS token");
      send_auto_cts_locked(ps, fh, rts.token);
      return;
    }
  }
}

void Engine::send_auto_cts_locked(PeerState& ps, const FragHeader& fh,
                                  std::uint64_t token) {
  TxFrag tf;
  tf.channel = fh.channel;
  tf.msg_seq = fh.msg_seq;
  tf.idx = fh.frag_idx;
  tf.nfrags_total = fh.nfrags_total;
  tf.kind = FragKind::RdvCts;
  tf.cls = TrafficClass::Control;
  tf.owned = ps.slab.take(CtsBody::kWireSize);
  encode_cts(tf.owned, CtsBody{token});
  tf.len = tf.owned.size();
  const Nanos t = std::max(timers_.now(), ps.last_drain_time);
  ps.last_drain_time = t;
  tf.submit_time = t;
  tf.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
  const RailId rail = rail_for_class_locked(ps, TrafficClass::Control);
  ps.rails[rail]->backlog.push_control(std::move(tf));
  ps.stats.inc("tx.rdv_cts");
}

void Engine::send_cts_locked(PeerState& ps, const FragHeader& fh,
                             RxSlot& slot) {
  MADO_ASSERT(slot.is_rdv && !slot.cts_sent);
  slot.cts_sent = true;
  TxFrag tf;
  tf.channel = fh.channel;
  tf.msg_seq = fh.msg_seq;
  tf.idx = fh.frag_idx;
  tf.nfrags_total = fh.nfrags_total;
  tf.kind = FragKind::RdvCts;
  tf.cls = TrafficClass::Control;
  CtsBody body{slot.token};
  tf.owned = ps.slab.take(CtsBody::kWireSize);
  encode_cts(tf.owned, body);
  tf.len = tf.owned.size();
  const Nanos t = std::max(timers_.now(), ps.last_drain_time);
  ps.last_drain_time = t;
  tf.submit_time = t;
  tf.order = next_submit_order_.fetch_add(1, std::memory_order_relaxed);
  const RailId rail = rail_for_class_locked(ps, TrafficClass::Control);
  ps.rails[rail]->backlog.push_control(std::move(tf));
  ps.stats.inc("tx.rdv_cts");
  // Caller pumps (post_unpack and handle_eager_packet both do).
}

void Engine::handle_cts_locked(PeerState& ps, ByteSpan payload) {
  const CtsBody cts = decode_cts(payload);
  trace_locked(TraceEvent::RdvCts, ps.id, 0, cts.token);
  RdvTx* rdvp = ps.rdv_tx.find(cts.token);
  if (cfg_.reliability && !rdvp) {
    ps.stats.inc("rel.dup_drops");  // replayed CTS, rendezvous already done
    return;
  }
  MADO_CHECK_MSG(rdvp != nullptr, "CTS for unknown rendezvous");
  RdvTx& rdv = *rdvp;
  if (cfg_.reliability && rdv.cts_received) {
    ps.stats.inc("rel.dup_drops");  // replayed CTS, chunks already queued
    return;
  }
  MADO_CHECK_MSG(!rdv.cts_received, "duplicate CTS");
  rdv.cts_received = true;
  ps.stats.inc("rx.rdv_cts");
  // Handshake latency: RTS submitted → CTS back from the receiver.
  if (rdv.rts_timed) {
    const Nanos now = timers_.now();
    ps.stats.observe("lat.rdv_handshake", now - std::min(now, rdv.rts_time));
  }
  distribute_chunks_locked(ps, cts.token, rdv);
}

void Engine::distribute_chunks_locked(PeerState& ps, std::uint64_t token,
                                      RdvTx& rdv) {
  // Cost-model placement (the optimizing layer's stripe hook): split the
  // transfer into per-rail contiguous byte ranges sized so every rail's
  // predicted completion time — per-chunk injection cost (PIO/DMA), wire
  // occupancy at the rail's effective bandwidth, and the backlog it must
  // drain first — comes out equal. Work stealing in pop_bulk_chunk_locked
  // corrects whatever the prediction gets wrong. The plan's scratch lives
  // in the peer so a rendezvous allocates nothing here.
  const std::size_t chunk_size = std::max<std::size_t>(1, cfg_.rdv_chunk);
  // The Bulk class entry says which rails may carry the transfer: every Up
  // rail for kAllRails, else the one rail it pins (its failover pick when
  // Down), which the plan then hands the whole transfer.
  const bool spread =
      class_rail_[static_cast<std::size_t>(TrafficClass::Bulk)].load(
          std::memory_order_relaxed) == kAllRails;
  const std::size_t pinned =
      spread ? 0 : rail_for_class_locked(ps, TrafficClass::Bulk);
  std::vector<strategy_detail::StripeRail>& cands = ps.stripe_rails;
  cands.resize(ps.rails.size());
  for (std::size_t i = 0; i < ps.rails.size(); ++i) {
    const Rail& rail = *ps.rails[i];
    cands[i].caps = &rail.ep->caps();
    cands[i].backlog_bytes = rail_pending_bytes_locked(rail);
    cands[i].up = rail.state != RailState::Down && (spread || i == pinned);
  }
  std::vector<std::uint64_t>& shares = ps.stripe_plan;
  const double imbalance = strategy_detail::stripe_shares(
      cands, rdv.total, chunk_size, kStripeMinChunk, shares);
  ps.stats.inc("stripe.transfers");
  // Histogram values are integral; record the predicted spread in percent.
  ps.stats.observe("stripe.imbalance_pct",
                   static_cast<std::uint64_t>(imbalance + 0.5));
  if (std::none_of(shares.begin(), shares.end(),
                   [](std::uint64_t s) { return s > 0; })) {
    // No carrier survived the model (all rails down — failover handles the
    // rest): everything on the Bulk class rail.
    shares[rail_for_class_locked(ps, TrafficClass::Bulk)] = rdv.total;
  }

  // Cut each rail's contiguous range into chunks on its queue. Offsets run
  // low-to-high across rails in index order; stripe ids are global over the
  // plan so traces can replay the placement.
  std::uint64_t off = 0;
  std::uint32_t stripe = 0;
  for (std::size_t i = 0; i < ps.rails.size(); ++i) {
    std::uint64_t left = shares[i];
    while (left > 0) {
      BulkChunk chunk;
      chunk.token = token;
      chunk.offset = off;
      chunk.len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(chunk_size, left));
      chunk.stripe = stripe++;
      off += chunk.len;
      left -= chunk.len;
      rdv.queued += chunk.len;
      ps.rails[i]->bulk_q.push_back(chunk);
    }
  }
  MADO_ASSERT(off == rdv.total);
  ps.stats.inc("stripe.chunks", stripe);
}

std::size_t Engine::rail_pending_bytes_locked(const Rail& rail) {
  std::size_t queued = 0;
  for (const BulkChunk& c : rail.bulk_q) queued += c.len;
  // inflight_bytes (until driver completion) and unacked_bytes (until
  // cumulative ack) cover overlapping sets of packets; take the larger so
  // a loaded rail is not charged twice for the same wire bytes.
  const std::size_t unacked =
      rail.rel[0].unacked_bytes + rail.rel[1].unacked_bytes;
  return queued + rail.backlog.byte_count() +
         std::max(rail.inflight_bytes, unacked);
}

// ---- bulk path -------------------------------------------------------------------

void Engine::handle_bulk_packet_locked(PeerState& ps, RailId rail_id,
                                       const Bytes& payload) {
  ByteSpan data;
  const BulkHeader bh =
      decode_bulk(ByteSpan(payload), data, /*crc_check=*/true);
  Rail& rail = *ps.rails[rail_id];
  if (cfg_.reliability && (bh.flags & kPhFlagAck))
    process_acks_locked(ps, rail, bh.ack_eager, bh.ack_bulk);
  if (!rel_rx_accept_locked(ps, rail, 1, bh.flags, bh.pkt_seq)) return;
  RdvRx* rxp = ps.rdv_rx.find(bh.token);
  if (!rxp && rdv_was_done_locked(ps, bh.token)) {
    // A chunk delivered on a rail that then died was replayed on the
    // survivor (its ack was lost in the failover) after the rendezvous
    // finished: drop the second copy.
    ps.stats.inc("rel.dup_drops");
    return;
  }
  MADO_CHECK_MSG(rxp != nullptr, "bulk chunk for unknown rendezvous");
  RdvRx& rx = *rxp;
  if (cfg_.reliability && !rx.seen_offsets.insert(bh.offset)) {
    // Same story, rendezvous still in progress: the offset already landed.
    ps.stats.inc("rel.dup_drops");
    return;
  }
  ps.stats.inc("rx.bulk_chunks");
  ps.stats.inc("rx.bytes", payload.size());
  // Reassembly watermark: a chunk starting above the in-order front arrived
  // out of order — another rail (or a stolen chunk) ran ahead. The memcpy
  // below is offset-addressed, so OOO landing is free; the counter just
  // makes cross-rail interleaving observable.
  if (bh.offset > rx.next_contig)
    ps.stats.inc("stripe.reassembly_ooo");
  else
    rx.next_contig = std::max(rx.next_contig, bh.offset + bh.len);
  trace_locked(TraceEvent::BulkRx, ps.id, rail_id, bh.token, bh.offset,
               bh.len, bh.stripe);

  if (rx.target == RdvTarget::Message) {
    auto mit = ps.rx_msgs.find({rx.channel, rx.seq});
    MADO_CHECK(mit != ps.rx_msgs.end());
    RxMessage& msg = mit->second;
    RxSlot& slot = msg.slot(rx.idx);
    MADO_CHECK(slot.is_rdv && slot.posted);
    MADO_CHECK_MSG(bh.offset + bh.len <= slot.total,
                   "bulk chunk out of range");
    if (bh.len > 0)
      std::memcpy(slot.dest + bh.offset, data.data(), bh.len);
    slot.received += bh.len;
    MADO_ASSERT(slot.received <= slot.total);
    if (slot.received == slot.total) {
      mark_slot_done_locked(msg, slot);
      note_rdv_done_locked(ps, bh.token);
      ps.rdv_rx.erase(bh.token);
      ps.stats.inc("rx.rdv_completed");
      trace_locked(TraceEvent::RdvDone, ps.id, rail_id, bh.token,
                   slot.total);
    }
    return;
  }

  // Direct targets: one-sided window or get-reply buffer.
  MADO_CHECK_MSG(bh.offset + bh.len <= rx.len, "bulk chunk out of range");
  if (bh.len > 0) std::memcpy(rx.base + bh.offset, data.data(), bh.len);
  rx.received += bh.len;
  MADO_ASSERT(rx.received <= rx.len);
  if (rx.received < rx.len) return;

  if (rx.target == RdvTarget::Window) {
    push_rma_ack_locked(ps, rx.ack_token);
    ps.stats.inc("rx.rma_puts_completed");
  } else {
    PendingGet* pg = ps.pending_gets.find(rx.get_token);
    MADO_CHECK(pg != nullptr);
    if (pg->state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      ps.stats.inc("rma.gets_completed");
    ps.pending_gets.erase(rx.get_token);
  }
  note_rdv_done_locked(ps, bh.token);
  trace_locked(TraceEvent::RdvDone, ps.id, rail_id, bh.token, rx.len);
  ps.rdv_rx.erase(bh.token);
}

// ---- RMA eager paths -----------------------------------------------------------

void Engine::push_rma_ack_locked(PeerState& ps, std::uint64_t ack_token) {
  TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaAck);
  tf.owned = ps.slab.take(RmaAckBody::kWireSize);
  encode_rma_ack(tf.owned, RmaAckBody{ack_token});
  tf.len = tf.owned.size();
  const RailId rail = rail_for_class_locked(ps, TrafficClass::Control);
  ps.rails[rail]->backlog.push_control(std::move(tf));
  ps.stats.inc("tx.rma_acks");
}

void Engine::handle_rma_put_locked(PeerState& ps, ByteSpan payload) {
  ByteSpan data;
  const RmaPutBody b = decode_rma_put(payload, data);
  const RmaWindow win = window_checked(b.window, b.offset, data.size());
  if (!data.empty())
    std::memcpy(win.base + b.offset, data.data(), data.size());
  ps.stats.inc("rx.rma_puts");
  push_rma_ack_locked(ps, b.ack_token);
}

void Engine::handle_rma_get_locked(PeerState& ps, ByteSpan payload) {
  const RmaGetBody b = decode_rma_get(payload);
  const RmaWindow win = window_checked(b.window, b.offset, b.len);
  ps.stats.inc("rx.rma_gets");

  MADO_CHECK(!ps.rails.empty());
  const RailId rail_id = rail_for_class_locked(ps, TrafficClass::PutGet);
  Rail& rail = *ps.rails[rail_id];
  const std::size_t rdv_thr = cfg_.rdv_threshold_override != 0
                                  ? cfg_.rdv_threshold_override
                                  : rail.ep->caps().rdv_threshold;
  if (b.len >= rdv_thr) {
    // Bulk reply: rendezvous straight from the window into the requester's
    // get buffer (the requester auto-answers the CTS).
    const std::uint64_t token =
        next_rdv_token_.fetch_add(1, std::memory_order_relaxed);
    RdvTx rdv;
    rdv.peer = ps.id;
    rdv.channel = kRmaChannel;
    rdv.data = win.base + b.offset;
    rdv.total = b.len;
    rdv.state = nullptr;  // no local handle: the requester tracks completion
    rdv.rts_time = timers_.now();
    rdv.rts_timed = true;
    rdv.cls = TrafficClass::PutGet;
    ps.rdv_tx.emplace(token, std::move(rdv));
    trace_locked(TraceEvent::RdvRts, ps.id, rail_id, token, b.len);

    TxFrag tf = make_rma_frag_locked(ps, FragKind::RdvRts);
    RtsBody rts;
    rts.token = token;
    rts.total_len = b.len;
    rts.target = RdvTarget::GetBuffer;
    rts.aux = b.get_token;
    tf.owned = ps.slab.take(RtsBody::kWireSize);
    encode_rts(tf.owned, rts);
    tf.len = tf.owned.size();
    rail.backlog.push(std::move(tf));
  } else {
    TxFrag tf = make_rma_frag_locked(ps, FragKind::RmaGetData);
    tf.owned = ps.slab.take(RmaGetDataBody::kWireSize + b.len);
    encode_rma_get_data(tf.owned, RmaGetDataBody{b.get_token});
    tf.owned.insert(tf.owned.end(), win.base + b.offset,
                    win.base + b.offset + b.len);
    tf.len = tf.owned.size();
    rail.backlog.push(std::move(tf));
  }
}

void Engine::handle_rma_get_data_locked(PeerState& ps, ByteSpan payload) {
  ByteSpan data;
  const RmaGetDataBody b = decode_rma_get_data(payload, data);
  PendingGet* pg = ps.pending_gets.find(b.get_token);
  if (cfg_.reliability && !pg) {
    ps.stats.inc("rel.dup_drops");  // replayed reply, get already finished
    return;
  }
  MADO_CHECK_MSG(pg != nullptr,
                 "get reply for unknown token " << b.get_token);
  MADO_CHECK_MSG(pg->len == data.size(), "get reply size mismatch");
  std::memcpy(pg->dest, data.data(), data.size());
  if (pg->state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
    ps.stats.inc("rma.gets_completed");
  ps.pending_gets.erase(b.get_token);
}

void Engine::handle_rma_ack_locked(PeerState& ps, ByteSpan payload) {
  const RmaAckBody b = decode_rma_ack(payload);
  SendStateRef* sp = ps.rma_acks.find(b.ack_token);
  if (cfg_.reliability && !sp) {
    ps.stats.inc("rel.dup_drops");  // replayed ack, put already completed
    return;
  }
  MADO_CHECK_MSG(sp != nullptr, "unexpected RMA ack " << b.ack_token);
  if ((*sp)->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
    ps.stats.inc("rma.puts_completed");
  ps.rma_acks.erase(b.ack_token);
}

// ---- application receive API ------------------------------------------------------

MsgSeq Engine::attach_recv(NodeId peer, ChannelId ch) {
  PeerState& ps = peer_ref(peer);
  std::lock_guard<std::mutex> lk(ps.mu);
  auto it = ps.channels.find(ch);
  MADO_CHECK_MSG(it != ps.channels.end(), "channel " << ch << " not open");
  return it->second.next_attach_seq++;
}

bool Engine::probe_recv(NodeId peer, ChannelId ch) const {
  const PeerState* ps = find_peer(peer);
  if (!ps) return false;
  std::lock_guard<std::mutex> lk(ps->mu);
  auto cit = ps->channels.find(ch);
  MADO_CHECK_MSG(cit != ps->channels.end(), "channel " << ch << " not open");
  auto it = ps->rx_msgs.find({ch, cit->second.next_attach_seq});
  return it != ps->rx_msgs.end() && it->second.nfrags_total != 0;
}

bool Engine::recv_complete(NodeId peer, ChannelId ch, MsgSeq seq) const {
  const PeerState* ps = find_peer(peer);
  if (!ps) return false;
  std::lock_guard<std::mutex> lk(ps->mu);
  auto it = ps->rx_msgs.find({ch, seq});
  return it != ps->rx_msgs.end() && it->second.complete();
}

void Engine::post_unpack(NodeId peer, ChannelId ch, MsgSeq seq, FragIdx idx,
                         void* buf, std::size_t len) {
  MADO_CHECK(buf != nullptr || len == 0);
  PeerState& ps = peer_ref(peer);
  {
    std::lock_guard<std::mutex> lk(ps.mu);
    RxMessage& msg = ps.rx_msgs[{ch, seq}];
    RxSlot& slot = msg.slot(idx);
    MADO_CHECK_MSG(!slot.posted, "fragment already unpacked");
    slot.posted = true;
    slot.dest = static_cast<Byte*>(buf);
    slot.dest_len = len;
    ++msg.posted_count;

    if (slot.have_data) {
      MADO_CHECK_MSG(slot.buffered.size() == len,
                     "unpack size " << len << " != fragment size "
                                    << slot.buffered.size());
      if (len > 0) std::memcpy(buf, slot.buffered.data(), len);
      mark_slot_done_locked(msg, slot);
    } else if (slot.is_rdv && !slot.cts_sent) {
      MADO_CHECK_MSG(slot.total == len,
                     "unpack size " << len << " != rendezvous size "
                                    << slot.total);
      FragHeader fh;
      fh.channel = ch;
      fh.msg_seq = seq;
      fh.frag_idx = idx;
      fh.nfrags_total = msg.nfrags_total;
      send_cts_locked(ps, fh, slot);
      pump_peer_locked(ps);
    }
  }
  wake_peer(ps);
}

void Engine::wait_frag(NodeId peer, ChannelId ch, MsgSeq seq, FragIdx idx) {
  PeerState& ps = peer_ref(peer);
  const bool ok = wait_peer_impl(
      ps,
      [&ps, ch, seq, idx] {
        std::lock_guard<std::mutex> lk(ps.mu);
        auto it = ps.rx_msgs.find({ch, seq});
        if (it == ps.rx_msgs.end()) return false;
        if (it->second.slots.size() <= idx) return false;
        return it->second.slots[idx].done;
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out waiting for fragment " << idx
                                                       << " of message "
                                                       << seq);
}

std::size_t Engine::wait_frag_size(NodeId peer, ChannelId ch, MsgSeq seq,
                                   FragIdx idx) {
  // A fragment's size is known once either its eager payload is buffered,
  // its unpack already completed, or — for rendezvous — the RTS arrived.
  PeerState& ps = peer_ref(peer);
  std::size_t size = 0;
  const bool ok = wait_peer_impl(
      ps,
      [&ps, ch, seq, idx, &size] {
        std::lock_guard<std::mutex> lk(ps.mu);
        auto it = ps.rx_msgs.find({ch, seq});
        if (it == ps.rx_msgs.end() || it->second.slots.size() <= idx)
          return false;
        const RxSlot& slot = it->second.slots[idx];
        if (slot.is_rdv) {
          size = slot.total;
          return true;
        }
        if (slot.have_data && !slot.done) {
          size = slot.buffered.size();
          return true;
        }
        if (slot.done) {
          size = slot.dest_len;
          return true;
        }
        return false;
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out waiting for fragment " << idx << " size");
  return size;
}

void Engine::finish_recv(NodeId peer, ChannelId ch, MsgSeq seq,
                         FragIdx nposted) {
  // First learn the message's fragment count (the first arrived fragment
  // carries it), then check the application consumed everything, then wait
  // for full delivery.
  PeerState& ps = peer_ref(peer);
  bool ok = wait_peer_impl(
      ps,
      [&ps, ch, seq] {
        std::lock_guard<std::mutex> lk(ps.mu);
        auto it = ps.rx_msgs.find({ch, seq});
        return it != ps.rx_msgs.end() && it->second.nfrags_total != 0;
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out waiting for message " << seq);
  {
    std::lock_guard<std::mutex> lk(ps.mu);
    const RxMessage& msg = ps.rx_msgs.at({ch, seq});
    MADO_CHECK_MSG(nposted == msg.nfrags_total,
                   "finish() after unpacking " << nposted << " of "
                                               << msg.nfrags_total
                                               << " fragments");
  }
  ok = wait_peer_impl(
      ps,
      [&ps, ch, seq] {
        std::lock_guard<std::mutex> lk(ps.mu);
        auto it = ps.rx_msgs.find({ch, seq});
        return it != ps.rx_msgs.end() && it->second.complete();
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out completing message " << seq);
  {
    std::lock_guard<std::mutex> lk(ps.mu);
    ps.rx_msgs.erase({ch, seq});
    auto cit = ps.channels.find(ch);
    if (cit != ps.channels.end() && seq >= cit->second.rx_done_floor)
      cit->second.rx_done_floor = seq + 1;  // dedup floor for rail replays
    ps.stats.inc("rx.msgs_completed");
  }
}

void Engine::flush_channel(NodeId peer, ChannelId ch) {
  PeerState* ps = find_peer(peer);
  if (!ps) return;  // peer never attached: trivially flushed
  const bool ok = wait_peer_impl(
      *ps,
      [ps, ch] {
        std::lock_guard<std::mutex> lk(ps->mu);
        auto it = ps->channels.find(ch);
        return it == ps->channels.end() ||
               (it->second.outstanding_sends == 0 &&
                (!ps->ring ||
                 ps->ring_pending.load(std::memory_order_acquire) == 0));
      },
      kDefaultTimeout);
  MADO_CHECK_MSG(ok, "timed out flushing channel " << ch);
}

}  // namespace mado::core

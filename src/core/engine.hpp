// The communication engine: Figure 1 of the paper in code.
//
//   Application/middleware layer — Channel::post() appends fragments to the
//     collect-layer backlog and returns immediately.
//   Optimizing layer — when a NIC track becomes idle (send-completion
//     callback) the configured Strategy reorganizes the accumulated backlog
//     into the next packet. While a track is busy, the backlog grows — that
//     is the optimizer's lookahead pool.
//   Transfer layer — drv::DriverEndpoint rails (one or more per peer, of
//     possibly different technologies), each with eager and bulk tracks.
//
// Also implemented here: the rendezvous protocol (RTS travels as an
// aggregatable control fragment; data flows on bulk tracks, split over
// the rails the Bulk class entry allows), traffic classes with dynamic
// re-assignment, and the receive side (demultiplexing, unexpected-fragment
// buffering, incremental unpack).
//
// Threading model (sharded; docs/internals.md §1 has the full write-up):
// engine state is partitioned per peer. Each PeerState carries its own
// mutex guarding everything reachable from it (rails, backlogs, reliability
// windows, rendezvous tables, RX reassembly, in-flight records); the peer
// map itself is read-mostly behind a shared_mutex and peers are never
// erased, so a resolved PeerState* stays valid for the engine's lifetime.
// Application threads submitting to different peers never contend. The
// submit fast path does not even take the peer lock: fragments ride a
// bounded lock-free MPMC ring drained by whoever holds the peer lock next
// (flat combining).
//
// Progress runs on cfg.progress_threads shard-owning threads: every peer
// is statically assigned an owner (insertion order modulo thread count,
// all rails of the peer included — rail affinity), submit/RX activity
// wakes ONLY the owner's park slot, and a thread idle past its yield phase
// steals un-pumped shards from busy owners. A per-shard pump claim
// (PeerState::pumping) keeps driver progress() single-entrant per endpoint
// whichever thread — owner, stealer, or a manual progress() caller — runs
// the lap. Peer-scoped timers (nagle, RTO) fire on the shard's owner: a
// foreign thread defers the callback into the owner's queue and wakes it.
//
// Lock order: peers_mu_ (shared) → PeerState::mu → {windows_mu_, wait/park
// mutexes, ProgSlot::mu/defer_mu}; at most one peer lock is held at a
// time. Counters are sharded per peer and aggregated on read, so
// counters_snapshot() never stalls the hot path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/backlog.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "core/packet.hpp"
#include "core/payload_pool.hpp"
#include "core/strategy.hpp"
#include "core/timer_host.hpp"
#include "core/token_table.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "drivers/driver.hpp"
#include "util/queues.hpp"
#include "util/stats.hpp"

namespace mado::core {

class Engine final {
 public:
  Engine(NodeId self, EngineConfig cfg, TimerHost& timers);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- topology -----------------------------------------------------

  /// Attach one rail (driver endpoint) toward `peer`. Rails are indexed in
  /// attach order. Must complete before traffic starts.
  RailId add_rail(NodeId peer, std::unique_ptr<drv::DriverEndpoint> ep);
  std::size_t rail_count(NodeId peer) const;

  /// Capabilities advertised by rail `rail` toward `peer` (cost-model input
  /// for planners; CHECK-fails on unknown peer/rail).
  drv::Capabilities rail_caps(NodeId peer, RailId rail) const;
  /// Current health of rail `rail` toward `peer`.
  RailState rail_state(NodeId peer, RailId rail) const;

  /// Open a logical flow to `peer`. Both sides must use the same id.
  /// The peer map is resolved ONCE here; the returned Channel caches the
  /// peer shard so post() never touches the map again.
  Channel open_channel(NodeId peer, ChannelId id,
                       TrafficClass cls = TrafficClass::SmallEager);

  // ---- progression ----------------------------------------------------

  /// Drain driver completions/arrivals, submit rings and due timers once.
  /// Returns true if any work was done (events applied, ring ops drained,
  /// or timers fired) — the progress thread's backoff feeds on this.
  bool progress();

  /// Simulation mode: a callback that advances the shared world by one
  /// event (e.g. [&]{ return fabric.step(); }); wait loops call it instead
  /// of sleeping. Returns false when the world is idle.
  void set_external_progress(std::function<bool()> fn);

  /// Real-driver mode: spawn cfg.progress_threads shard-owning threads,
  /// each pumping its peers continuously with adaptive spin → yield →
  /// parked-wait backoff when idle (counted per thread in prog.t<i>.* and
  /// in the prog.shard_laps / prog.steals / prog.wakeups / prog.idle_sleeps
  /// totals). stop_progress_thread() joins them and then runs one final
  /// drain so work staged in the stop window is never stranded.
  void start_progress_thread();
  void stop_progress_thread();

  // ---- blocking helpers ----------------------------------------------

  /// Lock-free: reads the handle's atomic completion state.
  bool send_done(const SendHandle& h) const;
  /// True once the engine gave up on the message (its rail died with no
  /// survivor to fail over to). wait_send() then returns false immediately.
  bool send_failed(const SendHandle& h) const;
  /// Blocks on the *destination peer's* condition variable, so completing
  /// one peer's send never wakes threads blocked on other peers.
  bool wait_send(const SendHandle& h, Nanos timeout = kDefaultTimeout);
  /// Wait until `pred` holds. `pred` is evaluated WITHOUT any engine lock
  /// held — it must do its own synchronization (e.g. via counters_snapshot
  /// or snapshot()).
  bool wait_until(const std::function<bool()>& pred,
                  Nanos timeout = kDefaultTimeout);
  /// Wait until all backlogs, submit rings, bulk queues and in-flight
  /// packets drain.
  bool flush(Nanos timeout = kDefaultTimeout);

  // ---- one-sided put/get (paper §2, "put/get transfers") ---------------

  using WindowId = std::uint32_t;

  /// Expose `len` bytes at `base` as window `id` for one-sided access by
  /// any connected peer. The memory must outlive the engine's traffic.
  void expose_window(WindowId id, void* base, std::size_t len);

  /// One-sided write into the peer's window. The handle completes on the
  /// peer's acknowledgement (remote completion). `data` must stay valid
  /// until then. Large puts flow through the rendezvous bulk path with an
  /// automatic CTS (no application involvement on the target).
  SendHandle rma_put(NodeId peer, WindowId window, std::uint64_t offset,
                     const void* data, std::size_t len,
                     TrafficClass cls = TrafficClass::PutGet);

  /// One-sided read from the peer's window into `dest`. The handle
  /// completes when all bytes have landed.
  SendHandle rma_get(NodeId peer, WindowId window, std::uint64_t offset,
                     void* dest, std::size_t len,
                     TrafficClass cls = TrafficClass::PutGet);

  // ---- traffic classes (paper §2) --------------------------------------

  void set_class_rail(TrafficClass cls, RailId rail);
  RailId class_rail(TrafficClass cls) const;
  /// One dynamic re-assignment step: move latency-sensitive classes
  /// (Control, SmallEager) to the currently least-loaded rail.
  void rebalance_classes();
  /// Re-run rebalance_classes() every `interval` until the engine dies.
  void set_auto_rebalance(Nanos interval);

  // ---- introspection ---------------------------------------------------

  /// Root stats registry: aggregates the per-peer shards on read. Reads
  /// (counter(), histogram(), to_string()) are thread-safe and engine-wide.
  StatsRegistry& stats() { return stats_; }

  /// Attach an event tracer (nullptr detaches). May be shared by several
  /// engines; must outlive the engine or be detached first. Safe to call
  /// while traffic is in flight: after set_tracer(nullptr) returns, no
  /// thread is still recording into the old tracer (it may be destroyed).
  void set_tracer(Tracer* tracer);
  /// Currently attached tracer (racy read; for diagnostics).
  Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }

  /// Aggregated copy of all counters from the per-peer shards. Takes no
  /// engine or peer lock — usable from timer callbacks and monitoring
  /// threads at any sampling rate without stalling TX.
  std::map<std::string, std::uint64_t, std::less<>> counters_snapshot() const;

  const EngineConfig& config() const { return cfg_; }
  NodeId self() const { return self_; }
  std::string strategy_name() const { return strategy_->name(); }
  TimerHost& timers() { return timers_; }

  std::size_t backlog_frags(NodeId peer, RailId rail) const;
  std::size_t inflight_packets() const;
  std::size_t pending_bulk_chunks(NodeId peer) const;

  /// Consistent point-in-time view of all queues (for monitoring/tools).
  /// Peer locks are taken one at a time, so the view is per-peer (not
  /// cross-peer) consistent — the same guarantee monitoring had before.
  struct Snapshot {
    struct RailInfo {
      std::string driver;
      RailState state = RailState::Up;
      std::size_t backlog_frags = 0;
      std::size_t backlog_bytes = 0;
      std::size_t bulk_chunks = 0;
      std::size_t outstanding_packets = 0;
      std::size_t inflight_bytes = 0;
      std::size_t unacked_packets = 0;  ///< reliability: sent, not yet acked
    };
    struct PeerInfo {
      NodeId id = 0;
      std::vector<RailInfo> rails;
      std::size_t open_channels = 0;
      std::size_t rx_pending_msgs = 0;
      std::size_t submit_ring_pending = 0;  ///< ops enqueued, not drained
    };
    std::vector<PeerInfo> peers;
    std::size_t inflight_packets = 0;
    std::size_t rdv_tx_active = 0;
    std::size_t rdv_rx_active = 0;
    std::size_t windows_exposed = 0;
    std::size_t pending_gets = 0;

    bool quiescent() const;
    std::string to_string() const;
  };
  Snapshot snapshot() const;

  static constexpr Nanos kDefaultTimeout = 30ull * kNanosPerSec;

  /// Reliability: consecutive timeout rounds (backoffs without forward
  /// progress) before a rail is declared Down and its traffic fails over.
  static constexpr std::size_t kRelMaxRetries = 10;

 private:
  friend class Channel;
  friend class IncomingMessage;

  // ---- internal types --------------------------------------------------

  struct Rail;

  /// Per-rail driver handler: forwards callbacks with (peer, rail) context.
  struct RailPort final : drv::EndpointHandler {
    Engine* engine = nullptr;
    NodeId peer = 0;
    RailId rail = 0;
    void on_send_complete(drv::TrackId track, std::uint64_t token) override {
      engine->on_send_complete(peer, rail, track, token);
    }
    void on_packet(drv::TrackId track, Bytes payload) override {
      engine->on_packet(peer, rail, track, std::move(payload));
    }
    void on_send_failed(drv::TrackId track, std::uint64_t token) override {
      engine->on_send_failed(peer, rail, track, token);
    }
    void on_link_down() override { engine->on_link_down(peer, rail); }
  };

  /// One pending rendezvous bulk chunk.
  struct BulkChunk {
    std::uint64_t token = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    /// Stripe sequence within the transfer's placement plan. Travels to the
    /// wire/trace for observability.
    std::uint32_t stripe = 0;
  };

  /// Per-(rail, reliable stream) go-back-N state. Stream 0 carries eager
  /// packets, stream 1 bulk chunks — independent of the physical track
  /// (shared-track rails multiplex both streams on track 0; per-stream
  /// sequence spaces keep them untangled). All guarded by the peer lock.
  struct RelTrack {
    // Sender.
    std::uint32_t next_seq = 0;  ///< next reliable seq to assign
    std::uint32_t acked = 0;     ///< cumulative: all seqs < acked are acked
    std::deque<std::uint64_t> unacked;  ///< inflight tokens, seq order
    std::size_t unacked_bytes = 0;      ///< wire bytes awaiting ack
    // Retransmit timer: a persistent cancellable handle (re-arms are O(1)
    // and allocation-free on the wheel; superseding arms physically remove
    // the old entry instead of leaving a dead deadline behind). The
    // callback is installed lazily on first arm (it needs the peer/rail
    // context) and stays for the rail's lifetime.
    TimerHandle rto_timer;
    std::uint32_t armed_acked = 0;  ///< `acked` when the timer was armed
    Nanos rto = 0;                  ///< current backoff (0 = cfg initial)
    std::size_t retries = 0;        ///< consecutive no-progress timeouts
    // Receiver.
    std::uint32_t rx_next = 0;  ///< next expected seq from the peer
  };

  struct Rail {
    std::unique_ptr<drv::DriverEndpoint> ep;
    RailPort port;
    std::vector<std::size_t> outstanding;  // per track
    TxBacklog backlog;
    std::deque<BulkChunk> bulk_q;  // chunks placed (or stolen) onto this rail
    bool bulk_turn = false;        // shared-track alternation
    RailState state = RailState::Up;
    RelTrack rel[2];       // [0] eager stream, [1] bulk stream
    bool ack_owed = false; // reliable data accepted since our last ack out
    // Nagle hold timer: persistent cancellable handle, armed while a lone
    // small fragment waits for company and cancelled the moment the
    // backlog drains — an idle rail holds no timer state at all.
    TimerHandle nagle_timer;
    std::uint64_t flow_index_ops_flushed = 0;  // backlog ops already counted
    std::uint32_t pkt_seq = 0;
    std::size_t inflight_bytes = 0;

    drv::TrackId bulk_track() const {
      return ep->caps().track_count > 1 ? drv::kTrackBulk : drv::kTrackEager;
    }
    bool shared_track() const { return ep->caps().track_count == 1; }
    bool track_free(drv::TrackId t) const {
      return outstanding[t] < ep->caps().track_depth;
    }
  };

  struct ChannelState {
    TrafficClass cls = TrafficClass::SmallEager;
    MsgSeq next_tx_seq = 0;
    MsgSeq next_attach_seq = 0;
    std::uint32_t outstanding_sends = 0;
    /// Reliability: messages with seq below this finished delivery; frags
    /// replayed across rails after a failover that land late are dropped
    /// as duplicates instead of resurrecting a completed message.
    MsgSeq rx_done_floor = 0;
  };

  /// Receive-side state of one fragment.
  struct RxSlot {
    bool have_data = false;  // eager payload arrived (buffered or copied)
    Bytes buffered;          // payload when it arrived before the unpack
    Byte* dest = nullptr;
    std::size_t dest_len = 0;
    bool posted = false;
    bool done = false;
    // Rendezvous:
    bool is_rdv = false;
    bool cts_sent = false;
    std::uint64_t token = 0;
    std::uint64_t total = 0;
    std::uint64_t received = 0;
  };

  struct RxMessage {
    std::uint16_t nfrags_total = 0;  // 0 = not known yet
    std::vector<RxSlot> slots;
    std::uint16_t posted_count = 0;
    std::uint16_t done_count = 0;

    RxSlot& slot(FragIdx idx) {
      if (slots.size() <= idx) slots.resize(idx + std::size_t{1});
      return slots[idx];
    }
    bool complete() const {
      return nfrags_total != 0 && done_count == nfrags_total;
    }
  };

  using RxKey = std::pair<ChannelId, MsgSeq>;

  /// Sender-side rendezvous state.
  struct RdvTx {
    NodeId peer = 0;
    ChannelId channel = 0;
    const Byte* data = nullptr;
    Bytes storage;  ///< keeps Safe-mode payload copies alive until sent
    std::uint64_t total = 0;
    std::uint64_t queued = 0;     // bytes cut into chunks so far
    std::uint64_t completed = 0;  // bytes whose chunk send completed
    bool cts_received = false;
    Nanos rts_time = 0;  ///< when the RTS was submitted (handshake latency)
    /// True once rts_time is a real timestamp. A plain `rts_time != 0`
    /// check would silently drop latency samples for transfers submitted at
    /// virtual time 0 — the very first message of every simulation.
    bool rts_timed = false;
    TrafficClass cls = TrafficClass::Bulk;
    /// Null for puts with remote acknowledgement (the handle then lives in
    /// rma_acks and completes on the RmaAck, not on local chunk completion).
    SendStateRef state;
  };

  /// Receiver-side rendezvous routing: where bulk chunks for `token` land,
  /// and what happens when the last byte arrives. Keyed by token alone —
  /// the table lives inside the sending peer's shard now.
  struct RdvRx {
    RdvTarget target = RdvTarget::Message;
    // Message target:
    ChannelId channel = 0;
    MsgSeq seq = 0;
    FragIdx idx = 0;
    // Direct targets (Window / GetBuffer):
    Byte* base = nullptr;
    std::uint64_t len = 0;
    std::uint64_t received = 0;
    std::uint64_t ack_token = 0;  ///< Window: RmaAck to send on completion
    std::uint64_t get_token = 0;  ///< GetBuffer: pending get to complete
    /// Reliability: chunk offsets already applied, so a chunk replayed on a
    /// surviving rail (delivered once, ack lost) is not double-counted.
    /// TokenSet: allocation-free while empty (the lossless-fabric common
    /// case), shrinks back after a reassembly burst.
    TokenSet seen_offsets;
    /// Reassembly watermark: lowest offset not yet known-contiguous from 0.
    /// Chunks landing above it arrived out of order (another rail ran
    /// ahead) — counted as `stripe.reassembly_ooo`.
    std::uint64_t next_contig = 0;
  };

  struct RmaWindow {
    Byte* base = nullptr;
    std::size_t len = 0;
  };

  struct PendingGet {
    Byte* dest = nullptr;
    std::uint64_t len = 0;
    SendStateRef state;
  };

  /// One in-flight packet (owns header block + fragment payload storage).
  /// With reliability on, the record outlives driver completion: it is the
  /// retransmit buffer, erased only when acked AND no transmission is still
  /// inside the driver (gather segments must stay valid until completion).
  struct InFlight {
    NodeId peer = 0;
    RailId rail = 0;
    drv::TrackId track = 0;
    Bytes header_block;
    FragList frags;
    bool is_bulk = false;
    std::uint64_t rdv_token = 0;
    std::uint64_t chunk_off = 0;
    std::uint32_t chunk_len = 0;
    std::uint32_t chunk_stripe = 0;
    std::size_t wire_bytes = 0;
    // Reliability:
    bool reliable = false;       ///< occupies a slot in a rel seq stream
    std::uint8_t rel_stream = 0; ///< 0 eager, 1 bulk
    std::uint32_t rel_seq = 0;
    bool acked = false;
    std::uint32_t tx_outstanding = 0;  ///< driver sends not yet completed
  };

  /// One application submit parked in the lock-free ring, waiting for the
  /// next peer-lock holder to drain it into the backlog.
  struct SubmitOp {
    ChannelId channel = 0;
    Message msg;
    SendStateRef state;
    Nanos enq_time = 0;
  };

  /// One driver event staged during a progress() lap, applied in batch
  /// under ONE peer-lock acquisition instead of one per callback.
  struct RxEvent {
    enum class Kind : std::uint8_t {
      SendComplete,
      Packet,
      SendFailed,
      LinkDown,
    };
    Kind kind = Kind::SendComplete;
    RailId rail = 0;
    drv::TrackId track = 0;
    std::uint64_t token = 0;
    Bytes payload;
  };

  /// All state for one peer, guarded by its own `mu`. Everything the wire
  /// protocols key by (peer, token) lives here keyed by token: rendezvous
  /// tables, in-flight records, pending gets, RMA acks — they were always
  /// peer-local by protocol; the sharding makes that locality structural.
  /// PeerStates are created at add_rail time and never destroyed before the
  /// engine, so raw pointers to them (Channel cache, timer captures) stay
  /// valid.
  struct PeerState {
    PeerState(NodeId peer, const EngineConfig& cfg, std::uint32_t owner_idx)
        : id(peer),
          owner(owner_idx),
          slab(&stats),
          strategy(StrategyRegistry::instance().create(cfg.strategy)) {
      if (cfg.submit_ring > 0) {
        std::size_t cap = 2;
        while (cap < cfg.submit_ring) cap <<= 1;
        ring = std::make_unique<MpmcRing<SubmitOp>>(cap);
      }
      lock_acqs = &stats.handle("opt.lock_acquisitions");
      lock_wait_ns = &stats.handle("opt.lock_wait_ns");
      // State tables share one budget policy: start empty, grow in powers
      // of two, shrink back when a burst drains. Rehashes land in the
      // cap.* counters so a misbehaving workload is visible.
      TokenTableOpts topts;
      topts.growths = &stats.handle("cap.table_growths");
      topts.shrinks = &stats.handle("cap.table_shrinks");
      inflight.set_opts(topts);
      rdv_tx.set_opts(topts);
      rdv_rx.set_opts(topts);
      pending_gets.set_opts(topts);
      rma_acks.set_opts(topts);
      rdv_rx_done.set_opts(topts);
    }

    const NodeId id;

    /// Owning progress-thread index (static: insertion order modulo
    /// cfg.progress_threads). Submit/RX activity wakes only this thread's
    /// park slot; its laps pump every rail of this peer (rail affinity).
    const std::uint32_t owner;

    /// Pump claim: the thread that CASes this false→true drives the whole
    /// endpoint pump of this shard for one lap. Owners, stealers and manual
    /// progress() callers all contend here, so a driver endpoint is never
    /// progressed from two threads at once (not part of the driver
    /// contract) and "every peer is progressed by exactly one pumper per
    /// lap" holds by construction.
    std::atomic<bool> pumping{false};

    mutable std::mutex mu;  ///< guards every non-atomic member below

    /// Completion waiters parked on this peer (wait_send, wait_frag, ...).
    /// `cv` is notified only when `waiters` is non-zero; waits are bounded,
    /// so a racing lost notify costs one bounded nap, never a hang.
    mutable std::condition_variable cv;
    mutable std::mutex wait_mu;  ///< cv's mutex — NOT `mu`, so waiters
                                 ///< never contend with the hot path
    std::atomic<int> waiters{0};

    /// Per-peer stats shard (registered as a child of the engine root).
    StatsRegistry stats;
    PayloadSlab slab;
    std::unique_ptr<Strategy> strategy;  ///< strategies may be stateful

    /// Lock-free submit fast path (null when cfg.submit_ring == 0).
    std::unique_ptr<MpmcRing<SubmitOp>> ring;
    /// Ops pushed but not yet drained — flush()/quiescence must count them.
    std::atomic<std::size_t> ring_pending{0};
    /// False once every rail is Down: submits fail fast without a lock.
    std::atomic<bool> any_rail_up{false};

    std::vector<std::unique_ptr<Rail>> rails;
    std::map<ChannelId, ChannelState> channels;
    std::map<RxKey, RxMessage> rx_msgs;
    /// Bulk placement scratch (distribute_chunks_locked), reused across
    /// rendezvous: it grows only when the rail count does.
    std::vector<strategy_detail::StripeRail> stripe_rails;
    std::vector<std::uint64_t> stripe_plan;
    /// Hot token-keyed state: open-addressing slabs (core/token_table.hpp),
    /// not std::map — O(1) probes, no per-entry allocation, and they shrink
    /// back when a flow burst drains so per-peer memory stays bounded.
    TokenTable<InFlight> inflight;
    TokenTable<RdvTx> rdv_tx;
    TokenTable<RdvRx> rdv_rx;
    TokenTable<PendingGet> pending_gets;
    TokenTable<SendStateRef> rma_acks;
    /// Reliability: recently completed receiver-side rendezvous tokens;
    /// dedup ring for cross-rail replays. Bounded (see note_rdv_done).
    TokenSet rdv_rx_done;
    std::deque<std::uint64_t> rdv_rx_done_fifo;

    /// Monotonic floor for drained submit times: ring enqueue timestamps
    /// from racing threads can arrive slightly out of order, but the
    /// backlog's flow index requires submit_time non-decreasing in `order`.
    Nanos last_drain_time = 0;

    /// Cached stats cells for the lock-contention instrumentation (hot:
    /// bumped on every peer-lock acquisition, so no name lookup).
    std::atomic<std::uint64_t>* lock_acqs = nullptr;
    std::atomic<std::uint64_t>* lock_wait_ns = nullptr;
  };

  /// RAII peer-lock with contention accounting: try_lock fast path; on
  /// contention the blocked time lands in opt.lock_wait_ns.
  class PeerLock {
   public:
    explicit PeerLock(PeerState& ps) : ps_(ps) {
      if (!ps.mu.try_lock()) {
        const auto t0 = std::chrono::steady_clock::now();
        ps.mu.lock();
        const auto dt = std::chrono::steady_clock::now() - t0;
        ps.lock_wait_ns->fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()),
            std::memory_order_relaxed);
      }
      ps.lock_acqs->fetch_add(1, std::memory_order_relaxed);
    }
    ~PeerLock() { ps_.mu.unlock(); }
    PeerLock(const PeerLock&) = delete;
    PeerLock& operator=(const PeerLock&) = delete;

   private:
    PeerState& ps_;
  };

  // ---- submit path (called from handles) -------------------------------

  SendHandle submit(NodeId peer, ChannelId ch, TrafficClass cls, Message msg,
                    void* peer_hint);
  MsgSeq attach_recv(NodeId peer, ChannelId ch);
  bool probe_recv(NodeId peer, ChannelId ch) const;
  bool recv_complete(NodeId peer, ChannelId ch, MsgSeq seq) const;
  void post_unpack(NodeId peer, ChannelId ch, MsgSeq seq, FragIdx idx,
                   void* buf, std::size_t len);
  void wait_frag(NodeId peer, ChannelId ch, MsgSeq seq, FragIdx idx);
  std::size_t wait_frag_size(NodeId peer, ChannelId ch, MsgSeq seq,
                             FragIdx idx);
  void finish_recv(NodeId peer, ChannelId ch, MsgSeq seq, FragIdx nposted);
  void flush_channel(NodeId peer, ChannelId ch);

  // ---- driver callback entry (no engine lock held) ---------------------

  void on_send_complete(NodeId peer, RailId rail, drv::TrackId track,
                        std::uint64_t token);
  void on_packet(NodeId peer, RailId rail, drv::TrackId track, Bytes payload);
  /// A queued send will never complete (the driver's wire broke under it).
  /// Treated as a link failure: the whole rail fails over in one sweep,
  /// which replays or fails this token's record along with the rest.
  void on_send_failed(NodeId peer, RailId rail, drv::TrackId track,
                      std::uint64_t token);
  void on_link_down(NodeId peer, RailId rail);

  // ---- peer resolution (peers_mu_, shared) ------------------------------

  /// Resolve a peer shard; the pointer stays valid for the engine's
  /// lifetime (peers are never erased). Returns nullptr if unknown.
  PeerState* find_peer(NodeId peer) const;
  /// Like find_peer but CHECK-fails on unknown peers.
  PeerState& peer_ref(NodeId peer) const;

  // ---- locked internals (callers hold ps.mu) ----------------------------

  /// Rail for one eager fragment, control message or RMA op of class
  /// `cls`, per the class→rail map: a pinned entry's rail (or any Up rail
  /// when it is Down), or the least-loaded Up rail for kAllRails.
  RailId rail_for_class_locked(const PeerState& ps, TrafficClass cls) const;

  /// Drain the submit ring into the backlog (ring order), then return how
  /// many ops were applied. Called by every peer-lock holder before
  /// pumping, so parked submissions never strand.
  std::size_t drain_submit_ring_locked(PeerState& ps);
  /// The (former) body of submit(): assign the sequence, cut fragments,
  /// queue rendezvous, push to the chosen rail's backlog.
  void submit_locked(PeerState& ps, ChannelId ch, Message&& msg,
                     const SendStateRef& state, Nanos enq_time);
  /// True when the shard holds work only a progress lap finishes: an
  /// in-flight record, a queued fragment or a queued bulk chunk.
  bool owner_work_locked(const PeerState& ps) const;
  /// After a submit released the peer lock: ring the owner's doorbell if
  /// `owner_work`, and wake the peer's waiters.
  void after_submit(PeerState& ps, bool owner_work);

  void pump_peer_locked(PeerState& ps);
  void pump_rail_locked(PeerState& ps, Rail& rail);
  bool try_send_eager_locked(PeerState& ps, Rail& rail);
  bool try_send_bulk_locked(PeerState& ps, Rail& rail);
  void send_packet_locked(PeerState& ps, Rail& rail, FragList&& frags);
  void send_bulk_chunk_locked(PeerState& ps, Rail& rail, BulkChunk chunk);
  bool pop_bulk_chunk_locked(PeerState& ps, Rail& rail, BulkChunk& out);
  /// The one call into DriverEndpoint::send. A send the driver reports as
  /// already gone completes here, inline; the caller must not touch the
  /// in-flight record of `token` afterwards (it may be erased). Every path
  /// whose pump reaches this wakes the peer's waiters after it unlocks.
  void driver_send_locked(PeerState& ps, Rail& rail, drv::TrackId track,
                          const GatherList& gl, std::uint64_t token);
  void schedule_nagle_timer_locked(PeerState& ps, Rail& rail, Nanos when);

  void complete_send_locked(PeerState& ps, Rail& rail, drv::TrackId track,
                            std::uint64_t token);
  void complete_frag_state_locked(PeerState& ps, ChannelId ch,
                                  const SendStateRef& state);
  /// Final bookkeeping of a fully-done InFlight record (frag states / rdv
  /// progress, buffer recycling). With reliability off this runs at driver
  /// completion; with it on, when acked and no transmission is in flight.
  void finalize_inflight_locked(PeerState& ps, InFlight& rec);

  /// Apply one staged driver event (batched drain) or one direct callback.
  void apply_send_complete_locked(PeerState& ps, RailId rail,
                                  drv::TrackId track, std::uint64_t token);
  void apply_packet_locked(PeerState& ps, RailId rail, const Bytes& payload);
  void apply_link_down_locked(PeerState& ps, RailId rail);

  // ---- reliability layer (all no-ops unless cfg_.reliability) -----------

  /// Serial-number comparison on the u32 sequence circle.
  static bool seq_less(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  void process_acks_locked(PeerState& ps, Rail& rail, std::uint32_t ack_eager,
                           std::uint32_t ack_bulk);
  void arm_rto_locked(PeerState& ps, Rail& rail, int stream);
  void rto_expired_locked(PeerState& ps, Rail& rail, int stream);
  void retransmit_locked(PeerState& ps, Rail& rail, std::uint64_t token,
                         InFlight& rec);
  /// Send a standalone (zero-fragment) cumulative-ack packet if one is owed
  /// and no data packet is about to piggyback it.
  void maybe_send_ack_locked(PeerState& ps, Rail& rail);
  /// Accept/dup/ooo decision for an arriving reliable packet; true = accept.
  bool rel_rx_accept_locked(PeerState& ps, Rail& rail, int stream,
                            std::uint8_t flags, std::uint32_t seq);
  /// Declare a rail dead: drain its un-acked in-flight records, backlog and
  /// bulk queue onto a surviving Up rail (or fail the sends if none).
  void fail_rail_locked(PeerState& ps, Rail& rail);
  /// Mark a send as failed (idempotent) and release its channel slot.
  void fail_state_locked(PeerState& ps, ChannelId ch,
                         const SendStateRef& state);
  /// Reliability: remember the token of a completed rendezvous so a
  /// replayed RTS/chunk for it is dropped as a duplicate, bounded in size.
  void note_rdv_done_locked(PeerState& ps, std::uint64_t token);
  bool rdv_was_done_locked(const PeerState& ps, std::uint64_t token) const;

  void handle_eager_packet_locked(PeerState& ps, RailId rail,
                                  const Bytes& payload);
  void handle_bulk_packet_locked(PeerState& ps, RailId rail,
                                 const Bytes& payload);
  void deliver_data_frag_locked(PeerState& ps, const FragHeader& fh,
                                ByteSpan payload);
  void handle_rts_locked(PeerState& ps, const FragHeader& fh,
                         ByteSpan payload);
  void handle_cts_locked(PeerState& ps, ByteSpan payload);
  void note_nfrags_locked(RxMessage& msg, const FragHeader& fh);
  void send_cts_locked(PeerState& ps, const FragHeader& fh, RxSlot& slot);
  /// Bulk placement at CTS time. The cost model
  /// (strategy_detail::stripe_shares) splits the transfer into per-rail
  /// contiguous ranges over the rails the Bulk class entry allows: every
  /// Up rail for kAllRails, else the one pinned rail, which then carries
  /// it all. When no rail can carry traffic, the whole transfer goes to the
  /// Bulk class rail. Each range is then cut into chunks on that rail's
  /// queue.
  void distribute_chunks_locked(PeerState& ps, std::uint64_t token,
                                RdvTx& rdv);
  /// Bytes that must drain from `rail` before a newly-queued bulk chunk
  /// moves: queued bulk chunks + eager backlog + the larger of
  /// driver-in-flight and un-acked wire bytes (they overlap; counting both
  /// would double-charge a loaded rail).
  static std::size_t rail_pending_bytes_locked(const Rail& rail);
  void mark_slot_done_locked(RxMessage& msg, RxSlot& slot);

  // RMA internals.
  void handle_rma_put_locked(PeerState& ps, ByteSpan payload);
  void handle_rma_get_locked(PeerState& ps, ByteSpan payload);
  void handle_rma_get_data_locked(PeerState& ps, ByteSpan payload);
  void handle_rma_ack_locked(PeerState& ps, ByteSpan payload);
  void send_auto_cts_locked(PeerState& ps, const FragHeader& fh,
                            std::uint64_t token);
  void push_rma_ack_locked(PeerState& ps, std::uint64_t ack_token);
  /// Bounds-checked window lookup, BY VALUE under windows_mu_ (shared):
  /// callers hold a peer lock, never the window map's.
  RmaWindow window_checked(WindowId id, std::uint64_t offset,
                           std::uint64_t len) const;
  TxFrag make_rma_frag_locked(PeerState& ps, FragKind kind);

  // ---- wait plumbing ---------------------------------------------------

  /// Generic wait: pred synchronizes itself; sleeps on the GLOBAL cv.
  bool wait_until_impl(const std::function<bool()>& pred, Nanos timeout);
  /// Peer-scoped wait: pred synchronizes itself; sleeps on ps.cv so only
  /// completions on this peer wake it.
  bool wait_peer_impl(PeerState& ps, const std::function<bool()>& pred,
                      Nanos timeout);

  // ---- progress threads -------------------------------------------------

  /// One park/wakeup slot per progress thread. The armed/parked/ticket
  /// trio is an eventcount: the thread publishes `armed` (seq_cst), runs
  /// one last poll lap, then parks only if `ticket` did not move — so a
  /// waker that bumps the ticket between the final poll and the cv wait is
  /// never lost (the wait is skipped). Wakers notify under `mu` so the
  /// notify cannot slip into the gap between the parked-check and the wait.
  struct ProgSlot {
    std::mutex mu;               ///< cv's mutex (park protocol only)
    std::condition_variable cv;
    std::atomic<bool> armed{false};   ///< thread is in its pre-park window
    std::atomic<bool> parked{false};  ///< thread is inside cv.wait_for
    std::atomic<std::uint64_t> ticket{0};  ///< activity epoch while armed

    /// Timer callbacks deferred to this thread (peer-timer affinity: RTO
    /// and nagle deadlines fire on the shard's owner; see peer_timer_cb).
    /// Drained at the top of every lap.
    std::mutex defer_mu;
    std::vector<std::function<void()>> deferred;

    // Cached per-thread counter cells (prog.t<i>.*).
    std::atomic<std::uint64_t>* laps = nullptr;
    std::atomic<std::uint64_t>* steals = nullptr;
    std::atomic<std::uint64_t>* wakeups = nullptr;
    std::atomic<std::uint64_t>* idle_sleeps = nullptr;
  };

  /// Unpark `s` if its thread is (about to go) idle. The armed gate keeps
  /// the hot path cheap: while the thread is actively polling, this is one
  /// relaxed-ish load and nothing else.
  void wake_slot(ProgSlot& s) {
    if (!s.armed.load(std::memory_order_seq_cst)) return;
    s.ticket.fetch_add(1, std::memory_order_seq_cst);
    if (s.parked.load(std::memory_order_seq_cst)) {
      // Lock/unlock before notifying: a notify issued while the parking
      // thread is between its parked-store and cv.wait would otherwise be
      // lost — exactly the race this slot protocol exists to close.
      { std::lock_guard<std::mutex> lk(s.mu); }
      s.cv.notify_one();
    }
  }

  /// Submit/RX activity on `ps`: route the wakeup to the owning thread's
  /// park slot only — other progress threads keep sleeping.
  void note_activity(PeerState& ps) { wake_slot(*prog_slots_[ps.owner]); }

  /// Pump one shard end-to-end (endpoint poll under a lap, then one locked
  /// batch apply + ring drain + pump + acks), guarded by the pump claim.
  /// `events`/`eps` are caller-owned scratch (capacity reuse across laps).
  /// Returns true if the shard produced work; false also when another
  /// thread holds the claim.
  bool pump_shard(PeerState& ps, std::vector<RxEvent>& events,
                  std::vector<drv::DriverEndpoint*>& eps);

  /// Body of progress thread `idx` (shard ownership, steal, park backoff).
  void progress_thread_main(std::size_t idx);

  /// Run deferred timer callbacks parked on `s`; returns how many ran.
  std::size_t drain_deferred(ProgSlot& s);

  /// Park bound: cfg_.prog_idle_wait clipped by the earliest scheduled
  /// timer deadline, so an RTO never waits out a full park.
  Nanos park_bound() const;

  /// Wrap `fn` as a TimerHandle callback with owner affinity: fired on a
  /// foreign thread while progress threads run, it defers to the owning
  /// thread's queue and wakes it instead of running in place. Installed
  /// ONCE per handle; every subsequent re-arm reuses it (allocation-free).
  TimerHandle::Callback peer_timer_cb(std::uint32_t owner,
                                      std::function<void(std::uint64_t)> fn);

  /// Arm `h` via timers_ and wake the shard owner's park slot: a thread
  /// parked against the previous earliest deadline must re-derive its
  /// bound, or a new earlier timer would sleep out the full park interval.
  void arm_peer_timer(PeerState& ps, TimerHandle& h, Nanos when);

  /// Wake this peer's waiters and any global (flush / wait_until) waiters.
  /// Cheap when nobody waits: two relaxed atomic loads.
  void wake_peer(PeerState& ps) {
    if (ps.waiters.load(std::memory_order_acquire) > 0) ps.cv.notify_all();
    wake_global();
  }
  void wake_global() {
    if (global_waiters_.load(std::memory_order_acquire) > 0)
      cv_.notify_all();
  }

  /// Emit a trace record if a tracer is attached. Callable under any peer
  /// lock or peers_mu_; every trace site MUST hold one of those (that is
  /// what makes set_tracer's detach-quiescence sweep sufficient).
  void trace_locked(TraceEvent ev, NodeId peer, RailId rail, std::uint64_t a,
                    std::uint64_t b = 0, std::uint64_t c = 0,
                    std::uint64_t d = 0) {
    Tracer* t = tracer_.load(std::memory_order_acquire);
    if (!t) return;
    TraceRecord rec;
    rec.time = timers_.now();
    rec.event = ev;
    rec.node = self_;
    rec.peer = peer;
    rec.rail = rail;
    rec.a = a;
    rec.b = b;
    rec.c = c;
    rec.d = d;
    t->record(rec);
  }

  // ---- data --------------------------------------------------------------

  const NodeId self_;
  EngineConfig cfg_;
  /// Progress-thread count (cfg_.progress_threads floored at 1). Fixed at
  /// construction: shard→owner assignment must never move under a running
  /// thread.
  const std::size_t prog_nthreads_;
  TimerHost& timers_;
  /// Prototype instance (name/introspection); each peer owns its own.
  std::unique_ptr<Strategy> strategy_;

  /// Peer map: read-mostly. Unique lock only in add_rail (topology setup);
  /// everything else takes it shared. PeerStates are never erased.
  mutable std::shared_mutex peers_mu_;
  std::map<NodeId, std::unique_ptr<PeerState>> peers_;

  /// RMA windows: written by expose_window, read (shared) by RX handlers
  /// under a peer lock — lock order ps.mu → windows_mu_.
  mutable std::shared_mutex windows_mu_;
  std::map<WindowId, RmaWindow> windows_;

  /// Root stats: engine-level counters (sched.*, prog.*) plus aggregation
  /// over the per-peer shards registered as children.
  StatsRegistry stats_;
  /// Atomic so attach/detach is race-free against hot-path reads; see
  /// set_tracer for the detach-quiescence sweep.
  std::atomic<Tracer*> tracer_{nullptr};

  std::atomic<std::uint64_t> next_pkt_token_{1};
  std::atomic<std::uint64_t> next_rdv_token_{1};
  std::atomic<std::uint64_t> next_submit_order_{1};

  std::array<std::atomic<RailId>, kTrafficClassCount> class_rail_{};

  /// Global waiters (flush / generic wait_until). Peer-scoped waits use the
  /// per-peer cv instead, so one peer's completions don't wake the world.
  mutable std::mutex wait_mu_;
  mutable std::condition_variable cv_;
  std::atomic<int> global_waiters_{0};

  /// Park/wakeup slots, one per progress thread, created in the
  /// constructor so note_activity() never races start/stop of the threads.
  /// unique_ptr: slots hold mutexes/cvs and must never move.
  std::vector<std::unique_ptr<ProgSlot>> prog_slots_;

  /// Totals across threads (the per-thread cells live in each ProgSlot).
  std::atomic<std::uint64_t>* prog_laps_total_ = nullptr;
  std::atomic<std::uint64_t>* prog_steals_total_ = nullptr;
  std::atomic<std::uint64_t>* prog_wakeups_total_ = nullptr;
  std::atomic<std::uint64_t>* prog_idle_total_ = nullptr;
  /// wait_until/wait_peer pumped the engine themselves (no progress thread
  /// attached) — stays 0 while threads run (the double-pump bugfix).
  std::atomic<std::uint64_t>* prog_self_pumps_ = nullptr;

  /// Cached timer.* cells (engine-level: timers are host-wide, not
  /// per-peer). arms = every (re-)arm; cancelled = retired before firing;
  /// stale_fires = callbacks that found their generation superseded (a
  /// cancel/re-arm raced an in-flight firing — rare by construction now
  /// that cancellation physically unlinks).
  std::atomic<std::uint64_t>* timer_arms_ = nullptr;
  std::atomic<std::uint64_t>* timer_cancelled_ = nullptr;
  std::atomic<std::uint64_t>* timer_stale_ = nullptr;

  /// Guards the odds and ends below (external progress hook, rebalance
  /// interval/chain).
  mutable std::mutex misc_mu_;
  std::function<bool()> external_progress_;
  Nanos auto_rebalance_interval_ = 0;
  /// Owner of the self-re-arming rebalance tick. The scheduled copies hold
  /// only a weak_ptr back to it, so no reference cycle forms and the chain
  /// dies with the engine (see set_auto_rebalance).
  std::shared_ptr<std::function<void()>> rebalance_tick_;

  std::vector<std::thread> progress_threads_;
  std::atomic<bool> stop_progress_{false};
  /// True between start_progress_thread() and the end of
  /// stop_progress_thread(): wait loops park instead of self-pumping, and
  /// peer timers defer to their owners, only while this holds.
  std::atomic<bool> prog_running_{false};
  std::shared_ptr<std::atomic<bool>> alive_;
};

}  // namespace mado::core

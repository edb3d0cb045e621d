#pragma once
// SocketTransport: the real multi-process Transport backend.
//
// Where SimTransport emulates MPI with threads in one process,
// SocketTransport implements the same surface over TCP/loopback so every
// rank can be its own OS process (examples/nopfs_worker.cpp is the per-rank
// binary; runtime::run_distributed drives it).  The design mirrors a small
// MPI-over-sockets runtime:
//
//   * Rendezvous: rank 0 listens on a well-known host:port; ranks 1..N-1
//     connect, introduce themselves (kHello: rank + the ephemeral port of
//     their serve listener) and receive the full endpoint table back
//     (kWelcome).  The control connections stay open and carry collectives.
//   * Collectives: gather-to-root + broadcast.  Non-roots send kGather on
//     their control connection and block on the kAllgather reply; the root
//     reads one kGather per peer (TCP keeps per-connection FIFO order, and
//     the Transport contract requires all ranks to issue collectives in the
//     same sequence, so no generation tags are needed).
//   * Serving (DESIGN.md Sec. 7.5/7.6): all socket I/O — accepted serve
//     connections, dialed peer channels, control connections, rendezvous —
//     runs on ONE epoll reactor thread (net/reactor.hpp) as non-blocking
//     per-peer Session state machines.  The process's thread count is
//     reactor + gossip regardless of world size.  Fetch is pipelined:
//     fetch_sample_start() enqueues a kFetch and returns a ticket,
//     fetch_sample_finish() parks on it, and replies match tickets FIFO
//     because the serve side answers one connection's requests in order.
//     fetch_sample_into() rides the same ticket carrying the caller's
//     buffer: its kHit is received straight into it, and the server sends
//     the cached buffer its handler returned, so a remote hit makes no
//     user-space copy on either rank (DESIGN.md Sec. 7.1).
//   * Time charging: byte-for-byte the SimTransport rules — a successful
//     fetch charges the server's emulated NIC as it serves and the
//     requester's NIC as it receives, so a run is priced identically no
//     matter which backend carries it (DESIGN.md Sec. 7).  The serve side
//     prices its NIC with a non-blocking reservation
//     (NicDevice::reserve_transfer) and a reactor timer instead of
//     blocking the loop.
//   * PFS contention accounting (DESIGN.md Sec. 7.4): rank 0 hosts the
//     authoritative job-wide active-reader counter.  Reader threads only
//     ENQUEUE their weighted transitions (pfs_adjust); a dedicated gossip
//     thread drains the queue as one net kPfsDelta frame per flush window
//     (GossipConfig: bounded interval in virtual time + max batch) on the
//     fetch channel to rank 0.  Rank 0 folds deltas under its counter lock
//     and broadcasts coalesced kPfsGamma updates on the same per-peer
//     channels the watermarks ride.  net::SharedPfs consumes this surface
//     to retune its token bucket.  Teardown flushes queued deltas through
//     the reactor and drains every session's send queue before closing, so
//     a cooperative shutdown drains rank 0's counter to zero without the
//     dead-rank cleanup path.
//
// Loopback only today: endpoints are exchanged as IPv4 addresses, so
// spanning real nodes needs nothing new on the wire, just reachable
// addresses.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::net::wire {
struct PfsGamma;
struct Frame;
enum class MsgType : std::uint8_t;
}

namespace nopfs::net {

struct SocketOptions {
  int rank = 0;
  int world_size = 1;
  /// Elastic worlds (DESIGN.md Sec. 11): highest rank count this world may
  /// ever grow to.  0 (the default) means the world is fixed at world_size.
  /// When > world_size, rank 0 keeps the rendezvous listener open after
  /// the base world is up and admits LATE JOINERS — ranks in
  /// [world_size, max_world) — which handshake exactly like base peers but
  /// are not waited for and never participate in collectives (they serve
  /// the pull-model sweep, gamma gossip, and sample fetches only).  Every
  /// rank of the world, joiners included, must agree on max_world: the
  /// rendezvous hello carries it and mismatches fail the handshake.
  int max_world = 0;
  /// Rendezvous address rank 0 listens on and every other rank dials.
  std::string rendezvous_host = "127.0.0.1";
  std::uint16_t rendezvous_port = 0;  ///< must be nonzero
  /// Wall-clock budget for the handshake and for any single blocking
  /// socket operation; expiry throws rather than hanging a CI job.
  double timeout_s = 120.0;
  /// Optional emulated NIC: transfers are charged through it exactly as
  /// SimTransport charges them.  May be null (untimed, bytes still counted).
  tiers::NicDevice* nic = nullptr;
  /// Contention-gossip batching.  The raw-transport default (flush 0)
  /// sends every transition synchronously — the unary-equivalence mode
  /// wire-level tests and the acquire/release cycle bench rely on; the
  /// harness passes its RuntimeConfig::pfs_gossip shape for batched worlds.
  GossipConfig gossip{0.0, 128};
  /// Virtual seconds per real second: converts gossip.flush_virtual_s to a
  /// real flush cadence (matches RuntimeConfig::time_scale in the harness).
  double time_scale = 1.0;
};

class SocketTransport final : public Transport {
 public:
  /// Blocks until the whole world has completed the rendezvous handshake.
  /// Throws std::runtime_error on timeout or a malformed peer.
  explicit SocketTransport(const SocketOptions& options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] int rank() const override { return options_.rank; }
  [[nodiscard]] int world_size() const override { return options_.world_size; }

  std::vector<Bytes> allgather(Bytes local) override;
  void barrier() override;

  void set_serve_handler(ServeHandler handler) override;
  std::optional<Bytes> fetch_sample(int peer, std::uint64_t id) override;
  /// The same ticket as fetch_sample(), carrying `out`: a kHit of exactly
  /// out.size() bytes is received straight into it by the reactor.  On a
  /// timeout the call cancels that receive on the reactor before it returns.
  bool fetch_sample_into(int peer, std::uint64_t id,
                         std::span<std::uint8_t> out) override;

  // --- pipelined fetch -----------------------------------------------------
  // fetch_sample() == fetch_sample_start() + fetch_sample_finish().  Splitting
  // the pair lets a caller keep dozens of kFetch frames in flight on one
  // connection; the serve side answers a connection's requests in order, so
  // replies resolve tickets FIFO.
  struct PendingFetch;
  using FetchTicket = std::shared_ptr<PendingFetch>;

  /// Enqueues a kFetch to `peer` and returns immediately.  Throws
  /// std::invalid_argument for self or an out-of-range peer (same contract
  /// as fetch_sample).
  [[nodiscard]] FetchTicket fetch_sample_start(int peer, std::uint64_t id);

  /// Parks until the ticket resolves (reply, dead peer, or timeout — the
  /// latter two are recorded misses).  Charges the requester's NIC on a hit.
  std::optional<Bytes> fetch_sample_finish(const FetchTicket& ticket);

  int pfs_adjust(int delta) override;
  void set_pfs_listener(PfsListener listener) override;

  // --- sweep service (DESIGN.md Sec. 10) -----------------------------------
  // Sweep frames ride the per-peer fetch channel to rank 0 and share its
  // FIFO ticket discipline: a kSweepPull enqueues a ticket exactly like a
  // kFetch, and the rank-0 serve side answers a connection's requests in
  // order, so kSweepGrant/kSweepDone replies pair with their pulls without
  // any request ids.  kSweepResult is one-way (no ticket); TCP keeps it
  // ahead of the sender's next pull.
  void set_sweep_service(SweepService service) override;
  std::optional<std::pair<bool, Bytes>> sweep_pull(Bytes pull) override;
  void sweep_push_result(Bytes batch) override;

  void publish_watermark(std::uint64_t position) override;
  [[nodiscard]] std::uint64_t watermark_of(int peer) const override;

  [[nodiscard]] double transferred_mb() const override;

  /// Port of this rank's serve listener (diagnostics / tests).
  [[nodiscard]] std::uint16_t serve_port() const noexcept { return serve_port_; }

  [[nodiscard]] const char* reactor_backend() const noexcept override {
    return "epoll";
  }

  /// Drains any queued contention deltas (and, on rank 0, any pending
  /// coalesced gamma broadcast) right now, ahead of the flush cadence.
  /// Tests use it to make batched-mode assertions deterministic; teardown
  /// calls it so cooperative shutdown never drops a queued release.
  void flush_pfs_gossip();

 private:
  /// Ranks this world may ever hold: world_size for fixed worlds, max_world
  /// for elastic ones.  Every per-rank table is sized by this, and every
  /// frame-sender validation bounds against it, so a late joiner's frames
  /// are first-class.
  [[nodiscard]] int total_ranks() const noexcept {
    return std::max(options_.world_size, options_.max_world);
  }
  /// True when this rank is a late joiner (outside the base world): it
  /// skipped the collective-bearing rendezvous wait and must never enter a
  /// collective.
  [[nodiscard]] bool is_joiner() const noexcept {
    return options_.rank >= options_.world_size;
  }

  struct PeerEndpoint {
    std::uint32_t ipv4 = 0;  ///< network byte order
    std::uint16_t port = 0;
  };
  struct Session;  // per-connection state machine (socket_transport.cpp)
  struct Loop;     // reactor-confined state: sessions, collectives, rendezvous
  struct SyncWaiter;

  /// Queues a kFetch ticket; a non-empty `dest` asks for in-place receive.
  [[nodiscard]] FetchTicket start_fetch(int peer, std::uint64_t id,
                                        std::span<std::uint8_t> dest);
  /// Parks until `ticket` resolves.  False, logged, when timeout_s passed
  /// first.
  bool await_resolved(const FetchTicket& ticket);
  /// After a timed-out fetch_sample_into: makes the reactor stop writing
  /// into the ticket's `dest`, and waits until it has.
  void cancel_landing(const FetchTicket& ticket);
  /// Charges the requester's NIC (or the no-NIC counter) for a received hit.
  void charge_received(std::size_t bytes);

  void rendezvous_as_root();
  void rendezvous_as_peer();
  void check_peer(int peer) const;

  // --- reactor-thread-only helpers (loop_* prefix) -------------------------
  void loop_accept_serve();
  void loop_accept_rendezvous();
  std::shared_ptr<Session> loop_make_session(int fd, int kind, int state);
  void loop_on_session_event(int fd, std::uint32_t events);
  void loop_finish_connect(const std::shared_ptr<Session>& session);
  void loop_dispatch_frame(const std::shared_ptr<Session>& session,
                           wire::Frame frame);
  void loop_rendezvous_hello(const std::shared_ptr<Session>& session,
                             wire::Frame frame);
  void loop_serve_frame(const std::shared_ptr<Session>& session,
                        wire::Frame frame);
  void loop_channel_reply(const std::shared_ptr<Session>& session,
                          wire::Frame frame);
  void loop_control_frame(const std::shared_ptr<Session>& session,
                          wire::Frame frame);
  /// Queues a serve reply, honoring a NIC reservation delay: delayed replies
  /// sit in a per-session FIFO released by a reactor timer, and anything
  /// behind a delayed reply waits for it — reply order must match request
  /// order or pipelined tickets would mis-pair.
  void loop_enqueue_reply(const std::shared_ptr<Session>& session,
                          wire::MsgType type, std::uint64_t arg,
                          std::shared_ptr<const Bytes> payload, double delay_s);
  void loop_arm_delayed_timer(const std::shared_ptr<Session>& session);
  /// Channel to `peer`, dialing (non-blocking) on first use.  Returns null
  /// if the peer is unreachable or the transport is draining.
  std::shared_ptr<Session> loop_channel(int peer);
  void loop_mark_dirty(const std::shared_ptr<Session>& session);
  void loop_flush_dirty();
  void loop_flush_session(const std::shared_ptr<Session>& session);
  void loop_close_session(const std::shared_ptr<Session>& session);
  void loop_fail_rendezvous(const std::string& error);
  void loop_begin_root_gather(const std::shared_ptr<SyncWaiter>& waiter,
                              Bytes local);
  void loop_begin_peer_gather(const std::shared_ptr<SyncWaiter>& waiter,
                              Bytes local);
  void loop_finish_root_gather();
  void loop_begin_drain(const std::shared_ptr<SyncWaiter>& waiter);
  void loop_check_drained();

  /// Rank-0 side of the contention protocol: folds `delta` into `rank`'s
  /// reader-count contribution under pfs_mutex_, recomputes the
  /// authoritative gamma, optionally notifies the local listener and queues
  /// (or, in unary mode, posts) the kPfsGamma broadcast.  Returns the new
  /// gamma.  `conn_tag` identifies the serve session the frame arrived
  /// on (null for rank 0's own transitions); it is recorded as the rank's
  /// owner while the contribution is nonzero so the disconnect cleanup can
  /// tell a stale connection's orphan from live deltas on a redialed
  /// channel.
  /// `seq` is the sender's frame sequence (0 for rank 0's own transitions,
  /// which need no duplicate guard).
  int pfs_root_fold(int rank, int delta, bool notify_local,
                    const void* conn_tag = nullptr, std::uint32_t seq = 0);
  /// The fold body (contribution update, gamma recompute, listener,
  /// broadcast-or-queue).  Caller must hold pfs_mutex_.
  int pfs_fold_locked(int rank, int delta, bool notify_local,
                      const void* conn_tag);
  /// Rank-0 disconnect cleanup: zeroes `rank`'s contribution iff `conn_tag`
  /// still owns it (a redialed channel's live contribution is left alone).
  void pfs_root_drop_dead_rank(int rank, const void* conn_tag);
  /// Rank-0: posts the broadcast of `gamma_value` to every peer onto the
  /// reactor.  Caller must hold pfs_mutex_; the reactor's FIFO task queue
  /// preserves fold order on the wire (broadcasts are ALWAYS posted, never
  /// sent inline, so seq order can't invert).
  void pfs_broadcast_gamma_locked(int gamma_value);
  /// Rank-0, batched mode: emits the pending coalesced broadcast — the
  /// window's peak first when it exceeds the settle value, so the envelope
  /// survives coalescing.  Caller must hold pfs_mutex_.
  void pfs_emit_pending_broadcast_locked();
  /// Non-root side: applies a kPfsGamma update from rank 0.
  void pfs_apply_gamma(const wire::PfsGamma& update);
  /// Non-root: enqueues a transition for the gossip thread, or flushes it
  /// inline when flush_virtual_s == 0 (unary-equivalence mode).
  void pfs_enqueue_delta(int delta);
  /// Drains the queue as one net kPfsDelta posted to the reactor.
  /// Self-locking: concurrent flushers serialize on pfs_flush_mutex_ across
  /// their posts (so frames reach the channel in seq order) while
  /// gossip_mutex_ is held only for the snapshot — reader threads never
  /// wait on a socket send.
  void pfs_flush_deltas();
  /// The gossip thread: drains the delta queue / pending broadcast at the
  /// configured cadence until teardown.
  void gossip_loop();
  /// Real-seconds flush cadence (gossip.flush_virtual_s / time_scale).
  [[nodiscard]] double flush_interval_s() const noexcept;
  /// Flushes gossip, drains every session's send queue on the reactor,
  /// stops the reactor, closes what's left.  Used by both the destructor
  /// and constructor failure cleanup.
  void teardown();

  SocketOptions options_;

  // The reactor and its confined state (Loop).  loop_ members are touched
  // only on the reactor thread while it runs; the constructor fills them in
  // before start() and teardown reads them after stop() joins.
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<Loop> loop_;

  int serve_listener_fd_ = -1;
  std::uint16_t serve_port_ = 0;
  int rendezvous_listener_fd_ = -1;
  std::atomic<bool> stopping_{false};

  std::mutex handler_mutex_;
  ServeHandler handler_;

  std::mutex sweep_mutex_;  // guards sweep_service_ (install/withdraw fence)
  SweepService sweep_service_;

  std::mutex collective_mutex_;  // collectives are one-at-a-time
  std::vector<PeerEndpoint> endpoints_;

  std::vector<std::atomic<std::uint64_t>> watermarks_;
  std::atomic<double> transferred_mb_no_nic_{0.0};

  // PFS contention state.  pfs_mutex_ orders every gamma change and is held
  // across the kPfsGamma broadcast POST (so peers never see updates out of
  // order) and across listener invocation (so set_pfs_listener({}) fences).
  // Lock order: pfs_mutex_ and gossip_mutex_ are never held together; the
  // reactor thread takes pfs_mutex_ (folds) and handler_mutex_ (serves) but
  // never blocks on a caller, so no cycle can form.
  std::mutex pfs_mutex_;
  std::vector<int> pfs_readers_;  ///< rank 0 only: per-rank reader count
  /// Rank 0 only: the serve session that last carried each rank's
  /// deltas while its contribution is nonzero (null = idle) — lets the
  /// disconnect cleanup skip ranks whose deltas moved to a newer channel.
  std::vector<const void*> pfs_owner_;
  std::vector<std::uint32_t> pfs_rank_seq_;  ///< rank 0: last applied delta seq
  int pfs_gamma_ = 0;             ///< authoritative (rank 0) / estimate (others)
  int pfs_local_readers_ = 0;     ///< this rank's own net contribution
  std::uint32_t pfs_gamma_seq_ = 0;       ///< rank 0: broadcast seq (sent)
  std::uint32_t pfs_gamma_seen_ = 0;      ///< non-root: last applied broadcast
  bool pfs_broadcast_pending_ = false;    ///< rank 0, batched mode
  /// Rank 0, batched mode: highest gamma folded since the last broadcast.
  /// A coalesced broadcast whose window saw a higher transient emits the
  /// peak first, then the settle value — so the gamma ENVELOPE survives
  /// coalescing, not just the endpoint (tests pin envelope parity).
  int pfs_broadcast_peak_ = 0;
  PfsListener pfs_listener_;

  // The gossip queue (non-root deltas; rank 0 reuses only the thread, for
  // coalesced broadcasts).  Reader threads append under gossip_mutex_ and
  // return; gossip_thread_ drains at the flush cadence.  pfs_flush_mutex_
  // serializes flushers across their posts (seq order on the channel);
  // lock order: pfs_flush_mutex_ before gossip_mutex_.
  std::mutex pfs_flush_mutex_;
  std::mutex gossip_mutex_;
  std::condition_variable gossip_cv_;
  std::thread gossip_thread_;
  int pending_delta_ = 0;         ///< net queued reader-count change
  /// Highest prefix sum the queued transitions reached: the rank's peak
  /// contribution within the window, relative to its last-flushed value.
  /// A flush whose peak exceeds the net sends the peak first, then the
  /// correction down to the net, so a brief acquire/release pair inside
  /// one window still registers on rank 0's counter trajectory instead of
  /// silently coalescing to nothing.
  int pending_max_prefix_ = 0;
  int pending_transitions_ = 0;   ///< transitions coalesced into it
  std::uint32_t delta_seq_ = 0;   ///< non-root: kPfsDelta frames sent
  bool gossip_stop_ = false;
};

/// A loopback port that is free now, for the caller to hand to a
/// SocketTransport world (tests, process spawners).  It lies outside the
/// kernel's ephemeral range, so no bind to port 0 or outgoing connect can
/// take it before the rendezvous binds it.
[[nodiscard]] std::uint16_t pick_free_port();

}  // namespace nopfs::net

#pragma once
// Transport abstraction: the communication surface NoPFS needs from MPI.
//
// The paper's implementation uses MPI for (1) an allgather distributing
// every worker's access sequence R during setup, (2) serving locally cached
// samples to remote workers and requesting samples from them, and (3) the
// prefetch-progress heuristic (Sec. 5.2.2).  This interface captures exactly
// that surface; `SimTransport` (sim_transport.hpp) provides the single-box
// substitute where workers are threads and link bandwidth is emulated, and
// `SocketTransport` (socket_transport.hpp) is the real multi-process
// backend over TCP (DESIGN.md Sec. 7).  An MPI backend would implement the
// same interface.

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nopfs::net {

/// Sample payload bytes.
using Bytes = std::vector<std::uint8_t>;

/// Shape of the batched PFS contention gossip (DESIGN.md Sec. 7.4).  A
/// reader-count transition is enqueued, not sent: a gossip thread drains
/// the queue as one net kPfsDelta frame every `flush_virtual_s` VIRTUAL
/// seconds (the transport divides by its time scale), or sooner once
/// `max_batch` transitions are pending.  `flush_virtual_s == 0` selects the
/// unary-equivalence mode: every transition is sent synchronously from the
/// calling thread, reproducing the historical per-transition protocol
/// (tests pin that both modes deliver identical digests and gamma
/// envelopes).  The defaults here are THE batched harness defaults —
/// RuntimeConfig and the scenario registry inherit them, so the flush
/// window is tuned in exactly one place; raw SocketOptions overrides to
/// flush 0.  Transports without contention accounting ignore this.
struct GossipConfig {
  double flush_virtual_s = 0.005;
  int max_batch = 128;
  /// Adaptive flush for churny/elastic worlds (DESIGN.md Sec. 11): when
  /// > 0, the gossip thread's window adapts inside
  /// [min_flush_virtual_s, flush_virtual_s] — it halves after a window
  /// that had transitions to flush (gamma is volatile, peers should hear
  /// sooner) and doubles after a quiet one (gamma is steady, save the
  /// frames).  0 — the default — keeps the fixed window, bit-compatible
  /// with the pinned digest/gamma envelopes.  Flushes stay
  /// extreme-preserving either way, so the adaptation never changes WHAT
  /// peers learn, only how soon.
  double min_flush_virtual_s = 0.0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// This worker's rank in [0, world_size).
  [[nodiscard]] virtual int rank() const = 0;

  /// Number of workers.
  [[nodiscard]] virtual int world_size() const = 0;

  /// Collective: contributes `local`, returns every rank's contribution
  /// indexed by rank.  All ranks must call; blocks until complete.
  virtual std::vector<Bytes> allgather(Bytes local) = 0;

  /// Collective barrier.
  virtual void barrier() = 0;

  /// Handler invoked when a remote worker requests sample `id` from this
  /// rank; returns the cached buffer itself, or nullptr when not cached.
  /// The buffer must stay unmodified while the transport holds it: it is
  /// sent as is, without a copy.
  using ServeHandler = std::function<std::shared_ptr<const Bytes>(std::uint64_t id)>;

  /// Installs the serve handler (must be set before any peer may fetch).
  virtual void set_serve_handler(ServeHandler handler) = 0;

  /// Requests sample `id` from `peer`.  Returns nullopt if the peer does
  /// not (yet) have the sample — the paper treats this as a detectable,
  /// non-fatal miss.  Blocking; network time is charged by the transport.
  virtual std::optional<Bytes> fetch_sample(int peer, std::uint64_t id) = 0;

  /// fetch_sample() into a caller-owned buffer.  True when the peer had the
  /// sample and it is exactly out.size() bytes long; then `out` holds it.
  /// Otherwise false, and the content of `out` is unspecified (a reply cut
  /// off mid-receive may have written part of it).  The NIC and
  /// transferred_mb() accounting is fetch_sample()'s.  No write into `out`
  /// happens after the call returns.  This default fetches and copies once;
  /// transports that can receive in place override it.
  virtual bool fetch_sample_into(int peer, std::uint64_t id,
                                 std::span<std::uint8_t> out) {
    const auto bytes = fetch_sample(peer, id);
    if (!bytes.has_value() || bytes->size() != out.size()) return false;
    if (!out.empty()) std::memcpy(out.data(), bytes->data(), out.size());
    return true;
  }

  /// Invoked with the new job-wide PFS active-reader count gamma whenever
  /// it changes because of ANOTHER rank's activity (this rank's own changes
  /// are reported through pfs_adjust's return value).  May be called from
  /// transport-internal threads.
  using PfsListener = std::function<void(int)>;

  /// Job-wide PFS contention accounting (DESIGN.md Sec. 7.4).  A rank calls
  /// pfs_adjust(+w) when it goes from zero to any outstanding PFS reads and
  /// pfs_adjust(-w) on the reverse transition, where `w` is the rank's local
  /// reader-thread fan-out (1 for an unweighted client) — so the job-wide
  /// count gamma prices t(gamma) per reader thread, not per rank.  The
  /// return value is the caller's freshest estimate of gamma.  Transports
  /// may batch the transition into a later gossip frame (GossipConfig);
  /// only the returned local estimate is synchronous.  The default
  /// implementation supports no accounting (returns 0), which makes
  /// net::SharedPfs degrade to per-process contention pricing.
  virtual int pfs_adjust(int delta) {
    (void)delta;
    return 0;
  }

  /// Installs (or, with an empty function, withdraws) the gamma listener.
  /// Withdrawal must fence: after it returns, the previous listener is
  /// neither running nor about to run.
  virtual void set_pfs_listener(PfsListener listener) { (void)listener; }

  /// Rank-0 side of the distributed sweep service (DESIGN.md Sec. 10).
  /// `on_pull` answers a worker's cell-range request: it receives the
  /// sender's rank and the encoded wire::SweepPull payload and returns
  /// {done, reply payload} — reply is a wire::SweepGrant when done is
  /// false, a wire::SweepDone when true.  `on_result` folds an encoded
  /// wire::SweepResultBatch from a worker.  Both may be invoked from
  /// transport-internal threads; the installer must make them thread-safe.
  struct SweepService {
    std::function<std::pair<bool, Bytes>(int from, Bytes pull)> on_pull;
    std::function<void(int from, Bytes batch)> on_result;
  };

  /// Installs (or, with empty functions, withdraws) the sweep service on
  /// rank 0.  Withdrawal must fence like set_pfs_listener.  The default
  /// implementation supports no sweep service.
  virtual void set_sweep_service(SweepService service) {
    if (service.on_pull || service.on_result) {
      throw std::runtime_error("transport: sweep service not supported");
    }
  }

  /// Worker side: asks rank 0 for the next cell range.  `pull` is an
  /// encoded wire::SweepPull; the reply is {done, payload} as produced by
  /// the rank-0 on_pull handler.  Returns nullopt when rank 0 is
  /// unreachable (died, or the transport is shutting down).  Blocking.
  virtual std::optional<std::pair<bool, Bytes>> sweep_pull(Bytes pull) {
    (void)pull;
    throw std::runtime_error("transport: sweep service not supported");
  }

  /// Worker side: streams an encoded wire::SweepResultBatch to rank 0.
  /// Fire-and-forget; frame order per sender is preserved, so a batch
  /// always reaches rank 0 before the sender's next pull.
  virtual void sweep_push_result(Bytes batch) {
    (void)batch;
    throw std::runtime_error("transport: sweep service not supported");
  }

  /// Publishes this rank's prefetch progress (position in its access
  /// stream); peers read it via watermark_of().  Used by the remote-cache
  /// readiness heuristic (Sec. 5.2.2).
  virtual void publish_watermark(std::uint64_t position) = 0;

  /// Most recently published watermark of `peer` (0 if never published).
  [[nodiscard]] virtual std::uint64_t watermark_of(int peer) const = 0;

  /// Bytes moved through this rank's NIC so far (diagnostics).
  [[nodiscard]] virtual double transferred_mb() const = 0;

  /// The event loop carrying this transport: "epoll" for SocketTransport,
  /// "none" for transports without a reactor.  Kept for its perfbench users
  /// only (see the compatibility note in net/reactor.hpp).
  [[nodiscard]] virtual const char* reactor_backend() const noexcept {
    return "none";
  }
};

}  // namespace nopfs::net

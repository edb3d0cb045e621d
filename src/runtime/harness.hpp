#pragma once
// Runtime harness: executes a real multi-worker training run.
//
// Two launch modes share one per-rank training loop:
//
//   * run_training — N worker threads in this process, wired by SimTransport.
//   * run_distributed — ONE rank of an N-process job, wired by any
//     net::Transport (SocketTransport in production; examples/nopfs_worker.cpp
//     is the per-rank binary).  Collectives replace the std::barrier, and the
//     final stats aggregation is an allgather, so every rank returns the same
//     job-wide totals.
//
// Each rank drives a Loader (NoPFS or a baseline) against the emulated
// storage substrate: devices are rate-limited token buckets, the PFS is
// contention-aware, remote fetches ride the transport.  Compute is emulated
// by sleeping s_k/c (scaled); each iteration ends with a barrier, the
// gradient allreduce of data-parallel training.  All reported times are
// virtual seconds (real seconds x time_scale).
//
// This is the "real system" half of the evaluation: it exercises the
// production NoPFS code paths (staging buffer, prefetchers, metadata,
// transport), while src/sim scales the same performance model to thousands
// of workers analytically.

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/loader.hpp"
#include "data/dataset.hpp"
#include "net/transport.hpp"
#include "scenario/fault_plan.hpp"
#include "tiers/devices.hpp"
#include "tiers/params.hpp"
#include "util/stats.hpp"

namespace nopfs::runtime {

struct RuntimeConfig {
  tiers::SystemParams system;
  baselines::LoaderKind loader = baselines::LoaderKind::kNoPFS;
  std::uint64_t seed = 42;
  int num_epochs = 2;
  std::uint64_t per_worker_batch = 8;
  bool drop_last = true;
  /// Virtual seconds emulated per real second.  Higher = faster runs,
  /// coarser emulation.
  double time_scale = 1000.0;
  int loader_threads = 4;
  int lookahead = 32;
  core::RouterOptions router;
  /// Verify every delivered sample against its deterministic content
  /// (integration tests).
  bool verify_content = false;
  /// Skip the compute sleep entirely (pure I/O benchmark).
  bool skip_compute = false;
  /// Shape of the batched gamma gossip (multi-process runs): reader threads
  /// enqueue transitions, the transport's gossip timer drains them as one
  /// net kPfsDelta per flush window.  The GossipConfig defaults coalesce a few
  /// virtual milliseconds of transitions per frame, which keeps worlds
  /// >> 10 ranks cheap; flush_virtual_s = 0 is a zero window, its tick due
  /// at once (tests pin that both shapes produce identical digests and
  /// gamma envelopes).
  net::GossipConfig pfs_gossip;
  /// Weight every rank's gamma contribution by its reader-thread fan-out
  /// (StagingPrefetcher + ClassPrefetcher threads for the NoPFS loader,
  /// loader_threads otherwise) instead of counting each rank once, so
  /// t(gamma) is priced per reader thread.  Both launch modes apply the
  /// same weights, so the gamma-envelope parity between them is preserved.
  bool pfs_thread_weighted_gamma = false;
  /// Scripted fault injection (DESIGN.md Sec. 11): straggler skew stretches
  /// this rank's compute sleep, drop windows turn remote fetches into
  /// misses (net::FaultTransport), PFS bursts stretch PFS reads
  /// (runtime::FaultPfs).  Both launch modes apply the same plan; an empty
  /// plan injects nothing and adds no overhead.
  scenario::FaultPlan faults;

  [[nodiscard]] std::uint64_t global_batch() const noexcept {
    return per_worker_batch * static_cast<std::uint64_t>(system.num_workers);
  }
};

struct RuntimeResult {
  double total_s = 0.0;                 ///< virtual wall time of the run
  std::vector<double> epoch_s;          ///< virtual time per epoch
  std::vector<double> batch_s_epoch0;   ///< per-iteration virtual durations
  std::vector<double> batch_s_rest;
  core::JobStats stats;                 ///< summed over workers
  std::uint64_t verified_samples = 0;
  std::uint64_t verification_failures = 0;
  /// Order-sensitive FNV digest of every delivered sample id, combined
  /// across ranks by a rank-keyed mix: two runs delivered exactly the same
  /// samples in the same per-rank order iff their digests are equal.  This
  /// is the bit-for-bit contract between launch modes — a world-size-1
  /// SocketTransport run must reproduce the SimTransport digest.
  std::uint64_t delivered_digest = 0;
  /// Highest PFS gamma any rank's PFS device observed (job-wide max after
  /// the stats allgather).  The gamma-trace envelope: a multi-process run
  /// prices reads at the job-wide gamma, so it matches the threaded
  /// harness's.
  int pfs_peak_gamma = 0;
  /// Event loop that carried this rank's transport ("epoll", or "none" for
  /// thread-worker/SimTransport runs).  Kept for its perfbench users only
  /// (see the compatibility note in net/reactor.hpp).
  std::string reactor_backend = "none";

  [[nodiscard]] util::Summary batch_summary_rest() const {
    return util::summarize(batch_s_rest);
  }
};

/// Runs one complete training job with thread-workers and returns aggregate
/// timings.
[[nodiscard]] RuntimeResult run_training(const data::Dataset& dataset,
                                         const RuntimeConfig& config);

/// The reader-thread fan-out one rank contributes to a thread-weighted
/// gamma: the configured StagingPrefetcher + ClassPrefetcher threads for
/// the NoPFS loader, `loader_threads` for the baselines (>= 1 either way).
[[nodiscard]] int reader_threads_per_rank(const RuntimeConfig& config);

/// The emulated substrate one rank of a distributed job runs against: its
/// node devices plus the PFS view its reads are priced under.  Built by
/// make_rank_devices — the device-factory seam between launch modes.
struct RankDevices {
  tiers::WorkerDevices* worker = nullptr;  ///< this rank's node devices
  tiers::PfsDevice* pfs = nullptr;         ///< the PFS view reads are priced by

  // Ownership; populated only for the parts the factory had to build.
  std::unique_ptr<tiers::Clock> clock;
  std::unique_ptr<tiers::EmulatedCluster> cluster;
  std::unique_ptr<tiers::PfsDevice> shared_pfs;
};

/// Builds the devices for the rank `transport` represents.  With a world
/// size above one the PFS view is a net::SharedPfs wired to the transport's
/// gamma protocol, so every read is priced at the job-wide t(gamma); a
/// solo rank reads the cluster's EmulatedPfs.  Pass `existing` to reuse
/// an already built cluster (it must outlive the result).
[[nodiscard]] RankDevices make_rank_devices(const RuntimeConfig& config,
                                            net::Transport& transport,
                                            tiers::EmulatedCluster* existing = nullptr);

/// Runs THIS rank of a multi-process training job over an already
/// established transport.  `config.system.num_workers` must equal the
/// transport's world size; every rank must use an identical config.
/// Timings are measured locally (the barriers keep ranks in lockstep);
/// stats, verification counts and the delivered digest are allgathered, so
/// every rank returns the same job-wide totals.  `cluster` supplies this
/// rank's emulated devices; pass nullptr to have the harness build one.
/// Either way the PFS view is built by make_rank_devices: job-wide shared
/// contention (DESIGN.md Sec. 7.4).
[[nodiscard]] RuntimeResult run_distributed(const data::Dataset& dataset,
                                            const RuntimeConfig& config,
                                            net::Transport& transport,
                                            tiers::EmulatedCluster* cluster = nullptr);

/// One rank's identity in a socket-launched world (examples/nopfs_worker).
struct WorkerEndpoint {
  int rank = 0;
  int world_size = 1;
  std::string rendezvous_host = "127.0.0.1";
  std::uint16_t rendezvous_port = 0;
  double timeout_s = 120.0;
};

/// Convenience launcher: builds this rank's emulated devices, performs the
/// SocketTransport rendezvous (charging transfers to this rank's emulated
/// NIC), and runs the distributed job.
[[nodiscard]] RuntimeResult run_distributed(const data::Dataset& dataset,
                                            const RuntimeConfig& config,
                                            const WorkerEndpoint& endpoint);

}  // namespace nopfs::runtime

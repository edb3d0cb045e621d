#pragma once
// FetchRouter: runtime fetch-source selection (paper Secs. 5.1, 5.2.2).
//
// For each needed sample the router asks the performance model for the
// fastest applicable source among
//   - a local storage class already holding the sample (case 2),
//   - the fastest remote worker planning to cache it (case 1), gated by the
//     prefetch-progress watermark heuristic ("if local prefetching has
//     reached the corresponding access stream location, the remote worker
//     likely has, too"),
//   - the PFS (case 0, always available).
// A remote miss (the heuristic's false positive) is detected and falls back
// to the PFS; the paper confirms these are rare, and our stats record them.
//
// When a sample that this worker *plans* to cache is needed before its
// class prefetcher got to it, the router caches it on the way through
// ("smoothing out load imbalance" — Sec. 5.2.2).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/cache_policy.hpp"
#include "core/metadata_store.hpp"
#include "core/perf_model.hpp"
#include "core/sample_source.hpp"
#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::core {

/// Estimates whether a peer has already prefetched a sample, from the
/// allgathered plans plus this worker's own per-class progress.
class RemoteReadiness {
 public:
  RemoteReadiness() = default;

  /// Builds position maps from every worker's plan.
  explicit RemoteReadiness(const std::vector<CachePlan>& plans);

  /// Position of `sample` in `peer`'s class-`cls` prefetch order, or -1.
  [[nodiscard]] std::int64_t position(int peer, int cls, data::SampleId sample) const;

  /// The heuristic: peer has likely cached `sample` (class `cls`) if this
  /// worker's class-`cls` prefetcher has passed the sample's position in the
  /// peer's plan (load-balance assumption).
  [[nodiscard]] bool likely_cached(int peer, int cls, data::SampleId sample,
                                   std::uint64_t self_progress) const;

 private:
  // [peer][cls]: sample -> position in prefetch order.
  std::vector<std::vector<std::unordered_map<data::SampleId, std::uint32_t>>> positions_;
};

/// Per-source fetch statistics (drives the Fig. 12 breakdown).
struct FetchStats {
  std::atomic<std::uint64_t> staging_hits{0};
  std::atomic<std::uint64_t> local_fetches{0};
  std::atomic<std::uint64_t> remote_fetches{0};
  std::atomic<std::uint64_t> pfs_fetches{0};
  std::atomic<std::uint64_t> remote_misses{0};  ///< heuristic false positives
  std::atomic<double> local_mb{0.0};
  std::atomic<double> remote_mb{0.0};
  std::atomic<double> pfs_mb{0.0};

  void add_mb(std::atomic<double>& counter, double mb) {
    counter.fetch_add(mb, std::memory_order_relaxed);
  }
};

/// Runtime configuration switches (ablations toggle these).
struct RouterOptions {
  bool use_remote = true;               ///< allow case-1 fetches
  bool use_watermark_heuristic = true;  ///< gate remote on readiness estimate
  bool cache_on_miss = true;            ///< cache planned samples when routed
};

class FetchRouter {
 public:
  /// `devices` and `pfs` may be nullptr for untimed tests; `transport` may
  /// be nullptr when use_remote is false or world size is 1.
  FetchRouter(int rank, const PerfModel& model, const CachePlan& self_plan,
              const LocationIndex& locations, const RemoteReadiness& readiness,
              MetadataStore& metadata,
              std::vector<std::unique_ptr<StorageBackend>>& backends,
              SampleSource& source, net::Transport* transport,
              tiers::WorkerDevices* devices, RouterOptions options);

  /// Fetches the bytes of `sample` from the fastest available source into
  /// a caller-owned buffer (the staging slot).  `out` must hold exactly
  /// util::mb_to_bytes(size_mb) bytes (std::invalid_argument otherwise).
  /// If this worker plans to cache the sample and nobody is already
  /// fetching it, the bytes are cached on the way through (the cache copies
  /// them from `out`); if another thread is mid-fetch, this call waits for
  /// that fetch and serves the result locally — planned samples hit the
  /// PFS at most once per worker.  Remote payloads and PFS reads land
  /// straight in `out`; a local hit is copied into it once, outside the
  /// backend lock.  A remote payload of the wrong length counts as a
  /// remote miss and falls back to the PFS.  A sample the metadata lists as
  /// cached whose backend cannot produce it (a removed file, a failed mmap)
  /// throws std::runtime_error.  Errors of the source (e.g. a data file of
  /// the wrong length) propagate; a claim the failed fetch held is released
  /// first.
  void fetch_into(data::SampleId sample, double size_mb, std::span<std::uint8_t> out);

  /// Class-prefetcher path: fetches and caches `sample` into its planned
  /// class unless it is already cached or another thread claimed it.
  /// Returns true if this call did the caching.
  bool prefetch_planned(data::SampleId sample, double size_mb);

  /// Advances this worker's class-`cls` prefetch progress (used by the
  /// watermark heuristic for remote readiness).
  void note_class_progress(int cls);

  [[nodiscard]] std::uint64_t class_progress(int cls) const;

  [[nodiscard]] FetchStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RouterOptions& options() const noexcept { return options_; }

  /// The cached buffer of `sample` itself (serve handler path), or nullptr
  /// when not cached; charges the holding tier's read time.
  [[nodiscard]] std::shared_ptr<const Bytes> load_local(data::SampleId sample);

 private:
  /// `sample`'s buffer from class `cls`'s backend, charging that tier's
  /// read time when the backend has it.
  [[nodiscard]] std::shared_ptr<const Bytes> share_from(int cls, data::SampleId sample);

  /// The remote half of source selection: when the model picks a peer and
  /// the peer returns exactly out.size() bytes, they land in `out` and
  /// count as a remote fetch (true); otherwise false, after counting a miss
  /// if a peer was asked.  No local check, no caching.
  [[nodiscard]] bool fetch_remote(data::SampleId sample, double size_mb,
                                  std::span<std::uint8_t> out);

  /// Reads `sample` from the PFS into `out` and counts it.
  void read_pfs(data::SampleId sample, double size_mb, std::span<std::uint8_t> out);

  /// Fills `out` with a claimed sample from the fastest remote/PFS source.
  /// Releases the claim if it throws.
  void fill_claimed(data::SampleId sample, double size_mb, std::span<std::uint8_t> out);

  /// Claims the right to materialize `sample` locally.  False if already
  /// cached or claimed by another thread.
  [[nodiscard]] bool try_claim(data::SampleId sample);

  /// Stores a copy of the claimed bytes into `sample`'s planned class,
  /// updates metadata, then releases the claim.
  void finish_claim(data::SampleId sample, std::span<const std::uint8_t> bytes);

  /// Drops the claim on `sample` and wakes waiters.
  void release_claim(data::SampleId sample);

  /// Blocks while another thread holds the claim for `sample`.
  void wait_if_inflight(data::SampleId sample);

  int rank_;
  const PerfModel& model_;
  const CachePlan& self_plan_;
  const LocationIndex& locations_;
  const RemoteReadiness& readiness_;
  MetadataStore& metadata_;
  std::vector<std::unique_ptr<StorageBackend>>& backends_;
  SampleSource& source_;
  net::Transport* transport_;
  tiers::WorkerDevices* devices_;
  RouterOptions options_;
  FetchStats stats_;
  std::vector<std::atomic<std::uint64_t>> progress_;  ///< per class

  // Samples currently being fetched-for-caching by some thread.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::unordered_set<data::SampleId> inflight_;
};

}  // namespace nopfs::core

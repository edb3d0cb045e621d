#pragma once
// Job: the public NoPFS API (paper Sec. 5.2.1).
//
// One Job represents one worker's participation in a training run.  It owns
// the clairvoyant access stream, the cache plan, the staging buffer and the
// prefetchers, and exposes iterator-style access to samples:
//
//   core::Job job(dataset, system, rank, options, source, transport, devices);
//   job.start();
//   while (auto sample = job.next()) {
//     train_on(sample->data());           // zero-copy view into the staging buffer
//   }                                      // handle release frees the slot
//
// This mirrors the paper's Python Job (dataset, batch size, epochs, shuffle
// kind, drop_last; buffer_p zero-copy access and a get method).  Multiple
// Jobs may coexist in one process (e.g., training and validation).

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "core/access_stream.hpp"
#include "core/cache_policy.hpp"
#include "core/fetch_router.hpp"
#include "core/metadata_store.hpp"
#include "core/perf_model.hpp"
#include "core/prefetcher.hpp"
#include "core/sample_source.hpp"
#include "core/staging_buffer.hpp"
#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::core {

/// User-facing configuration of a training job.
struct JobOptions {
  std::uint64_t seed = 42;        ///< PRNG seed (shared across workers)
  int num_epochs = 1;             ///< E
  std::uint64_t global_batch = 1; ///< B (all workers combined)
  bool drop_last = true;
  ShuffleKind shuffle = ShuffleKind::kUniform;
  RouterOptions router;           ///< ablation switches
  /// Virtual seconds per real second of the device emulation; used to
  /// convert measured stall time into virtual (model) seconds.
  double time_scale = 1.0;
  /// When set, classes named "ssd" use a FilesystemBackend under this
  /// directory (real files, mmap reads); otherwise all classes use memory.
  std::filesystem::path ssd_dir;
};

/// Snapshot of a job's I/O statistics (drives Fig. 12-style breakdowns).
struct JobStats {
  std::uint64_t local_fetches = 0;
  std::uint64_t remote_fetches = 0;
  std::uint64_t pfs_fetches = 0;
  std::uint64_t remote_misses = 0;
  double local_mb = 0.0;
  double remote_mb = 0.0;
  double pfs_mb = 0.0;
  double stall_s = 0.0;  ///< consumer stall in virtual seconds
  std::uint64_t cached_samples = 0;

  [[nodiscard]] std::uint64_t total_fetches() const {
    return local_fetches + remote_fetches + pfs_fetches;
  }
};

/// RAII view of one consumed sample; releases its staging slot on destruction.
class SampleHandle {
 public:
  SampleHandle(StagingBuffer* buffer, ConsumedSample sample)
      : buffer_(buffer), sample_(sample) {}
  SampleHandle(SampleHandle&& other) noexcept
      : buffer_(other.buffer_), sample_(other.sample_) {
    other.buffer_ = nullptr;
  }
  SampleHandle& operator=(SampleHandle&&) = delete;
  SampleHandle(const SampleHandle&) = delete;
  SampleHandle& operator=(const SampleHandle&) = delete;
  ~SampleHandle() {
    if (buffer_ != nullptr) buffer_->release(sample_.seq);
  }

  [[nodiscard]] data::SampleId id() const noexcept { return sample_.sample; }
  [[nodiscard]] std::span<const std::uint8_t> data() const noexcept {
    return sample_.data;
  }
  [[nodiscard]] std::uint64_t position() const noexcept { return sample_.seq; }

 private:
  StagingBuffer* buffer_;
  ConsumedSample sample_;
};

class Job {
 public:
  /// `transport` may be nullptr for single-worker jobs; `devices` may be
  /// nullptr to run untimed (unit tests).  `source` must outlive the job.
  Job(const data::Dataset& dataset, const tiers::SystemParams& system, int rank,
      JobOptions options, SampleSource& source, net::Transport* transport = nullptr,
      tiers::WorkerDevices* devices = nullptr);
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Computes plans, exchanges them with peers (allgather), installs the
  /// remote-serve handler, and launches all prefetcher threads.
  void start();

  /// Blocks until the next sample in this worker's access stream is staged;
  /// returns nullopt when the stream is exhausted (or the job stopped).
  /// Rethrows the error of a staging thread that could not fetch a sample
  /// (e.g. a data file of the wrong length).
  [[nodiscard]] std::optional<SampleHandle> next();

  /// Stops all prefetching (idempotent; also called by the destructor).
  void stop();

  [[nodiscard]] JobStats stats() const;
  [[nodiscard]] const StreamConfig& stream_config() const noexcept {
    return generator_.config();
  }
  [[nodiscard]] std::uint64_t total_accesses() const noexcept {
    return stream_.size();
  }
  [[nodiscard]] const CachePlan& cache_plan() const noexcept { return plan_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Epoch that stream position `f` belongs to.
  [[nodiscard]] int epoch_of(std::uint64_t position) const noexcept;

 private:
  const data::Dataset& dataset_;
  tiers::SystemParams system_;
  int rank_;
  JobOptions options_;
  SampleSource& source_;
  net::Transport* transport_;
  tiers::WorkerDevices* devices_;

  AccessStreamGenerator generator_;
  PerfModel model_;
  std::vector<data::SampleId> stream_;  ///< this worker's R
  CachePlan plan_;
  std::vector<CachePlan> all_plans_;
  LocationIndex locations_;
  RemoteReadiness readiness_;
  MetadataStore metadata_;
  std::vector<std::unique_ptr<StorageBackend>> backends_;
  std::unique_ptr<StagingBuffer> staging_;
  std::unique_ptr<FetchRouter> router_;
  std::vector<std::unique_ptr<ClassPrefetcher>> class_prefetchers_;
  std::unique_ptr<StagingPrefetcher> staging_prefetcher_;
  std::uint64_t consume_position_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace nopfs::core

// End-to-end tests of the Job API (paper Sec. 5.2.1): single- and
// multi-worker jobs deliver exactly the clairvoyant access stream, with
// verified content, across epochs, with working caches and remote serving.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "core/job.hpp"
#include "data/materialize.hpp"
#include "net/sim_transport.hpp"
#include "util/units.hpp"

namespace nopfs::core {
namespace {

tiers::SystemParams small_system(int workers, double ram_mb = 10.0) {
  tiers::SystemParams sys;
  sys.name = "test";
  sys.num_workers = workers;
  sys.node.network_mbps = 1000.0;
  sys.node.compute_mbps = 100.0;
  sys.node.preprocess_mbps = 0.0;  // free preprocessing in unit tests
  sys.node.staging.capacity_mb = 1.0;
  sys.node.staging.prefetch_threads = 2;
  sys.node.staging.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
  sys.node.staging.write_mbps = sys.node.staging.read_mbps;
  tiers::StorageClassParams ram;
  ram.name = "ram";
  ram.capacity_mb = ram_mb;
  ram.prefetch_threads = 2;
  ram.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
  ram.write_mbps = ram.read_mbps;
  sys.node.classes = {ram};
  sys.pfs.agg_read_mbps = util::ThroughputCurve({{1, 300}, {4, 1000}});
  return sys;
}

data::Dataset small_dataset(std::uint64_t f = 128) {
  data::DatasetSpec spec;
  spec.name = "tiny";
  spec.num_samples = f;
  spec.mean_size_mb = 0.004;  // ~4 KB
  spec.stddev_size_mb = 0.002;
  return data::Dataset::synthetic(spec, 33);
}

JobOptions options_with(int epochs, std::uint64_t global_batch) {
  JobOptions options;
  options.seed = 77;
  options.num_epochs = epochs;
  options.global_batch = global_batch;
  return options;
}

TEST(Job, SingleWorkerDeliversFullStreamInOrder) {
  const auto dataset = small_dataset();
  const auto system = small_system(1);
  SyntheticPfsSource source(dataset, nullptr);
  Job job(dataset, system, 0, options_with(2, 8), source);
  job.start();

  const AccessStreamGenerator gen(job.stream_config());
  const auto expected = gen.worker_stream(0);
  ASSERT_EQ(job.total_accesses(), expected.size());

  std::size_t delivered = 0;
  while (auto sample = job.next()) {
    ASSERT_LT(delivered, expected.size());
    EXPECT_EQ(sample->id(), expected[delivered]);
    EXPECT_TRUE(data::verify_sample_content(sample->id(), sample->data()))
        << "position " << delivered;
    ++delivered;
  }
  EXPECT_EQ(delivered, expected.size());
}

TEST(Job, SecondEpochServedFromCache) {
  const auto dataset = small_dataset(64);
  const auto system = small_system(1, /*ram_mb=*/10.0);  // fits everything
  SyntheticPfsSource source(dataset, nullptr);
  Job job(dataset, system, 0, options_with(3, 8), source);
  job.start();
  while (auto sample = job.next()) {
  }
  const JobStats stats = job.stats();
  // Distinct samples hit the PFS roughly once each (the class prefetcher
  // and the staging path can race on a handful).
  EXPECT_LE(stats.pfs_fetches, 64u + 16u);
  EXPECT_GT(stats.local_fetches, 0u);
  // Fetches = 192 staging accesses plus up to one class-prefetch per
  // distinct sample (those later turn into staging local hits).
  EXPECT_GE(stats.total_fetches(), job.total_accesses());
  EXPECT_LE(stats.total_fetches(), job.total_accesses() + 64u);
  EXPECT_EQ(stats.cached_samples, 64u);
}

TEST(Job, MultiWorkerExactPartitionAndContent) {
  constexpr int kN = 4;
  const auto dataset = small_dataset(256);
  const auto system = small_system(kN);
  SyntheticPfsSource source(dataset, nullptr);
  auto transports = net::make_sim_transports(kN);

  std::vector<std::vector<data::SampleId>> delivered(kN);
  std::vector<std::uint64_t> bad_content(kN, 0);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kN; ++rank) {
    threads.emplace_back([&, rank] {
      Job job(dataset, system, rank, options_with(2, 32), source,
              transports[rank].get());
      job.start();
      while (auto sample = job.next()) {
        delivered[rank].push_back(sample->id());
        if (!data::verify_sample_content(sample->id(), sample->data())) {
          ++bad_content[rank];
        }
      }
      job.stop();
    });
  }
  for (auto& thread : threads) thread.join();

  StreamConfig config;
  config.seed = 77;
  config.num_samples = 256;
  config.num_workers = kN;
  config.num_epochs = 2;
  config.global_batch = 32;
  const AccessStreamGenerator gen(config);
  for (int rank = 0; rank < kN; ++rank) {
    EXPECT_EQ(delivered[rank], gen.worker_stream(rank)) << "rank " << rank;
    EXPECT_EQ(bad_content[rank], 0u) << "rank " << rank;
  }
}

/// Holds every read of a sample that no rank plans to cache until each
/// planned sample has been read once.  A rank's stream soon reaches such a
/// sample, so its staging path waits there until the peers' class
/// prefetchers have filled their planned caches: whether a remote fetch
/// can hit no longer depends on which thread the OS ran first.  The wait
/// is bounded; a gate that had to give up reports it.
class PlanGate final : public SampleSource {
 public:
  explicit PlanGate(SampleSource& inner) : inner_(inner) {}

  /// Call before any job starts.
  void set_planned(std::unordered_set<data::SampleId> planned) {
    const std::scoped_lock lock(mutex_);
    planned_ = planned;
    unread_ = std::move(planned);
  }

  Bytes read(int worker, data::SampleId id) override {
    hold(id);
    Bytes bytes = inner_.read(worker, id);
    mark_read(id);
    return bytes;
  }

  void read_into(int worker, data::SampleId id, std::span<std::uint8_t> out) override {
    hold(id);
    inner_.read_into(worker, id, out);
    mark_read(id);
  }

  [[nodiscard]] double size_mb(data::SampleId id) const override {
    return inner_.size_mb(id);
  }

  [[nodiscard]] bool gave_up() const {
    const std::scoped_lock lock(mutex_);
    return gave_up_;
  }

 private:
  void hold(data::SampleId id) {
    std::unique_lock lock(mutex_);
    if (planned_.contains(id)) return;
    const bool opened =
        opened_.wait_for(lock, std::chrono::seconds(30), [&] { return unread_.empty(); });
    if (!opened) gave_up_ = true;
  }

  void mark_read(data::SampleId id) {
    const std::scoped_lock lock(mutex_);
    if (unread_.erase(id) != 0 && unread_.empty()) opened_.notify_all();
  }

  SampleSource& inner_;
  mutable std::mutex mutex_;
  std::condition_variable opened_;
  std::unordered_set<data::SampleId> planned_;
  std::unordered_set<data::SampleId> unread_;
  bool gave_up_ = false;
};

TEST(Job, MultiWorkerUsesRemoteFetches) {
  constexpr int kN = 2;
  const auto dataset = small_dataset(128);
  // Tiny local capacity: a worker cannot plan all the samples it accesses,
  // so unplanned accesses must be fetched — and with the PFS modeled as far
  // slower than the network, the router picks the peer's cache (Lemma 1:
  // samples cold here are hot, and thus planned, on the other worker).
  auto system = small_system(kN, /*ram_mb=*/0.1);
  system.pfs.agg_read_mbps = util::ThroughputCurve({{1, 1}, {4, 2}});
  SyntheticPfsSource pfs(dataset, nullptr);
  PlanGate source(pfs);
  auto transports = net::make_sim_transports(kN);

  std::vector<std::unique_ptr<Job>> jobs;
  std::unordered_set<data::SampleId> planned;
  for (int rank = 0; rank < kN; ++rank) {
    JobOptions options = options_with(4, 16);
    // Ablation switch doubles as a determinism aid here: without the
    // watermark gate, remote readiness does not depend on thread timing.
    options.router.use_watermark_heuristic = false;
    jobs.push_back(std::make_unique<Job>(dataset, system, rank, options, source,
                                         transports[rank].get()));
    const CachePlan plan = compute_cache_plan(
        AccessStreamGenerator(jobs.back()->stream_config()), rank, dataset, system.node);
    for (const auto& [sample, cls] : plan.class_of) planned.insert(sample);
  }
  ASSERT_FALSE(planned.empty());
  ASSERT_LT(planned.size(), dataset.num_samples());  // some samples pass the gate
  source.set_planned(std::move(planned));

  std::vector<JobStats> stats(kN);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kN; ++rank) {
    threads.emplace_back([&, rank] {
      Job& job = *jobs[rank];
      job.start();
      while (auto sample = job.next()) {
      }
      stats[rank] = job.stats();
      job.stop();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(source.gave_up()) << "a planned sample was never read";

  std::uint64_t remote_total = 0;
  std::uint64_t pfs_total = 0;
  for (const auto& s : stats) {
    remote_total += s.remote_fetches;
    pfs_total += s.pfs_fetches;
  }
  EXPECT_GT(remote_total, 0u);
  // Remote fetches displace a large share of the 1024 accesses' PFS reads.
  EXPECT_LT(pfs_total, 512u);
}

TEST(Job, StopMidStreamIsClean) {
  const auto dataset = small_dataset();
  const auto system = small_system(1);
  SyntheticPfsSource source(dataset, nullptr);
  Job job(dataset, system, 0, options_with(2, 8), source);
  job.start();
  for (int i = 0; i < 5; ++i) {
    auto sample = job.next();
    ASSERT_TRUE(sample.has_value());
  }
  job.stop();
  EXPECT_FALSE(job.next().has_value());
}

TEST(Job, FilesystemSsdBackendEndToEnd) {
  const auto dataset = small_dataset(64);
  auto system = small_system(1, /*ram_mb=*/0.05);  // tiny RAM forces SSD use
  tiers::StorageClassParams ssd = system.node.classes[0];
  ssd.name = "ssd";
  ssd.capacity_mb = 10.0;
  system.node.classes.push_back(ssd);

  SyntheticPfsSource source(dataset, nullptr);
  JobOptions options = options_with(2, 8);
  options.ssd_dir = std::filesystem::temp_directory_path() / "nopfs_test_job_ssd";
  Job job(dataset, system, 0, options, source);
  job.start();
  std::uint64_t delivered = 0;
  while (auto sample = job.next()) {
    EXPECT_TRUE(data::verify_sample_content(sample->id(), sample->data()));
    ++delivered;
  }
  EXPECT_EQ(delivered, job.total_accesses());
  const JobStats stats = job.stats();
  EXPECT_GT(stats.local_fetches, 0u);  // SSD hits in epoch 1
  job.stop();
  std::filesystem::remove_all(options.ssd_dir);
}

TEST(Job, RealFilesOnDiskSource) {
  data::DatasetSpec spec;
  spec.name = "disk";
  spec.num_samples = 32;
  spec.mean_size_mb = 0.002;
  spec.num_classes = 4;
  const auto dataset = data::Dataset::synthetic(spec, 9);
  const data::MaterializedDataset files(
      dataset, std::filesystem::temp_directory_path() / "nopfs_test_job_disk");
  DirectoryPfsSource source(dataset, files, nullptr);
  Job job(dataset, small_system(1), 0, options_with(2, 8), source);
  job.start();
  std::uint64_t delivered = 0;
  while (auto sample = job.next()) {
    EXPECT_TRUE(data::verify_sample_content(sample->id(), sample->data()));
    ++delivered;
  }
  EXPECT_EQ(delivered, job.total_accesses());
}

TEST(Job, TruncatedFileIsAConsumerError) {
  data::DatasetSpec spec;
  spec.name = "disk";
  spec.num_samples = 32;
  spec.mean_size_mb = 0.002;
  spec.num_classes = 4;
  const auto dataset = data::Dataset::synthetic(spec, 9);
  const data::MaterializedDataset files(
      dataset, std::filesystem::temp_directory_path() / "nopfs_test_job_truncated");
  DirectoryPfsSource source(dataset, files, nullptr);
  Job job(dataset, small_system(1), 0, options_with(2, 8), source);
  const AccessStreamGenerator gen(job.stream_config());
  const data::SampleId bad = gen.worker_stream(0).at(5);
  std::filesystem::resize_file(files.path_of(bad),
                               util::mb_to_bytes(dataset.size_mb(bad)) / 2);
  job.start();
  // The staging thread that reads the short file closes the buffer and the
  // consumer gets its error; nothing at or past the bad sample is delivered.
  std::uint64_t delivered = 0;
  EXPECT_THROW(
      {
        while (auto sample = job.next()) {
          EXPECT_NE(sample->id(), bad);
          EXPECT_TRUE(data::verify_sample_content(sample->id(), sample->data()));
          ++delivered;
        }
      },
      std::runtime_error);
  EXPECT_LE(delivered, 5u);
  job.stop();
}

TEST(Job, ConstructionErrors) {
  const auto dataset = small_dataset();
  const auto system = small_system(2);
  SyntheticPfsSource source(dataset, nullptr);
  // Rank out of range.
  EXPECT_THROW(Job(dataset, system, 5, options_with(1, 8), source),
               std::invalid_argument);
  // Multi-worker remote fetching without a transport.
  EXPECT_THROW(Job(dataset, system, 0, options_with(1, 8), source),
               std::invalid_argument);
  // Double start.
  const auto single = small_system(1);
  Job job(dataset, single, 0, options_with(1, 8), source);
  job.start();
  EXPECT_THROW(job.start(), std::logic_error);
}

TEST(Job, EpochOfPosition) {
  const auto dataset = small_dataset(64);
  const auto system = small_system(1);
  SyntheticPfsSource source(dataset, nullptr);
  Job job(dataset, system, 0, options_with(4, 8), source);
  job.start();
  const auto per_epoch = job.total_accesses() / 4;
  EXPECT_EQ(job.epoch_of(0), 0);
  EXPECT_EQ(job.epoch_of(per_epoch), 1);
  EXPECT_EQ(job.epoch_of(job.total_accesses() - 1), 3);
}

}  // namespace
}  // namespace nopfs::core

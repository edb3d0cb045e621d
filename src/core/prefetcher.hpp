#pragma once
// Prefetcher backends (paper Sec. 5.2.2).
//
// ClassPrefetcher: p_j threads fill storage class j with the worker's
// planned samples in first-access order (Rule 1).  If the router already
// cached a sample (load-imbalance smoothing), the prefetcher skips it.
//
// StagingPrefetcher: p_0 threads walk the worker's access stream R,
// reserving staging-buffer slots in stream order from a shared dispenser,
// fetching each sample from the fastest source, charging the preprocessing
// and staging-write costs, and committing slots as they complete (possibly
// out of order; the consumer reorders).  A producer that fails (e.g. a
// data file of the wrong length) closes the buffer; the consumer then gets
// the error from rethrow_error() instead of the process aborting.

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/access_stream.hpp"
#include "core/fetch_router.hpp"
#include "core/staging_buffer.hpp"

namespace nopfs::core {

/// Fills one storage class with its planned samples.
class ClassPrefetcher {
 public:
  /// `cls` indexes both `plan.per_class` and the router's backends.
  ClassPrefetcher(int cls, const ClassPlan& plan, const data::Dataset& dataset,
                  FetchRouter& router, MetadataStore& metadata,
                  std::vector<std::unique_ptr<StorageBackend>>& backends,
                  tiers::WorkerDevices* devices, int num_threads);
  ~ClassPrefetcher();

  ClassPrefetcher(const ClassPrefetcher&) = delete;
  ClassPrefetcher& operator=(const ClassPrefetcher&) = delete;

  void start();
  void stop();    ///< cooperative; joins threads
  void join();    ///< waits for the plan to be fully prefetched

  [[nodiscard]] bool done() const noexcept;
  [[nodiscard]] std::uint64_t fetched() const noexcept {
    return fetched_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main();

  int cls_;
  const ClassPlan& plan_;
  const data::Dataset& dataset_;
  FetchRouter& router_;
  MetadataStore& metadata_;
  std::vector<std::unique_ptr<StorageBackend>>& backends_;
  tiers::WorkerDevices* devices_;
  int num_threads_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> fetched_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Fills the staging buffer with the access stream R.
class StagingPrefetcher {
 public:
  /// `stream` is worker-local R (sample ids in consumption order); the
  /// prefetcher keeps a reference — the caller owns the storage.
  StagingPrefetcher(const std::vector<data::SampleId>& stream,
                    const data::Dataset& dataset, StagingBuffer& buffer,
                    FetchRouter& router, tiers::WorkerDevices* devices,
                    double preprocess_mbps, double time_scale, int num_threads,
                    net::Transport* transport);
  ~StagingPrefetcher();

  StagingPrefetcher(const StagingPrefetcher&) = delete;
  StagingPrefetcher& operator=(const StagingPrefetcher&) = delete;

  void start();
  /// Cooperative shutdown: closes the staging buffer (waking any producer
  /// blocked in reserve()) and joins all threads.  Safe to call while
  /// producers are parked waiting for ring space.
  void stop();

  /// Stream position reached by the dispenser (watermark basis).
  [[nodiscard]] std::uint64_t progress() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Rethrows the first exception a producer thread hit; that thread
  /// closed the buffer, so a consumer calls this when consume() fails.
  /// No-op when every producer is healthy.
  void rethrow_error() const;

 private:
  void thread_main();
  void produce();

  const std::vector<data::SampleId>& stream_;
  const data::Dataset& dataset_;
  StagingBuffer& buffer_;
  FetchRouter& router_;
  tiers::WorkerDevices* devices_;
  double preprocess_mbps_;
  double time_scale_;
  int num_threads_;
  net::Transport* transport_;
  std::mutex dispense_mutex_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  mutable std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace nopfs::core

#include "core/prefetcher.hpp"

#include "tiers/clock.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::core {

ClassPrefetcher::ClassPrefetcher(int cls, const ClassPlan& plan,
                                 const data::Dataset& dataset, FetchRouter& router,
                                 MetadataStore& metadata,
                                 std::vector<std::unique_ptr<StorageBackend>>& backends,
                                 tiers::WorkerDevices* devices, int num_threads)
    : cls_(cls),
      plan_(plan),
      dataset_(dataset),
      router_(router),
      metadata_(metadata),
      backends_(backends),
      devices_(devices),
      num_threads_(num_threads < 1 ? 1 : num_threads) {}

ClassPrefetcher::~ClassPrefetcher() { stop(); }

void ClassPrefetcher::start() {
  threads_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    threads_.emplace_back([this] { thread_main(); });
  }
}

void ClassPrefetcher::stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void ClassPrefetcher::join() {
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

bool ClassPrefetcher::done() const noexcept {
  return completed_.load(std::memory_order_acquire) >= plan_.samples.size();
}

void ClassPrefetcher::thread_main() {
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= plan_.samples.size()) return;
    const data::SampleId sample = plan_.samples[i];
    // prefetch_planned claims, fetches and stores; it is a no-op when the
    // staging path (load-imbalance smoothing) already cached or claimed
    // the sample — planned samples are materialized exactly once.
    try {
      if (router_.prefetch_planned(sample, dataset_.size_mb(sample))) {
        fetched_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& ex) {
      // The claim is released and the sample stays uncached; the staging
      // path fetches it on demand and reports the error if it persists.
      util::log_warn("class ", cls_, " prefetch of sample ", sample, " failed: ", ex.what());
    }
    router_.note_class_progress(cls_);
    completed_.fetch_add(1, std::memory_order_release);
  }
}

StagingPrefetcher::StagingPrefetcher(const std::vector<data::SampleId>& stream,
                                     const data::Dataset& dataset, StagingBuffer& buffer,
                                     FetchRouter& router, tiers::WorkerDevices* devices,
                                     double preprocess_mbps, double time_scale,
                                     int num_threads)
    : stream_(stream),
      dataset_(dataset),
      buffer_(buffer),
      router_(router),
      devices_(devices),
      preprocess_mbps_(preprocess_mbps),
      time_scale_(time_scale),
      num_threads_(num_threads < 1 ? 1 : num_threads) {}

StagingPrefetcher::~StagingPrefetcher() { stop(); }

void StagingPrefetcher::start() {
  threads_.reserve(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    threads_.emplace_back([this] { thread_main(); });
  }
}

void StagingPrefetcher::stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Closing the buffer wakes any producer parked inside reserve() (it
  // returns nullopt), so the joins below cannot deadlock on a thread that
  // is blocked waiting for ring space the consumer will never free.
  buffer_.close();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void StagingPrefetcher::rethrow_error() const {
  const std::scoped_lock lock(error_mutex_);
  if (error_) std::rethrow_exception(error_);
}

void StagingPrefetcher::thread_main() {
  try {
    produce();
  } catch (...) {
    {
      const std::scoped_lock lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    // Wakes the consumer (and parked producers); the consumer rethrows.
    buffer_.close();
  }
}

void StagingPrefetcher::produce() {
  tiers::Pacer preprocess(tiers::real_clock());
  while (!stop_.load(std::memory_order_relaxed)) {
    std::uint64_t seq = 0;
    data::SampleId sample = 0;
    std::optional<ProducerSlot> slot;
    {
      // Single-logical-stream invariant: the p_0 producer threads share ONE
      // access stream R, and slots must be reserved in stream order, so seq
      // assignment and reservation happen under one dispenser lock
      // (StagingBuffer::reserve enforces the ordering by throwing on any
      // out-of-order seq).  Blocking on buffer space while holding the lock
      // is safe — not because it is lock-free, but because of two
      // invariants this class must preserve:
      //   (a) the ring is FIFO, so position f+1 cannot be placed before
      //       position f — a peer thread waiting on the dispenser could not
      //       make progress anyway; and
      //   (b) the party that creates space (the consumer via release()) and
      //       the party that aborts the wait (stop()/close()) never acquire
      //       dispense_mutex_, so the parked producer is always woken.
      // DESIGN.md Sec. 2.1 discusses this trade-off.
      const std::scoped_lock lock(dispense_mutex_);
      // Stop-responsive exit: do not park in reserve() for a stop()ed
      // prefetcher — stop() closes the buffer before joining, but a thread
      // that acquired the dispenser after close() would otherwise still
      // attempt a reservation on a drained ring.
      if (stop_.load(std::memory_order_relaxed)) return;
      seq = next_;
      if (seq >= stream_.size()) return;
      sample = stream_[seq];
      slot = buffer_.reserve(seq, sample, util::mb_to_bytes(dataset_.size_mb(sample)));
      if (!slot.has_value()) return;  // closed (stop() or external close)
      next_ = seq + 1;
    }
    const double mb = dataset_.size_mb(sample);
    router_.fetch_into(sample, mb, slot->data);
    // Preprocess and store into the staging buffer.  The model pipelines
    // them (write = max(s/beta, s/(w0/p0))); the emulation charges the
    // staging write via its token bucket and the preprocessing through
    // this thread's pacer, which upper-bounds the max by the sum
    // (documented in DESIGN.md).
    if (devices_ != nullptr) {
      devices_->staging->write(mb);
      if (preprocess_mbps_ > 0.0 && time_scale_ > 0.0) {
        preprocess.charge(mb / preprocess_mbps_ / time_scale_);
      }
    }
    buffer_.commit(seq);
    util::log_trace("staging: committed seq ", seq, " sample ", sample);
  }
}

}  // namespace nopfs::core

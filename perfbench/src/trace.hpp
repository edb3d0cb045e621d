#pragma once
// In-memory span tracing for the traced run.
//
// A span is one call into a layer's public interface, recorded by the
// decorators in decorators.hpp: name, start, end, thread, and its parent
// (the innermost open span on the same thread).  Each thread appends to
// its own buffer, so recording takes no lock after a thread's first span.
// A span's self time is its duration minus the durations of its children;
// the parent accumulates them as they close.  Buffers stay in memory and
// are summarized once the traced job has joined every thread.

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kRendezvous,    ///< SocketTransport construction
  kLoaderStart,   ///< Loader::start
  kLoaderNext,    ///< Loader::next
  kStep,          ///< one training step on the consumer thread
  kAllgather,     ///< Transport::allgather
  kBarrier,       ///< Transport::barrier
  kFetch,         ///< Transport::fetch_sample
  kPfsAdjust,     ///< Transport::pfs_adjust
  kNicTransfer,   ///< NicDevice::transfer
  kNicReserve,    ///< NicDevice::reserve_transfer
  kSourceRead,    ///< SampleSource::read
  kPfsRead,       ///< PfsDevice::read
  kTierRead,      ///< TierDevice::read, storage classes
  kTierWrite,     ///< TierDevice::write, storage classes
  kStagingRead,   ///< TierDevice::read, staging buffer
  kStagingWrite,  ///< TierDevice::write, staging buffer
  kCount,
};

inline constexpr int kSpanNames = static_cast<int>(SpanName::kCount);

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;  ///< summed durations of direct children
  std::int32_t parent = -1;    ///< index in the same thread's buffer
  SpanName name = SpanName::kCount;
};

/// Per-name durations and self times (ns), pooled over threads and jobs.
struct SpanSummary {
  std::vector<double> duration_ns[kSpanNames];
  std::vector<double> self_ns[kSpanNames];

  [[nodiscard]] const std::vector<double>& durations(SpanName name) const {
    return duration_ns[static_cast<int>(name)];
  }
  [[nodiscard]] const std::vector<double>& selfs(SpanName name) const {
    return self_ns[static_cast<int>(name)];
  }
  [[nodiscard]] double count(SpanName name) const {
    return static_cast<double>(durations(name).size());
  }
  [[nodiscard]] double total_self_ns(SpanName name) const;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its index for end().
  std::int32_t begin(SpanName name);
  void end(std::int32_t index);

  /// Appends every closed span.  Call only after every recording thread
  /// has been joined.
  void summarize_into(SpanSummary& summary) const;

 private:
  struct Buffer {
    std::vector<SpanRecord> records;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };
  Buffer& buffer();

  const std::uint64_t generation_;
  std::mutex mutex_;            // guards buffers_ (registration only)
  std::deque<Buffer> buffers_;  // stable addresses, one per thread
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace perfbench

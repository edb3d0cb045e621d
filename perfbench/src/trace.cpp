#include "trace.hpp"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<std::uint64_t> next_generation{1};

/// The calling thread's buffer in the tracer of `generation` (a later
/// tracer never reuses a stale pointer, even at the same address).
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot slot;

}  // namespace

double SpanSummary::total_self_ns(SpanName name) const {
  double total = 0.0;
  for (const double ns : selfs(name)) total += ns;
  return total;
}

Tracer::Tracer() : generation_(next_generation.fetch_add(1)) {}

Tracer::Buffer& Tracer::buffer() {
  if (slot.generation != generation_) {
    const std::scoped_lock lock(mutex_);
    slot.buffer = &buffers_.emplace_back();
    slot.generation = generation_;
  }
  return *static_cast<Buffer*>(slot.buffer);
}

std::int32_t Tracer::begin(SpanName name) {
  Buffer& buf = buffer();
  SpanRecord record;
  record.name = name;
  record.parent = buf.open.empty() ? -1 : buf.open.back();
  record.start_ns = now_ns();
  const auto index = static_cast<std::int32_t>(buf.records.size());
  buf.records.push_back(record);
  buf.open.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  const std::uint64_t t = now_ns();
  Buffer& buf = buffer();
  SpanRecord& record = buf.records[static_cast<std::size_t>(index)];
  record.end_ns = t;
  buf.open.pop_back();
  if (record.parent >= 0) {
    buf.records[static_cast<std::size_t>(record.parent)].child_ns +=
        t - record.start_ns;
  }
}

void Tracer::summarize_into(SpanSummary& summary) const {
  for (const Buffer& buf : buffers_) {
    for (const SpanRecord& record : buf.records) {
      const auto name = static_cast<int>(record.name);
      const double duration = static_cast<double>(record.end_ns - record.start_ns);
      summary.duration_ns[name].push_back(duration);
      summary.self_ns[name].push_back(duration -
                                      static_cast<double>(record.child_ns));
    }
  }
}

}  // namespace perfbench

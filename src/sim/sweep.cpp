#include "sim/sweep.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/policies.hpp"

namespace nopfs::sim {

namespace {

/// Thread count for "auto": the NOPFS_SWEEP_THREADS environment variable
/// when set and positive, otherwise std::thread::hardware_concurrency().
int default_num_threads() {
  if (const char* env = std::getenv("NOPFS_SWEEP_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

std::size_t sweep_grant_size(std::size_t remaining, int workers,
                             std::size_t min_grant) {
  if (remaining == 0) return 0;
  if (min_grant == 0) min_grant = 1;
  const std::size_t fair =
      remaining / (2 * static_cast<std::size_t>(std::max(workers, 1)));
  return std::clamp(std::max(fair, min_grant), std::size_t{1}, remaining);
}

std::uint64_t pull_cells(int threads, const CellPull& pull) {
  // On a host with a single hardware thread, parallel cells only
  // time-slice one core; run them inline instead.
  if (std::thread::hardware_concurrency() <= 1) threads = 1;
  threads = std::max(threads, 1);

  struct Grant {
    CellRange range;
    std::uint32_t taken = 0;         ///< cells handed to a thread
    std::uint32_t finished = 0;      ///< cells whose evaluation and sink returned
    std::vector<SimResult> results;  ///< on_range only: one slot per cell
  };
  std::mutex mutex;
  std::condition_variable changed;
  std::shared_ptr<Grant> current;
  std::uint32_t in_flight = 0;  ///< cells taken whose sinks have not returned
  bool fetching = false;        ///< a thread is inside next_range()
  bool drain_first = false;     ///< empty answer with cells in flight: ask again
  bool exhausted = false;
  std::uint64_t evaluated = 0;
  std::exception_ptr error;

  const auto work = [&] {
    std::unique_lock lock(mutex);
    for (;;) {
      if (error || exhausted) return;
      if (current != nullptr && current->taken < current->range.count) {
        const std::shared_ptr<Grant> grant = current;
        const std::uint32_t offset = grant->taken++;
        ++in_flight;
        lock.unlock();
        std::exception_ptr failure;
        try {
          const std::uint64_t cell = grant->range.first + offset;
          SimResult result = pull.evaluate(cell);
          if (pull.on_cell) {
            pull.on_cell(cell, std::move(result));
          } else {
            grant->results[offset] = std::move(result);
          }
        } catch (...) {
          failure = std::current_exception();
        }
        lock.lock();
        if (!failure) {
          ++evaluated;
          if (++grant->finished == grant->range.count && pull.on_range) {
            lock.unlock();
            try {
              pull.on_range(grant->range, std::move(grant->results));
            } catch (...) {
              failure = std::current_exception();
            }
            lock.lock();
          }
        }
        if (failure && !error) error = failure;
        if (--in_flight == 0 || error) changed.notify_all();
        continue;
      }
      if (fetching || (drain_first && in_flight > 0)) {
        changed.wait(lock);
        continue;
      }
      // The current range is fully taken: this thread asks for the next
      // one while the others finish the cells they hold.
      fetching = true;
      const bool idle = in_flight == 0;
      lock.unlock();
      CellRange next;
      std::exception_ptr failure;
      try {
        next = pull.next_range();
      } catch (...) {
        failure = std::current_exception();
      }
      lock.lock();
      fetching = false;
      if (failure) {
        if (!error) error = failure;
      } else if (next.count > 0) {
        current = std::make_shared<Grant>();
        current->range = next;
        if (!pull.on_cell) current->results.resize(next.count);
        drain_first = false;
      } else if (idle) {
        exhausted = true;
      } else {
        drain_first = true;
      }
      changed.notify_all();
    }
  };

  // Also catches what the loop itself throws (an allocation, a thread that
  // could not start): an exception escaping a thread would end the
  // program, and one escaping the caller would leave helpers unjoined.
  const auto record_failure = [&] {
    const std::scoped_lock lock(mutex);
    if (!error) error = std::current_exception();
    changed.notify_all();
  };
  const auto guarded_work = [&] {
    try {
      work();
    } catch (...) {
      record_failure();
    }
  };
  std::vector<std::thread> helpers;
  try {
    for (int t = 1; t < threads; ++t) helpers.emplace_back(guarded_work);
  } catch (...) {
    record_failure();
  }
  guarded_work();
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
  return evaluated;
}

SweepRunner::SweepRunner(SweepOptions options)
    : num_threads_(options.num_threads > 0 ? options.num_threads
                                           : default_num_threads()) {}

std::vector<SimResult> SweepRunner::run(const std::vector<SweepPoint>& points) const {
  return run(points.size(), [&](std::size_t i) {
    const SweepPoint& point = points[i];
    if (point.dataset == nullptr) {
      throw std::invalid_argument("SweepRunner: point has no dataset");
    }
    auto policy = make_policy(point.policy);
    // Cells of one sweep share epoch permutations through the global cache
    // (value-transparent, see SimConfig::share_epoch_orders).
    SimConfig config = point.config;
    config.share_epoch_orders = true;
    return simulate(config, *point.dataset, *policy);
  });
}

std::vector<SimResult> SweepRunner::run(
    std::size_t count, const std::function<SimResult(std::size_t)>& evaluate) const {
  // The whole grid is one local range (split only past 2^32 cells); every
  // cell lands in its own result slot, so the output is in submission
  // order, bit-identical to serial (DESIGN.md Sec. 6.1).  Never more
  // threads than cells: a 4-point sweep on a 128-core host should not
  // start 128 threads.
  std::vector<SimResult> results(count);
  std::size_t next = 0;
  CellPull pull;
  pull.next_range = [&] {
    const auto size = static_cast<std::uint32_t>(std::min<std::size_t>(
        count - next, std::numeric_limits<std::uint32_t>::max()));
    const CellRange range{next, size};
    next += size;
    return range;
  };
  pull.evaluate = [&](std::uint64_t i) { return evaluate(static_cast<std::size_t>(i)); };
  pull.on_cell = [&](std::uint64_t i, SimResult&& result) {
    results[static_cast<std::size_t>(i)] = std::move(result);
  };
  const std::size_t threads =
      std::min<std::size_t>(static_cast<std::size_t>(num_threads_), count);
  (void)pull_cells(static_cast<int>(threads), pull);
  return results;
}

}  // namespace nopfs::sim

// Tests for the parallel sweep engine: results must be independent of the
// thread count (the DESIGN.md Sec. 6.1 determinism contract), returned in
// submission order, and identical to direct serial simulate() calls.  Also
// covers the underlying cell-pull loop (pull_cells).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/policies.hpp"
#include "sim/sweep.hpp"
#include "sim_result_testutil.hpp"
#include "tiers/params.hpp"

namespace nopfs::sim {
namespace {

std::vector<SweepPoint> small_grid(const data::Dataset& dataset) {
  std::vector<SweepPoint> points;
  for (const int workers : {2, 4, 8}) {
    for (const char* policy : {"staging", "nopfs", "lbann-preload", "perfect"}) {
      SweepPoint point;
      point.config.system = tiers::presets::sim_cluster(workers);
      point.config.num_epochs = 3;
      point.config.per_worker_batch = 8;
      point.config.seed = 4242;
      point.dataset = &dataset;
      point.policy = policy;
      points.push_back(std::move(point));
    }
  }
  return points;
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults) {
  const data::Dataset dataset("sweep-test", std::vector<float>(2048, 0.1f));
  const auto points = small_grid(dataset);

  const SweepRunner serial({1});
  const SweepRunner parallel({4});
  EXPECT_EQ(serial.num_threads(), 1);
  EXPECT_EQ(parallel.num_threads(), 4);

  const auto serial_results = serial.run(points);
  const auto parallel_results = parallel.run(points);
  ASSERT_EQ(serial_results.size(), points.size());
  ASSERT_EQ(parallel_results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " (" + points[i].policy + ")");
    expect_results_identical(serial_results[i], parallel_results[i]);
  }
}

TEST(SweepRunner, MatchesDirectSimulateInSubmissionOrder) {
  const data::Dataset dataset("sweep-test", std::vector<float>(2048, 0.1f));
  const auto points = small_grid(dataset);
  const SweepRunner runner({3});
  const auto results = runner.run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto policy = make_policy(points[i].policy);
    const SimResult direct = simulate(points[i].config, dataset, *policy);
    SCOPED_TRACE("cell " + std::to_string(i) + " (" + points[i].policy + ")");
    // Order check: the result in slot i is the simulation of point i.
    EXPECT_EQ(results[i].policy, direct.policy);
    expect_results_identical(results[i], direct);
  }
}

TEST(SweepRunner, SharedEpochOrdersAreValueTransparent) {
  // SweepRunner turns on SimConfig::share_epoch_orders for its cells; a
  // shared (cached) permutation must not change any result relative to the
  // default transient path.
  const data::Dataset dataset("sweep-test", std::vector<float>(2048, 0.1f));
  for (const char* name : {"staging", "nopfs", "locality-aware"}) {
    SimConfig transient_config;
    transient_config.system = tiers::presets::sim_cluster(4);
    transient_config.num_epochs = 3;
    transient_config.per_worker_batch = 8;
    transient_config.seed = 4242;
    SimConfig shared_config = transient_config;
    shared_config.share_epoch_orders = true;

    auto transient_policy = make_policy(name);
    auto shared_policy = make_policy(name);
    const SimResult transient =
        simulate(transient_config, dataset, *transient_policy);
    const SimResult shared = simulate(shared_config, dataset, *shared_policy);
    SCOPED_TRACE(name);
    expect_results_identical(transient, shared);
  }
}

TEST(SweepRunner, PropagatesCellExceptions) {
  const data::Dataset dataset("sweep-test", std::vector<float>(256, 0.1f));
  std::vector<SweepPoint> points = small_grid(dataset);
  points[2].policy = "no-such-policy";
  const SweepRunner runner({4});
  EXPECT_THROW((void)runner.run(points), std::invalid_argument);
}

TEST(SweepRunner, GenericEvaluatorVariant) {
  const data::Dataset dataset("sweep-test", std::vector<float>(1024, 0.1f));
  SimConfig config;
  config.system = tiers::presets::sim_cluster(4);
  config.num_epochs = 2;
  config.per_worker_batch = 8;
  const SweepRunner runner({2});
  // Custom-constructed policies (the ablations path).
  const auto results = runner.run(3, [&](std::size_t i) {
    NoPFSPolicy::Options options;
    options.frequency_aware = (i != 1);
    NoPFSPolicy policy(options);
    return simulate(config, dataset, policy);
  });
  ASSERT_EQ(results.size(), 3u);
  expect_results_identical(results[0], results[2]);  // same options, same result
  EXPECT_EQ(results[1].policy, "NoPFS");
}

// ---------------------------------------------------------------------------
// The cell-pull loop

SimResult tagged(std::uint64_t i) {
  SimResult result;
  result.policy = "cell-" + std::to_string(i);
  return result;
}

/// A source handing out `ranges` in order, then empty answers.
std::function<CellRange()> range_source(std::vector<CellRange> ranges) {
  auto next = std::make_shared<std::size_t>(0);
  return [ranges = std::move(ranges), next]() -> CellRange {
    return *next < ranges.size() ? ranges[(*next)++] : CellRange{};
  };
}

TEST(PullCells, CoversEveryCellOfEveryRangeOnce) {
  std::vector<std::atomic<int>> touched(257);
  CellPull pull;
  pull.next_range = range_source({{0, 100}, {100, 1}, {101, 156}});
  pull.evaluate = [&](std::uint64_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
    return tagged(i);
  };
  std::vector<std::string> seen(touched.size());
  pull.on_cell = [&](std::uint64_t i, SimResult&& result) { seen[i] = result.policy; };
  EXPECT_EQ(pull_cells(4, pull), touched.size());
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "cell " << i;
    EXPECT_EQ(seen[i], "cell-" + std::to_string(i));
  }
}

TEST(PullCells, RangeSinkGetsEachRangeInCellOrderOnce) {
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, std::vector<SimResult>>> batches;
  CellPull pull;
  pull.next_range = range_source({{10, 7}, {40, 1}, {50, 30}});
  pull.evaluate = tagged;
  pull.on_range = [&](const CellRange& range, std::vector<SimResult>&& results) {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(results.size(), range.count);
    batches.emplace_back(range.first, std::move(results));
  };
  EXPECT_EQ(pull_cells(3, pull), 38u);
  ASSERT_EQ(batches.size(), 3u);
  std::sort(batches.begin(), batches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [first, results] : batches) {
    for (std::size_t k = 0; k < results.size(); ++k) {
      EXPECT_EQ(results[k].policy, "cell-" + std::to_string(first + k));
    }
  }
}

TEST(PullCells, InlineWhenSingleThreaded) {
  const auto main_id = std::this_thread::get_id();
  std::thread::id seen;
  CellPull pull;
  pull.next_range = range_source({{0, 1}});
  pull.evaluate = [&](std::uint64_t i) {
    seen = std::this_thread::get_id();
    return tagged(i);
  };
  pull.on_cell = [](std::uint64_t, SimResult&&) {};
  EXPECT_EQ(pull_cells(1, pull), 1u);
  EXPECT_EQ(seen, main_id);  // no helper threads: cells run on the caller
}

TEST(PullCells, EmptyAnswerWithCellsInFlightIsAskedAgainAfterTheDrain) {
  if (std::thread::hardware_concurrency() <= 1) {
    GTEST_SKIP() << "one hardware thread: the loop runs inline";
  }
  // Cell 0 stays in flight until the source has answered empty once; the
  // source then offers one more range.  The loop must drain cell 0, ask
  // again, and run that range too; an empty answer given with no cell in
  // flight ends it.
  std::atomic<int> in_flight{0};
  std::atomic<int> asks{0};
  std::vector<int> in_flight_at_ask;  // written by one fetching thread at a time
  CellPull pull;
  const auto wait_until = [](const auto& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  pull.next_range = [&]() -> CellRange {
    // The thread asking the second time is not the one holding cell 0;
    // answer once that cell has started.
    if (asks.load() == 1) wait_until([&] { return in_flight.load() == 1; });
    in_flight_at_ask.push_back(in_flight.load());
    switch (asks.fetch_add(1)) {
      case 0: return {0, 1};
      case 1: return {};
      case 2: return {1, 2};
      default: return {};
    }
  };
  pull.evaluate = [&](std::uint64_t i) {
    in_flight.fetch_add(1);
    if (i == 0) wait_until([&] { return asks.load() >= 2; });
    in_flight.fetch_sub(1);
    return tagged(i);
  };
  pull.on_cell = [](std::uint64_t, SimResult&&) {};
  EXPECT_EQ(pull_cells(2, pull), 3u);
  ASSERT_GE(in_flight_at_ask.size(), 4u);
  EXPECT_EQ(in_flight_at_ask[1], 1);  // the empty answer came mid-cell
  EXPECT_EQ(in_flight_at_ask[2], 0);  // asked again only after the drain
  EXPECT_EQ(in_flight_at_ask.back(), 0);
}

TEST(PullCells, RethrowsTheFirstExceptionAfterTheDrain) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    CellPull pull;
    pull.next_range = range_source({{0, 64}});
    pull.evaluate = [&](std::uint64_t i) {
      started.fetch_add(1);
      if (i == 0) throw std::runtime_error("boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished.fetch_add(1);
      return tagged(i);
    };
    pull.on_cell = [](std::uint64_t, SimResult&&) {};
    try {
      (void)pull_cells(threads, pull);
      FAIL() << "expected exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom");
    }
    // Every cell that started finished before the rethrow, and the loop
    // took no cell after it saw the failure.
    EXPECT_EQ(finished.load(), started.load() - 1);
    EXPECT_LT(started.load(), 64);
  }
}

TEST(PullCells, SinkAndSourceExceptionsAreRethrownToo) {
  CellPull pull;
  pull.next_range = range_source({{0, 8}});
  pull.evaluate = tagged;
  pull.on_range = [](const CellRange&, std::vector<SimResult>&&) {
    throw std::runtime_error("sink");
  };
  EXPECT_THROW((void)pull_cells(4, pull), std::runtime_error);

  CellPull failing_source;
  failing_source.next_range = []() -> CellRange { throw std::runtime_error("source"); };
  failing_source.evaluate = tagged;
  failing_source.on_cell = [](std::uint64_t, SimResult&&) {};
  EXPECT_THROW((void)pull_cells(4, failing_source), std::runtime_error);
}

}  // namespace
}  // namespace nopfs::sim

// Tests for the distributed work-stealing sweep service (DESIGN.md
// Sec. 10): the new wire frames round-trip bit-exactly, the scheduler's
// guided grants cover the grid exactly once (with idempotent duplicate
// folds at the tail), checkpoints survive a round-trip and reject foreign
// grids, a 1-rank service run is bit-identical to the local SweepRunner,
// a 3-rank socket world matches the serial digest, an interrupted sweep
// resumes bit-identically without re-executing any completed cell, and no
// sweep thread waits on another thread's straggler cell.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "sim/sweep_service.hpp"
#include "sim_result_testutil.hpp"
#include "tiers/params.hpp"

namespace nopfs::sim {
namespace {

namespace wire = net::wire;

/// A fully-populated synthetic SimResult that is a pure function of `i` —
/// every codec field nonzero and cell-dependent, so a swapped or truncated
/// field cannot cancel out in the comparisons below.
SimResult cell_result(std::uint64_t i) {
  SimResult r;
  r.policy = "cell-" + std::to_string(i);
  r.dataset = "synthetic";
  r.supported = (i % 7) != 3;
  r.unsupported_reason = r.supported ? "" : "unsupported cell " + std::to_string(i);
  r.total_s = 1.5 * static_cast<double>(i) + 0.25;
  r.prestage_s = 0.125 * static_cast<double>(i);
  r.stall_s = 0.0625 * static_cast<double>(i) + 0.5;
  r.compute_s = 2.0 + static_cast<double>(i);
  r.epoch_s = {0.5 + static_cast<double>(i), 0.25 * static_cast<double>(i)};
  r.batch_s_epoch0 = {0.125, static_cast<double>(i) + 0.75};
  r.batch_s_rest = {0.03125 * static_cast<double>(i)};
  for (int l = 0; l < static_cast<int>(Location::kCount); ++l) {
    r.location_s[l] = 0.5 * static_cast<double>(i) + l;
    r.location_count[l] = 3 * i + static_cast<std::uint64_t>(l);
    r.location_mb[l] = 0.75 * static_cast<double>(i) + l;
  }
  r.accessed_fraction = static_cast<double>(i % 100) / 100.0;
  return r;
}

std::vector<SimResult> direct_results(std::uint64_t n) {
  std::vector<SimResult> results;
  results.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) results.push_back(cell_result(i));
  return results;
}

std::string temp_checkpoint(const char* tag) {
  return std::string(::testing::TempDir()) + "sweep_ck_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

// ---------------------------------------------------------------------------
// Wire frames

TEST(SweepWire, PullGrantDoneRoundTrip) {
  const wire::SweepPull pull = wire::decode_sweep_pull(
      wire::encode_sweep_pull({0xFEEDBEEFu}));
  EXPECT_EQ(pull.seq, 0xFEEDBEEFu);

  const wire::SweepGrant grant = wire::decode_sweep_grant(
      wire::encode_sweep_grant({7u, 0xAABBCCDDEEFF0011ull, 42u}));
  EXPECT_EQ(grant.seq, 7u);
  EXPECT_EQ(grant.first, 0xAABBCCDDEEFF0011ull);
  EXPECT_EQ(grant.count, 42u);

  const wire::SweepDone done =
      wire::decode_sweep_done(wire::encode_sweep_done({31u}));
  EXPECT_EQ(done.seq, 31u);
}

TEST(SweepWire, DecodersThrowOnTruncationAndTrailingBytes) {
  EXPECT_THROW((void)wire::decode_sweep_pull({1, 2}), std::runtime_error);
  EXPECT_THROW((void)wire::decode_sweep_grant({1, 2, 3}), std::runtime_error);
  std::vector<std::uint8_t> grant = wire::encode_sweep_grant({1, 2, 3});
  grant.push_back(0);  // trailing garbage
  EXPECT_THROW((void)wire::decode_sweep_grant(grant), std::runtime_error);
  std::vector<std::uint8_t> batch =
      wire::encode_sweep_result_batch({1, 0, {cell_result(5)}});
  batch.pop_back();  // truncated result
  EXPECT_THROW((void)wire::decode_sweep_result_batch(batch), std::runtime_error);
}

TEST(SweepWire, SimResultCodecIsBitExact) {
  for (const std::uint64_t i : {0ull, 3ull, 17ull}) {
    const SimResult original = cell_result(i);
    const SimResult decoded =
        wire::decode_sim_result(wire::encode_sim_result(original));
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_results_identical(original, decoded);
    // The testutil digest is field-order-sensitive too: equal digests are
    // the same currency test_scenario pins golden results with.
    EXPECT_EQ(fnv_digest(original), fnv_digest(decoded));
  }
}

TEST(SweepWire, ResultBatchRoundTrip) {
  wire::SweepResultBatch batch;
  batch.seq = 9;
  batch.first = 12;
  batch.results = {cell_result(12), cell_result(13), cell_result(14)};
  const wire::SweepResultBatch decoded =
      wire::decode_sweep_result_batch(wire::encode_sweep_result_batch(batch));
  EXPECT_EQ(decoded.seq, 9u);
  EXPECT_EQ(decoded.first, 12u);
  ASSERT_EQ(decoded.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_results_identical(batch.results[i], decoded.results[i]);
  }
}

TEST(SweepWire, HeaderAcceptsSweepTypesAndStillRejectsRetired11) {
  std::uint8_t raw[wire::kHeaderBytes];
  for (const wire::MsgType type :
       {wire::MsgType::kSweepPull, wire::MsgType::kSweepResult,
        wire::MsgType::kSweepGrant, wire::MsgType::kSweepDone}) {
    wire::encode_header(raw, type, 5, 0);
    EXPECT_EQ(wire::decode_header(raw).type, type);
  }
  // Type 11 (the retired unary-contention kPfsGamma numbering) stays a
  // hole in the accepted range: sweep frames start at 12.
  wire::encode_header(raw, static_cast<wire::MsgType>(11), 0, 0);
  EXPECT_THROW((void)wire::decode_header(raw), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Grant sizing + scheduler

TEST(SweepGrantSize, ShrinksTowardTheTail) {
  // Half the fair share of what remains: large up front, min_grant at the
  // tail, always in [1, remaining].
  EXPECT_EQ(sweep_grant_size(1000, 4), 125u);
  EXPECT_EQ(sweep_grant_size(16, 4), 2u);
  EXPECT_EQ(sweep_grant_size(7, 4), 1u);   // fair share 0 -> min_grant
  EXPECT_EQ(sweep_grant_size(1, 4), 1u);
  EXPECT_EQ(sweep_grant_size(0, 4), 0u);
  EXPECT_EQ(sweep_grant_size(100, 1), 50u);
  EXPECT_EQ(sweep_grant_size(16, 4, 8), 8u);   // min_grant floor
  EXPECT_EQ(sweep_grant_size(5, 4, 8), 5u);    // clamped to remaining
  EXPECT_EQ(sweep_grant_size(10, 0), 5u);      // workers clamped to >= 1
}

std::vector<SimResult> range_results(const SweepScheduler::Range& range) {
  std::vector<SimResult> results;
  for (std::uint64_t i = range.first; i < range.first + range.count; ++i) {
    results.push_back(cell_result(i));
  }
  return results;
}

TEST(SweepScheduler, GrantsCoverGridOnceThenRegrantToRanksHoldingNothing) {
  SweepScheduler scheduler(20, 0x5157u, {}, 2);
  std::vector<SweepScheduler::Range> granted;
  std::uint64_t covered = 0;
  while (covered < 20) {
    const auto range = scheduler.grant(0);
    ASSERT_GT(range.count, 0u);
    EXPECT_EQ(range.first, covered);  // contiguous, in order, no overlap
    covered += range.count;
    granted.push_back(range);
  }
  ASSERT_GE(granted.size(), 2u);
  // Everything granted to rank 0, nothing submitted: rank 0 holds
  // outstanding ranges (its own cells in flight), so it gets nothing.
  EXPECT_EQ(scheduler.grant(0).count, 0u);
  // A rank holding nothing re-grants the OLDEST outstanding range, then
  // gets nothing until that range is folded; the next re-grant is the
  // next-oldest, so successive pulls speculate on different ranges.
  const auto regrant1 = scheduler.grant(1);
  EXPECT_EQ(regrant1.first, granted[0].first);
  EXPECT_EQ(regrant1.count, granted[0].count);
  EXPECT_EQ(scheduler.grant(1).count, 0u);
  scheduler.submit(regrant1.first, range_results(regrant1));
  const auto regrant2 = scheduler.grant(1);
  EXPECT_EQ(regrant2.first, granted[1].first);
  EXPECT_EQ(scheduler.grants(), granted.size());
  EXPECT_EQ(scheduler.regrants(), 2u);

  for (const auto& range : granted) scheduler.submit(range.first, range_results(range));
  EXPECT_TRUE(scheduler.done());
  EXPECT_EQ(scheduler.completed_cells(), 20u);
  EXPECT_EQ(scheduler.duplicate_cells(), granted[0].count);  // rank 0's copy
  EXPECT_EQ(scheduler.grant(1).count, 0u);  // done: stop pulling
}

TEST(SweepScheduler, RankHoldingNothingSpeculatesOnAnotherRanksRange) {
  SweepScheduler scheduler(6, 2, {}, 2);
  const auto a = scheduler.grant(0);
  const auto b = scheduler.grant(1);
  ASSERT_EQ(a.first + a.count, b.first);
  std::uint64_t covered = b.first + b.count;
  while (covered < 6) covered += scheduler.grant(1).count;
  scheduler.submit(a.first, range_results(a));
  // Rank 0's range is folded; what is left is rank 1's, so rank 0
  // speculates on its oldest range and rank 1 gets nothing.
  EXPECT_EQ(scheduler.grant(1).count, 0u);
  EXPECT_EQ(scheduler.grant(0).first, b.first);
}

TEST(SweepScheduler, DuplicateSubmitsFoldIdempotently) {
  SweepScheduler scheduler(6, 1, {}, 2);
  const auto a = scheduler.grant(0);
  ASSERT_GT(a.count, 0u);
  std::vector<SimResult> results;
  for (std::uint64_t i = a.first; i < a.first + a.count; ++i) {
    results.push_back(cell_result(i));
  }
  scheduler.submit(a.first, results);
  const std::uint64_t before = scheduler.completed_cells();
  scheduler.submit(a.first, results);  // duplicated frame: first write won
  EXPECT_EQ(scheduler.completed_cells(), before);
  EXPECT_EQ(scheduler.duplicate_cells(), a.count);
  EXPECT_THROW(scheduler.submit(5, direct_results(4)), std::runtime_error);
}

TEST(SweepScheduler, SequenceGuardsAreMonotonePerSender) {
  SweepScheduler scheduler(4, 1, {}, 3);
  EXPECT_TRUE(scheduler.advance_pull_seq(1, 1));
  EXPECT_FALSE(scheduler.advance_pull_seq(1, 1));  // replay
  EXPECT_FALSE(scheduler.advance_pull_seq(1, 0));  // stale
  EXPECT_TRUE(scheduler.advance_pull_seq(1, 5));   // gaps allowed
  EXPECT_TRUE(scheduler.advance_pull_seq(2, 1));   // independent per sender
  // Pulls and result batches are independent streams.
  EXPECT_TRUE(scheduler.advance_result_seq(1, 1));
  EXPECT_FALSE(scheduler.advance_result_seq(1, 1));
  EXPECT_FALSE(scheduler.advance_pull_seq(5, 1));   // out-of-world sender
  EXPECT_FALSE(scheduler.advance_result_seq(-1, 1));
}

// ---------------------------------------------------------------------------
// Checkpoint

TEST(SweepCheckpoint, RoundTripRestoresCompletedCells) {
  const std::string path = temp_checkpoint("roundtrip");
  std::remove(path.c_str());
  SweepServiceOptions options;
  options.checkpoint_path = path;

  SweepScheduler writer(10, 0xABCDu, options, 1);
  writer.submit(2, {cell_result(2), cell_result(3), cell_result(4)});
  writer.submit(7, {cell_result(7)});
  writer.checkpoint_now();

  SweepScheduler reader(10, 0xABCDu, options, 1);
  EXPECT_EQ(reader.load_checkpoint(), 4u);
  EXPECT_EQ(reader.restored_cells(), 4u);
  EXPECT_EQ(reader.completed_cells(), 4u);
  // Restored cells are never granted again: the grants that remain cover
  // exactly the other six.
  std::vector<bool> granted(10, false);
  for (;;) {
    const auto range = reader.grant(0);
    if (range.count == 0) break;
    std::vector<SimResult> results;
    for (std::uint64_t i = range.first; i < range.first + range.count; ++i) {
      EXPECT_FALSE(granted[static_cast<std::size_t>(i)]);
      granted[static_cast<std::size_t>(i)] = true;
      results.push_back(cell_result(i));
    }
    reader.submit(range.first, std::move(results));
  }
  for (const std::uint64_t done : {2u, 3u, 4u, 7u}) {
    EXPECT_FALSE(granted[done]) << "restored cell " << done << " re-granted";
  }
  EXPECT_TRUE(reader.done());
  // The restored + re-run grid is bit-identical to a direct evaluation.
  const auto results = reader.take_results();
  const auto expected = direct_results(10);
  for (std::size_t i = 0; i < 10; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_results_identical(results[i], expected[i]);
  }
  std::remove(path.c_str());
}

TEST(SweepCheckpoint, RejectsForeignGridAndStartsFreshWhenMissing) {
  const std::string path = temp_checkpoint("foreign");
  std::remove(path.c_str());
  SweepServiceOptions options;
  options.checkpoint_path = path;

  SweepScheduler fresh(10, 0xABCDu, options, 1);
  EXPECT_EQ(fresh.load_checkpoint(), 0u);  // missing file: fresh start

  SweepScheduler writer(10, 0xABCDu, options, 1);
  writer.submit(0, {cell_result(0)});
  writer.checkpoint_now();

  SweepScheduler other_signature(10, 0x9999u, options, 1);
  EXPECT_THROW((void)other_signature.load_checkpoint(), std::runtime_error);
  SweepScheduler other_total(11, 0xABCDu, options, 1);
  EXPECT_THROW((void)other_total.load_checkpoint(), std::runtime_error);
  std::remove(path.c_str());
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loading `options.checkpoint_path` must fail with an error that names the
/// file and contains `why`.
void expect_load_rejects(const SweepServiceOptions& options, const std::string& why) {
  SweepScheduler reader(10, 0xABCDu, options, 1);
  try {
    (void)reader.load_checkpoint();
    ADD_FAILURE() << "checkpoint accepted; expected: " << why;
  } catch (const std::runtime_error& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find(options.checkpoint_path), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
  EXPECT_EQ(reader.completed_cells(), 0u);
}

TEST(SweepCheckpoint, RejectsTruncatedCorruptAndOldVersionFiles) {
  const std::string path = temp_checkpoint("corrupt");
  std::remove(path.c_str());
  SweepServiceOptions options;
  options.checkpoint_path = path;
  SweepScheduler writer(10, 0xABCDu, options, 1);
  writer.submit(2, {cell_result(2), cell_result(3)});
  writer.checkpoint_now();
  const std::vector<char> good = read_file(path);
  ASSERT_GT(good.size(), 64u);

  // Every cut, from an empty file to one byte short, is reported as such.
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    write_file(path, std::vector<char>(good.begin(), good.begin() + keep));
    expect_load_rejects(options, "truncated");
  }
  // One flipped bit anywhere past the leader fails the checksum.
  for (const std::size_t at : {std::size_t{8}, good.size() / 2, good.size() - 1}) {
    SCOPED_TRACE("flipped byte " + std::to_string(at));
    std::vector<char> bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    write_file(path, bad);
    expect_load_rejects(options, "checksum mismatch");
  }
  // A version-1 file (same records, no checksum) is refused by version.
  std::vector<char> v1(good.begin(), good.end() - 8);
  v1[4] = 1;
  write_file(path, v1);
  expect_load_rejects(options, "unsupported version 1");

  write_file(path, good);  // the intact file still loads
  SweepScheduler reader(10, 0xABCDu, options, 1);
  EXPECT_EQ(reader.load_checkpoint(), 2u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Service runs

TEST(SweepService, OneRankMatchesLocalSweepRunnerBitForBit) {
  // A real simulator grid through the 1-rank service vs the plain runner:
  // the scheduler path must not perturb a single bit of any cell.
  const data::Dataset dataset("svc-test", std::vector<float>(1024, 0.1f));
  std::vector<SweepPoint> points;
  for (const int workers : {2, 4}) {
    for (const char* policy : {"staging", "nopfs", "locality-aware"}) {
      SweepPoint point;
      point.config.system = tiers::presets::sim_cluster(workers);
      point.config.num_epochs = 2;
      point.config.per_worker_batch = 8;
      point.config.seed = 4242;
      point.dataset = &dataset;
      point.policy = policy;
      points.push_back(std::move(point));
    }
  }
  const SweepRunner runner({2});
  const auto expected = runner.run(points);
  const SweepServiceReport report = run_sweep_service(nullptr, points, {});
  ASSERT_EQ(report.results.size(), points.size());
  EXPECT_EQ(report.stats.completed_cells, points.size());
  EXPECT_EQ(report.stats.executed_cells, points.size());
  EXPECT_EQ(report.stats.duplicate_cells, 0u);
  EXPECT_FALSE(report.stats.interrupted);
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " (" + points[i].policy + ")");
    expect_results_identical(report.results[i], expected[i]);
  }
  EXPECT_EQ(sweep_results_digest(report.results), sweep_results_digest(expected));
}

void three_rank_socket_world(int threads) {
  constexpr std::uint64_t kCells = 30;
  constexpr int kWorld = 3;
  const std::uint64_t signature = 0x515701u;
  const std::uint16_t port = net::pick_free_port();
  // A slow-ish pure cell so workers actually win grants from rank 0
  // (without it rank 0 can drain the grid before a worker's first pull).
  const auto evaluate = [](std::uint64_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return cell_result(i);
  };

  std::vector<SweepServiceReport> reports(kWorld);
  std::vector<std::string> errors(kWorld);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      try {
        net::SocketOptions options;
        options.rank = r;
        options.world_size = kWorld;
        options.rendezvous_port = port;
        options.timeout_s = 60.0;
        net::SocketTransport transport(options);
        SweepServiceOptions service;
        service.num_threads = threads;
        reports[static_cast<std::size_t>(r)] = run_sweep_service(
            &transport, kCells, evaluate, signature, service);
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = ex.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], "") << "rank " << r;
  }

  const SweepServiceReport& root = reports[0];
  EXPECT_EQ(root.stats.completed_cells, kCells);
  EXPECT_FALSE(root.stats.interrupted);
  ASSERT_EQ(root.results.size(), kCells);
  // Workers hold no results; their executed cells (plus rank 0's) cover the
  // grid, possibly more than once via tail speculation.
  std::uint64_t executed = 0;
  for (const auto& report : reports) {
    executed += report.stats.executed_cells;
  }
  EXPECT_GE(executed, kCells);
  EXPECT_EQ(executed, kCells + root.stats.duplicate_cells);
  EXPECT_TRUE(reports[1].results.empty());
  EXPECT_TRUE(reports[2].results.empty());

  const auto expected = direct_results(kCells);
  EXPECT_EQ(sweep_results_digest(root.results), sweep_results_digest(expected));
  for (std::size_t i = 0; i < kCells; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_results_identical(root.results[i], expected[i]);
  }
}

TEST(SweepService, ThreeRankSocketWorldMatchesSerialDigest) {
  // At 4 threads a rank pulls its next grant while its other threads
  // still work the last one, and its batches finish out of grant order.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    three_rank_socket_world(threads);
  }
}

void interrupt_then_resume(int threads) {
  constexpr std::uint64_t kCells = 24;
  const std::string path = temp_checkpoint("resume");
  std::remove(path.c_str());

  // Per-cell execution counters: the resume contract is that no cell
  // completed before the "kill" ever runs again.
  std::vector<std::atomic<int>> executions(kCells);
  const auto evaluate = [&executions](std::uint64_t i) {
    executions[static_cast<std::size_t>(i)].fetch_add(1,
                                                      std::memory_order_relaxed);
    return cell_result(i);
  };

  SweepServiceOptions options;
  options.num_threads = threads;
  options.checkpoint_path = path;
  options.checkpoint_every_cells = 4;
  options.interrupt_after_cells = 9;  // the deterministic mid-sweep "kill"
  const SweepServiceReport interrupted =
      run_sweep_service(nullptr, kCells, evaluate, 0x515702u, options);
  EXPECT_TRUE(interrupted.stats.interrupted);
  EXPECT_GE(interrupted.stats.completed_cells, 9u);
  EXPECT_LT(interrupted.stats.completed_cells, kCells);
  const std::uint64_t first_run = interrupted.stats.completed_cells;

  options.interrupt_after_cells = 0;
  options.resume = true;
  const SweepServiceReport resumed =
      run_sweep_service(nullptr, kCells, evaluate, 0x515702u, options);
  EXPECT_FALSE(resumed.stats.interrupted);
  EXPECT_EQ(resumed.stats.restored_cells, first_run);
  EXPECT_EQ(resumed.stats.completed_cells, kCells);
  EXPECT_EQ(resumed.stats.executed_cells, kCells - first_run);

  // Zero re-execution: every cell ran exactly once across both runs.
  for (std::uint64_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(executions[static_cast<std::size_t>(i)].load(), 1)
        << "cell " << i << " re-executed after the checkpoint";
  }
  // And the stitched grid is bit-identical to an uninterrupted evaluation.
  const auto expected = direct_results(kCells);
  ASSERT_EQ(resumed.results.size(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_results_identical(resumed.results[i], expected[i]);
  }
  EXPECT_EQ(sweep_results_digest(resumed.results),
            sweep_results_digest(expected));
  std::remove(path.c_str());
}


TEST(SweepService, InterruptThenResumeIsBitIdenticalWithZeroReexecution) {
  // At 4 threads the cells still in flight when the interrupt fires are
  // folded before the final checkpoint, or the resume would re-run them.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    interrupt_then_resume(threads);
  }
}

TEST(SweepService, NoThreadWaitsOnAnotherThreadsStraggler) {
  if (std::thread::hardware_concurrency() <= 1) {
    GTEST_SKIP() << "one hardware thread: the sweep runs inline";
  }
  // World of one, 4 threads.  Cell 0 is a straggler that finishes only
  // once the LAST cell of the grid has: no other thread may wait for it,
  // so the rest of the grid — later grants included — runs meanwhile.
  constexpr std::uint64_t kCells = 64;
  std::vector<std::atomic<int>> executions(kCells);
  std::mutex mutex;
  std::condition_variable last_done_cv;
  bool last_done = false;
  bool straggler_saw_last = false;
  const auto evaluate = [&](std::uint64_t i) {
    executions[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    if (i == 0) {
      std::unique_lock lock(mutex);
      straggler_saw_last = last_done_cv.wait_for(lock, std::chrono::seconds(10),
                                                 [&] { return last_done; });
    } else if (i == kCells - 1) {
      const std::scoped_lock lock(mutex);
      last_done = true;
      last_done_cv.notify_all();
    }
    return cell_result(i);
  };
  SweepServiceOptions options;
  options.num_threads = 4;
  const SweepServiceReport report =
      run_sweep_service(nullptr, kCells, evaluate, 0x515703u, options);
  EXPECT_TRUE(straggler_saw_last) << "the last cell waited behind cell 0";
  // Every cell ran exactly once: a world of one never speculates on its
  // own cells in flight.
  for (std::uint64_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(executions[static_cast<std::size_t>(i)].load(), 1) << "cell " << i;
  }
  EXPECT_EQ(report.stats.executed_cells, kCells);
  EXPECT_EQ(report.stats.completed_cells, kCells);
  EXPECT_EQ(report.stats.duplicate_cells, 0u);
  EXPECT_EQ(report.stats.regrants, 0u);
  EXPECT_GT(report.stats.grants, 1u);
  EXPECT_EQ(sweep_results_digest(report.results),
            sweep_results_digest(direct_results(kCells)));
}

TEST(SweepService, ThrowingCellIsRethrownAfterTheDrain) {
  // 4 threads: the failing cell's exception leaves run_sweep_service only
  // after the cells in flight on the other threads finished — no hang, no
  // std::terminate from an exception escaping a thread.
  constexpr std::uint64_t kCells = 32;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  const auto evaluate = [&](std::uint64_t i) {
    started.fetch_add(1);
    if (i == 5) throw std::runtime_error("cell 5 failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    finished.fetch_add(1);
    return cell_result(i);
  };
  SweepServiceOptions options;
  options.num_threads = 4;
  try {
    (void)run_sweep_service(nullptr, kCells, evaluate, 0x515704u, options);
    FAIL() << "expected the cell's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cell 5 failed");
  }
  EXPECT_EQ(finished.load(), started.load() - 1);
}

}  // namespace
}  // namespace nopfs::sim

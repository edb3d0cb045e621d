// Tests for the performance-simulator engine: conservation properties,
// the pipeline recurrence, barriers, and the holder table.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>

#include "sim/engine.hpp"
#include "sim/policies.hpp"
#include "tiers/params.hpp"
#include "util/rng.hpp"

namespace nopfs::sim {
namespace {

SimConfig small_config(int workers = 4, int epochs = 3) {
  SimConfig config;
  config.system = tiers::presets::sim_cluster(workers);
  config.num_epochs = epochs;
  config.per_worker_batch = 8;
  config.seed = 99;
  return config;
}

data::Dataset small_dataset(std::uint64_t f = 2048, float mb = 0.1f) {
  return data::Dataset("sim-test", std::vector<float>(f, mb));
}

TEST(HolderTable, AddQueryMark) {
  HolderTable table(10, 4);
  EXPECT_TRUE(table.add(3, /*worker=*/1, /*class=*/0));
  EXPECT_FALSE(table.add(3, 1, 0));  // duplicate worker
  EXPECT_TRUE(table.add(3, 2, 1));
  EXPECT_EQ(table.lookup(3, 1).self_class, 0);
  EXPECT_EQ(table.lookup(3, 2).self_class, 1);
  EXPECT_EQ(table.lookup(3, 0).self_class, -1);
  EXPECT_EQ(table.lookup(3, 0).self_slot, -1);
  EXPECT_FALSE(table.lookup(3, 1).self_cached);  // not cached yet
  table.mark_cached(3, 1);
  EXPECT_TRUE(table.lookup(3, 1).self_cached);
  HolderLookup row = table.lookup(3, /*self=*/0);
  EXPECT_EQ(row.remote_class, 0);
  EXPECT_EQ(row.remote_peer, 1);
  row = table.lookup(3, /*self=*/1);
  EXPECT_EQ(row.remote_class, -1);  // 2 uncached
  EXPECT_EQ(row.remote_peer, -1);
  table.mark_cached_at(3, table.lookup(3, 2).self_slot);
  row = table.lookup(3, 1);
  EXPECT_EQ(row.remote_class, 1);
  EXPECT_EQ(row.remote_peer, 2);
  EXPECT_TRUE(table.has_any(3));
  EXPECT_FALSE(table.has_any(4));
}

TEST(HolderTable, SlotOverflowDropsNotCrashes) {
  HolderTable table(2, 2);
  EXPECT_TRUE(table.add(0, 0, 0));
  EXPECT_TRUE(table.add(0, 1, 0));
  EXPECT_FALSE(table.add(0, 2, 0));  // slots full
  EXPECT_EQ(table.dropped_entries(), 1u);
  EXPECT_EQ(table.total_entries(), 2u);
  EXPECT_EQ(table.lookup(0, 2).self_slot, -1);
}

TEST(HolderTable, LookupTiesGoToFirstSlot) {
  HolderTable table(1, 4);
  table.add(0, 5, 1);
  table.add(0, 3, 1);
  table.add(0, 7, 0);
  table.add(0, 9, 0);  // the row is now full
  table.mark_all_cached();
  HolderLookup row = table.lookup(0, 9);  // self in the last slot
  EXPECT_EQ(row.self_slot, 3);
  EXPECT_TRUE(row.self_cached);
  EXPECT_EQ(row.remote_class, 0);
  EXPECT_EQ(row.remote_peer, 7);
  row = table.lookup(0, 7);  // class 0 tie broken by slot order
  EXPECT_EQ(row.remote_class, 0);
  EXPECT_EQ(row.remote_peer, 9);
  row = table.lookup(0, 1);  // not a holder
  EXPECT_EQ(row.self_slot, -1);
  EXPECT_EQ(row.remote_peer, 7);
}

/// A holder entry as the brute-force reference below keeps it.
struct RefEntry {
  int worker;
  int cls;
  bool cached;
};

TEST(HolderTable, LookupMatchesBruteForceReference) {
  // Randomized rows (including full ones and entries add() rejects) with
  // few workers and classes, so self entries, cached and uncached copies
  // and class ties all occur; every (sample, self) lookup must match a
  // plain scan of a shadow copy of the row.
  util::Rng rng(2024);
  for (const int slots : {1, 2, 3, 8, HolderTable::kMaxHolders}) {
    SCOPED_TRACE(testing::Message() << "slots " << slots);
    const std::uint64_t f = 300;
    HolderTable table(f, slots);
    std::vector<std::vector<RefEntry>> shadow(f);
    for (std::uint64_t k = 0; k < f; ++k) {
      const auto adds = rng.uniform_below(static_cast<std::uint64_t>(slots) + 3);
      for (std::uint64_t a = 0; a < adds; ++a) {
        const int worker = static_cast<int>(rng.uniform_below(6));
        const int cls = static_cast<int>(rng.uniform_below(3));
        const auto is_worker = [&](const RefEntry& e) { return e.worker == worker; };
        const bool known = std::any_of(shadow[k].begin(), shadow[k].end(), is_worker);
        const bool fits = shadow[k].size() < static_cast<std::size_t>(slots);
        EXPECT_EQ(table.add(k, worker, cls), !known && fits);
        if (!known && fits) shadow[k].push_back({worker, cls, false});
      }
      for (std::size_t slot = 0; slot < shadow[k].size(); ++slot) {
        if (rng.bernoulli(0.5)) {
          table.mark_cached_at(k, static_cast<int>(slot));
          shadow[k][slot].cached = true;
        }
      }
    }
    for (std::uint64_t k = 0; k < f; ++k) {
      const auto& row = shadow[k];
      for (int self = 0; self < 7; ++self) {
        SCOPED_TRACE(testing::Message() << "sample " << k << " self " << self);
        const auto is_self = [&](const RefEntry& e) { return e.worker == self; };
        const auto is_peer_copy = [&](const RefEntry& e) {
          return e.cached && e.worker != self;
        };
        const auto faster = [](const RefEntry& a, const RefEntry& b) {
          return a.cls < b.cls;
        };
        const auto mine = std::find_if(row.begin(), row.end(), is_self);
        std::vector<RefEntry> peers;
        std::copy_if(row.begin(), row.end(), std::back_inserter(peers), is_peer_copy);
        const auto best = std::min_element(peers.begin(), peers.end(), faster);

        const HolderLookup got = table.lookup(k, self);
        EXPECT_EQ(got.self_slot, mine == row.end() ? -1 : mine - row.begin());
        EXPECT_EQ(got.self_class, mine == row.end() ? -1 : mine->cls);
        EXPECT_EQ(got.self_cached, mine != row.end() && mine->cached);
        EXPECT_EQ(got.remote_class, best == peers.end() ? -1 : best->cls);
        EXPECT_EQ(got.remote_peer, best == peers.end() ? -1 : best->worker);
      }
    }
  }
}

TEST(Engine, PerfectPolicyIsComputeBound) {
  const SimConfig config = small_config();
  const auto dataset = small_dataset();
  PerfectPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  ASSERT_TRUE(result.supported);
  // Lower bound: per-worker compute = accesses * size / c.
  const std::uint64_t per_worker =
      3 * (2048 / 32) * 8;  // epochs * iterations * local batch
  const double expected = per_worker * 0.1 / 64.0;
  EXPECT_NEAR(result.total_s, expected, expected * 0.01);
  EXPECT_NEAR(result.stall_s, 0.0, 1e-9);
  EXPECT_EQ(result.epoch_s.size(), 3u);
}

TEST(Engine, EpochTimesSumToTotal) {
  const SimConfig config = small_config();
  const auto dataset = small_dataset();
  StagingBufferPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  const double epoch_sum =
      std::accumulate(result.epoch_s.begin(), result.epoch_s.end(), 0.0);
  EXPECT_NEAR(epoch_sum + result.prestage_s, result.total_s, 1e-6);
}

TEST(Engine, LocationCountsConserveAccesses) {
  const SimConfig config = small_config();
  const auto dataset = small_dataset();
  NoPFSPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  std::uint64_t fetches = 0;
  for (int loc = static_cast<int>(Location::kLocal);
       loc < static_cast<int>(Location::kCount); ++loc) {
    fetches += result.location_count[loc];
  }
  // Every consumed access fetched exactly once: E * T * B.
  EXPECT_EQ(fetches, 3u * (2048 / 32) * 32);
  // The staging-write stage sees every access too.
  EXPECT_EQ(result.location_count[static_cast<int>(Location::kStagingWrite)], fetches);
}

TEST(Engine, DeterministicAcrossRuns) {
  const SimConfig config = small_config();
  const auto dataset = small_dataset();
  NoPFSPolicy a;
  NoPFSPolicy b;
  const SimResult ra = simulate(config, dataset, a);
  const SimResult rb = simulate(config, dataset, b);
  EXPECT_DOUBLE_EQ(ra.total_s, rb.total_s);
  EXPECT_EQ(ra.batch_s_rest, rb.batch_s_rest);
}

TEST(Engine, NaiveSlowerThanStagingBuffer) {
  // No prefetch overlap must cost more than double buffering (Fig. 8a's
  // Naive-vs-rest gap).
  const SimConfig config = small_config();
  const auto dataset = small_dataset();
  NaivePolicy naive;
  StagingBufferPolicy staging;
  const SimResult rn = simulate(config, dataset, naive);
  const SimResult rs = simulate(config, dataset, staging);
  EXPECT_GT(rn.total_s, rs.total_s * 1.1);
}

TEST(Engine, BatchRecordsSplitByEpoch) {
  const SimConfig config = small_config(4, 2);
  const auto dataset = small_dataset();
  StagingBufferPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  EXPECT_EQ(result.batch_s_epoch0.size(), 2048u / 32u);
  EXPECT_EQ(result.batch_s_rest.size(), 2048u / 32u);  // one more epoch
  for (const double b : result.batch_s_rest) EXPECT_GT(b, 0.0);
}

TEST(Engine, AllreduceCostAddsPerIteration) {
  SimConfig config = small_config(2, 1);
  const auto dataset = small_dataset(512);
  PerfectPolicy a;
  const SimResult without = simulate(config, dataset, a);
  config.allreduce_s = 0.01;
  PerfectPolicy b;
  const SimResult with = simulate(config, dataset, b);
  const double iters = 512.0 / 16.0;
  EXPECT_NEAR(with.total_s - without.total_s, iters * 0.01, 1e-6);
}

TEST(Engine, UnsupportedPolicyReported) {
  SimConfig config = small_config(2, 1);
  // Dataset bigger than 2 workers' RAM (120 GB each).
  const auto dataset =
      data::Dataset("big", std::vector<float>(4096, 120.0f));  // 480 GB
  LbannDynamicPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  EXPECT_FALSE(result.supported);
  EXPECT_FALSE(result.unsupported_reason.empty());
  EXPECT_DOUBLE_EQ(result.total_s, 0.0);
}

TEST(Engine, StallPlusComputeBoundsTotal) {
  const SimConfig config = small_config();
  const auto dataset = small_dataset();
  StagingBufferPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  // The critical path dominates both max-worker compute and max-worker
  // stall (with per-iteration barriers it can exceed their sum slightly
  // when the slowest worker alternates, so only the lower bounds are exact).
  EXPECT_GE(result.total_s, result.compute_s);
  EXPECT_GE(result.total_s, result.stall_s * 0.99);
  EXPECT_GT(result.stall_s, 0.0);
}

TEST(Engine, LocationNamesStable) {
  EXPECT_STREQ(location_name(Location::kStagingWrite), "staging");
  EXPECT_STREQ(location_name(Location::kLocal), "local");
  EXPECT_STREQ(location_name(Location::kRemote), "remote");
  EXPECT_STREQ(location_name(Location::kPfs), "pfs");
}

}  // namespace
}  // namespace nopfs::sim

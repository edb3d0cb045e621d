// Behavioural tests of the simulated I/O policies (paper Sec. 6): relative
// ordering, dataset-coverage flags, capacity handling, and the NoPFS plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/policies.hpp"
#include "sim_result_testutil.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nopfs::sim {
namespace {

/// A small cluster whose tiers are tight relative to the test datasets:
/// RAM 20 MB, SSD 60 MB per worker.
SimConfig tight_config(int workers = 4, int epochs = 4) {
  SimConfig config;
  config.system = tiers::presets::sim_cluster(workers);
  config.system.node.classes[0].capacity_mb = 20.0;
  config.system.node.classes[1].capacity_mb = 60.0;
  config.system.node.staging.capacity_mb = 5.0;
  config.num_epochs = epochs;
  config.per_worker_batch = 8;
  config.seed = 123;
  return config;
}

data::Dataset dataset_mb(std::uint64_t f, float mb) {
  return data::Dataset("d", std::vector<float>(f, mb));
}

double run(const SimConfig& config, const data::Dataset& dataset,
           const std::string& policy_name) {
  auto policy = make_policy(policy_name);
  const SimResult result = simulate(config, dataset, *policy);
  EXPECT_TRUE(result.supported) << policy_name << ": " << result.unsupported_reason;
  return result.total_s;
}

TEST(Policies, FactoryKnowsAllNames) {
  for (const auto& name : all_policy_names()) {
    EXPECT_NO_THROW((void)make_policy(name)) << name;
  }
  EXPECT_THROW((void)make_policy("bogus"), std::invalid_argument);
  EXPECT_EQ(all_policy_names().size(), 10u);
}

TEST(Policies, PerfectIsFastestNaiveIsSlowest) {
  const SimConfig config = tight_config();
  // Dataset larger than one worker's storage, cacheable cluster-wide.
  const auto dataset = dataset_mb(2000, 0.1);  // 200 MB vs 80 MB/worker
  const double perfect = run(config, dataset, "perfect");
  const double nopfs = run(config, dataset, "nopfs");
  const double staging = run(config, dataset, "staging");
  const double naive = run(config, dataset, "naive");
  EXPECT_LE(perfect, nopfs * 1.0001);
  EXPECT_LT(nopfs, naive);
  EXPECT_LT(staging, naive);
}

TEST(Policies, NoPFSBeatsOrMatchesEveryRealPolicy) {
  // The headline Fig. 8 property: NoPFS is the best real policy (within a
  // small tolerance) in the D < S < N*D regime.
  const SimConfig config = tight_config();
  const auto dataset = dataset_mb(2000, 0.1);
  const double nopfs = run(config, dataset, "nopfs");
  for (const std::string name :
       {"naive", "staging", "deepio-ordered", "locality-aware"}) {
    EXPECT_LE(nopfs, run(config, dataset, name) * 1.05) << name;
  }
}

TEST(Policies, LbannUnsupportedBeyondAggregateRam) {
  const SimConfig config = tight_config(4);
  const auto big = dataset_mb(2000, 0.1);  // 200 MB > 4 * 20 MB RAM
  for (const std::string name : {"lbann-dynamic", "lbann-preload"}) {
    auto policy = make_policy(name);
    const SimResult result = simulate(config, big, *policy);
    EXPECT_FALSE(result.supported) << name;
  }
  const auto small = dataset_mb(500, 0.1);  // 50 MB < 80 MB RAM
  for (const std::string name : {"lbann-dynamic", "lbann-preload"}) {
    auto policy = make_policy(name);
    const SimResult result = simulate(config, small, *policy);
    EXPECT_TRUE(result.supported) << name;
  }
}

TEST(Policies, ShardingDoesNotAccessEntireLargeDataset) {
  const SimConfig config = tight_config(4, 3);
  // 400 MB dataset vs 4 * 80 MB = 320 MB aggregate: sharding must miss some.
  const auto dataset = dataset_mb(4000, 0.1);
  ParallelStagingPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  EXPECT_LT(result.accessed_fraction, 1.0);
  EXPECT_GT(result.accessed_fraction, 0.5);
  EXPECT_GT(result.prestage_s, 0.0);
  // Everything it does read is local.
  EXPECT_EQ(result.location_count[static_cast<int>(Location::kPfs)], 0u);
  EXPECT_EQ(result.location_count[static_cast<int>(Location::kRemote)], 0u);
}

TEST(Policies, ShardingCoversWhenItFits) {
  const SimConfig config = tight_config(4, 2);
  const auto dataset = dataset_mb(1000, 0.1);  // 100 MB < 320 MB aggregate
  ParallelStagingPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  EXPECT_DOUBLE_EQ(result.accessed_fraction, 1.0);
}

TEST(Policies, DeepIOOpportunisticSkipsUncachedSamples) {
  const SimConfig config = tight_config(4, 4);
  // RAM-only caching (20 MB * 4 = 80 MB) on a 200 MB dataset.
  const auto dataset = dataset_mb(2000, 0.1);
  DeepIOOpportunisticPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  EXPECT_LT(result.accessed_fraction, 1.0);
  // After epoch 0, PFS traffic should be small (reads are redirected to
  // caches) compared with the ordered variant.
  DeepIOOrderedPolicy ordered;
  const SimResult ordered_result = simulate(config, dataset, ordered);
  EXPECT_DOUBLE_EQ(ordered_result.accessed_fraction, 1.0);
  EXPECT_LT(result.location_count[static_cast<int>(Location::kPfs)],
            ordered_result.location_count[static_cast<int>(Location::kPfs)]);
}

TEST(Policies, NoPFSPlansRespectCapacity) {
  const SimConfig config = tight_config(4, 4);
  const auto dataset = dataset_mb(2000, 0.1);
  NoPFSPolicy policy;
  SimContext ctx;
  core::StreamConfig sc;
  sc.seed = config.seed;
  sc.num_samples = dataset.num_samples();
  sc.num_workers = config.system.num_workers;
  sc.num_epochs = config.num_epochs;
  sc.global_batch = config.global_batch();
  const core::AccessStreamGenerator gen(sc);
  const core::PerfModel model(config.system);
  ctx.config = &config;
  ctx.dataset = &dataset;
  ctx.gen = &gen;
  ctx.model = &model;
  EXPECT_DOUBLE_EQ(policy.setup(ctx), 0.0);  // no prestaging phase
  for (const double mb : policy.planned_mb()) {
    EXPECT_LE(mb, 80.0 + 1e-9);  // RAM + SSD per worker
    EXPECT_GT(mb, 0.0);
  }
}

TEST(Policies, NoPFSReadsPfsOncePerSampleWhenCacheable) {
  // Aggregate storage holds the dataset: total PFS reads ~ F (the paper's
  // "read from the PFS only once for an entire training run").
  const SimConfig config = tight_config(4, 4);
  const auto dataset = dataset_mb(1500, 0.1);  // 150 MB < 320 MB aggregate
  NoPFSPolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  const auto pfs = result.location_count[static_cast<int>(Location::kPfs)];
  EXPECT_LE(pfs, 1500u * 5 / 4);  // close to one per sample
  EXPECT_GT(result.location_count[static_cast<int>(Location::kRemote)], 0u);
  EXPECT_GT(result.location_count[static_cast<int>(Location::kLocal)], 0u);
}

TEST(Policies, NoPFSAblationRemoteOff) {
  const SimConfig config = tight_config(4, 4);
  const auto dataset = dataset_mb(2000, 0.1);
  NoPFSPolicy with_remote;
  NoPFSPolicy::Options opts;
  opts.use_remote = false;
  NoPFSPolicy without_remote(opts);
  const SimResult a = simulate(config, dataset, with_remote);
  const SimResult b = simulate(config, dataset, without_remote);
  EXPECT_EQ(b.location_count[static_cast<int>(Location::kRemote)], 0u);
  // Losing remote fetches costs time (PFS contention instead).
  EXPECT_LE(a.total_s, b.total_s * 1.001);
}

/// NoPFS written the direct way, as the reference for NoPFSPolicy's fast
/// paths: the plan is ordered by std::sort on (accesses desc, sample asc),
/// each sample's holders live in a plain vector scanned in full, and the
/// PFS is priced by PerfModel::fetch_pfs_s / choose_fetch on every access.
class ReferenceNoPFS final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "NoPFS"; }

  double setup(const SimContext& ctx) override {
    const int n = ctx.config->system.num_workers;
    const int epochs = ctx.config->num_epochs;
    const auto f = ctx.dataset->num_samples();
    const auto& stream = ctx.gen->config();
    const std::uint64_t per_epoch = stream.iterations_per_epoch() * stream.global_batch;
    const std::uint64_t consumed = std::min<std::uint64_t>(f, per_epoch);
    std::vector<std::vector<int>> readers(f);  // reader of each sample per epoch
    for (int e = 0; e < epochs; ++e) {
      const std::vector<data::SampleId> order = ctx.gen->epoch_order(e);
      for (std::uint64_t pos = 0; pos < consumed; ++pos) {
        const auto reader = static_cast<int>(pos % static_cast<std::uint64_t>(n));
        readers[order[pos]].push_back(reader);
      }
    }
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> candidates(
        static_cast<std::size_t>(n));
    for (data::SampleId k = 0; k < f; ++k) {
      for (int w = 0; w < n; ++w) {
        const auto count = std::count(readers[k].begin(), readers[k].end(), w);
        if (count > 0) {
          candidates[static_cast<std::size_t>(w)].emplace_back(
              static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(count));
        }
      }
    }
    holders_.assign(f, {});
    planned_mb_.assign(static_cast<std::size_t>(n), 0.0);
    const auto& classes = ctx.config->system.node.classes;
    for (int w = 0; w < n; ++w) {
      auto& cand = candidates[static_cast<std::size_t>(w)];
      std::sort(cand.begin(), cand.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
      std::size_t cls = 0;
      double used = 0.0;
      std::size_t planned = 0;
      for (const auto& [k, count] : cand) {
        const double mb = ctx.dataset->size_mb(k);
        while (cls < classes.size() && used + mb > classes[cls].capacity_mb) {
          ++cls;
          used = 0.0;
        }
        if (cls >= classes.size()) break;
        used += mb;
        holders_[k].push_back({w, static_cast<int>(cls), false});
        planned_mb_[static_cast<std::size_t>(w)] += mb;
        ++planned;
      }
      cut_mid_list_ = cut_mid_list_ && planned > 0 && planned < cand.size();
    }
    return 0.0;
  }

  [[nodiscard]] AccessDecision on_access(const SimContext& ctx, int worker, int /*epoch*/,
                                         data::SampleId sample, int gamma) override {
    auto& row = holders_[sample];
    const auto is_self = [&](const Holder& h) { return h.worker == worker; };
    const auto is_peer_copy = [&](const Holder& h) { return h.cached && !is_self(h); };
    const auto faster = [](const Holder& a, const Holder& b) { return a.cls < b.cls; };
    const auto self = std::find_if(row.begin(), row.end(), is_self);
    if (self != row.end() && self->cached) return {Location::kLocal, self->cls};
    std::vector<Holder> peers;
    std::copy_if(row.begin(), row.end(), std::back_inserter(peers), is_peer_copy);
    const auto best = std::min_element(peers.begin(), peers.end(), faster);
    if (best == peers.end()) {
      if (self != row.end()) self->cached = true;
      return {Location::kPfs, -1};
    }
    const double mb = ctx.dataset->size_mb(sample);
    if (self != row.end()) {
      const double pfs_s = ctx.model->fetch_pfs_s(mb, std::max(1, gamma));
      const double pfs_mbps = pfs_s > 0.0 ? mb / pfs_s : 0.0;
      self->cached = true;
      const bool prefetcher_ahead = pfs_mbps > ctx.config->system.node.compute_mbps;
      if (prefetcher_ahead) return {Location::kLocal, self->cls};
    }
    const core::FetchChoice choice =
        ctx.model->choose_fetch(mb, -1, best->cls, best->worker, std::max(1, gamma));
    if (choice.source != core::FetchSource::kRemote) return {Location::kPfs, -1};
    return {Location::kRemote, best->cls};
  }

  [[nodiscard]] const std::vector<double>& planned_mb() const { return planned_mb_; }
  /// True when every worker's plan stopped at capacity partway through its
  /// candidate list (so the plan order decides what is cached).
  [[nodiscard]] bool cut_mid_list() const { return cut_mid_list_; }

 private:
  struct Holder {
    int worker;
    int cls;
    bool cached;
  };
  std::vector<std::vector<Holder>> holders_;
  std::vector<double> planned_mb_;
  bool cut_mid_list_ = true;
};

TEST(Policies, NoPFSMatchesSortedPlanReference) {
  // Two classes (RAM 20 MB, SSD 60 MB) against varied sizes: each worker's
  // plan is cut by capacity mid-list, so the plan order (accesses desc,
  // sample asc), the class spill and the per-access source choice all show
  // in planned_mb() and the SimResult.  A 40 MB/s network sits inside the
  // per-client PFS rate's range, so remote-vs-PFS flips with gamma.
  util::Rng rng(31);
  std::vector<float> sizes(2500);
  for (float& mb : sizes) mb = static_cast<float>(0.02 + 0.5 * rng.uniform01());
  const data::Dataset dataset("varied", std::move(sizes));
  const std::pair<int, double> cases[] = {{3, 0.0}, {6, 0.0}, {4, 40.0}};  // 0: default
  for (const auto& [epochs, network_mbps] : cases) {
    SCOPED_TRACE(testing::Message() << "epochs " << epochs << " net " << network_mbps);
    SimConfig config = tight_config(/*workers=*/5, epochs);
    config.system.pfs.op_rate_per_s = 4000.0;  // price the metadata-op term too
    if (network_mbps > 0.0) config.system.node.network_mbps = network_mbps;
    NoPFSPolicy policy;
    ReferenceNoPFS reference;
    const SimResult got = simulate(config, dataset, policy);
    const SimResult want = simulate(config, dataset, reference);
    ASSERT_TRUE(reference.cut_mid_list());
    EXPECT_EQ(policy.planned_mb(), reference.planned_mb());
    expect_results_identical(got, want);
    EXPECT_GT(got.location_count[static_cast<int>(Location::kRemote)], 0u);
    EXPECT_GT(got.location_count[static_cast<int>(Location::kLocal)], 0u);
  }
}

TEST(Policies, CapacityTrackerSpillsAcrossClasses) {
  tiers::NodeParams node;
  tiers::StorageClassParams fast;
  fast.name = "ram";
  fast.capacity_mb = 2.0;
  fast.read_mbps = util::ThroughputCurve({{0, 0}, {1, 100}});
  fast.write_mbps = fast.read_mbps;
  tiers::StorageClassParams slow = fast;
  slow.name = "ssd";
  slow.capacity_mb = 3.0;
  node.classes = {fast, slow};
  CapacityTracker tracker(node, 1, /*ram_only=*/false);
  EXPECT_EQ(tracker.try_cache(0, 1.0), 0);
  EXPECT_EQ(tracker.try_cache(0, 1.0), 0);
  EXPECT_EQ(tracker.try_cache(0, 1.0), 1);  // RAM full, spill to SSD
  EXPECT_EQ(tracker.try_cache(0, 3.5), -1);  // nothing fits
  EXPECT_DOUBLE_EQ(tracker.used_mb(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tracker.used_mb(0, 1), 1.0);

  CapacityTracker ram_only(node, 1, /*ram_only=*/true);
  EXPECT_EQ(ram_only.try_cache(0, 1.5), 0);
  EXPECT_EQ(ram_only.try_cache(0, 1.5), -1);  // no SSD spill
}

TEST(Policies, LocalityAwareMostlyLocalAfterReorder) {
  const SimConfig config = tight_config(4, 4);
  const auto dataset = dataset_mb(1000, 0.1);  // fits cluster-wide
  LocalityAwarePolicy policy;
  const SimResult result = simulate(config, dataset, policy);
  const auto local = result.location_count[static_cast<int>(Location::kLocal)];
  const auto remote = result.location_count[static_cast<int>(Location::kRemote)];
  const auto pfs = result.location_count[static_cast<int>(Location::kPfs)];
  // After the caching epoch, reordering should make local dominate.
  EXPECT_GT(local, remote);
  EXPECT_GT(local, pfs);
}

}  // namespace
}  // namespace nopfs::sim

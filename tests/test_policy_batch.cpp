// Batched-dispatch parity: for every policy, the engine's batched path
// (Policy::on_access_batch, one virtual call per local batch) must produce
// a SimResult bit-identical to the per-sample path (one Policy::on_access
// call per access) — the contract in DESIGN.md Sec. 6.3.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/policies.hpp"
#include "sim_result_testutil.hpp"
#include "tiers/params.hpp"

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
  return data::Dataset("batch-test", std::vector<float>(f, mb));
}

using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

/// Every registered policy plus the NoPFS ablation variants, each as a
/// label and a factory (a parity run needs two fresh instances).
std::vector<std::pair<std::string, PolicyFactory>> parity_inputs() {
  std::vector<std::pair<std::string, PolicyFactory>> inputs;
  for (const std::string& name : all_policy_names()) {
    inputs.emplace_back(name, [name] { return make_policy(name); });
  }
  inputs.emplace_back("nopfs use_remote=false", [] {
    return std::make_unique<NoPFSPolicy>(NoPFSPolicy::Options{.use_remote = false});
  });
  inputs.emplace_back("nopfs frequency_aware=false", [] {
    return std::make_unique<NoPFSPolicy>(NoPFSPolicy::Options{.frequency_aware = false});
  });
  return inputs;
}

void expect_batch_parity(const SimConfig& config, const data::Dataset& dataset) {
  for (const auto& [label, make] : parity_inputs()) {
    SimConfig per_sample_config = config;
    per_sample_config.force_per_sample_dispatch = true;

    auto batched_policy = make();
    auto per_sample_policy = make();
    const SimResult batched = simulate(config, dataset, *batched_policy);
    const SimResult per_sample =
        simulate(per_sample_config, dataset, *per_sample_policy);

    SCOPED_TRACE("policy: " + label);
    expect_results_identical(batched, per_sample);
  }
}

TEST(PolicyBatch, BatchedMatchesPerSampleForEveryPolicy) {
  expect_batch_parity(small_config(), small_dataset());
}

TEST(PolicyBatch, ParityHoldsWithVariedSampleSizesAndWorkers) {
  // Varied sizes exercise capacity boundaries (first-touch caching fills up
  // mid-batch) where a subtly wrong batch override would diverge.
  std::vector<float> sizes;
  sizes.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    sizes.push_back(0.01f + 0.25f * static_cast<float>(i % 7));
  }
  const data::Dataset dataset("batch-test-varied", std::move(sizes));
  expect_batch_parity(small_config(/*workers=*/8, /*epochs=*/4), dataset);
}

TEST(PolicyBatch, DefaultBatchFallbackLoopsOnAccess) {
  // A policy that only implements on_access still works through the batch
  // interface: the base-class default must loop it in order.
  class CountingPolicy final : public Policy {
   public:
    [[nodiscard]] std::string name() const override { return "counting"; }
    double setup(const SimContext&) override { return 0.0; }
    [[nodiscard]] AccessDecision on_access(const SimContext&, int, int,
                                           data::SampleId sample, int) override {
      seen.push_back(sample);
      return {Location::kPfs, -1};
    }
    std::vector<data::SampleId> seen;
  };

  CountingPolicy policy;
  SimContext ctx;
  const data::SampleId samples[] = {5, 3, 9, 7};
  AccessDecision decisions[4];
  policy.on_access_batch(ctx, 0, 0, samples, 1, decisions);
  EXPECT_EQ(policy.seen, (std::vector<data::SampleId>{5, 3, 9, 7}));
  for (const AccessDecision& decision : decisions) {
    EXPECT_EQ(decision.location, Location::kPfs);
  }
}

TEST(PolicyBatch, OpportunisticReorderingIsNotBatchable) {
  // DeepIO opportunistic substitutes cached samples in remap(), and
  // on_access() grows the cache mid-batch — the engine must keep the
  // interleaved path for it.
  EXPECT_FALSE(make_policy("deepio-opportunistic")->batchable());
  for (const std::string& name : all_policy_names()) {
    if (name == "deepio-opportunistic") continue;
    EXPECT_TRUE(make_policy(name)->batchable()) << name;
  }
}

}  // namespace
}  // namespace nopfs::sim

// Fault-injection and elastic-membership tests (DESIGN.md Sec. 11):
//
//   * FaultPlan helpers, validation, and the byte-explicit codec (trailing
//     bytes rejected, truncation throws);
//   * the three injection seams hold the pinned recovery invariant —
//     the delivered-sample digest of a faulted run is bit-identical to the
//     fault-free run (stragglers, dropped connections, slow-PFS bursts);
//   * FaultTransport and the incremental cache-plan rebalance behave
//     deterministically at the unit level;
//   * elastic sweep worlds: a late joiner just starts pulling, a worker
//     dying mid-sweep (abandon_after_pulls) never perturbs the results
//     digest, and a dead rank's gamma contribution drains to zero.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_policy.hpp"
#include "net/fault_transport.hpp"
#include "net/socket_transport.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/harness.hpp"
#include "scenario/fault_plan.hpp"
#include "scenario/scenario.hpp"
#include "sim/sweep_service.hpp"

namespace nopfs {
namespace {

using scenario::FaultPlan;

FaultPlan full_plan() {
  FaultPlan plan;
  plan.stragglers = {{1, 2.0}, {1, 1.5}, {3, 4.0}};
  plan.drops = {{0, 0.25, 0.75}, {2, 1.0, 2.0}};
  plan.pfs_bursts = {{0.5, 1.5, 3.0}, {1.0, 2.0, 2.0}};
  plan.membership = {{2, 0.0, 1.0}, {4, 0.5, -1.0}};
  return plan;
}

// ---------------------------------------------------------------------------
// FaultPlan helpers / validation / codec

TEST(FaultPlan, HelpersCombineEntriesDeterministically) {
  const FaultPlan plan = full_plan();
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());

  // Straggler factors multiply per rank; healthy ranks stay at 1.
  EXPECT_DOUBLE_EQ(plan.straggler_factor(1), 3.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(3), 4.0);
  EXPECT_DOUBLE_EQ(plan.straggler_factor(0), 1.0);

  // Drop windows are per rank, half-open [start, end).
  EXPECT_FALSE(plan.connection_down(0, 0.0));
  EXPECT_TRUE(plan.connection_down(0, 0.25));
  EXPECT_TRUE(plan.connection_down(0, 0.5));
  EXPECT_FALSE(plan.connection_down(0, 0.75));
  EXPECT_FALSE(plan.connection_down(1, 0.5));
  EXPECT_TRUE(plan.connection_down(2, 1.5));

  // Burst derate is the max over active windows.
  EXPECT_DOUBLE_EQ(plan.pfs_derate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.pfs_derate(0.5), 3.0);
  EXPECT_DOUBLE_EQ(plan.pfs_derate(1.25), 3.0);  // both active, max wins
  EXPECT_DOUBLE_EQ(plan.pfs_derate(1.75), 2.0);
  EXPECT_DOUBLE_EQ(plan.pfs_derate(2.5), 1.0);
}

TEST(FaultPlan, ValidationCatchesEveryBadEntry) {
  EXPECT_TRUE(scenario::validate_fault_plan(full_plan(), 4).empty());

  FaultPlan bad;
  bad.stragglers = {{0, 0.5}};      // factor < 1
  bad.drops = {{1, 2.0, 1.0}};      // empty window
  bad.pfs_bursts = {{0.0, 1.0, 0.5}};  // derate < 1
  bad.membership = {{2, 1.0, 0.5}};    // leaves before joining
  const auto problems = scenario::validate_fault_plan(bad, 2);
  EXPECT_GE(problems.size(), 4u);

  // Stragglers and drops are bounded by the world; membership ranks may
  // exceed it (late joiners extend the world).
  FaultPlan out_of_world;
  out_of_world.stragglers = {{5, 2.0}};
  EXPECT_FALSE(scenario::validate_fault_plan(out_of_world, 2).empty());
  FaultPlan joiner;
  joiner.membership = {{5, 0.5, -1.0}};
  EXPECT_TRUE(scenario::validate_fault_plan(joiner, 2).empty());
}

TEST(FaultPlan, CodecRoundTripsAndRejectsTrailingBytes) {
  const FaultPlan plan = full_plan();
  const std::vector<std::uint8_t> bytes = scenario::encode_fault_plan(plan);
  EXPECT_EQ(scenario::decode_fault_plan(bytes), plan);

  const FaultPlan empty;
  EXPECT_EQ(scenario::decode_fault_plan(scenario::encode_fault_plan(empty)),
            empty);

  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW((void)scenario::decode_fault_plan(trailing), std::runtime_error);

  std::vector<std::uint8_t> truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW((void)scenario::decode_fault_plan(truncated),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// FaultTransport (unit): drops are windowed, everything else forwards

class FakeTransport final : public net::Transport {
 public:
  [[nodiscard]] int rank() const override { return 1; }
  [[nodiscard]] int world_size() const override { return 2; }
  std::vector<net::Bytes> allgather(net::Bytes local) override {
    return {local, local};
  }
  void barrier() override {}
  void set_serve_handler(ServeHandler) override {}
  std::optional<net::Bytes> fetch_sample(int, std::uint64_t id) override {
    ++fetches;
    return net::Bytes{static_cast<std::uint8_t>(id)};
  }
  [[nodiscard]] double transferred_mb() const override { return 0.0; }

  int fetches = 0;
};

TEST(FaultTransport, DropsFetchesInsideTheWindowOnly) {
  FakeTransport inner;

  // Window covering the decorator's whole lifetime: every fetch misses
  // without ever reaching the inner transport's serve path.
  FaultPlan always;
  always.drops = {{1, 0.0, 1.0e9}};
  net::FaultTransport down(inner, always, 1.0);
  EXPECT_FALSE(down.fetch_sample(0, 7).has_value());
  EXPECT_FALSE(down.fetch_sample(0, 8).has_value());
  EXPECT_EQ(down.dropped_fetches(), 2u);
  EXPECT_EQ(inner.fetches, 0);

  // Window that never opens in this test's lifetime: forwards untouched.
  FaultPlan never;
  never.drops = {{1, 1.0e9, 2.0e9}};
  net::FaultTransport up(inner, never, 1.0);
  const auto bytes = up.fetch_sample(0, 7);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ((*bytes)[0], 7);
  EXPECT_EQ(up.dropped_fetches(), 0u);
  EXPECT_EQ(inner.fetches, 1);

  // A drop scripted for ANOTHER rank does not touch this one.
  FaultPlan other;
  other.drops = {{0, 0.0, 1.0e9}};
  net::FaultTransport unaffected(inner, other, 1.0);
  EXPECT_TRUE(unaffected.fetch_sample(0, 9).has_value());

  // Non-fetch surface forwards.
  EXPECT_EQ(up.rank(), 1);
  EXPECT_EQ(up.world_size(), 2);
}

// ---------------------------------------------------------------------------
// Incremental rebalance after a leave

TEST(Rebalance, DropRankRemovesOnlyTheDeadRanksHoldings) {
  // rank 0 caches {1,2}; rank 1 caches {2,3,4}; rank 2 caches {5}.
  const auto plan_for = [](std::vector<std::pair<data::SampleId, int>> entries) {
    core::CachePlan plan;
    plan.per_class.resize(2);
    for (const auto& [sample, cls] : entries) {
      plan.per_class[static_cast<std::size_t>(cls)].samples.push_back(sample);
      plan.class_of[sample] = cls;
    }
    return plan;
  };
  const std::vector<core::CachePlan> plans = {
      plan_for({{1, 0}, {2, 0}}),
      plan_for({{2, 0}, {3, 0}, {4, 1}}),
      plan_for({{5, 0}}),
  };
  core::LocationIndex index(plans, /*self_rank=*/0);
  ASSERT_TRUE(index.cached_anywhere(3));
  ASSERT_TRUE(index.cached_anywhere(4));

  const runtime::RebalanceReport report =
      runtime::rebalance_after_leave(index, /*dead_rank=*/1);
  // Sample 2 survives on rank 0; samples 3 and 4 were rank 1-only.
  EXPECT_EQ(report.remapped_samples, 1u);
  EXPECT_EQ(report.pfs_only_samples, 2u);

  EXPECT_FALSE(index.cached_anywhere(3));
  EXPECT_FALSE(index.cached_anywhere(4));
  EXPECT_TRUE(index.cached_anywhere(2));
  EXPECT_TRUE(index.cached_anywhere(5));
  const auto holders = index.holders(2);
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0].rank, 0);
  // A survivor's remote resolution is untouched by the rebalance.
  const auto remote = index.best_remote(5);
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->peer, 2);
}

// ---------------------------------------------------------------------------
// Delivered-sample completeness: faulted runs keep the fault-free digest

struct FaultedVsClean {
  runtime::RuntimeResult clean;
  runtime::RuntimeResult faulted;
};

FaultedVsClean run_scenario_pair(const std::string& name) {
  const scenario::Scenario& s = scenario::get(name);
  EXPECT_FALSE(s.worker.faults.empty()) << name << " scripts no faults";
  const data::Dataset dataset = scenario::worker_dataset(s);
  const runtime::RuntimeConfig faulted_config = scenario::runtime_config(s);
  runtime::RuntimeConfig clean_config = faulted_config;
  clean_config.faults = FaultPlan{};
  return {runtime::run_training(dataset, clean_config),
          runtime::run_training(dataset, faulted_config)};
}

TEST(FaultRuns, StragglerKeepsDeliveredDigest) {
  const auto [clean, faulted] = run_scenario_pair("fault-straggler");
  EXPECT_EQ(faulted.delivered_digest, clean.delivered_digest);
  EXPECT_EQ(faulted.verified_samples, clean.verified_samples);
  EXPECT_EQ(faulted.verification_failures, 0u);
}

TEST(FaultRuns, DroppedConnectionsMissToPfsWithSameDigest) {
  const auto [clean, faulted] = run_scenario_pair("fault-drop");
  EXPECT_EQ(faulted.delivered_digest, clean.delivered_digest);
  EXPECT_EQ(faulted.verified_samples, clean.verified_samples);
  EXPECT_EQ(faulted.verification_failures, 0u);
  // The drop spans the whole run, so rank 1 (the scripted rank) can never
  // complete a remote fetch — every attempt degrades to a detectable miss
  // plus a PFS fallback, never a lost sample.
}

TEST(FaultRuns, PfsBurstKeepsDeliveredDigest) {
  const auto [clean, faulted] = run_scenario_pair("fault-pfs-burst");
  EXPECT_EQ(faulted.delivered_digest, clean.delivered_digest);
  EXPECT_EQ(faulted.verified_samples, clean.verified_samples);
  EXPECT_EQ(faulted.verification_failures, 0u);
}

TEST(FaultRuns, ChurnGossipScenarioMatchesFixedWindowDigest) {
  // fault-churn-gossip is contention-batched-socket plus the adaptive
  // flush floor; adaptation changes delivery LATENCY only, so the threaded
  // digest and gamma envelope must match the fixed-window base scenario.
  const scenario::Scenario& adaptive = scenario::get("fault-churn-gossip");
  const scenario::Scenario& fixed = scenario::get("contention-batched-socket");
  ASSERT_GT(adaptive.worker.gossip.min_flush_virtual_s, 0.0);
  ASSERT_LE(adaptive.worker.gossip.min_flush_virtual_s,
            adaptive.worker.gossip.flush_virtual_s);
  const data::Dataset dataset = scenario::worker_dataset(adaptive);
  const runtime::RuntimeResult a =
      runtime::run_training(dataset, scenario::runtime_config(adaptive));
  const runtime::RuntimeResult f =
      runtime::run_training(dataset, scenario::runtime_config(fixed));
  EXPECT_EQ(a.delivered_digest, f.delivered_digest);
  EXPECT_EQ(a.verified_samples, f.verified_samples);
  EXPECT_EQ(a.pfs_peak_gamma, f.pfs_peak_gamma);
}

TEST(FaultRuns, RegistryEntriesValidateAndCarryPlans) {
  for (const char* name : {"fault-straggler", "fault-drop", "fault-pfs-burst",
                           "fault-churn-gossip", "elastic-sweep-join",
                           "elastic-sweep-leave"}) {
    SCOPED_TRACE(name);
    const scenario::Scenario& s = scenario::get(name);
    EXPECT_TRUE(scenario::validate(s).empty());
    // runtime_config carries the plan into the harness.
    const runtime::RuntimeConfig config = scenario::runtime_config(s);
    EXPECT_EQ(config.faults, s.worker.faults);
  }
  EXPECT_FALSE(scenario::get("elastic-sweep-join").worker.faults.membership.empty());
  EXPECT_FALSE(scenario::get("elastic-sweep-leave").worker.faults.membership.empty());
}

// ---------------------------------------------------------------------------
// Elastic sweep worlds

sim::SimResult cell_result(std::uint64_t i) {
  sim::SimResult r;
  r.policy = "cell-" + std::to_string(i);
  r.dataset = "elastic";
  r.total_s = 1.5 * static_cast<double>(i) + 0.25;
  r.compute_s = 2.0 + static_cast<double>(i);
  r.epoch_s = {0.5 + static_cast<double>(i)};
  return r;
}

std::uint64_t serial_digest(std::uint64_t n) {
  std::vector<sim::SimResult> results;
  for (std::uint64_t i = 0; i < n; ++i) results.push_back(cell_result(i));
  return sim::sweep_results_digest(results);
}

TEST(ElasticSweep, AbandonWithoutElasticIsRejected) {
  sim::SweepServiceOptions options;
  options.abandon_after_pulls = 1;
  EXPECT_THROW(
      (void)sim::run_sweep_service(nullptr, 4, cell_result, 0x31337u, options),
      std::invalid_argument);
}

TEST(ElasticSweep, LateJoinerPullsAndDigestMatchesSerial) {
  constexpr std::uint64_t kCells = 30;
  constexpr int kBaseWorld = 2;
  constexpr int kMaxWorld = 3;
  const std::uint64_t signature = 0xE1A571Cu;
  const std::uint16_t port = net::pick_free_port();

  // Phase 1: construct all three transports (the joiner, rank 2, meets the
  // still-open elastic rendezvous); phase 2: run the sweep, the joiner
  // starting late.  Keeping construction separate means the joiner can
  // never race the root's listener teardown.
  std::vector<std::unique_ptr<net::SocketTransport>> transports(kMaxWorld);
  {
    std::vector<std::thread> ctors;
    for (int r = 0; r < kMaxWorld; ++r) {
      ctors.emplace_back([&, r] {
        net::SocketOptions options;
        options.rank = r;
        options.world_size = kBaseWorld;
        options.max_world = kMaxWorld;
        options.rendezvous_port = port;
        options.timeout_s = 60.0;
        transports[static_cast<std::size_t>(r)] =
            std::make_unique<net::SocketTransport>(options);
      });
    }
    for (auto& t : ctors) t.join();
  }
  for (const auto& t : transports) ASSERT_NE(t, nullptr);
  // A joiner is outside the collective count by design.
  EXPECT_THROW((void)transports[2]->allgather({}), std::runtime_error);

  const auto evaluate = [](std::uint64_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return cell_result(i);
  };
  sim::SweepServiceOptions service;
  service.num_threads = 1;
  service.elastic = true;
  service.max_workers = kMaxWorld;

  std::vector<sim::SweepServiceReport> reports(kMaxWorld);
  std::vector<std::string> errors(kMaxWorld);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kMaxWorld; ++r) {
    ranks.emplace_back([&, r] {
      try {
        if (r == kBaseWorld) {
          // The joiner shows up mid-sweep and just starts pulling.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        reports[static_cast<std::size_t>(r)] = sim::run_sweep_service(
            transports[static_cast<std::size_t>(r)].get(), kCells, evaluate,
            signature, service);
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = ex.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < kMaxWorld; ++r) {
    EXPECT_EQ(errors[static_cast<std::size_t>(r)], "") << "rank " << r;
  }

  const sim::SweepServiceReport& root = reports[0];
  EXPECT_EQ(root.stats.completed_cells, kCells);
  ASSERT_EQ(root.results.size(), kCells);
  EXPECT_EQ(sim::sweep_results_digest(root.results), serial_digest(kCells));
  std::uint64_t executed = 0;
  for (const auto& report : reports) executed += report.stats.executed_cells;
  EXPECT_GE(executed, kCells);
}

TEST(ElasticSweep, WorkerDyingMidSweepKeepsDigestIdentity) {
  constexpr std::uint64_t kCells = 24;
  constexpr int kWorld = 2;
  const std::uint64_t signature = 0xDEAD01u;
  const std::uint16_t port = net::pick_free_port();

  const auto evaluate = [](std::uint64_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return cell_result(i);
  };

  std::vector<sim::SweepServiceReport> reports(kWorld);
  std::vector<std::string> errors(kWorld);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      try {
        net::SocketOptions options;
        options.rank = r;
        options.world_size = kWorld;
        options.max_world = kWorld;
        options.rendezvous_port = port;
        options.timeout_s = 60.0;
        net::SocketTransport transport(options);
        sim::SweepServiceOptions service;
        service.num_threads = 1;
        service.elastic = true;
        service.max_workers = kWorld;
        if (r == 1) {
          // One reported pull, then take a grant and vanish: the cells the
          // dead worker held are recovered by rank 0's tail re-grants.
          service.abandon_after_pulls = 1;
        }
        reports[static_cast<std::size_t>(r)] = sim::run_sweep_service(
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

  const sim::SweepServiceReport& root = reports[0];
  EXPECT_EQ(root.stats.completed_cells, kCells);
  ASSERT_EQ(root.results.size(), kCells);
  EXPECT_EQ(sim::sweep_results_digest(root.results), serial_digest(kCells));
}

TEST(ElasticSweep, GammaDrainsToZeroWhenARankDiesHoldingIt) {
  const std::uint16_t port = net::pick_free_port();
  std::unique_ptr<net::SocketTransport> root;
  std::unique_ptr<net::SocketTransport> peer;
  std::vector<std::thread> ctors;
  for (int r = 0; r < 2; ++r) {
    ctors.emplace_back([&, r] {
      net::SocketOptions options;
      options.rank = r;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 60.0;
      auto transport = std::make_unique<net::SocketTransport>(options);
      (r == 0 ? root : peer) = std::move(transport);
    });
  }
  for (auto& t : ctors) t.join();
  ASSERT_NE(root, nullptr);
  ASSERT_NE(peer, nullptr);

  // Rank 1 raises gamma by 2, then dies (transport destroyed) without ever
  // releasing — the scripted "rank N dies holding PFS readers" walkthrough.
  EXPECT_EQ(peer->pfs_adjust(+2), 2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (root->pfs_adjust(0) != 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(root->pfs_adjust(0), 2);

  peer.reset();
  // The root's dead-rank release must drain the orphaned contribution.
  while (root->pfs_adjust(0) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(root->pfs_adjust(0), 0);
}

}  // namespace
}  // namespace nopfs

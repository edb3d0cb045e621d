#pragma once
// The I/O strategies the paper simulates (Sec. 6):
//
//   Perfect           no-I/O lower bound (reads cost zero)
//   Naive             synchronous PFS reads, no prefetching or caching
//   StagingBuffer     prefetch the reference string from the PFS, drop after
//                     use — models PyTorch double-buffering / tf.data
//   DeepIO (ordered)  in-memory worker caches shared over the network;
//                     misses go to the PFS in the given order
//   DeepIO (opport.)  same caches, but accesses are reordered to whatever is
//                     cached — deviates from full randomization and may not
//                     access the entire dataset
//   ParallelStaging   data sharding: upfront copy of a static shard to local
//                     storage; only local samples are ever accessed
//   LBANN (dynamic)   first-touch caching in RAM only, remote fetches via
//                     the data store; requires S <= N * RAM
//   LBANN (preload)   upfront distributed RAM load; same requirement
//   LocalityAware     Yang & Cong: epoch 0 caches first-touch across tiers,
//                     later epochs reorder batches so workers read what they
//                     cached (full coverage, modified randomization)
//   NoPFS             this paper: clairvoyant frequency-aware multi-tier
//                     plans, remote fetching, model-driven source selection
//
// All policies express their cache state through HolderTable so the engine
// prices accesses uniformly.

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/policy.hpp"
#include "util/rng.hpp"

namespace nopfs::sim {

/// Tracks per-worker, per-class used capacity for dynamic (first-touch)
/// caching policies.
class CapacityTracker {
 public:
  CapacityTracker() = default;
  CapacityTracker(const tiers::NodeParams& node, int num_workers, bool ram_only);

  /// Caches `mb` on `worker` in the fastest class with space; returns the
  /// class index or -1 when full.
  [[nodiscard]] int try_cache(int worker, double mb);

  [[nodiscard]] double used_mb(int worker, int cls) const;

 private:
  std::vector<double> capacity_mb_;          ///< per class
  std::vector<std::vector<double>> used_;    ///< [worker][class]
};

class PerfectPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Perfect"; }
  double setup(const SimContext&) override { return 0.0; }
  [[nodiscard]] AccessDecision on_access(const SimContext&, int, int, data::SampleId,
                                         int) override {
    return {Location::kLocal, 0};
  }
  [[nodiscard]] bool batchable() const override { return true; }
  [[nodiscard]] bool zero_io() const override { return true; }
};

class NaivePolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Naive"; }
  double setup(const SimContext&) override { return 0.0; }
  [[nodiscard]] AccessDecision on_access(const SimContext&, int, int, data::SampleId,
                                         int) override {
    return {Location::kPfs, -1};
  }
  void on_access_batch(const SimContext&, int, int, std::span<const data::SampleId>,
                       int, std::span<AccessDecision> out) override {
    std::fill(out.begin(), out.end(), AccessDecision{Location::kPfs, -1});
  }
  [[nodiscard]] bool batchable() const override { return true; }
  [[nodiscard]] bool overlapped() const override { return false; }
};

class StagingBufferPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "StagingBuffer"; }
  double setup(const SimContext&) override { return 0.0; }
  [[nodiscard]] AccessDecision on_access(const SimContext&, int, int, data::SampleId,
                                         int) override {
    return {Location::kPfs, -1};
  }
  void on_access_batch(const SimContext&, int, int, std::span<const data::SampleId>,
                       int, std::span<AccessDecision> out) override {
    std::fill(out.begin(), out.end(), AccessDecision{Location::kPfs, -1});
  }
  [[nodiscard]] bool batchable() const override { return true; }
};

/// Shared machinery: first-touch caching with optional remote fetches.
class FirstTouchPolicy : public Policy {
 public:
  /// `ram_only`: restrict caching to storage class 0 (assumed RAM).
  explicit FirstTouchPolicy(bool ram_only) : ram_only_(ram_only) {}

  double setup(const SimContext& ctx) override;
  [[nodiscard]] AccessDecision on_access(const SimContext& ctx, int worker, int epoch,
                                         data::SampleId sample, int gamma) override;
  void on_access_batch(const SimContext& ctx, int worker, int epoch,
                       std::span<const data::SampleId> samples, int gamma,
                       std::span<AccessDecision> out) override;
  /// First-touch caching mutates only holder/capacity state, which no
  /// subclass remap() reads mid-batch (DeepIO opportunistic, which does,
  /// re-overrides this to false).
  [[nodiscard]] bool batchable() const override { return true; }

 protected:
  /// The per-sample decision logic, devirtualized so on_access_batch can
  /// amortize dispatch; on_access and the batch loop both call this, which
  /// is what keeps the two paths bit-identical.
  [[nodiscard]] AccessDecision decide(const SimContext& ctx, int worker,
                                      data::SampleId sample);
  [[nodiscard]] HolderTable& table() noexcept { return table_; }
  [[nodiscard]] CapacityTracker& capacity() noexcept { return capacity_; }
  /// Samples cached per worker, in caching order (locality-aware reuse).
  std::vector<std::vector<data::SampleId>> cached_by_worker_;

 private:
  bool ram_only_;
  HolderTable table_;
  CapacityTracker capacity_;
};

class DeepIOOrderedPolicy final : public FirstTouchPolicy {
 public:
  DeepIOOrderedPolicy() : FirstTouchPolicy(/*ram_only=*/true) {}
  [[nodiscard]] std::string name() const override { return "DeepIO (Ord.)"; }
};

class DeepIOOpportunisticPolicy final : public FirstTouchPolicy {
 public:
  DeepIOOpportunisticPolicy() : FirstTouchPolicy(/*ram_only=*/true) {}
  [[nodiscard]] std::string name() const override { return "DeepIO (Opp.)"; }

  double setup(const SimContext& ctx) override;
  [[nodiscard]] data::SampleId remap(int worker, int epoch, std::uint64_t local_index,
                                     data::SampleId def) override;
  [[nodiscard]] AccessDecision on_access(const SimContext& ctx, int worker, int epoch,
                                         data::SampleId sample, int gamma) override;
  /// Re-shadows the inherited FirstTouchPolicy batch override with the
  /// base-class per-sample loop: the inherited decide() path would skip this
  /// class's accessed_[] tracking and silently corrupt accessed_fraction().
  void on_access_batch(const SimContext& ctx, int worker, int epoch,
                       std::span<const data::SampleId> samples, int gamma,
                       std::span<AccessDecision> out) override {
    Policy::on_access_batch(ctx, worker, epoch, samples, gamma, out);
  }
  [[nodiscard]] double accessed_fraction(const SimContext& ctx) const override;

  /// remap() substitutes samples this worker cached, and on_access() grows
  /// that cache — interleaving within a local batch is observable, so the
  /// engine must keep the per-sample path for this policy.
  [[nodiscard]] bool batchable() const override { return false; }

 private:
  std::vector<bool> accessed_;
  std::vector<std::size_t> round_robin_;
};

class ParallelStagingPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "Parallel Staging"; }
  double setup(const SimContext& ctx) override;
  void on_epoch_begin(const SimContext& ctx, int epoch) override;
  [[nodiscard]] data::SampleId remap(int worker, int epoch, std::uint64_t local_index,
                                     data::SampleId def) override;
  [[nodiscard]] AccessDecision on_access(const SimContext& ctx, int worker, int epoch,
                                         data::SampleId sample, int gamma) override;
  void on_access_batch(const SimContext& ctx, int worker, int epoch,
                       std::span<const data::SampleId> samples, int gamma,
                       std::span<AccessDecision> out) override;
  /// remap() reads only epoch_sequence_, which on_access() never touches.
  [[nodiscard]] bool batchable() const override { return true; }
  [[nodiscard]] double accessed_fraction(const SimContext& ctx) const override;

 private:
  [[nodiscard]] AccessDecision decide(int worker, data::SampleId sample) const;

  HolderTable table_;
  std::vector<std::vector<data::SampleId>> shards_;          ///< per worker
  std::vector<std::vector<data::SampleId>> epoch_sequence_;  ///< shuffled per epoch
  double staged_mb_ = 0.0;
};

class LbannDynamicPolicy final : public FirstTouchPolicy {
 public:
  LbannDynamicPolicy() : FirstTouchPolicy(/*ram_only=*/true) {}
  [[nodiscard]] std::string name() const override { return "LBANN (Dynamic)"; }
  [[nodiscard]] bool supported(const SimContext& ctx, std::string* why) const override;
};

class LbannPreloadPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "LBANN (Preloading)"; }
  double setup(const SimContext& ctx) override;
  [[nodiscard]] bool supported(const SimContext& ctx, std::string* why) const override;
  [[nodiscard]] AccessDecision on_access(const SimContext& ctx, int worker, int epoch,
                                         data::SampleId sample, int gamma) override;
  void on_access_batch(const SimContext& ctx, int worker, int epoch,
                       std::span<const data::SampleId> samples, int gamma,
                       std::span<AccessDecision> out) override;
  [[nodiscard]] bool batchable() const override { return true; }

 private:
  [[nodiscard]] AccessDecision decide(int worker, data::SampleId sample) const;

  HolderTable table_;
};

class LocalityAwarePolicy final : public FirstTouchPolicy {
 public:
  LocalityAwarePolicy() : FirstTouchPolicy(/*ram_only=*/false) {}
  [[nodiscard]] std::string name() const override { return "Locality-Aware"; }
  void on_epoch_begin(const SimContext& ctx, int epoch) override;
  [[nodiscard]] data::SampleId remap(int worker, int epoch, std::uint64_t local_index,
                                     data::SampleId def) override;

 private:
  std::vector<std::vector<data::SampleId>> assigned_;        ///< per worker
  std::vector<std::vector<data::SampleId>> epoch_sequence_;  ///< shuffled per epoch
  bool reordered_ = false;
};

class NoPFSPolicy final : public Policy {
 public:
  /// Ablation switches (defaults = the paper's NoPFS).
  struct Options {
    bool frequency_aware = true;  ///< false: random-order fill (ablation)
    bool use_remote = true;       ///< false: local+PFS only (ablation)
  };

  NoPFSPolicy() = default;
  explicit NoPFSPolicy(Options options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "NoPFS"; }
  double setup(const SimContext& ctx) override;
  [[nodiscard]] AccessDecision on_access(const SimContext& ctx, int worker, int epoch,
                                         data::SampleId sample, int gamma) override;
  void on_access_batch(const SimContext& ctx, int worker, int epoch,
                       std::span<const data::SampleId> samples, int gamma,
                       std::span<AccessDecision> out) override;
  [[nodiscard]] bool batchable() const override { return true; }

  /// Total MB planned per worker (diagnostics / tests).
  [[nodiscard]] const std::vector<double>& planned_mb() const noexcept {
    return planned_mb_;
  }

 private:
  /// One access, with the PFS quoted at the caller's gamma (once per local
  /// batch on the batched path, once per call on the per-sample path).
  [[nodiscard]] AccessDecision decide(const SimContext& ctx, int worker,
                                      data::SampleId sample, const core::PfsQuote& pfs);

  Options options_;
  HolderTable table_;
  std::vector<double> planned_mb_;
};

}  // namespace nopfs::sim

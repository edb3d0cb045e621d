#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "sim/policies.hpp"
#include "util/units.hpp"

namespace nopfs::scenario {

namespace {

// ---------------------------------------------------------------------------
// System shapes shared by several entries.

/// The contention-heavy miniature of the SharedPfs parity study: no local
/// cache capacity (every access is a PFS read) and a glacial PFS, so reads
/// genuinely block and overlap across ranks even on 1-core sanitizer hosts.
tiers::SystemParams contention_system(int num_workers) {
  tiers::SystemParams sys = tiers::presets::sim_cluster(num_workers);
  sys.node.staging.capacity_mb = 8.0;
  sys.node.staging.prefetch_threads = 2;
  sys.node.classes[0].capacity_mb = 0.0;
  sys.node.classes[1].capacity_mb = 0.0;
  sys.node.compute_mbps = 50.0;
  sys.node.preprocess_mbps = 500.0;
  // A fresh PfsParams, not just a slower curve: the metadata-op term must be
  // OFF so every read's duration is purely bandwidth — the parity tests'
  // structural-overlap argument (gamma = 2 even under sanitizer slowdowns)
  // depends on reads blocking in the token bucket, nowhere else.  The curve
  // must be glacial relative to PER-RANK producer demand, not just the
  // shared aggregate: the multi-process world gives each rank its own
  // fair-share bucket, and a ~20x sanitizer CPU slowdown paces one rank's
  // prefetchers to ~15 MB/s of demand — the curve keeps every rank's
  // refill far below that, so reads block (and overlap across ranks) in
  // every launch mode on any host.
  sys.pfs = tiers::PfsParams{};
  sys.pfs.agg_read_mbps =
      util::ThroughputCurve({{1, 0.5}, {2, 0.625}, {4, 0.75}});
  return sys;
}

/// The simulator-vs-runtime cross-validation miniature (1 MB staging so the
/// ring holds a few samples; PFS slow enough that caching visibly wins).
tiers::SystemParams validation_system(int num_workers) {
  return loopback_system(num_workers, 1.0);
}

/// The watermark-ablation miniature: keeps the Sec. 6.1 preprocessing rate
/// (the heuristic's false positives depend on producer/consumer pacing).
tiers::SystemParams watermark_system(int num_workers) {
  tiers::SystemParams sys = tiers::presets::sim_cluster(num_workers);
  sys.node.staging.capacity_mb = 1.0;
  sys.node.staging.prefetch_threads = 2;
  sys.node.classes[0].capacity_mb = 16.0;
  sys.node.classes[1].capacity_mb = 32.0;
  sys.node.compute_mbps = 50.0;
  sys.pfs.agg_read_mbps = util::ThroughputCurve({{1, 30}, {2, 40}, {4, 50}});
  return sys;
}

// ---------------------------------------------------------------------------
// Entry builders.  Each returns one fully-specified scenario; registry()
// stitches them into the name -> Scenario map.

std::vector<std::string> scaling_policies_daint() { return {"staging", "nopfs", "perfect"}; }
std::vector<std::string> scaling_policies_lassen() {
  return {"staging", "lbann-dynamic", "nopfs", "perfect"};
}

// Loader presentation lists of the paper's scaling figures (the labels the
// tables print, the policy each line simulates, and DALI's 8x GPU-offloaded
// preprocessing).  Hoisted from bench_scaling_common.hpp so one registry
// entry fully describes a figure.
std::vector<LoaderLine> pytorch_dali_nopfs() {
  return {{"PyTorch", "staging", baselines::LoaderKind::kPyTorch, 1.0},
          {"PyTorch+DALI", "staging", baselines::LoaderKind::kDali, 8.0},
          {"NoPFS", "nopfs", baselines::LoaderKind::kNoPFS, 1.0},
          {"No I/O", "perfect", baselines::LoaderKind::kNoPFS, 1.0}};
}

std::vector<LoaderLine> pytorch_lbann_nopfs() {
  return {{"PyTorch", "staging", baselines::LoaderKind::kPyTorch, 1.0},
          {"LBANN", "lbann-dynamic", baselines::LoaderKind::kLbann, 1.0},
          {"NoPFS", "nopfs", baselines::LoaderKind::kNoPFS, 1.0},
          {"No I/O", "perfect", baselines::LoaderKind::kNoPFS, 1.0}};
}

std::vector<LoaderLine> pytorch_nopfs() {
  return {{"PyTorch", "staging", baselines::LoaderKind::kPyTorch, 1.0},
          {"NoPFS", "nopfs", baselines::LoaderKind::kNoPFS, 1.0},
          {"No I/O", "perfect", baselines::LoaderKind::kNoPFS, 1.0}};
}

Scenario fig8(const std::string& dataset_name, const std::string& regime, int workers,
              std::uint64_t per_worker_batch, std::uint64_t min_samples = 0) {
  Scenario s;
  s.name = "fig8-" + dataset_name;
  s.summary = "Fig. 8 policy comparison, " + dataset_name + " (" + regime +
              ") on the Sec. 6.1 cluster";
  s.system = [](int n) { return tiers::presets::sim_cluster(n); };
  s.dataset = data::presets::by_name(dataset_name);
  s.sim.policies = sim::all_policy_names();
  s.sim.gpu_counts = {workers};
  s.sim.epochs = 5;
  s.sim.quick_epochs = 3;
  s.sim.per_worker_batch = per_worker_batch;
  s.sim.default_scale = 1.0 / 16.0;
  s.sim.quick_scale = 1.0 / 16.0;
  s.sim.min_samples = min_samples;
  s.consumers = {"bench_fig8_policies"};
  if (dataset_name == "imagenet1k") s.consumers.push_back("tests/test_scenario");
  return s;
}

Scenario fig9_env() {
  Scenario s;
  s.name = "fig9-env-imagenet22k";
  s.summary = "Fig. 9 environment sweep: ImageNet-22k, NoPFS, 5x compute, RAM x SSD grid";
  s.system = [](int n) { return tiers::presets::sim_cluster(n); };
  s.dataset = data::presets::imagenet22k();
  s.sim.policies = {"nopfs", "perfect"};
  s.sim.gpu_counts = {4};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 32;
  s.sim.default_scale = 1.0 / 8.0;
  s.sim.quick_scale = 1.0 / 32.0;
  s.sim.compute_mbps = 64.0 * 5.0;       // Sec. 6.2: 5x compute
  s.sim.preprocess_mbps = 200.0 * 5.0;   // and 5x preprocessing
  s.consumers = {"bench_fig9_env_sweep"};
  return s;
}

Scenario fig10_daint() {
  Scenario s;
  s.name = "fig10-imagenet1k";
  s.summary = "Fig. 10 left: ImageNet-1k scaling on Piz Daint, 32-256 GPUs";
  s.system = [](int n) { return tiers::presets::piz_daint(n); };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = scaling_policies_daint();
  s.sim.loaders = pytorch_dali_nopfs();
  s.sim.gpu_counts = {32, 64, 128, 256};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 64;  // paper: per-GPU batch 64 on Piz Daint
  s.consumers = {"bench_fig10_imagenet1k_scaling", "tests/test_scenario"};
  return s;
}

Scenario fig10_lassen() {
  Scenario s;
  s.name = "fig10-imagenet1k-lassen";
  s.summary = "Fig. 10 right: ImageNet-1k scaling on Lassen, 32-1024 GPUs";
  // Scale factors: the fig10 bench runs both halves at ONE scale (they
  // share the dataset), taken from the primary "fig10-imagenet1k" entry —
  // keep this entry's default/quick scales identical to it.
  s.system = [](int n) { return tiers::presets::lassen(n); };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = scaling_policies_lassen();
  s.sim.loaders = pytorch_lbann_nopfs();
  s.sim.gpu_counts = {32, 64, 128, 256, 512, 1024};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 120;  // paper: per-GPU batch 120 on Lassen
  s.consumers = {"bench_fig10_imagenet1k_scaling"};
  return s;
}

Scenario fig11() {
  Scenario s;
  s.name = "fig11-epoch0";
  s.summary = "Fig. 11: epoch-0 batch times, ImageNet-1k on Piz Daint";
  s.system = [](int n) { return tiers::presets::piz_daint(n); };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = scaling_policies_daint();
  s.sim.loaders = pytorch_dali_nopfs();
  s.sim.gpu_counts = {32, 64, 128, 256};
  s.sim.epochs = 2;  // epoch 0 + one reference epoch
  s.sim.per_worker_batch = 64;
  s.consumers = {"bench_fig11_epoch0"};
  return s;
}

Scenario fig12() {
  Scenario s;
  s.name = "fig12-cache-stats";
  s.summary = "Fig. 12: NoPFS cache statistics, ImageNet-1k on Piz Daint";
  s.system = [](int n) { return tiers::presets::piz_daint(n); };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {32, 64, 128, 256};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 64;
  s.consumers = {"bench_fig12_cache_stats", "tests/test_scenario"};
  return s;
}

Scenario fig13() {
  Scenario s;
  s.name = "fig13-batch-size";
  s.summary = "Fig. 13: batch-size sweep, ImageNet-1k, 128 GPUs on Lassen";
  s.system = [](int n) { return tiers::presets::lassen(n); };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = {"staging", "nopfs", "perfect"};
  s.sim.loaders = pytorch_nopfs();
  s.sim.gpu_counts = {128};
  s.sim.batch_sizes = {32, 64, 96, 120};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 32;
  s.consumers = {"bench_fig13_batch_size"};
  return s;
}

Scenario fig14() {
  Scenario s;
  s.name = "fig14-imagenet22k";
  s.summary = "Fig. 14: ImageNet-22k scaling on Lassen, 32-1024 GPUs";
  s.system = [](int n) { return tiers::presets::lassen(n); };
  s.dataset = data::presets::imagenet22k();
  s.sim.policies = {"staging", "nopfs", "perfect"};
  s.sim.loaders = pytorch_nopfs();
  s.sim.gpu_counts = {32, 64, 128, 256, 512, 1024};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 120;
  s.sim.default_scale = 1.0 / 4.0;
  s.sim.quick_scale = 1.0 / 16.0;
  s.consumers = {"bench_fig14_imagenet22k"};
  return s;
}

Scenario fig15() {
  Scenario s;
  s.name = "fig15-cosmoflow";
  s.summary = "Fig. 15: CosmoFlow scaling on Lassen, 32-1024 GPUs";
  s.system = [](int n) { return tiers::presets::lassen(n); };
  s.dataset = data::presets::cosmoflow();
  s.sim.policies = {"staging", "nopfs", "perfect"};
  s.sim.loaders = pytorch_nopfs();
  s.sim.gpu_counts = {32, 64, 128, 256, 512, 1024};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 16;  // paper: per-GPU batch 16
  // CosmoFlow's 3D CNN consumes large samples fast: ~82 samples/s on a V100
  // at 16.8 MB/sample; log-normalization preprocessing is cheap.
  s.sim.compute_mbps = 1'375.0;
  s.sim.preprocess_mbps = 4'000.0;
  s.consumers = {"bench_fig15_cosmoflow"};
  return s;
}

Scenario fig16() {
  Scenario s;
  s.name = "fig16-end-to-end";
  s.summary = "Fig. 16: end-to-end ResNet-50/ImageNet-1k, 256 GPUs on Lassen, 90 epochs";
  s.system = [](int n) { return tiers::presets::lassen(n); };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = {"staging", "nopfs"};
  s.sim.gpu_counts = {256};
  s.sim.epochs = 90;  // Goyal et al. schedule
  s.sim.per_worker_batch = 32;  // global batch 8192
  s.consumers = {"bench_fig16_end_to_end"};
  return s;
}

Scenario tab1() {
  Scenario s;
  s.name = "tab1-frameworks";
  s.summary = "Table 1: I/O framework comparison on a dataset exceeding aggregate storage";
  // Dataset larger than the cluster's entire storage (4 x 128 MB): a
  // strategy is dataset-scalable only if it still trains on (all of) it.
  s.system = [](int n) {
    tiers::SystemParams sys = tiers::presets::sim_cluster(n);
    sys.node.classes[0].capacity_mb = 32.0;  // RAM
    sys.node.classes[1].capacity_mb = 96.0;  // SSD
    return sys;
  };
  s.dataset = data::DatasetSpec{"tab1", 6'000, 0.1, 0.0, 1};  // 600 MB, fixed sizes
  s.sim.policies = {"staging", "parallel-staging", "deepio-opportunistic",
                    "lbann-dynamic", "locality-aware", "nopfs"};
  s.sim.gpu_counts = {4};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 8;
  s.sim.quick_scale = 1.0;
  s.consumers = {"bench_tab1_frameworks", "tests/test_scenario"};
  return s;
}

Scenario ablation_sim() {
  Scenario s;
  s.name = "ablation-nopfs-design";
  s.summary = "Ablation (simulator): frequency-aware fill / remote fetching, tight RAM";
  // 256 GPUs: the PFS-bound regime where design choices matter; RAM
  // tightened so each worker can cache only part of its working set.
  s.system = [](int n) {
    tiers::SystemParams sys = tiers::presets::piz_daint(n);
    sys.node.classes[0].capacity_mb /= 16.0;
    return sys;
  };
  s.dataset = data::presets::imagenet1k();
  s.sim.policies = {"nopfs", "lbann-dynamic"};
  s.sim.gpu_counts = {256};
  s.sim.epochs = 4;
  s.sim.per_worker_batch = 64;
  s.sim.default_scale = 1.0 / 4.0;
  s.sim.quick_scale = 1.0 / 16.0;
  s.consumers = {"bench_ablations"};
  return s;
}

Scenario ablation_watermark() {
  Scenario s;
  s.name = "ablation-watermark";
  s.summary = "Ablation (runtime): remote-readiness watermark heuristic, 4 workers";
  s.system = watermark_system;
  s.dataset = data::DatasetSpec{"ablate", 192, 0.1, 0.03, 1};
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {4};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 4;
  s.worker.system = watermark_system;
  s.worker.dataset = s.dataset;
  s.worker.dataset_seed = 0xC0FFEE;
  s.worker.world_size = 4;
  s.worker.epochs = 3;
  s.worker.per_worker_batch = 4;
  s.worker.seed = 0xC0FFEE;
  s.worker.time_scale = 100.0;
  s.worker.loader_threads = 4;   // the harness defaults the bench relied on
  s.worker.lookahead = 32;
  s.consumers = {"bench_ablations"};
  return s;
}

Scenario runtime_validation() {
  Scenario s;
  s.name = "runtime-validation";
  s.summary = "Simulator-vs-runtime cross-validation miniature (4 workers, 192 samples)";
  s.system = validation_system;
  s.dataset = data::DatasetSpec{"validate", 192, 0.2, 0.05, 1};
  s.sim.policies = {"naive", "staging", "lbann-dynamic", "nopfs"};
  s.sim.gpu_counts = {4};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 4;
  s.sim.quick_scale = 1.0;
  // The runtime-vs-simulator pairs bench_runtime_validation iterates.
  s.worker.loaders = {
      {"Naive", "naive", baselines::LoaderKind::kNaive, 1.0},
      {"PyTorch", "staging", baselines::LoaderKind::kPyTorch, 1.0},
      {"LBANN", "lbann-dynamic", baselines::LoaderKind::kLbann, 1.0},
      {"NoPFS", "nopfs", baselines::LoaderKind::kNoPFS, 1.0},
  };
  s.worker.system = validation_system;
  s.worker.dataset = s.dataset;
  s.worker.dataset_seed = 0xC0FFEE;
  s.worker.world_size = 4;
  s.worker.epochs = 3;
  s.worker.per_worker_batch = 4;
  s.worker.seed = 0xC0FFEE;
  s.worker.time_scale = 50.0;
  s.worker.loader_threads = 4;
  s.worker.lookahead = 32;
  s.consumers = {"bench_runtime_validation", "tests/test_scenario"};
  return s;
}

Scenario worker_loopback() {
  Scenario s;
  s.name = "worker-loopback";
  s.summary = "Default nopfs_worker shape: 2-rank loopback smoke (NoPFS loader)";
  s.system = [](int n) { return loopback_system(n); };
  s.dataset = data::DatasetSpec{"worker", 96, 0.2, 0.05, 1};
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {2};
  s.sim.epochs = 2;
  s.sim.per_worker_batch = 4;
  s.sim.quick_scale = 1.0;
  // WorkerShape defaults ARE this scenario (96 samples, seed 2025, 2 ranks,
  // loopback_system): examples/nopfs_worker and test_distributed_runtime
  // both resolve their shared shape from here.
  s.consumers = {"tests/test_distributed_runtime", "tests/test_scenario",
                 "ci:rendezvous-leg"};
  return s;
}

Scenario contention_pfs() {
  Scenario s;
  s.name = "contention-pfs";
  s.summary = "SharedPfs gamma-parity shape: zero cache, glacial PFS, 2 ranks";
  s.system = contention_system;
  s.dataset = data::DatasetSpec{"contention", 64, 0.2, 0.05, 1};
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {2};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 4;
  s.sim.quick_scale = 1.0;
  s.worker.system = contention_system;
  s.worker.dataset = s.dataset;
  s.worker.dataset_seed = 7;
  s.worker.world_size = 2;
  s.worker.epochs = 3;
  s.worker.per_worker_batch = 4;
  s.worker.seed = 99;
  s.worker.time_scale = 10.0;
  // Remote fetches off: with no cache there is nothing to serve remotely,
  // and every access is a PFS fetch — PFS counts become a pure function of
  // the access stream, exact across launch modes (tests/test_shared_pfs.cpp).
  s.worker.use_remote = false;
  s.consumers = {"tests/test_shared_pfs"};
  return s;
}

/// The large-world contention miniature: the paper's headline results are
/// at 64-512 nodes, and the batched gamma gossip is what makes such worlds
/// affordable — every rank is threaded (thread-weighted gamma), every
/// access is a PFS read (zero-capacity cache), and the PFS curve spans the
/// full weighted reader range.
tiers::SystemParams large_world_system(int num_workers) {
  tiers::SystemParams sys = tiers::presets::sim_cluster(num_workers);
  sys.node.staging.capacity_mb = 4.0;
  sys.node.staging.prefetch_threads = 2;
  sys.node.classes[0].capacity_mb = 0.0;
  sys.node.classes[0].prefetch_threads = 1;
  sys.node.classes[1].capacity_mb = 0.0;
  sys.node.classes[1].prefetch_threads = 1;
  sys.node.compute_mbps = 200.0;
  sys.node.preprocess_mbps = 2'000.0;
  sys.pfs = tiers::PfsParams{};
  // Fast enough that a 32-rank --quick smoke stays seconds on 1-core CI;
  // measured out to the weighted reader count (32 ranks x 4 reader threads).
  sys.pfs.agg_read_mbps =
      util::ThroughputCurve({{1, 40}, {32, 160}, {64, 200}, {128, 240}});
  return sys;
}

Scenario contention_large_world() {
  Scenario s;
  s.name = "contention-large-world";
  s.summary =
      "Batched gamma gossip at scale: 32 threaded ranks, zero cache, "
      "thread-weighted t(gamma)";
  s.system = large_world_system;
  s.dataset = data::DatasetSpec{"large-world", 128, 0.02, 0.005, 1};
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {32};
  s.sim.epochs = 2;
  s.sim.per_worker_batch = 1;
  s.sim.quick_scale = 1.0;
  s.worker.system = large_world_system;
  s.worker.dataset = s.dataset;
  s.worker.dataset_seed = 11;
  s.worker.world_size = 32;
  s.worker.epochs = 2;
  s.worker.per_worker_batch = 1;
  s.worker.seed = 77;
  s.worker.time_scale = 200.0;
  s.worker.loader_threads = 2;
  s.worker.lookahead = 4;
  s.worker.use_remote = false;  // zero cache: nothing to serve remotely
  s.worker.thread_weighted_gamma = true;
  s.consumers = {"tests/test_scenario"};
  return s;
}

Scenario contention_batched_socket() {
  Scenario s = contention_pfs();
  s.name = "contention-batched-socket";
  s.summary =
      "contention-pfs shape with explicit large-batch gossip: the "
      "multi-process leg of the batched-vs-unary equivalence";
  // A flush window far coarser than the default, so the CI rendezvous leg
  // and the equivalence test genuinely exercise coalescing (several
  // transitions per kPfsDelta at time_scale 10 -> 5 ms real windows).
  s.worker.gossip = net::GossipConfig{0.05, 512};
  s.consumers = {"tests/test_shared_pfs", "tests/test_scenario",
                 "ci:rendezvous-leg"};
  return s;
}

/// The reactor thread-count gate: a 64-rank loopback world whose every rank
/// dials rank 0 (deltas ride the channel to the root), so rank 0
/// accumulates 63 serve sessions.  Under the per-connection-thread
/// transport that meant ~70 threads in the root process; under the epoll
/// reactor it must stay a handful regardless of world size — the CI
/// scenario-matrix leg polls /proc/<root>/status Threads to enforce it.
Scenario worker_large_world() {
  Scenario s = contention_large_world();
  s.name = "worker-large-world";
  s.summary =
      "Reactor scaling shape: 64-rank loopback world, 1 epoch, every rank "
      "gossiping to rank 0 over one event loop";
  s.sim.gpu_counts = {64};
  s.sim.epochs = 1;
  s.worker.world_size = 64;
  s.worker.epochs = 1;
  s.worker.loader_threads = 1;  // keep the 64-process CI leg light
  s.worker.lookahead = 4;
  s.worker.seed = 79;
  s.consumers = {"ci:64-rank-rendezvous-leg", "ci:thread-count-gate"};
  return s;
}

Scenario micro_core() {
  Scenario s;
  s.name = "micro-core";
  s.summary = "bench_micro_core --json simulate() throughput cell (BENCH key micro-core)";
  s.system = [](int n) { return tiers::presets::sim_cluster(n); };
  s.dataset = data::DatasetSpec{"micro", 200'000, 0.05, 0.0, 1};
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {8};
  s.sim.epochs = 4;
  s.sim.per_worker_batch = 32;
  s.sim.quick_scale = 1.0;
  s.consumers = {"bench_micro_core"};
  return s;
}

Scenario micro_sweep() {
  Scenario s;
  s.name = "micro-sweep";
  s.summary = "bench_micro_core --json sweep grid: 4 policies x 4 scales (BENCH key micro-sweep)";
  s.system = [](int n) { return tiers::presets::sim_cluster(n); };
  s.dataset = data::DatasetSpec{"micro", 200'000, 0.05, 0.0, 1};
  s.sim.policies = {"staging", "lbann-preload", "locality-aware", "nopfs"};
  s.sim.gpu_counts = {4, 8, 16, 32};
  s.sim.epochs = 4;
  s.sim.per_worker_batch = 16;
  s.sim.quick_scale = 1.0;
  s.consumers = {"bench_micro_core"};
  return s;
}

/// The sweep-service shape (DESIGN.md Sec. 10): a grid small enough that
/// the 3-process CI leg finishes in seconds but wide enough (12 cells) that
/// rank 0's shrinking grants actually shard it across ranks.  The serial
/// digest of this grid is the CI currency for "distributed == serial".
Scenario sweep_service() {
  Scenario s;
  s.name = "sweep-service";
  s.summary =
      "Distributed sweep-service grid: 3 policies x {4,8} GPUs x 2 batches, "
      "digest-checked against the serial SweepRunner (BENCH key sweep-service)";
  s.system = [](int n) { return tiers::presets::sim_cluster(n); };
  s.dataset = data::DatasetSpec{"sweep-service", 40'000, 0.05, 0.0, 1};
  s.sim.policies = {"staging", "locality-aware", "nopfs"};
  s.sim.gpu_counts = {4, 8};
  s.sim.batch_sizes = {16, 32};
  s.sim.epochs = 2;
  s.sim.per_worker_batch = 16;
  s.sim.quick_scale = 1.0;
  s.consumers = {"bench_micro_core", "tests/test_sweep_service",
                 "ci:sweep-service-leg", "examples/nopfs_worker --sweep-scenario"};
  return s;
}

Scenario micro_critpath() {
  Scenario s;
  s.name = "micro-critpath";
  s.summary =
      "Critical-path recording + what-if walk shape (BENCH key "
      "critpath_edges_per_s): PFS-bound NoPFS run with an allreduce cost";
  s.system = [](int n) { return tiers::presets::sim_cluster(n); };
  // Big enough that the recorded DAG has a few hundred thousand edges
  // (stable walk timings), small enough that recording stays tens of ms.
  s.dataset = data::DatasetSpec{"micro-critpath", 50'000, 0.05, 0.0, 1};
  s.sim.policies = {"nopfs"};
  s.sim.gpu_counts = {8};
  s.sim.epochs = 3;
  s.sim.per_worker_batch = 32;
  s.sim.quick_scale = 1.0;
  s.consumers = {"bench_micro_core", "tests/test_critpath"};
  return s;
}

// ---------------------------------------------------------------------------
// Fault-injection and elastic-membership scenarios (DESIGN.md Sec. 11).
//
// Every fault-* entry pins the same recovery invariant: the delivered-sample
// digest is bit-identical to its fault-free base scenario (faults perturb
// timing and placement, never delivery), and gamma drains to zero at run
// end.  The elastic-* entries pin the sweep-digest identity: results are
// bit-identical to the serial SweepRunner even when a worker joins late or
// dies mid-sweep.  tests/test_faults.cpp and the CI fault legs consume the
// shapes by name; docs/FAULTS.md documents each one (the doc-sync gate
// cross-checks the names).

Scenario fault_straggler() {
  Scenario s = worker_loopback();
  s.name = "fault-straggler";
  s.summary =
      "worker-loopback with rank 1 computing 3x slow: stragglers stretch "
      "wall time, never the delivered-sample digest";
  s.worker.faults.stragglers = {{1, 3.0}};
  s.consumers = {"tests/test_faults", "docs/FAULTS.md"};
  return s;
}

Scenario fault_drop() {
  Scenario s = worker_loopback();
  s.name = "fault-drop";
  s.summary =
      "worker-loopback with rank 1's peer connections down for the whole "
      "run: every remote fetch misses to the PFS, delivery digest unchanged";
  // The window spans far past the run's virtual duration so the invariant
  // is exercised on every remote fetch, not a timing-dependent subset.
  s.worker.faults.drops = {{1, 0.0, 1.0e9}};
  s.consumers = {"tests/test_faults", "docs/FAULTS.md"};
  return s;
}

Scenario fault_pfs_burst() {
  Scenario s = worker_loopback();
  s.name = "fault-pfs-burst";
  s.summary =
      "worker-loopback under a scripted 4x slow-PFS burst: reads stall, "
      "gamma accounting and the delivery digest are unchanged";
  s.worker.faults.pfs_bursts = {{0.0, 1.0e9, 4.0}};
  s.consumers = {"tests/test_faults", "docs/FAULTS.md"};
  return s;
}

Scenario fault_churn_gossip() {
  Scenario s = contention_batched_socket();
  s.name = "fault-churn-gossip";
  s.summary =
      "contention-batched-socket with the adaptive gossip flush on: the "
      "window shrinks while gamma is volatile, grows when steady, and the "
      "digest/gamma envelopes match the fixed-window run";
  // Floor at a tenth of the 50 ms window: busy wakes may halve down to
  // 5 ms virtual, quiet wakes double back up.
  s.worker.gossip.min_flush_virtual_s = 0.005;
  s.consumers = {"tests/test_faults", "docs/FAULTS.md"};
  return s;
}

Scenario elastic_sweep_join() {
  Scenario s = sweep_service();
  s.name = "elastic-sweep-join";
  s.summary =
      "sweep-service grid in an elastic world: rank 2 joins mid-sweep and "
      "just starts pulling; results stay digest-identical to serial";
  s.worker.faults.membership = {{2, 0.5, -1.0}};
  s.consumers = {"tests/test_faults", "ci:elastic-join-leg", "docs/FAULTS.md"};
  return s;
}

Scenario elastic_sweep_leave() {
  Scenario s = sweep_service();
  s.name = "elastic-sweep-leave";
  s.summary =
      "sweep-service grid where a worker dies holding a grant: tail "
      "re-grants recover its cells, gamma drains, digest matches serial";
  s.worker.faults.membership = {{2, 0.0, 1.0}};
  s.consumers = {"tests/test_faults", "ci:kill-one-rank-leg", "docs/FAULTS.md"};
  return s;
}

std::map<std::string, Scenario> build_registry() {
  std::map<std::string, Scenario> entries;
  const auto add = [&entries](Scenario s) {
    auto [it, inserted] = entries.emplace(s.name, std::move(s));
    if (!inserted) {
      throw std::logic_error("scenario registry: duplicate name " + it->first);
    }
  };
  add(fig8("mnist", "S < d1", 4, 32));
  add(fig8("imagenet1k", "d1 < S < D", 4, 32));
  add(fig8("openimages", "d1 < S < N*D", 4, 32));
  add(fig8("imagenet22k", "D < S < N*D", 4, 32));
  add(fig8("cosmoflow", "N*D < S", 4, 16));
  // CosmoFlow 512^3 has only 10k samples; never scale below its batch
  // geometry.
  add(fig8("cosmoflow512", "N*D < S (N=8)", 8, 1, 2'000));
  add(fig9_env());
  add(fig10_daint());
  add(fig10_lassen());
  add(fig11());
  add(fig12());
  add(fig13());
  add(fig14());
  add(fig15());
  add(fig16());
  add(tab1());
  add(ablation_sim());
  add(ablation_watermark());
  add(runtime_validation());
  add(worker_loopback());
  add(contention_pfs());
  add(contention_large_world());
  add(contention_batched_socket());
  add(worker_large_world());
  add(micro_core());
  add(micro_sweep());
  add(micro_critpath());
  add(sweep_service());
  add(fault_straggler());
  add(fault_drop());
  add(fault_pfs_burst());
  add(fault_churn_gossip());
  add(elastic_sweep_join());
  add(elastic_sweep_leave());
  return entries;
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.front() == '-' || name.back() == '-') return false;
  bool prev_dash = false;
  for (const char c : name) {
    const bool ok = (std::islower(static_cast<unsigned char>(c)) != 0) ||
                    (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '-';
    if (!ok) return false;
    if (c == '-' && prev_dash) return false;
    prev_dash = c == '-';
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry surface.

const std::map<std::string, Scenario>& registry() {
  static const std::map<std::string, Scenario> entries = build_registry();
  return entries;
}

const Scenario& get(const std::string& name) {
  const auto& entries = registry();
  const auto it = entries.find(name);
  if (it == entries.end()) {
    std::ostringstream out;
    out << "unknown scenario '" << name << "'; known:";
    for (const auto& [known, _] : entries) out << " " << known;
    throw std::invalid_argument(out.str());
  }
  return it->second;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const auto& [name, _] : registry()) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

// ---------------------------------------------------------------------------
// Validation.

std::vector<std::string> validate(const Scenario& s) {
  std::vector<std::string> problems;
  const auto bad = [&problems, &s](const std::string& what) {
    problems.push_back(s.name.empty() ? what : s.name + ": " + what);
  };

  if (!valid_name(s.name)) bad("name must be lower-case kebab ([a-z0-9-])");
  if (s.summary.empty()) bad("summary is empty");
  // Consumers feed the generated docs/SCENARIOS.md table; an entry nobody
  // references beyond the implicit worker-CLI/CI-matrix pair is either dead
  // or undocumented — both fail the gate.
  if (s.consumers.empty()) bad("lists no consumers");
  for (const std::string& consumer : s.consumers) {
    if (consumer.empty()) bad("empty consumer entry");
  }
  if (s.dataset.num_samples == 0) bad("dataset has no samples");
  if (s.dataset.mean_size_mb <= 0.0) bad("dataset mean size must be positive");

  // Simulator view.
  if (s.sim.policies.empty()) bad("sim view lists no policies");
  for (const std::string& policy : s.sim.policies) {
    try {
      (void)sim::make_policy(policy);
    } catch (const std::invalid_argument&) {
      bad("unknown policy '" + policy + "'");
    }
  }
  if (s.sim.gpu_counts.empty()) bad("sim view lists no GPU counts");
  for (const int gpus : s.sim.gpu_counts) {
    if (gpus <= 0) bad("non-positive GPU count");
  }
  for (const std::uint64_t batch : s.sim.batch_sizes) {
    if (batch == 0) bad("zero batch size in batch sweep");
  }
  if (s.sim.epochs <= 0) bad("sim epochs must be positive");
  if (s.sim.quick_epochs < 0) bad("sim quick_epochs must be >= 0");
  if (s.sim.per_worker_batch == 0) bad("sim per-worker batch must be positive");
  if (s.sim.default_scale <= 0.0 || s.sim.default_scale > 1.0) {
    bad("default_scale must be in (0, 1]");
  }
  if (s.sim.quick_scale <= 0.0 || s.sim.quick_scale > 1.0) {
    bad("quick_scale must be in (0, 1]");
  }
  if (!s.system) {
    bad("no system factory");
  } else if (!s.sim.gpu_counts.empty() && s.sim.gpu_counts.front() > 0) {
    const tiers::SystemParams sys = s.system(s.sim.gpu_counts.front());
    if (sys.num_workers != s.sim.gpu_counts.front()) {
      bad("system factory ignores the worker count");
    }
    if (sys.node.staging.prefetch_threads < 1) bad("staging needs >= 1 thread");
    if (sys.pfs.agg_read_mbps.at(1) <= 0.0) bad("PFS curve must be positive at 1");
  }

  // Loader presentation lists (sim + worker views).
  const auto check_loaders = [&bad](const std::vector<LoaderLine>& loaders,
                                    const char* view) {
    for (const LoaderLine& line : loaders) {
      if (line.label.empty()) bad(std::string(view) + " loader line has no label");
      if (line.preprocess_mult <= 0.0) {
        bad(std::string(view) + " loader '" + line.label +
            "' has a non-positive preprocess multiplier");
      }
      try {
        (void)sim::make_policy(line.policy);
      } catch (const std::invalid_argument&) {
        bad(std::string(view) + " loader '" + line.label + "' names unknown policy '" +
            line.policy + "'");
      }
    }
  };
  check_loaders(s.sim.loaders, "sim");
  check_loaders(s.worker.loaders, "worker");

  // Runtime (worker CLI) view: must stay loopback-smoke scale.
  if (s.worker.world_size < 1) bad("worker world size must be >= 1");
  if (s.worker.gossip.flush_virtual_s < 0.0) {
    bad("worker gossip flush interval must be >= 0");
  }
  if (s.worker.gossip.max_batch < 1) bad("worker gossip max batch must be >= 1");
  if (s.worker.gossip.min_flush_virtual_s < 0.0) {
    bad("worker gossip adaptive floor must be >= 0");
  }
  if (s.worker.gossip.min_flush_virtual_s > 0.0 &&
      s.worker.gossip.min_flush_virtual_s > s.worker.gossip.flush_virtual_s) {
    bad("worker gossip adaptive floor exceeds the flush window");
  }
  for (const std::string& problem :
       validate_fault_plan(s.worker.faults, s.worker.world_size)) {
    bad(problem);
  }
  if (s.worker.epochs <= 0) bad("worker epochs must be positive");
  if (s.worker.per_worker_batch == 0) bad("worker batch must be positive");
  if (s.worker.time_scale <= 0.0) bad("worker time scale must be positive");
  if (s.worker.loader_threads < 1) bad("worker needs >= 1 loader thread");
  if (s.worker.lookahead < 1) bad("worker lookahead must be >= 1");
  if (s.worker.dataset.num_samples == 0) bad("worker dataset has no samples");
  if (s.worker.dataset.num_samples > 100'000) {
    bad("worker dataset too large for a CLI smoke run");
  }
  if (s.worker.dataset.num_samples <
      s.worker.per_worker_batch * static_cast<std::uint64_t>(s.worker.world_size)) {
    bad("worker dataset smaller than one global batch");
  }
  {
    const int world = s.worker.world_size;
    const tiers::SystemParams sys =
        s.worker.system ? s.worker.system(world) : loopback_system(world);
    if (sys.num_workers != world) bad("worker system factory ignores world size");
    if (sys.node.staging.capacity_mb > 64.0) {
      bad("worker staging ring exceeds loopback scale (> 64 MB)");
    }
    if (sys.node.total_cache_mb() > 1024.0) {
      bad("worker cache tiers exceed loopback scale (> 1 GB)");
    }
  }
  return problems;
}

std::vector<std::string> validate() {
  std::vector<std::string> problems;
  for (const auto& [name, s] : registry()) {
    if (name != s.name) problems.push_back(name + ": registered under a different key");
    std::vector<std::string> entry = validate(s);
    problems.insert(problems.end(), entry.begin(), entry.end());
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Shared scaling helpers (hoisted verbatim from bench_common.hpp so results
// stay bit-identical).

data::DatasetSpec scaled_spec(data::DatasetSpec spec, double factor) {
  spec.num_samples =
      std::max<std::uint64_t>(1'000, static_cast<std::uint64_t>(
                                         static_cast<double>(spec.num_samples) * factor));
  return spec;
}

void scale_capacities(tiers::SystemParams& system, double factor) {
  for (auto& sc : system.node.classes) sc.capacity_mb *= factor;
  system.node.staging.capacity_mb *= factor;
}

double pick_scale(const Scenario& scenario, bool quick, bool full) {
  if (full) return 1.0;
  return quick ? scenario.sim.quick_scale : scenario.sim.default_scale;
}

int pick_epochs(const Scenario& scenario, bool quick) {
  if (quick && scenario.sim.quick_epochs > 0) return scenario.sim.quick_epochs;
  return scenario.sim.epochs;
}

tiers::SystemParams loopback_system(int num_workers, double staging_mb) {
  // Loopback-smoke scale: the Sec. 6.1 preset's 5 GB staging ring alone
  // costs tens of seconds of allocation per rank, which would dwarf a
  // ~100-sample run (the shape examples/nopfs_worker has always used).
  tiers::SystemParams sys = tiers::presets::sim_cluster(num_workers);
  sys.node.staging.capacity_mb = staging_mb;
  sys.node.staging.prefetch_threads = 2;
  sys.node.classes[0].capacity_mb = 16.0;  // RAM
  sys.node.classes[1].capacity_mb = 32.0;  // "SSD" (memory-backed)
  sys.node.compute_mbps = 50.0;
  sys.node.preprocess_mbps = 500.0;
  sys.pfs.agg_read_mbps = util::ThroughputCurve({{1, 20}, {2, 25}, {4, 30}});
  return sys;
}

// ---------------------------------------------------------------------------
// Simulator view.

tiers::SystemParams sim_system(const Scenario& scenario, int gpus, double scale) {
  tiers::SystemParams sys = scenario.system(gpus);
  scale_capacities(sys, scale);
  if (scenario.sim.compute_mbps > 0.0) sys.node.compute_mbps = scenario.sim.compute_mbps;
  if (scenario.sim.preprocess_mbps > 0.0) {
    sys.node.preprocess_mbps = scenario.sim.preprocess_mbps;
  }
  return sys;
}

sim::SimConfig sim_config(const Scenario& scenario, int gpus, double scale,
                          std::uint64_t seed) {
  sim::SimConfig config;
  config.system = sim_system(scenario, gpus, scale);
  config.seed = seed;
  config.num_epochs = scenario.sim.epochs;
  config.per_worker_batch = scenario.sim.per_worker_batch;
  return config;
}

data::Dataset sim_dataset(const Scenario& scenario, double scale, std::uint64_t seed) {
  data::DatasetSpec spec = scaled_spec(scenario.dataset, scale);
  if (scenario.sim.min_samples > 0) {
    spec.num_samples = std::max(spec.num_samples, scenario.sim.min_samples);
  }
  return data::Dataset::synthetic(spec, seed);
}

std::vector<sim::SweepPoint> sweep_points(const Scenario& scenario,
                                          const data::Dataset& dataset, double scale,
                                          std::uint64_t seed) {
  // Canonical cell order: gpu outer -> batch middle -> policy inner.  An
  // empty batch_sizes collapses the middle loop to per_worker_batch, which
  // is exactly the historical gpu -> policy nesting (bit-compatible with
  // the grids benches used to build by hand).
  std::vector<std::uint64_t> batches = scenario.sim.batch_sizes;
  if (batches.empty()) batches.push_back(scenario.sim.per_worker_batch);
  std::vector<sim::SweepPoint> points;
  points.reserve(scenario.sim.gpu_counts.size() * batches.size() *
                 scenario.sim.policies.size());
  for (const int gpus : scenario.sim.gpu_counts) {
    for (const std::uint64_t batch : batches) {
      for (const std::string& policy : scenario.sim.policies) {
        sim::SweepPoint point;
        point.config = sim_config(scenario, gpus, scale, seed);
        point.config.per_worker_batch = batch;
        point.dataset = &dataset;
        point.policy = policy;
        points.push_back(std::move(point));
      }
    }
  }
  return points;
}

std::vector<LoaderLine> sim_loaders(const Scenario& scenario) {
  if (!scenario.sim.loaders.empty()) return scenario.sim.loaders;
  std::vector<LoaderLine> lines;
  lines.reserve(scenario.sim.policies.size());
  for (const std::string& policy : scenario.sim.policies) {
    lines.push_back({policy, policy, baselines::LoaderKind::kNoPFS, 1.0});
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Runtime view.

runtime::RuntimeConfig runtime_config(const Scenario& scenario, int world_size) {
  const int world = world_size > 0 ? world_size : scenario.worker.world_size;
  runtime::RuntimeConfig config;
  config.system =
      scenario.worker.system ? scenario.worker.system(world) : loopback_system(world);
  config.loader = scenario.worker.loader;
  config.seed = scenario.worker.seed;
  config.num_epochs = scenario.worker.epochs;
  config.per_worker_batch = scenario.worker.per_worker_batch;
  config.time_scale = scenario.worker.time_scale;
  config.loader_threads = scenario.worker.loader_threads;
  config.lookahead = scenario.worker.lookahead;
  config.router.use_remote = scenario.worker.use_remote;
  config.pfs_gossip = scenario.worker.gossip;
  config.pfs_thread_weighted_gamma = scenario.worker.thread_weighted_gamma;
  config.faults = scenario.worker.faults;
  return config;
}

data::Dataset worker_dataset(const Scenario& scenario) {
  return worker_dataset(scenario, scenario.worker.dataset_seed);
}

data::Dataset worker_dataset(const Scenario& scenario, std::uint64_t seed) {
  return data::Dataset::synthetic(scenario.worker.dataset, seed);
}

}  // namespace nopfs::scenario

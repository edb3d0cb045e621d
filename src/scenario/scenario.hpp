#pragma once
// Named scenario registry (DESIGN.md Sec. 8).
//
// The paper organizes its evaluation around a fixed set of system/dataset
// scenarios (the Sec. 6.1 regime studies, the ImageNet/CosmoFlow scaling
// figures, the runtime cross-checks).  Historically every bench and test
// re-declared its own near-identical mini-system (`worker_config`,
// `mini_system`, `contention_config`, per-figure `system_factory` lambdas).
// This module hoists them into ONE registry mapping a string name to a full
// run specification, consumed by three kinds of clients:
//
//   * per-figure benches build simulator configs via sim_config()/sim_dataset()
//     (bit-identical to the structs they used to declare locally — pinned by
//     tests/test_scenario.cpp golden digests);
//   * the runtime tests and examples/nopfs_worker build harness configs via
//     runtime_config()/worker_dataset() (the `--scenario NAME` CLI surface);
//   * CI enumerates names() to run the scenario smoke matrix, and validate()
//     makes an unbuildable or inconsistent entry fail the PR in one ctest.
//
// Naming convention: `<figure|study>-<subject>[-<variant>]`, lower-case
// kebab, e.g. "fig10-imagenet1k", "fig10-imagenet1k-lassen",
// "contention-pfs".  Adding a scenario = one make_*() entry in
// scenario.cpp; validate() (run by test_scenario and CI) checks it resolves,
// its policies exist, and its worker projection stays loopback-runnable.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "baselines/loader.hpp"
#include "data/dataset.hpp"
#include "runtime/harness.hpp"
#include "scenario/fault_plan.hpp"
#include "sim/sim_config.hpp"
#include "sim/sweep.hpp"
#include "tiers/params.hpp"

namespace nopfs::scenario {

/// Builds the (unscaled) system for a worker/GPU count.
using SystemFactory = std::function<tiers::SystemParams(int num_workers)>;

/// One loader line of a figure or cross-check: the presentation label, the
/// simulator policy behind it, the runtime LoaderKind (for consumers that
/// drive the real harness), and the preprocessing multiplier (DALI's
/// GPU-offloaded pipeline).  Historically every bench hardcoded these
/// triples next to its tables; the registry now carries them so a scenario
/// is runnable from any CLI without per-binary knowledge.
struct LoaderLine {
  std::string label;
  std::string policy;
  baselines::LoaderKind kind = baselines::LoaderKind::kNoPFS;
  double preprocess_mult = 1.0;
};

/// Run shape of the simulator view: what a figure's grid iterates over and
/// the knobs every cell shares.
struct SimShape {
  std::vector<std::string> policies;        ///< sim::make_policy names
  std::vector<int> gpu_counts = {4};        ///< figure x-axis; front() = default N
  std::vector<std::uint64_t> batch_sizes;   ///< batch sweep; empty = {per_worker_batch}
  int epochs = 3;
  int quick_epochs = 0;                     ///< epochs under --quick (0 = same)
  std::uint64_t per_worker_batch = 32;
  std::uint64_t seed = 0xC0FFEE;
  double default_scale = 1.0;               ///< bench default dataset+capacity scale
  double quick_scale = 1.0 / 8.0;           ///< scale under --quick
  std::uint64_t min_samples = 0;            ///< clamp after scaling (0 = none)
  double compute_mbps = 0.0;                ///< override c (0 = system preset)
  double preprocess_mbps = 0.0;             ///< override beta (0 = system preset)
  /// Loader presentation list of the scaling figures (label + policy +
  /// preprocess multiplier per line).  Empty = one line per `policies`
  /// entry, labelled by the policy name.
  std::vector<LoaderLine> loaders;
};

/// Runtime-harness projection: the miniature shape the scenario runs at in
/// real time — the worker CLI (single- or multi-process) and the
/// distributed/contention tests.  Shapes must stay loopback-smoke scale
/// (seconds, not hours); validate() enforces it.
struct WorkerShape {
  /// Miniature system for the harness.  Null = loopback_system(world_size),
  /// the standard shrink (0.5 MB staging, 16/32 MB tiers, slow PFS).
  SystemFactory system;
  data::DatasetSpec dataset{"worker", 96, 0.2, 0.05};
  std::uint64_t dataset_seed = 5;
  baselines::LoaderKind loader = baselines::LoaderKind::kNoPFS;
  int world_size = 2;
  int epochs = 2;
  std::uint64_t per_worker_batch = 4;
  std::uint64_t seed = 2025;
  double time_scale = 50.0;
  int loader_threads = 2;
  int lookahead = 8;
  bool use_remote = true;  ///< RouterOptions::use_remote
  /// Batched gamma-gossip shape (RuntimeConfig::pfs_gossip); defaults to
  /// GossipConfig's own batched defaults.
  net::GossipConfig gossip;
  /// Weight gamma by reader-thread fan-out (RuntimeConfig::
  /// pfs_thread_weighted_gamma).
  bool thread_weighted_gamma = false;
  /// Runtime loader presentation list (label + LoaderKind + matching sim
  /// policy) for cross-check consumers like bench_runtime_validation.
  /// Empty = just `loader`.
  std::vector<LoaderLine> loaders;
  /// Scripted fault injection (fault_plan.hpp): straggler skew, dropped
  /// connections, PFS bursts, elastic membership.  Empty (the default)
  /// injects nothing; validate() checks the plan against world_size.
  FaultPlan faults;
};

/// One named scenario: a full run specification.
struct Scenario {
  std::string name;
  std::string summary;     ///< one line for --list-scenarios / docs
  SystemFactory system;    ///< simulator-view system (unscaled, paper shape)
  data::DatasetSpec dataset;  ///< simulator-view dataset (paper scale)
  SimShape sim;
  WorkerShape worker;
  /// Who runs this entry beyond the implicit pair every scenario gets
  /// (`nopfs_worker --scenario` and the CI scenario matrix): bench binaries,
  /// test files, CI legs.  Registry data, not prose, so the generated
  /// docs/SCENARIOS.md can never drift from it; validate() requires at
  /// least one entry.
  std::vector<std::string> consumers;
};

/// The registry, built once (thread-safe since C++11 statics).
[[nodiscard]] const std::map<std::string, Scenario>& registry();

/// Looks a scenario up; throws std::invalid_argument listing all names on a
/// miss so a CLI typo is self-diagnosing.
[[nodiscard]] const Scenario& get(const std::string& name);

/// All registered names, sorted.
[[nodiscard]] std::vector<std::string> names();

/// Validates one entry; returns human-readable problems (empty = valid).
[[nodiscard]] std::vector<std::string> validate(const Scenario& scenario);

/// Validates every registry entry (the CI scenario gate).
[[nodiscard]] std::vector<std::string> validate();

/// The generated scenario reference (docs/SCENARIOS.md): one markdown table
/// row per registry entry, derived entirely from registry data.  Emitted by
/// `nopfs_worker --list-scenarios --markdown`; the doc-sync CI step
/// regenerates the file and fails on any diff, so the committed copy can
/// never rot.  Deterministic output (sorted entries, fixed formatting).
void write_markdown_reference(std::ostream& out);

// --- shared scaling helpers (hoisted from bench_common.hpp) ----------------

/// Scales a dataset spec's sample count (sizes untouched, >= 1000 floor).
[[nodiscard]] data::DatasetSpec scaled_spec(data::DatasetSpec spec, double factor);

/// Scales all node storage capacities (staging included) by `factor`.
void scale_capacities(tiers::SystemParams& system, double factor);

/// The scale a bench run uses: 1.0 with --full, sim.quick_scale with
/// --quick, sim.default_scale otherwise.
[[nodiscard]] double pick_scale(const Scenario& scenario, bool quick, bool full);

/// The epoch count a bench run uses (sim.quick_epochs under --quick).
[[nodiscard]] int pick_epochs(const Scenario& scenario, bool quick);

/// The standard loopback miniature of the Sec. 6.1 cluster: the shape every
/// real-time harness consumer uses unless its scenario declares its own.
[[nodiscard]] tiers::SystemParams loopback_system(int num_workers,
                                                  double staging_mb = 0.5);

// --- simulator view --------------------------------------------------------

/// System for `gpus` workers at `scale`: factory output, capacities scaled,
/// compute/preprocess overrides applied — exactly the construction order the
/// per-figure benches used before the registry (bit-identical contract).
[[nodiscard]] tiers::SystemParams sim_system(const Scenario& scenario, int gpus,
                                             double scale);

/// Full simulator config for one grid cell (seed from the CLI; the
/// registered sim.seed is the default).
[[nodiscard]] sim::SimConfig sim_config(const Scenario& scenario, int gpus,
                                        double scale, std::uint64_t seed);

/// The scenario's dataset at `scale` (min_samples clamp applied).
[[nodiscard]] data::Dataset sim_dataset(const Scenario& scenario, double scale,
                                        std::uint64_t seed);

/// The scenario's full sweep grid as SweepPoints over `dataset`, in the
/// canonical cell order every sweep consumer shares (gpu outer ->
/// batch-size middle -> policy inner; an empty sim.batch_sizes means one
/// batch, sim.per_worker_batch — making the order bit-compatible with the
/// historical policy-inner grids like bench_micro_core's).  The flat index
/// of a cell is the sweep service's unit of distribution, so this ordering
/// is part of the determinism contract (DESIGN.md Sec. 10): every rank must
/// derive the SAME grid from the same scenario/scale/seed.  `dataset` must
/// outlive the returned points (they hold a pointer).
[[nodiscard]] std::vector<sim::SweepPoint> sweep_points(const Scenario& scenario,
                                                        const data::Dataset& dataset,
                                                        double scale,
                                                        std::uint64_t seed);

/// The scaling-figure loader lines: sim.loaders, or (when a scenario
/// declares none) one line per sim policy labelled by the policy name.
[[nodiscard]] std::vector<LoaderLine> sim_loaders(const Scenario& scenario);

// --- runtime view ----------------------------------------------------------

/// Harness config from the worker shape.  `world_size` 0 = the registered
/// shape's world size.
[[nodiscard]] runtime::RuntimeConfig runtime_config(const Scenario& scenario,
                                                    int world_size = 0);

/// The miniature dataset of the worker shape.
[[nodiscard]] data::Dataset worker_dataset(const Scenario& scenario);
/// Same with an explicit generation seed (benches honouring --seed).
[[nodiscard]] data::Dataset worker_dataset(const Scenario& scenario,
                                           std::uint64_t seed);

}  // namespace nopfs::scenario

// The simulator workload: the registry's fig10-imagenet1k grid
// (staging/nopfs/perfect x 32-256 GPUs, 3 epochs), the path that
// regenerates the paper's figures.  Timed work runs through the sweep
// service with a world of one, as runtime::run_sweep_job does, in chunks of
// several grid passes spread over every hardware thread; traced chunks also
// give every cell its own sim::RunRecorder, the simulator's public
// recording seam.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/access_stream.hpp"
#include "runtime/sweep_job.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/record.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_service.hpp"

namespace perfbench {

namespace {

using namespace nopfs;

constexpr const char* kScenario = "fig10-imagenet1k";
constexpr int kSetupRepeats = 5;
/// Grid passes per sweep-service call.  Cells of every pass share one
/// call, so only the end of a call idles threads: at 4 threads about 14%
/// of a 192-cell call (sweep.idle_share), against 25% at 96 cells.
constexpr int kPassesPerChunk = 16;

/// Sweep threads: every hardware thread, at most 4.  A single thread's rate
/// rides on whatever shares its core on the host and moved by more than
/// 40% between runs; across all threads that noise averages out.
int sweep_width() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Simulated sample accesses of one cell: E epochs of T iterations of B.
std::uint64_t accesses_of(const sim::SweepPoint& point) {
  core::StreamConfig stream;
  stream.seed = point.config.seed;
  stream.num_samples = point.dataset->num_samples();
  stream.num_workers = point.config.system.num_workers;
  stream.num_epochs = point.config.num_epochs;
  stream.global_batch = point.config.global_batch();
  stream.drop_last = point.config.drop_last;
  return stream.iterations_per_epoch() * stream.global_batch *
         static_cast<std::uint64_t>(stream.num_epochs);
}

/// The sweep service's cell semantics: a fresh policy per cell and shared
/// epoch permutations.
sim::SimResult evaluate_cell(const sim::SweepPoint& point, sim::RunRecorder* recorder) {
  const auto policy = sim::make_policy(point.policy);
  sim::SimConfig config = point.config;
  config.share_epoch_orders = true;
  config.recorder = recorder;
  return sim::simulate(config, *point.dataset, *policy);
}

/// Records when policy setup ended and counts the priced accesses.
class CellRecorder final : public sim::RunRecorder {
 public:
  explicit CellRecorder(double start_s) : start_s_(start_s) {}

  void begin_run(const sim::RunShape& /*shape*/) override { setup_s = now_s() - start_s_; }
  void begin_epoch(int /*epoch*/) override {}
  void on_access(const sim::AccessTrace& /*access*/) override { ++accesses; }
  void end_iteration(double /*barrier_s*/) override {}
  void end_run(const sim::SimResult& /*result*/) override {}

  double setup_s = 0.0;
  std::uint64_t accesses = 0;

 private:
  double start_s_;
};

struct Cell {
  double wall_s = 0.0;
  double setup_s = 0.0;          ///< traced only
  std::uint64_t accesses = 0;    ///< traced only: what the recorder saw
};

struct Chunk {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<Cell> cells;  ///< kPassesPerChunk copies of the grid, in order
};

/// kPassesPerChunk passes over the grid as ONE sweep through the sweep
/// service with a world of one (the scheduler runtime::run_sweep_job uses),
/// every cell timed from outside; traced chunks also give each cell its own
/// recorder.
Chunk run_chunk(const std::vector<sim::SweepPoint>& points, int width, bool traced) {
  const std::size_t n = points.size();
  std::vector<sim::SweepPoint> grid;
  for (int copy = 0; copy < kPassesPerChunk; ++copy) {
    grid.insert(grid.end(), points.begin(), points.end());
  }
  Chunk chunk;
  chunk.cells.resize(grid.size());
  sim::SweepServiceOptions options;
  options.num_threads = width;
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  const sim::SweepServiceReport report = sim::run_sweep_service(
      nullptr, grid.size(),
      [&](std::uint64_t i) {
        const double start = now_s();
        std::optional<CellRecorder> recorder;
        if (traced) recorder.emplace(start);
        sim::SimResult result = evaluate_cell(points[i % n], traced ? &*recorder : nullptr);
        Cell& cell = chunk.cells[i];
        cell.wall_s = now_s() - start;
        if (traced) {
          cell.setup_s = recorder->setup_s;
          cell.accesses = recorder->accesses;
        }
        return result;
      },
      sim::sweep_grid_signature(grid), options);
  chunk.wall_s = now_s() - t0;
  chunk.cpu_s = cpu_s() - cpu0;
  chunk.digest = sim::sweep_results_digest(report.results);
  return chunk;
}

void set_layers(const std::vector<sim::SweepPoint>& points, int width,
                const std::vector<Chunk>& untraced, const std::vector<Chunk>& traced,
                double accesses, Outcome& out) {
  const std::size_t n = points.size();
  std::vector<double> cell_s;
  double busy_s = 0.0;
  double capacity_s = 0.0;
  std::map<std::string, double> policy_s;
  std::map<std::string, double> policy_accesses;
  std::map<std::string, std::vector<double>> policy_setup_s;
  std::vector<double> traced_rates;
  for (const Chunk& chunk : traced) {
    for (std::size_t i = 0; i < chunk.cells.size(); ++i) {
      const Cell& cell = chunk.cells[i];
      const std::string& policy = points[i % n].policy;
      cell_s.push_back(cell.wall_s);
      busy_s += cell.wall_s;
      policy_s[policy] += cell.wall_s;
      policy_accesses[policy] += static_cast<double>(cell.accesses);
      policy_setup_s[policy].push_back(cell.setup_s);
    }
    capacity_s += width * chunk.wall_s;
    traced_rates.push_back(accesses / chunk.wall_s);
  }
  std::vector<double> untraced_rates;
  for (const Chunk& chunk : untraced) untraced_rates.push_back(accesses / chunk.wall_s);

  out.set("sim.cell_s.p50", pct(cell_s, 50.0), "s");
  out.set("sim.cell_s.max", pct(cell_s, 100.0), "s");
  out.set("sweep.idle_share", 1.0 - ratio(busy_s, capacity_s), "share");
  for (const std::string policy : {"staging", "nopfs", "perfect"}) {
    out.set("sim.ns_per_access." + policy,
            ratio(policy_s[policy] * 1e9, policy_accesses[policy]), "ns");
    out.set("sim.policy_setup_s." + policy, median(policy_setup_s[policy]), "s");
  }
  out.set("trace_overhead_share", 1.0 - ratio(median(traced_rates), median(untraced_rates)),
          "share");
}

}  // namespace

void run_sim(const Args& args, Outcome& out) {
  const scenario::Scenario& scenario = scenario::get(kScenario);
  // The grid at the scenario's --quick scale (1/8 of dataset and
  // capacities), so one run times about a dozen chunks of 16 passes.
  const double scale = scenario.sim.quick_scale;
  const int width = sweep_width();
  const std::uint64_t dataset_seed = derive_seed(args.seed, 1);
  const std::uint64_t sim_seed = derive_seed(args.seed, 2);

  // Set-up: dataset and grid construction, repeated up front and again
  // before every chunk, so the median reported spans the whole run.
  std::vector<double> setups;
  data::Dataset dataset = scenario::sim_dataset(scenario, scale, dataset_seed);
  std::vector<sim::SweepPoint> points;
  const auto set_up = [&] {
    const double t0 = now_s();
    dataset = scenario::sim_dataset(scenario, scale, dataset_seed);
    points = scenario::sweep_points(scenario, dataset, scale, sim_seed);
    setups.push_back(now_s() - t0);
  };
  for (int i = 0; i < kSetupRepeats; ++i) set_up();
  double pass_accesses = 0.0;
  for (const sim::SweepPoint& point : points) {
    pass_accesses += static_cast<double>(accesses_of(point));
  }
  const double accesses = pass_accesses * kPassesPerChunk;

  // The reference: one serial pass through runtime::run_sweep_job (world
  // of one, width 1).  It also fills the epoch-order cache before timing.
  // A chunk must reproduce it once per pass.
  sim::SweepServiceOptions serial;
  serial.num_threads = 1;
  const sim::SweepServiceReport reference =
      runtime::run_sweep_job(points, runtime::WorkerEndpoint{}, serial);
  out.check(reference.results.size() == points.size());
  std::vector<sim::SimResult> repeated;
  for (int copy = 0; copy < kPassesPerChunk; ++copy) {
    repeated.insert(repeated.end(), reference.results.begin(), reference.results.end());
  }
  const std::uint64_t expected = sim::sweep_results_digest(repeated);
  out.env["digest"] = hex64(sim::sweep_results_digest(reference.results));
  out.env["sweep_width"] = std::to_string(width);
  out.env["sim_accesses_per_pass"] = std::to_string(static_cast<std::uint64_t>(pass_accesses));
  out.env["passes_per_chunk"] = std::to_string(kPassesPerChunk);

  std::vector<Chunk> untraced;
  std::vector<Chunk> traced;
  const double start = now_s();
  while (now_s() - start < args.seconds || (args.trace && traced.empty())) {
    const bool trace_this = args.trace && untraced.size() > traced.size();
    set_up();
    Chunk chunk = run_chunk(points, width, trace_this);
    bool ok = chunk.digest == expected;
    if (!ok) {
      std::fprintf(stderr, "perfbench: chunk digest %s, expected %s\n",
                   hex64(chunk.digest).c_str(), hex64(expected).c_str());
    }
    if (trace_this) {
      // The recorder must have seen every simulated access.
      for (std::size_t i = 0; i < chunk.cells.size(); ++i) {
        ok = ok && chunk.cells[i].accesses == accesses_of(points[i % points.size()]);
      }
    }
    out.check(ok);
    if (!ok) return;
    std::fprintf(stderr, "perfbench: chunk %zu%s: %.4g s wall, %.4g accesses/s\n",
                 untraced.size() + traced.size(), trace_this ? " (traced)" : "", chunk.wall_s,
                 accesses / chunk.wall_s);
    (trace_this ? traced : untraced).push_back(std::move(chunk));
  }

  if (args.trace) {
    set_layers(points, width, untraced, traced, accesses, out);
    return;
  }
  // A step is one grid pass: the summed wall time of its cells.  Single
  // cells come in a dozen discrete sizes, so a percentile of cell times
  // jumps between two of them.
  std::vector<double> rates;
  std::vector<double> cpu_us;
  std::vector<double> passes_ms;
  for (const Chunk& chunk : untraced) {
    rates.push_back(accesses / chunk.wall_s);
    cpu_us.push_back(chunk.cpu_s / accesses * 1e6);
    for (std::size_t first = 0; first < chunk.cells.size(); first += points.size()) {
      double pass_s = 0.0;
      for (std::size_t i = first; i < first + points.size(); ++i) pass_s += chunk.cells[i].wall_s;
      passes_ms.push_back(pass_s * 1e3);
    }
  }
  out.env["timed_passes"] = std::to_string(passes_ms.size());
  out.set("samples_per_s", median(rates), "samples/s");
  out.set("step_ms_p50", pct(passes_ms, 50.0), "ms");
  out.set("step_ms_p90", pct(passes_ms, 90.0), "ms");
  out.set("cpu_us_per_sample", median(cpu_us), "us");
  out.set("setup_s", median(setups), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench

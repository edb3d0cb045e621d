// nopfs_worker: run a registered scenario (src/scenario) single- or
// multi-process from the command line.
//
// Multi-process (the SocketTransport launch path): start N copies, one per
// rank, pointing at the same rendezvous address; rank 0 hosts the
// rendezvous:
//
//   ./nopfs_worker --rank 0 --world-size 2 --rendezvous 127.0.0.1:19777 &
//   ./nopfs_worker --rank 1 --world-size 2 --rendezvous 127.0.0.1:19777
//
// Single-process (no --rendezvous): the scenario's whole world runs as
// threads in this process (runtime::run_training), which is what the CI
// scenario matrix drives:
//
//   ./nopfs_worker --scenario contention-pfs --quick
//   ./nopfs_worker --list-scenarios
//
// Critical-path mode (--critpath) runs the scenario's SIMULATOR view once
// with dependence-graph recording (src/critpath/), prints the per-resource
// attribution of the end-to-end time, and re-walks the one recorded graph
// under what-if cost models instead of re-running the simulator:
//
//   ./nopfs_worker --scenario fig8-imagenet1k --critpath
//   ./nopfs_worker --scenario fig8-imagenet1k --critpath --whatif pfs=2x,nic=0.5x
//
// Each --whatif SPEC is one what-if cell; commas combine knobs within a
// cell ("pfs=2x,nic=0.5x" = both at once), repeat the flag for more cells.
// Without --whatif the registry's default sweep runs (pfs=2x, pfs=4x,
// nic=0.5x).  --list-scenarios --markdown emits the generated scenario
// reference (docs/SCENARIOS.md).
//
// Sweep-service mode (--sweep-scenario, DESIGN.md Sec. 10) runs the named
// scenario's SIMULATOR sweep grid through the distributed work-stealing
// sweep service instead of the runtime harness.  Single-process it stays
// in-process (still checkpointable); with --rendezvous each launched rank
// is one service member and rank 0 owns the grid:
//
//   ./nopfs_worker --sweep-scenario sweep-service --sweep-checkpoint ck.bin &
//   ./nopfs_worker --sweep-scenario sweep-service --resume ck.bin
//
// --sweep-checkpoint FILE enables periodic checkpointing; --resume FILE
// implies it AND folds the file's completed cells before granting, so a
// killed sweep re-runs nothing it already finished.  --sweep-interrupt-after
// N deterministically emulates a mid-sweep kill after N completed cells
// (the CI kill/resume smoke).  Rank 0 prints the ordered-results digest —
// bit-identical to the serial SweepRunner by contract.
//
// Elastic worlds (--sweep-elastic, DESIGN.md Sec. 11): pass
// --sweep-max-world M on EVERY rank and the sweep tolerates membership
// churn up to M workers.  A late joiner is launched like any other rank but
// with --rank >= --world-size — it rendezvouses mid-sweep and just starts
// pulling.  --sweep-abandon-after N scripts a deterministic mid-sweep
// worker death: after N granted-and-reported pulls the rank takes one more
// grant and vanishes; rank 0's tail re-grants recover its cells and the
// digest stays bit-identical (the CI kill-one-rank smoke).
//
// The scenario (default "worker-loopback") supplies the system, dataset and
// run shape; explicit flags (--samples, --epochs, ...) override it.  Every
// rank of a multi-process job must be launched with identical job flags:
// the access streams are derived from them.  The process prints (and with
// --json-out writes) the job-wide result, which is identical on every rank
// — stats are allgathered at the end of the run.  Exit status is nonzero on
// any verification failure, making the binary directly usable as a CI /
// ctest assertion.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <memory>
#include <vector>

#include "baselines/loader.hpp"
#include "critpath/cp_attribution.hpp"
#include "critpath/cp_dep_graph.hpp"
#include "critpath/cp_registry.hpp"
#include "runtime/harness.hpp"
#include "runtime/sweep_job.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/policies.hpp"
#include "sim/sweep_service.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace nopfs;

namespace {

struct Args {
  std::string scenario = "worker-loopback";
  int rank = 0;
  int world_size = 0;  ///< 0 = scenario default (or 1 with --rendezvous)
  std::string rendezvous_host = "127.0.0.1";
  std::uint16_t rendezvous_port = 0;
  bool have_rendezvous = false;
  bool list_scenarios = false;
  bool markdown = false;   ///< with --list-scenarios: emit docs/SCENARIOS.md
  bool critpath = false;   ///< critical-path attribution + what-if mode
  std::vector<std::string> whatif;  ///< what-if cells (--whatif, repeatable)
  bool sweep = false;               ///< --sweep-scenario: sweep-service mode
  std::string sweep_checkpoint;     ///< checkpoint file ("" = none)
  bool sweep_resume = false;        ///< fold the checkpoint before granting
  std::uint64_t sweep_interrupt_after = 0;  ///< emulate a kill after N cells
  int sweep_threads = 0;            ///< per-rank cell threads (0 = auto)
  bool sweep_elastic = false;       ///< elastic membership (DESIGN.md Sec. 11)
  int sweep_max_world = 0;          ///< largest elastic world (0 = world size)
  int sweep_abandon_after = 0;      ///< die after N reported pulls (elastic)
  bool quick = false;
  // Scenario overrides; "have_" flags distinguish "not passed" from any
  // sentinel value so explicit flags always win over the registry shape.
  std::string loader;
  std::uint64_t samples = 0;
  bool have_samples = false;
  int epochs = 0;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::uint64_t per_worker_batch = 0;
  double time_scale = 0.0;
  double timeout_s = 120.0;
  bool verify = true;
  // Gamma-gossip overrides (scenario defaults otherwise; DESIGN.md
  // Sec. 7.4).  flush < 0 = "not passed".
  double pfs_flush_virtual_s = -1.0;
  int pfs_max_batch = 0;
  bool thread_weighted_gamma = false;
  bool have_thread_weighted = false;
  std::string json_out;
};

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--scenario NAME] [--list-scenarios [--markdown]]\n"
         "          [--critpath [--whatif SPEC]...]  (simulator critical path)\n"
         "          [--sweep-scenario NAME [--sweep-checkpoint FILE | --resume FILE]\n"
         "           [--sweep-interrupt-after N] [--sweep-threads T]\n"
         "           [--sweep-elastic] [--sweep-max-world M]\n"
         "           [--sweep-abandon-after N]]  (sweep service)\n"
         "          [--rank R --world-size N --rendezvous HOST:PORT]  (multi-process)\n"
         "          [--loader "
      << baselines::loader_flag_names()
      << "]\n"
         "          [--samples F] [--epochs E] [--seed S] [--per-worker-batch B]\n"
         "          [--time-scale X] [--timeout-s T] [--quick] [--no-verify]\n"
         "          [--json-out PATH]\n"
         "          [--pfs-flush-interval VIRT_S] [--pfs-max-batch N]\n"
         "                                (gamma gossip window; 0 = flush at once)\n"
         "          [--thread-weighted-gamma]   (gamma counts reader threads)\n"
         "Without --rendezvous the scenario's world runs as threads in this\n"
         "process; with it this process is ONE rank (world size defaults to 1).\n";
}

bool parse_args(int argc, char** argv, Args& args) {
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + ": missing value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--scenario") {
      args.scenario = value(i);
    } else if (flag == "--list-scenarios") {
      args.list_scenarios = true;
    } else if (flag == "--markdown") {
      args.markdown = true;
    } else if (flag == "--critpath") {
      args.critpath = true;
    } else if (flag == "--whatif") {
      args.whatif.emplace_back(value(i));
    } else if (flag == "--sweep-scenario") {
      args.scenario = value(i);
      args.sweep = true;
    } else if (flag == "--sweep-checkpoint") {
      args.sweep_checkpoint = value(i);
    } else if (flag == "--resume") {
      args.sweep_checkpoint = value(i);
      args.sweep_resume = true;
    } else if (flag == "--sweep-interrupt-after") {
      args.sweep_interrupt_after = std::stoull(value(i));
    } else if (flag == "--sweep-threads") {
      args.sweep_threads = std::stoi(value(i));
      if (args.sweep_threads < 0) {
        throw std::invalid_argument("--sweep-threads must be >= 0");
      }
    } else if (flag == "--sweep-elastic") {
      args.sweep_elastic = true;
    } else if (flag == "--sweep-max-world") {
      args.sweep_max_world = std::stoi(value(i));
      if (args.sweep_max_world < 0) {
        throw std::invalid_argument("--sweep-max-world must be >= 0");
      }
    } else if (flag == "--sweep-abandon-after") {
      args.sweep_abandon_after = std::stoi(value(i));
      if (args.sweep_abandon_after < 0) {
        throw std::invalid_argument("--sweep-abandon-after must be >= 0");
      }
    } else if (flag == "--rank") {
      args.rank = std::stoi(value(i));
    } else if (flag == "--world-size") {
      args.world_size = std::stoi(value(i));
    } else if (flag == "--rendezvous") {
      const std::string addr = value(i);
      const auto colon = addr.rfind(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--rendezvous expects HOST:PORT");
      }
      args.rendezvous_host = addr.substr(0, colon);
      const int port = std::stoi(addr.substr(colon + 1));
      if (port < 1 || port > 65535) {
        throw std::invalid_argument("--rendezvous port out of range: " +
                                    std::to_string(port));
      }
      args.rendezvous_port = static_cast<std::uint16_t>(port);
      args.have_rendezvous = true;
    } else if (flag == "--loader") {
      args.loader = value(i);
    } else if (flag == "--samples") {
      args.samples = std::stoull(value(i));
      args.have_samples = true;
    } else if (flag == "--epochs") {
      args.epochs = std::stoi(value(i));
    } else if (flag == "--seed") {
      args.seed = std::stoull(value(i));
      args.have_seed = true;
    } else if (flag == "--per-worker-batch") {
      args.per_worker_batch = std::stoull(value(i));
    } else if (flag == "--time-scale") {
      args.time_scale = std::stod(value(i));
    } else if (flag == "--timeout-s") {
      args.timeout_s = std::stod(value(i));
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--no-verify") {
      args.verify = false;
    } else if (flag == "--pfs-flush-interval") {
      args.pfs_flush_virtual_s = std::stod(value(i));
      if (args.pfs_flush_virtual_s < 0.0) {
        throw std::invalid_argument("--pfs-flush-interval must be >= 0");
      }
    } else if (flag == "--pfs-max-batch") {
      args.pfs_max_batch = std::stoi(value(i));
      if (args.pfs_max_batch < 1) {
        throw std::invalid_argument("--pfs-max-batch must be >= 1");
      }
    } else if (flag == "--thread-weighted-gamma") {
      args.thread_weighted_gamma = true;
      args.have_thread_weighted = true;
    } else if (flag == "--json-out") {
      args.json_out = value(i);
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return false;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  return true;
}

std::string result_json(const Args& args, const std::string& mode, int world_size,
                        std::uint64_t samples, int epochs, std::uint64_t seed,
                        const std::string& loader, const runtime::RuntimeResult& result) {
  std::ostringstream out;
  out.precision(6);
  out << "{\n"
      << "  \"scenario\": \"" << args.scenario << "\",\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"rank\": " << args.rank << ",\n"
      << "  \"world_size\": " << world_size << ",\n"
      << "  \"loader\": \"" << loader << "\",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"epochs\": " << epochs << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"total_s\": " << result.total_s << ",\n"
      << "  \"verified_samples\": " << result.verified_samples << ",\n"
      << "  \"verification_failures\": " << result.verification_failures << ",\n"
      << "  \"delivered_digest\": \"" << std::hex << result.delivered_digest
      << std::dec << "\",\n"
      << "  \"pfs_peak_gamma\": " << result.pfs_peak_gamma << ",\n"
      << "  \"stats\": {\n"
      << "    \"local_fetches\": " << result.stats.local_fetches << ",\n"
      << "    \"remote_fetches\": " << result.stats.remote_fetches << ",\n"
      << "    \"pfs_fetches\": " << result.stats.pfs_fetches << ",\n"
      << "    \"remote_misses\": " << result.stats.remote_misses << ",\n"
      << "    \"local_mb\": " << result.stats.local_mb << ",\n"
      << "    \"remote_mb\": " << result.stats.remote_mb << ",\n"
      << "    \"pfs_mb\": " << result.stats.pfs_mb << ",\n"
      << "    \"cached_samples\": " << result.stats.cached_samples << "\n"
      << "  }\n"
      << "}\n";
  return out.str();
}

/// --critpath: record the scenario's simulator view once, attribute the
/// critical path, and re-walk the one recorded graph per what-if cell.
int run_critpath(const scenario::Scenario& scn, const Args& args) {
  const int gpus = scn.sim.gpu_counts.front();
  const double scale = scenario::pick_scale(scn, args.quick, /*full=*/false);
  const std::uint64_t seed = args.have_seed ? args.seed : scn.sim.seed;
  const std::string policy_name = scn.sim.policies.front();

  sim::SimConfig config = scenario::sim_config(scn, gpus, scale, seed);
  config.num_epochs =
      args.epochs > 0 ? args.epochs : scenario::pick_epochs(scn, args.quick);
  const data::Dataset dataset = scenario::sim_dataset(scn, scale, seed);
  const auto policy = sim::make_policy(policy_name);

  critpath::DepGraphBuilder builder;
  config.recorder = &builder;
  const sim::SimResult result = sim::simulate(config, dataset, *policy);
  if (!result.supported) {
    std::cerr << "critpath: policy " << policy_name
              << " cannot run this scenario: " << result.unsupported_reason
              << "\n";
    return 1;
  }

  const critpath::DepGraph& graph = builder.graph();
  const critpath::Attribution recorded = critpath::attribute(graph);
  std::cout << "critical path: " << scn.name << " | policy " << policy_name
            << " | " << gpus << " GPUs | scale " << scale << " | "
            << config.num_epochs << " epochs\n"
            << "recorded graph: " << graph.num_nodes() << " nodes, "
            << graph.num_edges() << " edges | engine total "
            << util::Table::num(builder.engine_total_s(), 3)
            << " s | longest path "
            << util::Table::num(recorded.end_to_end_s, 3) << " s\n"
            << "bound by: " << recorded.share_line() << "\n\n";

  util::Table resources({"resource", "tier", "seconds", "share", "path edges"});
  for (int r = 0; r < static_cast<int>(critpath::Resource::kCount); ++r) {
    const auto resource = static_cast<critpath::Resource>(r);
    const double s = recorded.resource_s(resource);
    if (s <= 0.0) continue;
    resources.add_row(
        {critpath::resource_name(resource), "-", util::Table::num(s, 3),
         util::Table::num(100.0 * s / recorded.end_to_end_s, 1) + "%",
         std::to_string(
             recorded.edges[static_cast<std::size_t>(resource)])});
  }
  for (const auto& [tier, s] : recorded.local_tier_s) {
    resources.add_row({"local", std::to_string(tier), util::Table::num(s, 3),
                       util::Table::num(100.0 * s / recorded.end_to_end_s, 1) +
                           "%",
                       "-"});
  }
  for (const auto& [tier, s] : recorded.remote_tier_s) {
    resources.add_row({"remote", std::to_string(tier), util::Table::num(s, 3),
                       util::Table::num(100.0 * s / recorded.end_to_end_s, 1) +
                           "%",
                       "-"});
  }
  resources.print(std::cout);

  // What-if cells: each spec re-walks the recorded graph under a scaled
  // cost model — no re-simulation.
  const std::vector<std::string> cells =
      args.whatif.empty() ? critpath::Registry::default_whatif() : args.whatif;
  std::cout << "\nwhat-if (one recorded graph, " << cells.size()
            << " re-walked cells):\n";
  util::Table whatif({"model", "end-to-end", "vs recorded", "bound by"});
  whatif.add_row({"recorded", util::Table::num(recorded.end_to_end_s, 3) + " s",
                  "1.00x", critpath::resource_name(recorded.binding())});
  for (const std::string& spec : cells) {
    const std::unique_ptr<critpath::CostModel> model =
        critpath::Registry::instance().make(spec);
    const critpath::Attribution cell = critpath::attribute(graph, model.get());
    whatif.add_row(
        {cell.model, util::Table::num(cell.end_to_end_s, 3) + " s",
         util::Table::num(recorded.end_to_end_s / cell.end_to_end_s, 2) + "x",
         critpath::resource_name(cell.binding())});
  }
  whatif.print(std::cout);
  return 0;
}

/// --sweep-scenario: run the scenario's simulator sweep grid through the
/// distributed sweep service (runtime::run_sweep_job).  Rank 0 prints (and
/// with --json-out writes) the job report including the ordered-results
/// digest; other ranks print their own share.  Exit 3 when an uninterrupted
/// sweep failed to complete its grid.
int run_sweep(const scenario::Scenario& scn, const Args& args) {
  const double scale = scenario::pick_scale(scn, args.quick, /*full=*/false);
  const std::uint64_t seed = args.have_seed ? args.seed : scn.sim.seed;
  const int epochs =
      args.epochs > 0 ? args.epochs : scenario::pick_epochs(scn, args.quick);
  const data::Dataset dataset = scenario::sim_dataset(scn, scale, seed);
  std::vector<sim::SweepPoint> points =
      scenario::sweep_points(scn, dataset, scale, seed);
  for (sim::SweepPoint& point : points) point.config.num_epochs = epochs;

  sim::SweepServiceOptions options;
  options.num_threads = args.sweep_threads;
  options.checkpoint_path = args.sweep_checkpoint;
  options.resume = args.sweep_resume;
  options.interrupt_after_cells = args.sweep_interrupt_after;
  options.elastic = args.sweep_elastic;
  options.max_workers = args.sweep_max_world;
  options.abandon_after_pulls = args.sweep_abandon_after;

  runtime::WorkerEndpoint endpoint;
  endpoint.rank = args.rank;
  // Without --rendezvous the sweep stays in-process regardless of
  // --world-size (there is no address to meet at).
  endpoint.world_size =
      args.have_rendezvous && args.world_size > 0 ? args.world_size : 1;
  endpoint.rendezvous_host = args.rendezvous_host;
  endpoint.rendezvous_port = args.rendezvous_port;
  endpoint.timeout_s = args.timeout_s;

  const sim::SweepServiceReport report = runtime::run_sweep_job(points, endpoint, options);
  const bool root = args.rank == 0;
  const std::uint64_t digest =
      root ? sim::sweep_results_digest(report.results) : 0;
  const double cells_per_s =
      report.stats.wall_s > 0.0
          ? static_cast<double>(report.stats.completed_cells -
                                report.stats.restored_cells) /
                report.stats.wall_s
          : 0.0;

  std::ostringstream out;
  out.precision(6);
  out << "{\n"
      << "  \"scenario\": \"" << args.scenario << "\",\n"
      << "  \"mode\": \"sweep\",\n"
      << "  \"rank\": " << args.rank << ",\n"
      << "  \"world_size\": " << endpoint.world_size << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"epochs\": " << epochs << ",\n"
      << "  \"total_cells\": " << report.stats.total_cells << ",\n"
      << "  \"restored_cells\": " << report.stats.restored_cells << ",\n"
      << "  \"executed_cells\": " << report.stats.executed_cells << ",\n"
      << "  \"completed_cells\": " << report.stats.completed_cells << ",\n"
      << "  \"duplicate_cells\": " << report.stats.duplicate_cells << ",\n"
      << "  \"grants\": " << report.stats.grants << ",\n"
      << "  \"regrants\": " << report.stats.regrants << ",\n"
      << "  \"interrupted\": " << (report.stats.interrupted ? "true" : "false")
      << ",\n"
      << "  \"wall_s\": " << report.stats.wall_s << ",\n"
      << "  \"cells_per_s\": " << cells_per_s << ",\n"
      << "  \"results_digest\": \"" << std::hex << digest << std::dec << "\"\n"
      << "}\n";
  std::cout << out.str();
  if (!args.json_out.empty()) {
    std::ofstream file(args.json_out);
    if (!file) {
      std::cerr << "cannot write " << args.json_out << "\n";
      return 2;
    }
    file << out.str();
  }
  if (root && !report.stats.interrupted &&
      report.stats.completed_cells != report.stats.total_cells) {
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) return 0;

    if (args.list_scenarios) {
      if (args.markdown) {
        scenario::write_markdown_reference(std::cout);
      } else {
        for (const std::string& name : scenario::names()) std::cout << name << "\n";
      }
      return 0;
    }

    const scenario::Scenario& scn = scenario::get(args.scenario);

    if (args.critpath) return run_critpath(scn, args);
    if (args.sweep) return run_sweep(scn, args);

    // Scenario shape with CLI overrides on top.
    const int world_size = args.world_size > 0     ? args.world_size
                           : args.have_rendezvous ? 1
                                                  : scn.worker.world_size;
    data::DatasetSpec spec = scn.worker.dataset;
    if (args.have_samples) spec.num_samples = args.samples;
    int epochs = args.epochs > 0 ? args.epochs : scn.worker.epochs;
    if (args.quick) {
      // CI smoke shape: a couple of epochs over at most 64 samples, but
      // never below one global batch — and never overriding a dimension the
      // user pinned explicitly (explicit flags always win).
      const std::uint64_t global =
          (args.per_worker_batch > 0 ? args.per_worker_batch
                                     : scn.worker.per_worker_batch) *
          static_cast<std::uint64_t>(world_size);
      if (!args.have_samples) {
        spec.num_samples =
            std::max(std::min<std::uint64_t>(spec.num_samples, 64), global);
      }
      if (args.epochs <= 0) epochs = std::min(epochs, 2);
    }
    const auto dataset = data::Dataset::synthetic(spec, scn.worker.dataset_seed);

    runtime::RuntimeConfig config = scenario::runtime_config(scn, world_size);
    if (!args.loader.empty()) {
      config.loader = baselines::parse_loader_kind(args.loader);
    }
    if (args.have_seed) config.seed = args.seed;
    config.num_epochs = epochs;
    if (args.per_worker_batch > 0) config.per_worker_batch = args.per_worker_batch;
    if (args.time_scale > 0.0) config.time_scale = args.time_scale;
    config.verify_content = args.verify;
    if (args.pfs_flush_virtual_s >= 0.0) {
      config.pfs_gossip.flush_virtual_s = args.pfs_flush_virtual_s;
    }
    if (args.pfs_max_batch > 0) config.pfs_gossip.max_batch = args.pfs_max_batch;
    if (args.have_thread_weighted) {
      config.pfs_thread_weighted_gamma = args.thread_weighted_gamma;
    }

    runtime::RuntimeResult result;
    std::string mode;
    if (args.have_rendezvous) {
      mode = "multi-process";
      runtime::WorkerEndpoint endpoint;
      endpoint.rank = args.rank;
      endpoint.world_size = world_size;
      endpoint.rendezvous_host = args.rendezvous_host;
      endpoint.rendezvous_port = args.rendezvous_port;
      endpoint.timeout_s = args.timeout_s;
      result = runtime::run_distributed(dataset, config, endpoint);
    } else {
      mode = "single-process";
      result = runtime::run_training(dataset, config);
    }

    const std::string json = result_json(
        args, mode, world_size, dataset.num_samples(), config.num_epochs, config.seed,
        args.loader.empty() ? baselines::loader_flag_name(config.loader) : args.loader,
        result);
    std::cout << json;
    if (!args.json_out.empty()) {
      std::ofstream out(args.json_out);
      if (!out) {
        std::cerr << "cannot write " << args.json_out << "\n";
        return 2;
      }
      out << json;
    }
    return result.verification_failures == 0 ? 0 : 3;
  } catch (const std::exception& ex) {
    std::cerr << "nopfs_worker rank " << args.rank << ": " << ex.what() << "\n";
    return 1;
  }
}

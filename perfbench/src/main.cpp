// nopfs_perfbench: one run of one benchmark workload.
//
//   nopfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints an environment stamp line, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (BENCHMARK.json lists both; README.md defines them).  A
// per-layer metric of a layer the workload does not exercise reads 0.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "net/reactor.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"samples_per_s", "samples/s"}, {"step_ms_p50", "ms"}, {"step_ms_p90", "ms"},
    {"cpu_us_per_sample", "us"},    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"loader.next_wait_us.p50", "us"},
    {"loader.next_wait_us.p99", "us"},
    {"loader.start_s", "s"},
    {"job.stall_share", "share"},
    {"consumer.unexplained_share", "share"},
    {"router.local_share", "share"},
    {"router.remote_share", "share"},
    {"router.pfs_share", "share"},
    {"router.remote_hit_ratio", "ratio"},
    {"net.rendezvous_s", "s"},
    {"net.allgather_ms", "ms"},
    {"net.fetch_us.p50", "us"},
    {"net.fetch_us.p99", "us"},
    {"net.fetches_per_sample", "1/sample"},
    {"net.barrier_us.p50", "us"},
    {"net.barrier_us.p90", "us"},
    {"net.pfs_adjust_ns.p50", "ns"},
    {"net.pfs_adjust_per_sample", "1/sample"},
    {"net.nic_reserve_ns.p50", "ns"},
    {"wire.hit_frame_ns", "ns"},
    {"wire.control_frame_ns", "ns"},
    {"reactor.post_ns", "ns"},
    {"source.read_us.p50", "us"},
    {"source.read_us.p99", "us"},
    {"source.reads_per_sample", "1/sample"},
    {"pfs.read_us.p50", "us"},
    {"data.materialize_us.p50", "us"},
    {"tier.read_us.p50", "us"},
    {"tier.write_us.p50", "us"},
    {"staging.write_us.p50", "us"},
    {"device.wait_share", "share"},
    {"process.ctx_switches_per_sample", "1/sample"},
    {"sim.cell_s.p50", "s"},
    {"sim.cell_s.max", "s"},
    {"sweep.idle_share", "share"},
    {"sim.ns_per_access.staging", "ns"},
    {"sim.ns_per_access.nopfs", "ns"},
    {"sim.ns_per_access.perfect", "ns"},
    {"sim.policy_setup_s.staging", "s"},
    {"sim.policy_setup_s.nopfs", "s"},
    {"sim.policy_setup_s.perfect", "s"},
    {"core.epoch_order_ms", "ms"},
    {"core.epoch_cache_hit_ratio", "ratio"},
    {"trace_overhead_share", "share"},
};

/// Samples of the cold epoch-permutation probe: ImageNet-1k's F.
constexpr std::uint64_t kEpochProbeSamples = 1281167;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "nopfs_perfbench: " << error
            << "\nusage: nopfs_perfbench --workload "
               "train-cache-resident|train-pfs-stream|sim-fig10-imagenet1k "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
rusage self_usage() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage;
}
double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double cpu_s() {
  const rusage usage = self_usage();
  return seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
}

double ctx_switches() {
  const rusage usage = self_usage();
  return static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
}

double peak_rss_mb() { return static_cast<double>(self_usage().ru_maxrss) / 1024.0; }

double pct(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : nopfs::util::percentile(values, q);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x100000001B3ull + stream * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "train-cache-resident" || args.workload == "train-pfs-stream") {
      run_train(args, out);
    } else if (args.workload == "sim-fig10-imagenet1k") {
      run_sim(args, out);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace) {
      run_net_probes(out);
      run_core_probes(derive_seed(args.seed, 3), kEpochProbeSamples, out);
    }
  } catch (const std::exception& ex) {
    std::cerr << "nopfs_perfbench: " << args.workload << " aborted: " << ex.what() << "\n";
    return 1;
  }

  // Environment stamp: results from different hosts or settings must never
  // be compared silently.
  out.env["workload"] = args.workload;
  out.env["seed"] = std::to_string(args.seed);
  out.env["seconds"] = number(args.seconds);
  out.env["trace"] = args.trace ? "1" : "0";
  out.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.env["build_type"] = PERFBENCH_BUILD_TYPE;
  out.env["compiler"] = PERFBENCH_COMPILER;
  if (!out.env.contains("reactor_backend")) {
    out.env["reactor_backend"] =
        nopfs::net::make_reactor(nopfs::net::ReactorBackend::kAuto)->backend_name();
  }
  std::ostringstream env;
  env << "{\"env\": {";
  const char* sep = "";
  for (const auto& [key, value] : out.env) {
    env << sep << quoted(key) << ": " << quoted(value);
    sep = ", ";
  }
  env << "}}";
  std::cout << env.str() << "\n";

  // Exactly the metric set of the mode.  A metric missing here means the
  // run stopped at a failure, which `failed` already counts.
  const std::span<const MetricName> names =
      args.trace ? std::span<const MetricName>(kPerLayer) : std::span<const MetricName>(kEndToEnd);
  std::ostringstream metrics;
  sep = "";
  for (const MetricName& metric : names) {
    double value = 0.0;
    if (const auto it = out.metrics.find(metric.name); it != out.metrics.end()) {
      value = it->second.value;
      if (it->second.unit != metric.unit || !std::isfinite(value)) {
        std::cerr << "nopfs_perfbench: bad metric " << metric.name << " = " << value << " "
                  << it->second.unit << "\n";
        out.check(false);
        value = 0.0;
      }
    }
    metrics << sep << quoted(metric.name) << ": {\"value\": " << number(value)
            << ", \"unit\": " << quoted(metric.unit) << "}";
    sep = ", ";
  }
  if (out.attempted == 0) out.check(false);
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return 0;
}

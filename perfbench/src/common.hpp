#pragma once
// Shared plumbing of the benchmark driver: arguments, the result record,
// process clocks and order statistics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted/failed, the metrics of its
/// mode, and the environment stamp (printed on its own line before the
/// result).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> env;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; `ok == false` counts it as failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Steady-clock seconds.
[[nodiscard]] double now_s();

/// Process user + system CPU seconds (all threads).
[[nodiscard]] double cpu_s();

/// Voluntary + involuntary context switches of the process so far.
[[nodiscard]] double ctx_switches();

/// Peak resident set of the process, MB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
[[nodiscard]] double pct(const std::vector<double>& values, double q);

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return pct(values, 50.0);
}

/// a / b, or 0 when b is 0.
[[nodiscard]] inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Derives an independent 64-bit value from the workload seed (splitmix64),
/// so the dataset sizes and the access order get unrelated streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// 16 hex digits.
[[nodiscard]] std::string hex64(std::uint64_t value);

// Workload entry points.  Each fills `out` with its mode's metrics.
void run_train(const Args& args, Outcome& out);
void run_sim(const Args& args, Outcome& out);

/// Isolated wire/reactor costs (trace mode, every workload).
void run_net_probes(Outcome& out);

/// Cold epoch-permutation cost for `num_samples` and the global epoch-order
/// cache's hit ratio (trace mode, every workload).
void run_core_probes(std::uint64_t seed, std::uint64_t num_samples, Outcome& out);

}  // namespace perfbench

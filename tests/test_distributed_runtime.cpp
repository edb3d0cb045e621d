// End-to-end tests of the multi-process launch path (ISSUE 2 acceptance):
//
//   * a world-size-1 SocketTransport run is result-identical to the
//     in-process SimTransport run (the delivered digest is the bit-for-bit
//     contract; deterministic stats match exactly);
//   * an in-process 2-rank socket world reproduces the threaded harness's
//     delivered digest while exercising the full wire protocol;
//   * a training step runs exactly one collective (its allreduce);
//   * 2 real OS processes (examples/nopfs_worker, spawned with fork/exec
//     over a loopback rendezvous) complete a NoPFS run, agree with each
//     other, and agree with the threaded harness.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/sim_transport.hpp"
#include "net/socket_transport.hpp"
#include "runtime/harness.hpp"
#include "scenario/scenario.hpp"
#include "util/units.hpp"

namespace nopfs::runtime {
namespace {

// The job shape is the "worker-loopback" registry entry — the same entry
// examples/nopfs_worker resolves by default, which is what lets the spawn
// test compare in-process results against the spawned binaries.
constexpr std::uint64_t kSamples = 96;    // pinned against the registry below
constexpr int kEpochs = 2;
constexpr std::uint64_t kSeed = 2025;
constexpr std::uint64_t kPerWorkerBatch = 4;

data::Dataset worker_dataset() {
  const scenario::Scenario& s = scenario::get("worker-loopback");
  EXPECT_EQ(s.worker.dataset.num_samples, kSamples);
  return scenario::worker_dataset(s);
}

RuntimeConfig worker_config(int world_size, baselines::LoaderKind kind) {
  const scenario::Scenario& s = scenario::get("worker-loopback");
  EXPECT_EQ(s.worker.epochs, kEpochs);
  EXPECT_EQ(s.worker.seed, kSeed);
  EXPECT_EQ(s.worker.per_worker_batch, kPerWorkerBatch);
  RuntimeConfig config = scenario::runtime_config(s, world_size);
  config.loader = kind;
  config.verify_content = true;
  return config;
}

std::uint64_t expected_verified(int world_size) {
  const std::uint64_t global = kPerWorkerBatch * static_cast<std::uint64_t>(world_size);
  return static_cast<std::uint64_t>(kEpochs) * (kSamples / global) * global;
}

/// Runs one rank of a socket world in this process (own devices, own
/// transport — exactly what a worker process does).
RuntimeResult run_socket_rank(const data::Dataset& dataset, const RuntimeConfig& config,
                              int rank, int world_size, std::uint16_t port) {
  WorkerEndpoint endpoint;
  endpoint.rank = rank;
  endpoint.world_size = world_size;
  endpoint.rendezvous_port = port;
  endpoint.timeout_s = 60.0;
  return run_distributed(dataset, config, endpoint);
}

TEST(DistributedRuntime, WorldSizeOneSocketMatchesSimTransportBitForBit) {
  const auto dataset = worker_dataset();
  // Naive is fully synchronous: every field of its result except wall-clock
  // is a pure function of the stream, so the comparison can be exact.
  const RuntimeConfig config = worker_config(1, baselines::LoaderKind::kNaive);

  const RuntimeResult threaded = run_training(dataset, config);
  const RuntimeResult socket =
      run_socket_rank(dataset, config, 0, 1, net::pick_free_port());

  EXPECT_EQ(socket.delivered_digest, threaded.delivered_digest);
  EXPECT_EQ(socket.verified_samples, threaded.verified_samples);
  EXPECT_EQ(socket.verification_failures, 0u);
  EXPECT_EQ(socket.stats.pfs_fetches, threaded.stats.pfs_fetches);
  EXPECT_EQ(socket.stats.local_fetches, threaded.stats.local_fetches);
  EXPECT_EQ(socket.stats.remote_fetches, threaded.stats.remote_fetches);
  EXPECT_EQ(socket.stats.cached_samples, threaded.stats.cached_samples);
  // Single synchronous worker: the MB accumulation order is identical, so
  // even the floating-point sums must be bitwise equal.
  EXPECT_EQ(socket.stats.pfs_mb, threaded.stats.pfs_mb);
  EXPECT_EQ(socket.stats.local_mb, threaded.stats.local_mb);
  EXPECT_EQ(socket.stats.remote_mb, threaded.stats.remote_mb);
}

TEST(DistributedRuntime, WorldSizeOneSocketMatchesSimTransportNoPFS) {
  const auto dataset = worker_dataset();
  const RuntimeConfig config = worker_config(1, baselines::LoaderKind::kNoPFS);

  const RuntimeResult threaded = run_training(dataset, config);
  const RuntimeResult socket =
      run_socket_rank(dataset, config, 0, 1, net::pick_free_port());

  // NoPFS prefetch threads race the consumer, so fetch-location counts are
  // timing-dependent; the delivered stream and its verification are not.
  EXPECT_EQ(socket.delivered_digest, threaded.delivered_digest);
  EXPECT_EQ(socket.verified_samples, threaded.verified_samples);
  EXPECT_EQ(socket.verified_samples, expected_verified(1));
  EXPECT_EQ(socket.verification_failures, 0u);
}

TEST(DistributedRuntime, TwoRankSocketWorldMatchesThreadedHarness) {
  const auto dataset = worker_dataset();
  const RuntimeConfig config = worker_config(2, baselines::LoaderKind::kNoPFS);

  const RuntimeResult threaded = run_training(dataset, config);

  const std::uint16_t port = net::pick_free_port();
  std::array<RuntimeResult, 2> results;
  std::array<std::string, 2> errors;
  std::vector<std::thread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([&, r] {
      try {
        results[static_cast<std::size_t>(r)] =
            run_socket_rank(dataset, config, r, 2, port);
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = ex.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  ASSERT_TRUE(errors[0].empty()) << errors[0];
  ASSERT_TRUE(errors[1].empty()) << errors[1];

  // The end-of-run allgather makes every rank report the job-wide totals.
  EXPECT_EQ(results[0].delivered_digest, results[1].delivered_digest);
  EXPECT_EQ(results[0].verified_samples, results[1].verified_samples);
  // And the socket world delivered exactly what the threaded world did.
  EXPECT_EQ(results[0].delivered_digest, threaded.delivered_digest);
  EXPECT_EQ(results[0].verified_samples, expected_verified(2));
  EXPECT_EQ(results[0].verification_failures, 0u);
}

/// Forwards to a SimTransport rank and counts its collectives.
class CountingTransport final : public net::Transport {
 public:
  explicit CountingTransport(net::Transport& inner) : inner_(inner) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  std::vector<net::Bytes> allgather(net::Bytes local) override {
    ++allgathers;
    return inner_.allgather(std::move(local));
  }
  void barrier() override {
    ++barriers;
    inner_.barrier();
  }
  void set_serve_handler(ServeHandler handler) override {
    inner_.set_serve_handler(std::move(handler));
  }
  std::optional<net::Bytes> fetch_sample(int peer, std::uint64_t id) override {
    return inner_.fetch_sample(peer, id);
  }
  bool fetch_sample_into(int peer, std::uint64_t id,
                         std::span<std::uint8_t> out) override {
    return inner_.fetch_sample_into(peer, id, out);
  }
  int pfs_adjust(int delta) override { return inner_.pfs_adjust(delta); }
  void set_pfs_listener(PfsListener listener) override {
    inner_.set_pfs_listener(std::move(listener));
  }
  [[nodiscard]] double transferred_mb() const override {
    return inner_.transferred_mb();
  }

  int barriers = 0;
  int allgathers = 0;

 private:
  net::Transport& inner_;
};

TEST(DistributedRuntime, OneCollectivePerTrainingStep) {
  // The step's allreduce is its only collective.  Set-up adds three
  // barriers (the NoPFS job's serve-handler fence, everyone ready, start
  // together) and two allgathers (the cache plans, the final stats).
  constexpr int kWorld = 2;
  const auto dataset = worker_dataset();
  const RuntimeConfig config = worker_config(kWorld, baselines::LoaderKind::kNoPFS);
  const int steps = kEpochs * static_cast<int>(kSamples / (kPerWorkerBatch * kWorld));

  tiers::RealClock clock;
  tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
  auto sims = net::make_sim_transports(kWorld, &cluster);
  std::vector<std::unique_ptr<CountingTransport>> counted;
  for (auto& sim : sims) counted.push_back(std::make_unique<CountingTransport>(*sim));
  std::array<RuntimeResult, kWorld> results;
  std::array<std::string, kWorld> errors;
  std::vector<std::thread> ranks;
  for (int r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&, r] {
      try {
        results[static_cast<std::size_t>(r)] = run_distributed(
            dataset, config, *counted[static_cast<std::size_t>(r)], &cluster);
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = ex.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (int r = 0; r < kWorld; ++r) {
    const auto i = static_cast<std::size_t>(r);
    ASSERT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(counted[i]->barriers, steps + 3) << "rank " << r;
    EXPECT_EQ(counted[i]->allgathers, 2) << "rank " << r;
    EXPECT_EQ(results[i].verified_samples, expected_verified(kWorld));
  }
}

// ---------------------------------------------------------------------------
// Real OS processes.

#ifdef NOPFS_WORKER_BIN

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Minimal extraction of `"key": value` from the worker's flat JSON.
std::string json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return {};
  auto begin = pos + needle.size();
  auto end = json.find_first_of(",\n}", begin);
  std::string value = json.substr(begin, end - begin);
  if (!value.empty() && value.front() == '"') value = value.substr(1, value.size() - 2);
  return value;
}

pid_t spawn_worker(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  static std::string binary = NOPFS_WORKER_BIN;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (auto& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  _exit(127);  // exec failed
}

TEST(DistributedRuntime, TwoProcessEndToEnd) {
  const std::uint16_t port = net::pick_free_port();
  const std::string rendezvous = "127.0.0.1:" + std::to_string(port);
  const std::string out0 = testing::TempDir() + "nopfs_worker_rank0.json";
  const std::string out1 = testing::TempDir() + "nopfs_worker_rank1.json";

  std::vector<pid_t> pids;
  for (int r = 0; r < 2; ++r) {
    pids.push_back(spawn_worker({
        "--rank", std::to_string(r), "--world-size", "2",
        "--rendezvous", rendezvous, "--loader", "nopfs",
        "--samples", std::to_string(kSamples), "--epochs", std::to_string(kEpochs),
        "--seed", std::to_string(kSeed),
        "--per-worker-batch", std::to_string(kPerWorkerBatch),
        "--time-scale", "50", "--timeout-s", "60",
        "--json-out", r == 0 ? out0 : out1,
    }));
    ASSERT_GT(pids.back(), 0) << "fork failed";
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "worker killed by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "worker exited nonzero";
  }

  const std::string json0 = slurp(out0);
  const std::string json1 = slurp(out1);
  ASSERT_FALSE(json0.empty());
  ASSERT_FALSE(json1.empty());

  // Both processes must agree on the job-wide (allgathered) result.
  EXPECT_EQ(json_field(json0, "delivered_digest"), json_field(json1, "delivered_digest"));
  EXPECT_EQ(json_field(json0, "verified_samples"), json_field(json1, "verified_samples"));
  EXPECT_EQ(json_field(json0, "verified_samples"),
            std::to_string(expected_verified(2)));
  EXPECT_EQ(json_field(json0, "verification_failures"), "0");

  // And the 2-process socket run delivered exactly what the 2-thread
  // SimTransport run delivers.
  const auto dataset = worker_dataset();
  const RuntimeConfig config = worker_config(2, baselines::LoaderKind::kNoPFS);
  const RuntimeResult threaded = run_training(dataset, config);
  std::ostringstream digest;
  digest << std::hex << threaded.delivered_digest;
  EXPECT_EQ(json_field(json0, "delivered_digest"), digest.str());
}

#endif  // NOPFS_WORKER_BIN

}  // namespace
}  // namespace nopfs::runtime

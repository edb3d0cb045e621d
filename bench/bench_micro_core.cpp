// google-benchmark microbenchmarks of the NoPFS core primitives: the cost
// the paper claims is negligible ("it only needs to compute the access
// sequence in advance, which is fast") is measured here, alongside the hot
// data structures.
//
// `--json [path]` switches to the perf-trajectory mode: instead of the
// google-benchmark suite, it measures simulate() throughput on the
// "micro-core" registry scenario, the sweep engine's 1-thread vs
// NOPFS_SWEEP_THREADS/8-thread wall-clock on the "micro-sweep" scenario
// grid, SocketTransport loopback round-trips, and the critical-path
// what-if walk rate on the "micro-critpath" recording, and writes the numbers as
// a flat `"results"` map (default BENCH_micro.json) whose keys are
// `<scenario>.<metric>` — stable across PRs, which is what lets CI diff
// them against bench/BENCH_baseline.json (tools/compare_bench.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include <condition_variable>
#include <mutex>

#include "core/access_stream.hpp"
#include "core/cache_policy.hpp"
#include "critpath/cp_attribution.hpp"
#include "critpath/cp_dep_graph.hpp"
#include "critpath/cp_registry.hpp"
#include "core/epoch_order_cache.hpp"
#include "core/frequency.hpp"
#include "core/perf_model.hpp"
#include "core/staging_buffer.hpp"
#include "data/dataset.hpp"
#include "net/socket_transport.hpp"
#include "scenario/scenario.hpp"
#include "sim/holder_table.hpp"
#include "sim/policies.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_service.hpp"
#include "tiers/params.hpp"
#include "util/rng.hpp"

using namespace nopfs;

namespace {

core::StreamConfig stream_config(std::uint64_t f, int n, int e) {
  core::StreamConfig config;
  config.seed = 42;
  config.num_samples = f;
  config.num_workers = n;
  config.num_epochs = e;
  config.global_batch = static_cast<std::uint64_t>(n) * 32;
  return config;
}

void BM_EpochShuffle(benchmark::State& state) {
  const auto f = static_cast<std::uint64_t>(state.range(0));
  const core::AccessStreamGenerator gen(stream_config(f, 16, 4));
  int epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.epoch_order(epoch % 4));
    ++epoch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f));
}
BENCHMARK(BM_EpochShuffle)->Arg(100'000)->Arg(1'000'000);

void BM_WorkerStream(benchmark::State& state) {
  const core::AccessStreamGenerator gen(
      stream_config(static_cast<std::uint64_t>(state.range(0)), 16, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.worker_stream(3));
  }
}
BENCHMARK(BM_WorkerStream)->Arg(100'000)->Arg(1'000'000);

void BM_FrequencyCount(benchmark::State& state) {
  const core::AccessStreamGenerator gen(
      stream_config(static_cast<std::uint64_t>(state.range(0)), 16, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::count_worker_frequencies(gen, 0));
  }
}
BENCHMARK(BM_FrequencyCount)->Arg(100'000)->Arg(1'000'000);

void BM_CachePlan(benchmark::State& state) {
  const auto f = static_cast<std::uint64_t>(state.range(0));
  const core::AccessStreamGenerator gen(stream_config(f, 16, 8));
  const data::Dataset dataset("bm", std::vector<float>(f, 0.1f));
  tiers::SystemParams sys = tiers::presets::sim_cluster(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_cache_plan(gen, 0, dataset, sys.node));
  }
}
BENCHMARK(BM_CachePlan)->Arg(100'000)->Arg(1'000'000);

void BM_ChooseFetch(benchmark::State& state) {
  const core::PerfModel model(tiers::presets::lassen(256));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.choose_fetch(0.1, static_cast<int>(i % 2) - 1, 0, 3, 256));
    ++i;
  }
}
BENCHMARK(BM_ChooseFetch);

void BM_StagingBufferRoundTrip(benchmark::State& state) {
  core::StagingBuffer buffer(1 << 20);
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload(4096, 7);
  for (auto _ : state) {
    auto slot = buffer.reserve(seq, seq, payload.size());
    std::copy(payload.begin(), payload.end(), slot->data.begin());
    buffer.commit(seq);
    auto sample = buffer.consume(seq);
    benchmark::DoNotOptimize(sample->data.data());
    buffer.release(seq);
    ++seq;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_StagingBufferRoundTrip);

void BM_HolderTableLookup(benchmark::State& state) {
  const std::uint64_t f = 1'000'000;
  sim::HolderTable table(f, 8);
  util::Rng rng(7);
  for (std::uint64_t k = 0; k < f; ++k) {
    table.add(k, static_cast<int>(rng.uniform_below(64)), 0);
    if (k % 2 == 0) table.mark_cached_at(k, 0);
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(k % f, 3));
    k += 7919;
  }
}
BENCHMARK(BM_HolderTableLookup);

void BM_PlanEncodeDecode(benchmark::State& state) {
  const auto f = static_cast<std::uint64_t>(state.range(0));
  const core::AccessStreamGenerator gen(stream_config(f, 8, 4));
  const data::Dataset dataset("bm", std::vector<float>(f, 0.1f));
  const auto plan =
      core::compute_cache_plan(gen, 0, dataset, tiers::presets::sim_cluster(8).node);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_plan(core::encode_plan(plan)));
  }
}
BENCHMARK(BM_PlanEncodeDecode)->Arg(100'000);

// ---------------------------------------------------------------------------
// --json perf-trajectory mode

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The 4-policy x 4-scale sweep grid ("micro-sweep" scenario) the speedup
/// target is defined on — the registry's canonical cell order (empty
/// batch_sizes, so gpu outer -> policy inner, exactly the grid this bench
/// used to build by hand).
std::vector<sim::SweepPoint> sweep_grid(const data::Dataset& dataset) {
  const scenario::Scenario& scn = scenario::get("micro-sweep");
  return scenario::sweep_points(scn, dataset, 1.0, scn.sim.seed);
}

double run_sweep_s(const std::vector<sim::SweepPoint>& points, int threads) {
  core::EpochOrderCache::global().clear();  // cold permutations per run
  const sim::SweepRunner runner({threads});
  const double start = now_s();
  const auto results = runner.run(points);
  const double elapsed = now_s() - start;
  if (results.size() != points.size()) throw std::logic_error("sweep lost cells");
  return elapsed;
}

/// Loopback fetch round-trips of the multi-process transport: a 2-rank
/// socket world, rank 1 serving `sample_bytes` payloads, rank 0 fetching
/// from `fetch_threads` concurrent caller threads (the transport's real
/// operating point: every loader thread of a process shares one reactor
/// connection).  Returns {fetches_per_second, mb_per_second} aggregated
/// over all threads.
std::pair<double, double> socket_fetch_throughput(std::size_t sample_bytes,
                                                  int fetches,
                                                  int fetch_threads = 1) {
  const std::uint16_t port = net::pick_free_port();
  std::unique_ptr<net::SocketTransport> server;
  // Both endpoint failure modes must reach the caller as an exception, not
  // std::terminate: the server lambda swallows its own (the client then
  // times out and reports), and the client path joins before rethrowing.
  std::thread server_thread([&] {
    try {
      net::SocketOptions options;
      options.rank = 1;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      server = std::make_unique<net::SocketTransport>(options);
      server->set_serve_handler(
          [sample_bytes](std::uint64_t id) {
            return std::make_shared<const net::Bytes>(sample_bytes,
                                                      static_cast<std::uint8_t>(id));
          });
      server->barrier();  // handler installed
      server->barrier();  // client done fetching
    } catch (const std::exception& ex) {
      std::cerr << "socket bench server: " << ex.what() << "\n";
    }
  });
  try {
    net::SocketOptions options;
    options.rank = 0;
    options.world_size = 2;
    options.rendezvous_port = port;
    options.timeout_s = 30.0;
    net::SocketTransport client(options);
    client.barrier();
    const double start = now_s();
    std::atomic<bool> failed{false};
    std::vector<std::thread> fetchers;
    fetchers.reserve(static_cast<std::size_t>(fetch_threads));
    for (int t = 0; t < fetch_threads; ++t) {
      fetchers.emplace_back([&, t] {
        const int share = fetches / fetch_threads +
                          (t < fetches % fetch_threads ? 1 : 0);
        for (int i = 0; i < share; ++i) {
          const auto bytes =
              client.fetch_sample(1, static_cast<std::uint64_t>(t * fetches + i));
          if (!bytes.has_value() || bytes->size() != sample_bytes) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& fetcher : fetchers) fetcher.join();
    if (failed.load()) throw std::runtime_error("socket bench: fetch failed");
    const double elapsed = now_s() - start;
    client.barrier();
    server_thread.join();
    const double per_s = elapsed > 0.0 ? fetches / elapsed : 0.0;
    return {per_s, per_s * static_cast<double>(sample_bytes) / (1024.0 * 1024.0)};
  } catch (...) {
    if (server_thread.joinable()) server_thread.join();
    throw;
  }
}

/// Pipelined loopback fetch throughput: one caller thread keeps `depth`
/// kFetch requests in flight on the single reactor connection via the
/// ticket API (fetch_sample_start/finish), so the wire carries a request
/// train instead of strict request/reply ping-pong.  This isolates the
/// reactor's pipelining win from caller-thread concurrency.  Returns
/// fetches per second.
double socket_fetch_pipelined_throughput(std::size_t sample_bytes, int fetches,
                                         int depth) {
  const std::uint16_t port = net::pick_free_port();
  std::unique_ptr<net::SocketTransport> server;
  std::thread server_thread([&] {
    try {
      net::SocketOptions options;
      options.rank = 1;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      server = std::make_unique<net::SocketTransport>(options);
      server->set_serve_handler(
          [sample_bytes](std::uint64_t id) {
            return std::make_shared<const net::Bytes>(sample_bytes,
                                                      static_cast<std::uint8_t>(id));
          });
      server->barrier();  // handler installed
      server->barrier();  // client done fetching
    } catch (const std::exception& ex) {
      std::cerr << "socket pipelined bench server: " << ex.what() << "\n";
    }
  });
  try {
    net::SocketOptions options;
    options.rank = 0;
    options.world_size = 2;
    options.rendezvous_port = port;
    options.timeout_s = 30.0;
    net::SocketTransport client(options);
    client.barrier();
    const double start = now_s();
    std::deque<net::SocketTransport::FetchTicket> window;
    int issued = 0;
    int done = 0;
    while (done < fetches) {
      while (issued < fetches && static_cast<int>(window.size()) < depth) {
        window.push_back(
            client.fetch_sample_start(1, static_cast<std::uint64_t>(issued++)));
      }
      const auto bytes = client.fetch_sample_finish(window.front());
      window.pop_front();
      if (!bytes.has_value() || bytes->size() != sample_bytes) {
        throw std::runtime_error("socket pipelined bench: fetch failed");
      }
      ++done;
    }
    const double elapsed = now_s() - start;
    client.barrier();
    server_thread.join();
    return elapsed > 0.0 ? fetches / elapsed : 0.0;
  } catch (...) {
    if (server_thread.joinable()) server_thread.join();
    throw;
  }
}

/// Cross-thread task-injection rate of the reactor itself: one producer
/// thread post()s a train of tasks and waits for the last to run (FIFO
/// order makes the last task the completion marker).  This prices the
/// eventfd wake + task-queue handoff every transport operation pays before
/// any socket I/O happens.  Returns posts per second.
double reactor_posts_throughput(int posts) {
  net::Reactor reactor;
  reactor.start();
  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;
  const double start = now_s();
  for (int i = 0; i < posts; ++i) {
    if (i + 1 < posts) {
      reactor.post([] {});
    } else {
      reactor.post([&] {
        {
          const std::scoped_lock lock(mutex);
          finished = true;
        }
        cv.notify_one();
      });
    }
  }
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return finished; });
  }
  const double elapsed = now_s() - start;
  reactor.stop();
  return elapsed > 0.0 ? posts / elapsed : 0.0;
}

/// SharedPfs contention-protocol round-trips over loopback: rank 1 sends
/// kPfsAcquire/kPfsRelease to the rank-0 authoritative counter and waits
/// for the kPfsGamma gossip to come back — one full acquire/release cycle
/// is two round trips.  Returns cycles per second.
double pfs_acquire_release_throughput(int cycles) {
  const std::uint16_t port = net::pick_free_port();
  std::unique_ptr<net::SocketTransport> root;
  std::thread root_thread([&] {
    try {
      net::SocketOptions options;
      options.rank = 0;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      root = std::make_unique<net::SocketTransport>(options);
      root->barrier();  // world up
      root->barrier();  // client done
    } catch (const std::exception& ex) {
      std::cerr << "pfs bench root: " << ex.what() << "\n";
    }
  });
  try {
    net::SocketOptions options;
    options.rank = 1;
    options.world_size = 2;
    options.rendezvous_port = port;
    options.timeout_s = 30.0;
    net::SocketTransport client(options);
    client.barrier();

    std::mutex mutex;
    std::condition_variable cv;
    int gamma = -1;
    client.set_pfs_listener([&](int g) {
      const std::scoped_lock lock(mutex);
      gamma = g;
      cv.notify_all();
    });
    auto await_gamma = [&](int want) {
      std::unique_lock lock(mutex);
      if (!cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return gamma == want; })) {
        throw std::runtime_error("pfs bench: gamma gossip timed out");
      }
    };

    const double start = now_s();
    for (int i = 0; i < cycles; ++i) {
      client.pfs_adjust(+1);
      await_gamma(1);
      client.pfs_adjust(-1);
      await_gamma(0);
    }
    const double elapsed = now_s() - start;
    client.set_pfs_listener({});
    client.barrier();
    root_thread.join();
    return elapsed > 0.0 ? cycles / elapsed : 0.0;
  } catch (...) {
    if (root_thread.joinable()) root_thread.join();
    throw;
  }
}

/// Batched gamma-gossip transition rate: same 2-rank world, but the client
/// transport batches (5 ms flush windows, 256-transition batches), so a
/// pfs_adjust is an enqueue + local-estimate update — the per-transition
/// send cost is OFF the reader thread.  The client pumps `transitions`
/// alternating +1/-1 edges back to back, then a final held acquire is
/// awaited end-to-end so every queued frame is provably drained before the
/// clock stops.  Returns transitions per second.
double pfs_gossip_throughput(int transitions) {
  const std::uint16_t port = net::pick_free_port();
  std::unique_ptr<net::SocketTransport> root;
  std::thread root_thread([&] {
    try {
      net::SocketOptions options;
      options.rank = 0;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      root = std::make_unique<net::SocketTransport>(options);
      root->barrier();  // world up
      root->barrier();  // client done
    } catch (const std::exception& ex) {
      std::cerr << "pfs gossip bench root: " << ex.what() << "\n";
    }
  });
  try {
    net::SocketOptions options;
    options.rank = 1;
    options.world_size = 2;
    options.rendezvous_port = port;
    options.timeout_s = 30.0;
    options.gossip = net::GossipConfig{0.005, 256};
    options.time_scale = 1.0;
    net::SocketTransport client(options);
    client.barrier();

    std::mutex mutex;
    std::condition_variable cv;
    int gamma = -1;
    client.set_pfs_listener([&](int g) {
      const std::scoped_lock lock(mutex);
      gamma = g;
      cv.notify_all();
    });

    const double start = now_s();
    for (int i = 0; i < transitions / 2; ++i) {
      client.pfs_adjust(+1);
      client.pfs_adjust(-1);
    }
    // Drain marker: hold a WEIGHT-2 acquire until the root's authoritative
    // view of it comes back.  Gamma 2 is unreachable while the +1/-1 pump
    // is in flight, so a stale broadcast from an earlier window's peak
    // cannot satisfy the wait — and every earlier frame rides the same
    // FIFO channel, so seeing 2 proves the queue fully drained.
    client.pfs_adjust(+2);
    client.flush_pfs_gossip();
    {
      std::unique_lock lock(mutex);
      if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return gamma == 2; })) {
        throw std::runtime_error("pfs gossip bench: drain marker timed out");
      }
    }
    const double elapsed = now_s() - start;
    client.pfs_adjust(-2);
    client.flush_pfs_gossip();
    client.set_pfs_listener({});
    client.barrier();
    root_thread.join();
    return elapsed > 0.0 ? (transitions + 1) / elapsed : 0.0;
  } catch (...) {
    if (root_thread.joinable()) root_thread.join();
    throw;
  }
}

/// Best-of-N wall-clock for gated throughput keys: scheduler noise on a
/// shared CI runner only ever makes a run SLOWER, so the max over a few
/// repetitions estimates the machine's capability; a genuine regression
/// slows every repetition and still trips the gate.
template <typename Fn>
double best_of(int repetitions, Fn&& measure) {
  double best = 0.0;
  for (int i = 0; i < repetitions; ++i) best = std::max(best, measure());
  return best;
}

int run_json_mode(const std::string& path) {
  // simulate() throughput: NoPFS runs of the "micro-core" scenario,
  // accesses / wall-clock.
  const scenario::Scenario& micro = scenario::get("micro-core");
  const data::Dataset dataset = scenario::sim_dataset(micro, 1.0, micro.sim.seed);
  const sim::SimConfig config =
      scenario::sim_config(micro, micro.sim.gpu_counts.front(), 1.0, micro.sim.seed);

  sim::SimResult result;
  double sim_s = 1e300;
  for (int i = 0; i < 3; ++i) {
    auto policy = sim::make_policy(micro.sim.policies.front());
    const double sim_start = now_s();
    result = sim::simulate(config, dataset, *policy);
    sim_s = std::min(sim_s, now_s() - sim_start);
  }
  core::StreamConfig stream;
  stream.num_samples = dataset.num_samples();
  stream.num_workers = config.system.num_workers;
  stream.num_epochs = config.num_epochs;
  stream.global_batch = config.global_batch();
  // Per-epoch consumption matches the engine: min(F, T*B) (with drop_last
  // the product never exceeds F, without it the clamp is load-bearing).
  const double accesses =
      static_cast<double>(std::min<std::uint64_t>(
          stream.num_samples, stream.iterations_per_epoch() * stream.global_batch)) *
      config.num_epochs;
  const double samples_per_s = sim_s > 0.0 ? accesses / sim_s : 0.0;

  // Sweep wall-clock: 1 thread vs 8 (or a valid NOPFS_SWEEP_THREADS).
  const auto points = sweep_grid(dataset);
  int threads = 8;  // the acceptance grid is defined at 8 threads
  if (const char* env = std::getenv("NOPFS_SWEEP_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) threads = n;
  }
  const double serial_s = run_sweep_s(points, 1);
  const double parallel_s = run_sweep_s(points, threads);
  // On a 1-hardware-thread runner SweepRunner falls back to the inline
  // serial path for ANY requested width (src/sim/sweep.cpp), so both runs
  // execute the same code and the measured ratio is pure timing noise
  // around 1 — report the definitional 1.0 instead of the noise (the
  // meta.sweep_serial_fallback flag records that this happened).
  const bool sweep_serial_fallback = std::thread::hardware_concurrency() <= 1;
  const double speedup = sweep_serial_fallback ? 1.0
                         : parallel_s > 0.0    ? serial_s / parallel_s
                                               : 0.0;

  // Sweep-service scheduling rate (DESIGN.md Sec. 10): the "sweep-service"
  // grid through the 1-rank service — same simulate() cells as a plain
  // runner PLUS the scheduler's grant/submit/bitmap machinery, so a
  // regression in the service path shows up here even without a world.
  const scenario::Scenario& svc = scenario::get("sweep-service");
  const data::Dataset svc_dataset = scenario::sim_dataset(svc, 1.0, svc.sim.seed);
  const auto svc_points = scenario::sweep_points(svc, svc_dataset, 1.0, svc.sim.seed);
  const double sweep_service_cells_per_s = best_of(3, [&] {
    core::EpochOrderCache::global().clear();
    const sim::SweepServiceReport report =
        sim::run_sweep_service(nullptr, svc_points, {});
    if (report.stats.completed_cells != svc_points.size()) {
      throw std::logic_error("sweep service lost cells");
    }
    return report.stats.wall_s > 0.0
               ? static_cast<double>(report.stats.completed_cells) /
                     report.stats.wall_s
               : 0.0;
  });

  // SocketTransport loopback round-trips (the multi-process backend's hot
  // path): small-sample RPC rate at the transport's operating point (8
  // concurrent caller threads sharing the reactor connection, as loader
  // threads do), single-caller pipelined rate (ticket API, depth 64),
  // large-sample streaming rate, and the SharedPfs contention protocol's
  // acquire/release cycle rate.  These gate the PR, so each takes the best
  // of 3 runs long enough (thousands of round-trips) that scheduler noise
  // stays under the comparison tolerance.
  double small_mbps = 0.0;
  double large_mbps = 0.0;
  const double small_per_s = best_of(3, [&] {
    const auto [per_s, mbps] = socket_fetch_throughput(4 * 1024, 16'000, 8);
    small_mbps = std::max(small_mbps, mbps);
    return per_s;
  });
  const double pipelined_per_s = best_of(3, [&] {
    return socket_fetch_pipelined_throughput(4 * 1024, 16'000, 64);
  });
  const double reactor_posts_per_s =
      best_of(3, [&] { return reactor_posts_throughput(200'000); });
  const double large_per_s = best_of(3, [&] {
    const auto [per_s, mbps] = socket_fetch_throughput(1024 * 1024, 300);
    large_mbps = std::max(large_mbps, mbps);
    return per_s;
  });
  const double pfs_cycles_per_s =
      best_of(3, [&] { return pfs_acquire_release_throughput(2'000); });
  const double pfs_gossip_per_s =
      best_of(3, [&] { return pfs_gossip_throughput(200'000); });

  // Critical-path walk rate: record the "micro-critpath" scenario's
  // dependence graph once, then time repeated attribution walks under the
  // standard cost models — the engine behind `--critpath` what-if sweeps
  // (one recording, many re-costed walks).
  const scenario::Scenario& critscn = scenario::get("micro-critpath");
  const data::Dataset critdata =
      scenario::sim_dataset(critscn, 1.0, critscn.sim.seed);
  sim::SimConfig critconfig = scenario::sim_config(
      critscn, critscn.sim.gpu_counts.front(), 1.0, critscn.sim.seed);
  critpath::DepGraphBuilder builder;
  critconfig.recorder = &builder;
  {
    auto policy = sim::make_policy(critscn.sim.policies.front());
    (void)sim::simulate(critconfig, critdata, *policy);
  }
  std::vector<std::unique_ptr<critpath::CostModel>> models;
  for (const char* name : {"recorded", "pfs=2x", "nic=0.5x"}) {
    models.push_back(critpath::Registry::instance().make(name));
  }
  (void)critpath::attribute(builder.graph());  // warm the in-edge CSR
  const double critpath_edges_per_s = best_of(3, [&] {
    const int walks = 6;
    double guard = 0.0;  // keep the walks observable
    const double start = now_s();
    for (int w = 0; w < walks; ++w) {
      for (const auto& model : models) {
        guard += critpath::attribute(builder.graph(), model.get()).end_to_end_s;
      }
    }
    const double elapsed = now_s() - start;
    if (!(guard > 0.0) || elapsed <= 0.0) return 0.0;
    return static_cast<double>(builder.graph().num_edges()) * walks *
           static_cast<double>(models.size()) / elapsed;
  });

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out.precision(6);
  // Flat scenario-tagged keys: tools/compare_bench.py diffs `results`
  // against bench/BENCH_baseline.json, so keys must stay stable across PRs.
  // Throughput keys (`*_per_s`, `*_mbps`) gate the PR; wall-clock and
  // speedup keys are advisory (meaningless on 1-core CI runners).
  out << "{\n"
      << "  \"schema\": 2,\n"
      << "  \"meta\": {\n"
      << "    \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"sweep_threads\": " << threads << ",\n"
      << "    \"sweep_cells\": " << points.size() << ",\n"
      << "    \"sweep_serial_fallback\": " << (sweep_serial_fallback ? "true" : "false")
      << ",\n"
      << "    \"sweep_service_cells\": " << svc_points.size() << ",\n"
      << "    \"simulate_accesses\": " << static_cast<std::uint64_t>(accesses) << ",\n"
      << "    \"simulate_total_sim_time_s\": " << result.total_s << "\n"
      << "  },\n"
      << "  \"results\": {\n"
      << "    \"micro-core.simulate.samples_per_s\": " << samples_per_s << ",\n"
      << "    \"micro-core.simulate.wall_s\": " << sim_s << ",\n"
      << "    \"micro-sweep.serial_wall_s\": " << serial_s << ",\n"
      << "    \"micro-sweep.parallel_wall_s\": " << parallel_s << ",\n"
      << "    \"micro-sweep.speedup\": " << speedup << ",\n"
      << "    \"sweep-service.cells_per_s\": " << sweep_service_cells_per_s << ",\n"
      << "    \"socket-loopback.fetch_4k_per_s\": " << small_per_s << ",\n"
      << "    \"socket-loopback.fetch_4k_mbps\": " << small_mbps << ",\n"
      << "    \"socket-loopback.fetch_4k_pipelined_epoll_per_s\": "
      << pipelined_per_s << ",\n"
      << "    \"reactor.posts_per_s\": " << reactor_posts_per_s << ",\n"
      << "    \"socket-loopback.fetch_1m_per_s\": " << large_per_s << ",\n"
      << "    \"socket-loopback.fetch_1m_mbps\": " << large_mbps << ",\n"
      << "    \"socket-loopback.pfs_cycles_per_s\": " << pfs_cycles_per_s << ",\n"
      << "    \"socket-loopback.pfs_gossip_transitions_per_s\": " << pfs_gossip_per_s
      << ",\n"
      << "    \"micro-critpath.critpath_edges_per_s\": " << critpath_edges_per_s
      << "\n"
      << "  }\n"
      << "}\n";
  out.close();
  std::cout << "simulate: " << samples_per_s << " samples/s  |  sweep: " << serial_s
            << " s @1t -> " << parallel_s << " s @" << threads << "t  ("
            << speedup << "x)\nsweep service: " << sweep_service_cells_per_s
            << " cells/s (" << svc_points.size()
            << "-cell grid, 1 rank)\nsocket fetch: " << small_per_s
            << " rpc/s @4K(8t), pipelined @4K(64-deep): " << pipelined_per_s
            << " rpc/s, " << large_mbps << " MB/s @1M  |  reactor posts: "
            << reactor_posts_per_s << "/s  |  pfs acquire/release: "
            << pfs_cycles_per_s << " cycles/s  |  batched gossip: "
            << pfs_gossip_per_s << " transitions/s\ncritpath walks: "
            << critpath_edges_per_s << " edges/s ("
            << builder.graph().num_edges() << "-edge graph)\nwrote " << path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const std::string path =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1] : "BENCH_micro.json";
      return run_json_mode(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

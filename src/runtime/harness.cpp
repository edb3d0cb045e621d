#include "runtime/harness.hpp"

#include <barrier>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/access_stream.hpp"
#include "core/sample_source.hpp"
#include "data/materialize.hpp"
#include "net/fault_transport.hpp"
#include "net/shared_pfs.hpp"
#include "net/sim_transport.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "runtime/fault_injection.hpp"
#include "tiers/clock.hpp"
#include "tiers/devices.hpp"
#include "util/log.hpp"

namespace nopfs::runtime {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one rank produces beyond timings: everything that must be
/// aggregated job-wide (and is deterministic, unlike wall-clock).
struct WorkerOutcome {
  core::JobStats stats;
  std::uint64_t verified = 0;
  std::uint64_t failures = 0;
  std::uint64_t digest = 0;
  int pfs_peak_gamma = 0;
};

// FNV-1a over the bytes of each delivered sample id, in delivery order.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void digest_push(std::uint64_t& digest, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    digest = (digest ^ ((value >> shift) & 0xff)) * kFnvPrime;
  }
}

/// Rank-keyed finalizer (splitmix64): per-rank digests are combined by XOR,
/// so the combination is world-order independent but still rank-sensitive.
std::uint64_t digest_of_rank(int rank, std::uint64_t digest) {
  std::uint64_t z =
      digest + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(rank) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

net::Bytes pack_outcome(const WorkerOutcome& outcome) {
  net::Bytes out;
  net::wire::put_u64(out, outcome.stats.local_fetches);
  net::wire::put_u64(out, outcome.stats.remote_fetches);
  net::wire::put_u64(out, outcome.stats.pfs_fetches);
  net::wire::put_u64(out, outcome.stats.remote_misses);
  net::wire::put_u64(out, outcome.stats.cached_samples);
  net::wire::put_f64(out, outcome.stats.local_mb);
  net::wire::put_f64(out, outcome.stats.remote_mb);
  net::wire::put_f64(out, outcome.stats.pfs_mb);
  net::wire::put_f64(out, outcome.stats.stall_s);
  net::wire::put_u64(out, outcome.verified);
  net::wire::put_u64(out, outcome.failures);
  net::wire::put_u64(out, outcome.digest);
  net::wire::put_u32(out, static_cast<std::uint32_t>(outcome.pfs_peak_gamma));
  return out;
}

WorkerOutcome unpack_outcome(const net::Bytes& bytes) {
  net::wire::Reader reader(bytes);
  WorkerOutcome outcome;
  outcome.stats.local_fetches = reader.u64();
  outcome.stats.remote_fetches = reader.u64();
  outcome.stats.pfs_fetches = reader.u64();
  outcome.stats.remote_misses = reader.u64();
  outcome.stats.cached_samples = reader.u64();
  outcome.stats.local_mb = reader.f64();
  outcome.stats.remote_mb = reader.f64();
  outcome.stats.pfs_mb = reader.f64();
  outcome.stats.stall_s = reader.f64();
  outcome.verified = reader.u64();
  outcome.failures = reader.u64();
  outcome.digest = reader.u64();
  outcome.pfs_peak_gamma = static_cast<int>(reader.u32());
  return outcome;
}

void accumulate(RuntimeResult& result, int rank, const WorkerOutcome& outcome) {
  result.stats.local_fetches += outcome.stats.local_fetches;
  result.stats.remote_fetches += outcome.stats.remote_fetches;
  result.stats.pfs_fetches += outcome.stats.pfs_fetches;
  result.stats.remote_misses += outcome.stats.remote_misses;
  result.stats.local_mb += outcome.stats.local_mb;
  result.stats.remote_mb += outcome.stats.remote_mb;
  result.stats.pfs_mb += outcome.stats.pfs_mb;
  result.stats.stall_s += outcome.stats.stall_s;
  result.stats.cached_samples += outcome.stats.cached_samples;
  result.verified_samples += outcome.verified;
  result.verification_failures += outcome.failures;
  result.delivered_digest ^= digest_of_rank(rank, outcome.digest);
  if (outcome.pfs_peak_gamma > result.pfs_peak_gamma) {
    result.pfs_peak_gamma = outcome.pfs_peak_gamma;
  }
}

/// Wall-clock marks the recording rank advances as the run progresses.
struct TimingMarks {
  double run_start = 0.0;
  double epoch_mark = 0.0;
  double batch_mark = 0.0;
};

/// Validated stream geometry shared by both launch modes.
core::StreamConfig make_stream_config(const data::Dataset& dataset,
                                      const RuntimeConfig& config) {
  core::StreamConfig stream_config;
  stream_config.seed = config.seed;
  stream_config.num_samples = dataset.num_samples();
  stream_config.num_workers = config.system.num_workers;
  stream_config.num_epochs = config.num_epochs;
  stream_config.global_batch = config.global_batch();
  stream_config.drop_last = config.drop_last;
  stream_config.validate();
  if (!config.drop_last) {
    throw std::invalid_argument("runtime harness: lockstep requires drop_last");
  }
  return stream_config;
}

/// The per-rank training loop, identical across launch modes.  `sync` is
/// the per-iteration allreduce stand-in (std::barrier or Transport
/// barrier); when `record` is set this rank writes timings into `result`.
/// `rank` selects the fault plan's straggler skew: a straggler's compute
/// sleep is stretched by its factor, so it delivers the same samples in
/// the same order, just slower — the digest is unchanged by design.
void worker_loop(const data::Dataset& dataset, const RuntimeConfig& config,
                 int rank, baselines::Loader& loader, std::uint64_t iters,
                 std::uint64_t local_batch, const std::function<void()>& sync,
                 bool record, TimingMarks& marks, RuntimeResult& result,
                 WorkerOutcome& outcome) {
  const double compute_mbps = config.system.node.compute_mbps;
  const double straggler = config.faults.straggler_factor(rank);
  tiers::Pacer compute(tiers::real_clock());
  outcome.digest = kFnvOffset;
  for (int e = 0; e < config.num_epochs; ++e) {
    for (std::uint64_t h = 0; h < iters; ++h) {
      for (std::uint64_t l = 0; l < local_batch; ++l) {
        auto sample = loader.next();
        if (!sample.has_value()) {
          throw std::runtime_error(loader.name() + ": stream exhausted prematurely");
        }
        digest_push(outcome.digest, sample->id());
        if (config.verify_content) {
          if (data::verify_sample_content(sample->id(), sample->view())) {
            ++outcome.verified;
          } else {
            ++outcome.failures;
          }
        }
        if (!config.skip_compute && compute_mbps > 0.0) {
          const double virtual_s =
              dataset.size_mb(sample->id()) / compute_mbps * straggler;
          compute.charge(virtual_s / config.time_scale);
        }
      }
      // The allreduce: every worker waits for the slowest.
      sync();
      if (record) {
        const double t = now_s();
        const double batch_virtual = (t - marks.batch_mark) * config.time_scale;
        if (e == 0) {
          result.batch_s_epoch0.push_back(batch_virtual);
        } else {
          result.batch_s_rest.push_back(batch_virtual);
        }
        marks.batch_mark = t;
      }
      sync();  // recording done; next iteration may start
    }
    if (record) {
      const double t = now_s();
      result.epoch_s.push_back((t - marks.epoch_mark) * config.time_scale);
      marks.epoch_mark = t;
    }
  }
  outcome.stats = loader.stats();
}

/// total_s must not include post-run teardown skew; the epoch times are
/// the precise measurement, so reconcile to their sum when available.
void reconcile_total(RuntimeResult& result, double run_start, double time_scale) {
  result.total_s = (now_s() - run_start) * time_scale;
  double epoch_total = 0.0;
  for (const double e : result.epoch_s) epoch_total += e;
  if (epoch_total > 0.0) result.total_s = epoch_total;
}

baselines::LoaderContext make_loader_context(const data::Dataset& dataset,
                                             const RuntimeConfig& config, int rank,
                                             core::SampleSource& source,
                                             net::Transport* transport,
                                             tiers::WorkerDevices* devices) {
  baselines::LoaderContext ctx;
  ctx.dataset = &dataset;
  ctx.system = &config.system;
  ctx.rank = rank;
  ctx.source = &source;
  ctx.transport = transport;
  ctx.devices = devices;
  ctx.seed = config.seed;
  ctx.num_epochs = config.num_epochs;
  ctx.global_batch = config.global_batch();
  ctx.drop_last = config.drop_last;
  ctx.time_scale = config.time_scale;
  ctx.threads = config.loader_threads;
  ctx.lookahead = config.lookahead;
  ctx.router = config.router;
  return ctx;
}

}  // namespace

int reader_threads_per_rank(const RuntimeConfig& config) {
  int threads = config.loader_threads;
  if (config.loader == baselines::LoaderKind::kNoPFS) {
    threads = config.system.node.staging.prefetch_threads;
    for (const auto& sc : config.system.node.classes) threads += sc.prefetch_threads;
  }
  return threads > 1 ? threads : 1;
}

RuntimeResult run_training(const data::Dataset& dataset, const RuntimeConfig& config) {
  const int n = config.system.num_workers;
  if (n <= 0) throw std::invalid_argument("run_training: num_workers must be positive");

  // Shared substrate.
  tiers::RealClock clock;
  tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
  if (config.pfs_thread_weighted_gamma) {
    const int weight = reader_threads_per_rank(config);
    for (int rank = 0; rank < n; ++rank) {
      cluster.pfs().set_reader_threads(rank, weight);
    }
  }
  auto transports = net::make_sim_transports(n, &cluster);
  // Fault seam: scripted slow-PFS bursts wrap the shared PFS (no-op and
  // unconstructed when the plan is empty).
  std::optional<FaultPfs> fault_pfs;
  tiers::PfsDevice* pfs = &cluster.pfs();
  if (!config.faults.pfs_bursts.empty()) {
    fault_pfs.emplace(cluster.pfs(), config.faults, config.time_scale);
    pfs = &*fault_pfs;
  }
  core::SyntheticPfsSource source(dataset, pfs);

  const core::StreamConfig stream_config = make_stream_config(dataset, config);
  const std::uint64_t iters = stream_config.iterations_per_epoch();
  const std::uint64_t local_b = stream_config.local_batch();

  RuntimeResult result;
  std::vector<WorkerOutcome> outcomes(static_cast<std::size_t>(n));

  std::barrier sync(n);
  // Timing starts after every loader is ready (post-start barrier): loader
  // setup is real CPU work that must not be multiplied by time_scale.
  TimingMarks marks;

  auto worker_main = [&](int rank) {
    try {
      // Fault seam: scripted connection drops wrap this rank's transport.
      net::Transport* transport = transports[static_cast<std::size_t>(rank)].get();
      std::optional<net::FaultTransport> fault_transport;
      if (!config.faults.drops.empty()) {
        fault_transport.emplace(*transport, config.faults, config.time_scale);
        transport = &*fault_transport;
      }
      auto ctx = make_loader_context(dataset, config, rank, source, transport,
                                     &cluster.worker(rank));
      auto loader = baselines::make_loader(config.loader, ctx);
      loader->start();
      sync.arrive_and_wait();  // everyone ready
      if (rank == 0) {
        marks.run_start = now_s();
        marks.epoch_mark = marks.run_start;
        marks.batch_mark = marks.run_start;
      }
      sync.arrive_and_wait();  // clock set; start together

      worker_loop(dataset, config, rank, *loader, iters, local_b,
                  [&sync] { sync.arrive_and_wait(); }, rank == 0, marks, result,
                  outcomes[static_cast<std::size_t>(rank)]);
    } catch (const std::exception& ex) {
      util::log_error("worker ", rank, " failed: ", ex.what());
      // Release peers stuck on the barrier by aborting the run.
      std::terminate();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) workers.emplace_back(worker_main, rank);
  for (auto& worker : workers) worker.join();

  reconcile_total(result, marks.run_start, config.time_scale);
  for (int rank = 0; rank < n; ++rank) {
    accumulate(result, rank, outcomes[static_cast<std::size_t>(rank)]);
  }
  result.pfs_peak_gamma = cluster.pfs().peak_clients();
  return result;
}

RankDevices make_rank_devices(const RuntimeConfig& config, net::Transport& transport,
                              tiers::EmulatedCluster* existing) {
  RankDevices devices;
  if (existing == nullptr) {
    auto clock = std::make_unique<tiers::RealClock>();
    devices.cluster = std::make_unique<tiers::EmulatedCluster>(
        *clock, config.system, config.time_scale);
    devices.clock = std::move(clock);
    existing = devices.cluster.get();
  }
  devices.worker = &existing->worker(transport.rank());
  if (transport.world_size() > 1 && config.shared_pfs_contention) {
    devices.shared_pfs = std::make_unique<net::SharedPfs>(
        existing->clock(), config.system.pfs, config.time_scale, transport);
    devices.pfs = devices.shared_pfs.get();
  } else {
    devices.pfs = &existing->pfs();
  }
  if (config.pfs_thread_weighted_gamma) {
    devices.pfs->set_reader_threads(transport.rank(),
                                    reader_threads_per_rank(config));
  }
  return devices;
}

RuntimeResult run_distributed(const data::Dataset& dataset, const RuntimeConfig& config,
                              net::Transport& transport,
                              tiers::EmulatedCluster* cluster) {
  const int rank = transport.rank();
  const int n = transport.world_size();
  if (config.system.num_workers != n) {
    throw std::invalid_argument(
        "run_distributed: config.system.num_workers must equal the transport's "
        "world size");
  }

  // Per-rank substrate via the device-factory seam: tiers and NIC are
  // always this process's own, the PFS view is shared-contention by default
  // (net::SharedPfs over the transport's gamma protocol) or per-process
  // when opted out (DESIGN.md Sec. 7.4).
  RankDevices devices = make_rank_devices(config, transport, cluster);
  // Fault seams, mirroring run_training: PFS bursts wrap this rank's PFS
  // view, drop windows wrap the transport (both no-ops when unscripted).
  std::optional<FaultPfs> fault_pfs;
  if (!config.faults.pfs_bursts.empty()) {
    fault_pfs.emplace(*devices.pfs, config.faults, config.time_scale);
    devices.pfs = &*fault_pfs;
  }
  net::Transport* loader_transport = &transport;
  std::optional<net::FaultTransport> fault_transport;
  if (!config.faults.drops.empty()) {
    fault_transport.emplace(transport, config.faults, config.time_scale);
    loader_transport = &*fault_transport;
  }
  core::SyntheticPfsSource source(dataset, devices.pfs);

  const core::StreamConfig stream_config = make_stream_config(dataset, config);
  const std::uint64_t iters = stream_config.iterations_per_epoch();
  const std::uint64_t local_b = stream_config.local_batch();

  RuntimeResult result;
  result.reactor_backend = transport.reactor_backend();
  WorkerOutcome outcome;
  auto ctx = make_loader_context(dataset, config, rank, source, loader_transport,
                                 devices.worker);
  auto loader = baselines::make_loader(config.loader, ctx);
  loader->start();
  transport.barrier();  // everyone ready
  TimingMarks marks;
  marks.run_start = now_s();
  marks.epoch_mark = marks.run_start;
  marks.batch_mark = marks.run_start;
  transport.barrier();  // clocks set; start together

  // Every rank records its own timings: the barriers keep them in lockstep,
  // and each process must return a complete RuntimeResult.
  worker_loop(dataset, config, rank, *loader, iters, local_b,
              [&transport] { transport.barrier(); }, /*record=*/true, marks, result,
              outcome);
  reconcile_total(result, marks.run_start, config.time_scale);
  outcome.pfs_peak_gamma = devices.pfs->peak_clients();

  // Job-wide aggregation: allgather each rank's outcome so every process
  // reports identical totals (and the digest is world-combined).
  const auto all = transport.allgather(pack_outcome(outcome));
  for (int r = 0; r < n; ++r) {
    accumulate(result, r, unpack_outcome(all[static_cast<std::size_t>(r)]));
  }
  return result;
}

RuntimeResult run_distributed(const data::Dataset& dataset, const RuntimeConfig& config,
                              const WorkerEndpoint& endpoint) {
  if (config.system.num_workers != endpoint.world_size) {
    throw std::invalid_argument(
        "run_distributed: config.system.num_workers must equal world_size");
  }
  tiers::RealClock clock;
  tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
  net::SocketOptions options;
  options.rank = endpoint.rank;
  options.world_size = endpoint.world_size;
  options.rendezvous_host = endpoint.rendezvous_host;
  options.rendezvous_port = endpoint.rendezvous_port;
  options.timeout_s = endpoint.timeout_s;
  options.nic = cluster.worker(endpoint.rank).nic.get();
  options.gossip = config.pfs_gossip;
  options.time_scale = config.time_scale;
  net::SocketTransport transport(options);
  return run_distributed(dataset, config, transport, &cluster);
}

}  // namespace nopfs::runtime

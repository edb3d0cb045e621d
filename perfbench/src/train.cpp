// The training workloads: closed-loop 2-rank jobs over SocketTransport on
// loopback.  Each rank is a thread of this process that calls
// runtime::run_distributed with its own EmulatedCluster.  Compute is
// skipped and the time scale is high enough that no token bucket waits, so
// every measured second is middleware work.  The traced run drives the same
// per-rank sequence from the public pieces, with a tracing decorator on
// each layer's interface.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/loader.hpp"
#include "common.hpp"
#include "core/access_stream.hpp"
#include "core/sample_source.hpp"
#include "decorators.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "runtime/harness.hpp"
#include "scenario/scenario.hpp"
#include "tiers/clock.hpp"
#include "tiers/devices.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace nopfs;

constexpr int kRanks = 2;
/// Virtual seconds per real second: far above what any device bucket of
/// the loopback system could throttle at these rates.
constexpr double kTimeScale = 1e6;

struct TrainShape {
  const char* workload;
  std::uint64_t samples;  ///< dataset size F (mean 0.2 MB)
  int epochs;             ///< epochs of one timed job
  int verify_epochs;      ///< epochs of the content-verified job
};

// train-cache-resident: ~80 MB, fits the two ranks' combined 96 MB of
// RAM + SSD tiers but not one rank's 48 MB, so after epoch 0 samples come
// from local tiers and the peer.  train-pfs-stream: ~1.6 GB, about 17x the
// combined cache, so nearly every access is a PFS read.
constexpr TrainShape kShapes[] = {
    {"train-cache-resident", 400, 40, 4},
    {"train-pfs-stream", 8000, 2, 1},
};

const TrainShape& shape_of(const std::string& workload) {
  for (const TrainShape& shape : kShapes) {
    if (workload == shape.workload) return shape;
  }
  throw std::invalid_argument("unknown training workload: " + workload);
}

const scenario::Scenario& loopback() { return scenario::get("worker-loopback"); }

data::Dataset make_dataset(const TrainShape& shape, std::uint64_t seed) {
  data::DatasetSpec spec = loopback().worker.dataset;
  spec.name = shape.workload;
  spec.num_samples = shape.samples;
  return data::Dataset::synthetic(spec, derive_seed(seed, 1));
}

runtime::RuntimeConfig make_config(std::uint64_t seed, int epochs) {
  runtime::RuntimeConfig config = scenario::runtime_config(loopback(), kRanks);
  config.seed = derive_seed(seed, 2);
  config.num_epochs = epochs;
  config.time_scale = kTimeScale;
  config.skip_compute = true;
  return config;
}

core::StreamConfig stream_of(const data::Dataset& dataset,
                             const runtime::RuntimeConfig& config) {
  core::StreamConfig stream;
  stream.seed = config.seed;
  stream.num_samples = dataset.num_samples();
  stream.num_workers = config.system.num_workers;
  stream.num_epochs = config.num_epochs;
  stream.global_batch = config.global_batch();
  stream.drop_last = config.drop_last;
  stream.validate();
  return stream;
}

/// Samples the whole job delivers (all ranks).
double job_samples(const core::StreamConfig& stream) {
  return static_cast<double>(stream.iterations_per_epoch() * stream.global_batch *
                             static_cast<std::uint64_t>(stream.num_epochs));
}

// The delivered-order digest of runtime::RuntimeResult: FNV-1a over each
// rank's delivered sample ids, finalized per rank (splitmix64 keyed by the
// rank) and combined by XOR.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void digest_push(std::uint64_t& digest, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    digest = (digest ^ ((value >> shift) & 0xff)) * kFnvPrime;
  }
}

std::uint64_t digest_of_rank(int rank, std::uint64_t digest) {
  std::uint64_t z =
      digest + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(rank) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The digest a correct job delivers, from the clairvoyant access stream
/// alone: rank r must deliver exactly its stream R_r, in order.
std::uint64_t expected_digest(const core::StreamConfig& stream) {
  const core::AccessStreamGenerator generator(stream);
  std::uint64_t combined = 0;
  for (int rank = 0; rank < stream.num_workers; ++rank) {
    std::uint64_t digest = kFnvOffset;
    generator.for_each_access(
        rank, [&](const core::Access& access) { digest_push(digest, access.sample); });
    combined ^= digest_of_rank(rank, digest);
  }
  return combined;
}

net::SocketOptions socket_options(int rank, std::uint16_t port,
                                  const runtime::RuntimeConfig& config) {
  net::SocketOptions options;
  options.rank = rank;
  options.world_size = kRanks;
  options.rendezvous_port = port;
  options.timeout_s = 60.0;
  options.gossip = config.pfs_gossip;
  options.time_scale = config.time_scale;
  return options;
}

/// What one rank reports about one job.
struct RankRecord {
  double rendezvous_s = 0.0;
  double call_s = 0.0;   ///< after the rendezvous until the job returned
  double train_s = 0.0;  ///< first step start to last step end
  std::vector<double> step_s;
  std::uint64_t digest = 0;  ///< job-wide (allgathered)
  core::JobStats stats;      ///< job-wide (allgathered)
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;
  std::string backend;
  std::string error;
};

void untraced_rank(int rank, std::uint16_t port, const data::Dataset& dataset,
                   const runtime::RuntimeConfig& config, RankRecord& record) {
  tiers::RealClock clock;
  tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
  net::SocketOptions options = socket_options(rank, port, config);
  options.nic = cluster.worker(rank).nic.get();
  const double t0 = now_s();
  net::SocketTransport transport(options);
  const double t1 = now_s();
  const runtime::RuntimeResult result =
      runtime::run_distributed(dataset, config, transport, &cluster);
  record.call_s = now_s() - t1;
  record.rendezvous_s = t1 - t0;
  record.train_s = result.total_s / config.time_scale;
  for (const double s : result.batch_s_epoch0) record.step_s.push_back(s / config.time_scale);
  for (const double s : result.batch_s_rest) record.step_s.push_back(s / config.time_scale);
  record.digest = result.delivered_digest;
  record.stats = result.stats;
  record.verified = result.verified_samples;
  record.verify_failures = result.verification_failures;
  record.backend = result.reactor_backend;
}

net::Bytes pack(std::uint64_t digest, const core::JobStats& stats) {
  net::Bytes out;
  net::wire::put_u64(out, digest);
  net::wire::put_u64(out, stats.local_fetches);
  net::wire::put_u64(out, stats.remote_fetches);
  net::wire::put_u64(out, stats.pfs_fetches);
  net::wire::put_u64(out, stats.remote_misses);
  net::wire::put_f64(out, stats.stall_s);
  return out;
}

/// The per-rank sequence of run_distributed, rebuilt from public pieces
/// with a tracing decorator on every layer interface.
void traced_rank(int rank, std::uint16_t port, const data::Dataset& dataset,
                 const runtime::RuntimeConfig& config, Tracer& tracer,
                 RankRecord& record) {
  tiers::RealClock clock;
  tiers::EmulatedCluster cluster(clock, config.system, config.time_scale);
  TracingNic nic(*cluster.worker(rank).nic, tracer);
  net::SocketOptions options = socket_options(rank, port, config);
  options.nic = &nic;
  const double t0 = now_s();
  std::optional<net::SocketTransport> socket;
  {
    const Span span(&tracer, SpanName::kRendezvous);
    socket.emplace(options);
  }
  const double t1 = now_s();
  TracingTransport transport(*socket, tracer);
  runtime::RankDevices devices = runtime::make_rank_devices(config, transport, &cluster);
  TracingPfs pfs(*devices.pfs, tracer);
  for (auto& tier : devices.worker->tiers) {
    tier = std::make_unique<TracingTier>(std::move(tier), tracer, SpanName::kTierRead,
                                         SpanName::kTierWrite);
  }
  devices.worker->staging =
      std::make_unique<TracingTier>(std::move(devices.worker->staging), tracer,
                                    SpanName::kStagingRead, SpanName::kStagingWrite);
  core::SyntheticPfsSource synthetic(dataset, &pfs);
  TracingSource source(synthetic, tracer);

  baselines::LoaderContext ctx;
  ctx.dataset = &dataset;
  ctx.system = &config.system;
  ctx.rank = rank;
  ctx.source = &source;
  ctx.transport = &transport;
  ctx.devices = devices.worker;
  ctx.seed = config.seed;
  ctx.num_epochs = config.num_epochs;
  ctx.global_batch = config.global_batch();
  ctx.drop_last = config.drop_last;
  ctx.time_scale = config.time_scale;
  ctx.threads = config.loader_threads;
  ctx.lookahead = config.lookahead;
  ctx.router = config.router;
  TracingLoader loader(baselines::make_loader(config.loader, ctx), tracer);

  loader.start();
  transport.barrier();  // everyone ready
  const double run_start = now_s();
  double mark = run_start;
  transport.barrier();  // start together

  const core::StreamConfig stream = stream_of(dataset, config);
  std::uint64_t digest = kFnvOffset;
  for (int e = 0; e < config.num_epochs; ++e) {
    for (std::uint64_t h = 0; h < stream.iterations_per_epoch(); ++h) {
      const Span step(&tracer, SpanName::kStep);
      for (std::uint64_t l = 0; l < stream.local_batch(); ++l) {
        auto sample = loader.next();
        if (!sample.has_value()) throw std::runtime_error("stream exhausted prematurely");
        digest_push(digest, sample->id());
      }
      transport.barrier();  // the allreduce
      const double t = now_s();
      record.step_s.push_back(t - mark);
      mark = t;
      transport.barrier();
    }
  }
  record.train_s = now_s() - run_start;

  const auto all = transport.allgather(pack(digest, loader.stats()));
  for (int r = 0; r < kRanks; ++r) {
    net::wire::Reader reader(all[static_cast<std::size_t>(r)]);
    record.digest ^= digest_of_rank(r, reader.u64());
    record.stats.local_fetches += reader.u64();
    record.stats.remote_fetches += reader.u64();
    record.stats.pfs_fetches += reader.u64();
    record.stats.remote_misses += reader.u64();
    record.stats.stall_s += reader.f64();
  }
  record.call_s = now_s() - t1;
  record.rendezvous_s = t1 - t0;
  record.backend = transport.reactor_backend();
}

/// One whole job: both ranks, joined.
struct JobRecord {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double train_s = 0.0;
  double samples = 0.0;
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  std::vector<double> step_s;  ///< rank 0's steps
  std::uint64_t digest = 0;
  core::JobStats stats;
  std::uint64_t verified = 0;
  std::uint64_t verify_failures = 0;
  std::string backend;

  [[nodiscard]] double samples_per_s() const { return ratio(samples, train_s); }
};

JobRecord run_job(const data::Dataset& dataset, const runtime::RuntimeConfig& config,
                  Tracer* tracer) {
  const std::uint16_t port = net::pick_free_port();
  std::vector<RankRecord> ranks(kRanks);
  const double cpu0 = cpu_s();
  const double ctx0 = ctx_switches();
  std::vector<std::thread> threads;
  threads.reserve(kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      RankRecord& record = ranks[static_cast<std::size_t>(rank)];
      try {
        if (tracer != nullptr) {
          traced_rank(rank, port, dataset, config, *tracer, record);
        } else {
          untraced_rank(rank, port, dataset, config, record);
        }
      } catch (const std::exception& ex) {
        record.error = "rank " + std::to_string(rank) + ": " + ex.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  JobRecord job;
  job.cpu_s = cpu_s() - cpu0;
  job.ctx_switches = ctx_switches() - ctx0;
  job.samples = job_samples(stream_of(dataset, config));
  job.ok = true;
  for (const RankRecord& record : ranks) {
    if (!record.error.empty()) {
      job.ok = false;
      job.error += record.error + "; ";
    }
    job.setup_s = std::max(job.setup_s,
                           record.rendezvous_s + record.call_s - record.train_s);
  }
  const RankRecord& root = ranks.front();
  job.train_s = root.train_s;
  job.step_s = root.step_s;
  job.digest = root.digest;
  job.stats = root.stats;
  job.verified = root.verified;
  job.verify_failures = root.verify_failures;
  job.backend = root.backend;
  if (job.ok && ranks.back().digest != root.digest) {
    job.ok = false;
    job.error = "ranks disagree on the job digest";
  }
  return job;
}

void report_failure(const JobRecord& job, std::uint64_t expected) {
  if (!job.ok) {
    std::fprintf(stderr, "perfbench: job failed: %s\n", job.error.c_str());
  } else if (job.digest != expected) {
    std::fprintf(stderr, "perfbench: digest %s, expected %s\n", hex64(job.digest).c_str(),
                 hex64(expected).c_str());
  }
}

void set_e2e(const std::vector<JobRecord>& jobs, Outcome& out) {
  // Step percentiles are taken per job and then, like every other metric,
  // the median over jobs: a job slowed by the host then moves one sample
  // of the median instead of a tenth of the pooled tail.
  std::vector<double> rates;
  std::vector<double> cpu_us;
  std::vector<double> setups;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::size_t steps = 0;
  for (const JobRecord& job : jobs) {
    rates.push_back(job.samples_per_s());
    cpu_us.push_back(job.cpu_s / job.samples * 1e6);
    setups.push_back(job.setup_s);
    p50_ms.push_back(pct(job.step_s, 50.0) * 1e3);
    p90_ms.push_back(pct(job.step_s, 90.0) * 1e3);
    steps += job.step_s.size();
  }
  out.env["timed_jobs"] = std::to_string(jobs.size());
  out.env["timed_steps"] = std::to_string(steps);
  out.set("samples_per_s", median(rates), "samples/s");
  out.set("step_ms_p50", median(p50_ms), "ms");
  out.set("step_ms_p90", median(p90_ms), "ms");
  out.set("cpu_us_per_sample", median(cpu_us), "us");
  out.set("setup_s", median(setups), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void set_layers(const std::vector<JobRecord>& untraced, const std::vector<JobRecord>& traced,
                const SpanSummary& spans, Outcome& out) {
  using S = SpanName;
  auto us = [&](S name, double q) { return pct(spans.durations(name), q) / 1e3; };
  auto ns = [&](S name, double q) { return pct(spans.durations(name), q); };

  double samples = 0.0;
  double rank_train_s = 0.0;
  double stall_s = 0.0;
  core::JobStats stats;
  std::vector<double> traced_rates;
  for (const JobRecord& job : traced) {
    samples += job.samples;
    rank_train_s += kRanks * job.train_s;
    stall_s += job.stats.stall_s / kTimeScale;
    stats.local_fetches += job.stats.local_fetches;
    stats.remote_fetches += job.stats.remote_fetches;
    stats.pfs_fetches += job.stats.pfs_fetches;
    stats.remote_misses += job.stats.remote_misses;
    traced_rates.push_back(job.samples_per_s());
  }
  std::vector<double> untraced_rates;
  double untraced_samples = 0.0;
  double untraced_ctx = 0.0;
  for (const JobRecord& job : untraced) {
    untraced_rates.push_back(job.samples_per_s());
    untraced_samples += job.samples;
    untraced_ctx += job.ctx_switches;
  }

  out.set("loader.next_wait_us.p50", us(S::kLoaderNext, 50.0), "us");
  out.set("loader.next_wait_us.p99", us(S::kLoaderNext, 99.0), "us");
  out.set("loader.start_s", median(spans.durations(S::kLoaderStart)) / 1e9, "s");
  out.set("job.stall_share", ratio(stall_s, rank_train_s), "share");
  // Step time not spent waiting in Loader::next or the barrier: the
  // consumer's own loop, outside every traced layer.
  double step_ns = 0.0;
  for (const double d : spans.durations(S::kStep)) step_ns += d;
  out.set("consumer.unexplained_share", ratio(spans.total_self_ns(S::kStep), step_ns),
          "share");
  const auto fetches = static_cast<double>(stats.total_fetches());
  out.set("router.local_share", ratio(static_cast<double>(stats.local_fetches), fetches),
          "share");
  out.set("router.remote_share", ratio(static_cast<double>(stats.remote_fetches), fetches),
          "share");
  out.set("router.pfs_share", ratio(static_cast<double>(stats.pfs_fetches), fetches),
          "share");
  out.set("router.remote_hit_ratio",
          ratio(static_cast<double>(stats.remote_fetches),
                static_cast<double>(stats.remote_fetches + stats.remote_misses)),
          "ratio");

  out.set("net.rendezvous_s", median(spans.durations(S::kRendezvous)) / 1e9, "s");
  out.set("net.allgather_ms", median(spans.durations(S::kAllgather)) / 1e6, "ms");
  out.set("net.fetch_us.p50", us(S::kFetch, 50.0), "us");
  out.set("net.fetch_us.p99", us(S::kFetch, 99.0), "us");
  out.set("net.fetches_per_sample", ratio(spans.count(S::kFetch), samples), "1/sample");
  out.set("net.barrier_us.p50", us(S::kBarrier, 50.0), "us");
  out.set("net.barrier_us.p90", us(S::kBarrier, 90.0), "us");
  out.set("net.pfs_adjust_ns.p50", ns(S::kPfsAdjust, 50.0), "ns");
  out.set("net.pfs_adjust_per_sample", ratio(spans.count(S::kPfsAdjust), samples),
          "1/sample");
  out.set("net.nic_reserve_ns.p50", ns(S::kNicReserve, 50.0), "ns");

  out.set("source.read_us.p50", us(S::kSourceRead, 50.0), "us");
  out.set("source.read_us.p99", us(S::kSourceRead, 99.0), "us");
  out.set("source.reads_per_sample", ratio(spans.count(S::kSourceRead), samples),
          "1/sample");
  out.set("pfs.read_us.p50", us(S::kPfsRead, 50.0), "us");
  // Self time of SampleSource::read: the synthetic content fill.
  out.set("data.materialize_us.p50", pct(spans.selfs(S::kSourceRead), 50.0) / 1e3, "us");
  out.set("tier.read_us.p50", us(S::kTierRead, 50.0), "us");
  out.set("tier.write_us.p50", us(S::kTierWrite, 50.0), "us");
  out.set("staging.write_us.p50", us(S::kStagingWrite, 50.0), "us");
  double device_ns = 0.0;
  for (const S name : {S::kPfsRead, S::kTierRead, S::kTierWrite, S::kStagingRead,
                       S::kStagingWrite, S::kNicTransfer, S::kNicReserve}) {
    device_ns += spans.total_self_ns(name);
  }
  out.set("device.wait_share", ratio(device_ns / 1e9, rank_train_s), "share");
  out.set("process.ctx_switches_per_sample", ratio(untraced_ctx, untraced_samples),
          "1/sample");
  out.set("trace_overhead_share", 1.0 - ratio(median(traced_rates), median(untraced_rates)),
          "share");
}

}  // namespace

void run_train(const Args& args, Outcome& out) {
  const TrainShape& shape = shape_of(args.workload);
  const data::Dataset dataset = make_dataset(shape, args.seed);
  const runtime::RuntimeConfig config = make_config(args.seed, shape.epochs);
  const std::uint64_t expected = expected_digest(stream_of(dataset, config));
  out.env["digest"] = hex64(expected);
  out.env["time_scale"] = std::to_string(kTimeScale);

  // Untimed, content-verified job: every delivered byte is checked, and it
  // warms the process up before anything is timed.
  runtime::RuntimeConfig verify_config = make_config(args.seed, shape.verify_epochs);
  verify_config.verify_content = true;
  const core::StreamConfig verify_stream = stream_of(dataset, verify_config);
  const std::uint64_t verify_expected = expected_digest(verify_stream);
  const JobRecord verify = run_job(dataset, verify_config, nullptr);
  report_failure(verify, verify_expected);
  const bool verified = verify.ok && verify.digest == verify_expected &&
                        verify.verify_failures == 0 &&
                        static_cast<double>(verify.verified) == job_samples(verify_stream);
  out.check(verified);
  if (!verified) return;
  out.env["reactor_backend"] = verify.backend;

  // Closed loop for the measured seconds: one job after another; in trace
  // mode untraced and traced jobs alternate so the overhead is paired.
  std::vector<JobRecord> untraced;
  std::vector<JobRecord> traced;
  SpanSummary spans;
  const double start = now_s();
  while (now_s() - start < args.seconds || (args.trace && traced.empty())) {
    const bool trace_this = args.trace && untraced.size() > traced.size();
    std::optional<Tracer> tracer;
    if (trace_this) tracer.emplace();
    JobRecord job = run_job(dataset, config, trace_this ? &*tracer : nullptr);
    report_failure(job, expected);
    const bool ok = job.ok && job.digest == expected;
    out.check(ok);
    if (!ok) return;
    std::fprintf(stderr, "perfbench: job %zu%s: %.4g samples/s, setup %.4g s\n",
                 untraced.size() + traced.size(), trace_this ? " (traced)" : "",
                 job.samples_per_s(), job.setup_s);
    if (trace_this) {
      tracer->summarize_into(spans);
      traced.push_back(std::move(job));
    } else {
      untraced.push_back(std::move(job));
    }
  }
  if (args.trace) {
    set_layers(untraced, traced, spans, out);
  } else {
    set_e2e(untraced, out);
  }
}

}  // namespace perfbench

#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "sim/record.hpp"
#include "util/rng.hpp"

namespace nopfs::sim {

const char* location_name(Location loc) noexcept {
  switch (loc) {
    case Location::kStagingWrite: return "staging";
    case Location::kLocal: return "local";
    case Location::kRemote: return "remote";
    case Location::kPfs: return "pfs";
    case Location::kCount: break;
  }
  return "?";
}

double SimResult::count_share(Location loc) const {
  std::uint64_t staged = 0;
  for (int l = static_cast<int>(Location::kLocal); l < static_cast<int>(Location::kCount);
       ++l) {
    staged += location_count[l];
  }
  if (staged == 0) return 0.0;
  return static_cast<double>(location_count[static_cast<int>(loc)]) /
         static_cast<double>(staged);
}

namespace {

/// Reservoir-samples iteration durations to bound memory.
class BatchRecorder {
 public:
  BatchRecorder(std::vector<double>& out, std::size_t cap, std::uint64_t seed)
      : out_(out), cap_(cap), rng_(seed) {}

  void add(double value) {
    ++seen_;
    if (out_.size() < cap_) {
      out_.push_back(value);
      return;
    }
    const std::uint64_t j = rng_.uniform_below(seen_);
    if (j < cap_) out_[static_cast<std::size_t>(j)] = value;
  }

 private:
  std::vector<double>& out_;
  std::size_t cap_;
  std::uint64_t seen_ = 0;
  util::Rng rng_;
};

}  // namespace

SimResult simulate(const SimConfig& config, const data::Dataset& dataset,
                   Policy& policy) {
  const auto& system = config.system;
  const int n = system.num_workers;
  if (n <= 0) throw std::invalid_argument("simulate: num_workers must be positive");

  core::StreamConfig stream_config;
  stream_config.seed = config.seed;
  stream_config.num_samples = dataset.num_samples();
  stream_config.num_workers = n;
  stream_config.num_epochs = config.num_epochs;
  stream_config.global_batch = config.global_batch();
  stream_config.drop_last = config.drop_last;
  const core::AccessStreamGenerator gen(stream_config);
  const core::PerfModel model(system);

  SimContext ctx;
  ctx.config = &config;
  ctx.dataset = &dataset;
  ctx.model = &model;
  ctx.gen = &gen;

  SimResult result;
  result.policy = policy.name();
  result.dataset = dataset.name();
  {
    std::string why;
    if (!policy.supported(ctx, &why)) {
      result.supported = false;
      result.unsupported_reason = why;
      return result;
    }
  }

  const double prestage_s = policy.setup(ctx);
  result.prestage_s = prestage_s;

  const std::uint64_t iters = stream_config.iterations_per_epoch();
  const std::uint64_t local_b = stream_config.local_batch();
  const std::uint64_t consumed =
      std::min<std::uint64_t>(dataset.num_samples(), iters * stream_config.global_batch);
  const int p0 = std::max(1, system.node.staging.prefetch_threads);
  const bool overlapped = policy.overlapped();
  const bool zero_io = policy.zero_io();

  // Opt-in observation seam (sim/record.hpp): every hook site below is a
  // single pointer test when recording is off, and the recorder only ever
  // sees values the engine has already committed to — results are
  // bit-identical either way (pinned by tests/test_critpath.cpp).
  RunRecorder* const recorder = config.recorder;
  if (recorder != nullptr) {
    RunShape shape;
    shape.num_workers = n;
    shape.staging_threads = p0;
    shape.overlapped = overlapped;
    shape.zero_io = zero_io;
    shape.prestage_s = prestage_s;
    shape.allreduce_s = config.allreduce_s;
    recorder->begin_run(shape);
  }

  // Per-worker pipeline state.
  std::vector<double> t(static_cast<std::size_t>(n), prestage_s);
  std::vector<double> cum_read(static_cast<std::size_t>(n), 0.0);
  std::vector<double> pending_compute(static_cast<std::size_t>(n), 0.0);
  std::vector<double> stall(static_cast<std::size_t>(n), 0.0);
  std::vector<double> compute(static_cast<std::size_t>(n), 0.0);

  // SoA scratch for one iteration's resolved accesses: phase 1 fills the
  // sample ids (one contiguous run per worker, so a whole local batch can be
  // handed to Policy::on_access_batch in one virtual call), phase 2 streams
  // through samples and decisions as parallel arrays.
  std::vector<data::SampleId> samples(static_cast<std::size_t>(n) * local_b);
  std::vector<AccessDecision> decisions(static_cast<std::size_t>(n) * local_b);
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(n));
  const bool batched = policy.batchable() && !config.force_per_sample_dispatch;

  BatchRecorder rec_epoch0(result.batch_s_epoch0, config.max_batch_records,
                           config.seed ^ 0x5555);
  BatchRecorder rec_rest(result.batch_s_rest, config.max_batch_records,
                         config.seed ^ 0xAAAA);

  int gamma_prev = n;  // everyone starts cold on the PFS
  double barrier_time = prestage_s;

  // Epoch-permutation source: sweeps opt into the shared memoized cache
  // (concurrent grid points of one stream config then generate each epoch's
  // shuffle once); plain library calls reuse a local buffer instead, so
  // nothing outlives this simulate().  Both paths are value-identical.
  std::vector<data::SampleId> order_buffer;
  std::shared_ptr<const std::vector<data::SampleId>> order_shared;

  for (int e = 0; e < config.num_epochs; ++e) {
    policy.on_epoch_begin(ctx, e);
    if (recorder != nullptr) recorder->begin_epoch(e);
    if (config.share_epoch_orders) {
      order_shared = gen.epoch_order_shared(e);
    } else {
      gen.epoch_order_into(e, order_buffer);
    }
    const auto& order = config.share_epoch_orders ? *order_shared : order_buffer;
    const double epoch_start = barrier_time;

    for (std::uint64_t h = 0; h < iters; ++h) {
      // Phase 1: resolve accesses and decisions.
      int gamma_now = 0;
      for (int i = 0; i < n; ++i) {
        const std::size_t base = static_cast<std::size_t>(i) * local_b;
        std::uint32_t count = 0;
        bool hits_pfs = false;
        if (batched) {
          // Resolve the worker's whole local batch, then decide it with one
          // virtual call.  Safe because batchable() policies guarantee
          // remap() does not observe on_access() mutations mid-batch.
          for (std::uint64_t l = 0; l < local_b; ++l) {
            const std::uint64_t local_index = h * local_b + l;
            const std::uint64_t pos = local_index * static_cast<std::uint64_t>(n) +
                                      static_cast<std::uint64_t>(i);
            if (pos >= consumed) continue;
            samples[base + count] = policy.remap(i, e, local_index, order[pos]);
            ++count;
          }
          if (zero_io) {
            std::fill_n(decisions.begin() + static_cast<std::ptrdiff_t>(base), count,
                        AccessDecision{Location::kLocal, 0});
          } else {
            policy.on_access_batch(
                ctx, i, e, std::span<const data::SampleId>(&samples[base], count),
                gamma_prev, std::span<AccessDecision>(&decisions[base], count));
          }
          for (std::uint32_t a = 0; a < count; ++a) {
            if (decisions[base + a].location == Location::kPfs) {
              hits_pfs = true;
              break;
            }
          }
        } else {
          for (std::uint64_t l = 0; l < local_b; ++l) {
            const std::uint64_t local_index = h * local_b + l;
            const std::uint64_t pos = local_index * static_cast<std::uint64_t>(n) +
                                      static_cast<std::uint64_t>(i);
            if (pos >= consumed) continue;
            const data::SampleId sample = policy.remap(i, e, local_index, order[pos]);
            const AccessDecision decision =
                zero_io ? AccessDecision{Location::kLocal, 0}
                        : policy.on_access(ctx, i, e, sample, gamma_prev);
            samples[base + count] = sample;
            decisions[base + count] = decision;
            ++count;
            if (decision.location == Location::kPfs) hits_pfs = true;
          }
        }
        counts[static_cast<std::size_t>(i)] = count;
        if (hits_pfs) ++gamma_now;
      }
      const int gamma = std::max(1, gamma_now);

      // Phase 2: price the accesses through the pipeline recurrence.  gamma
      // is fixed for the iteration, so the PFS is quoted once.
      const core::PfsQuote pfs = model.pfs_quote(gamma);
      double iter_end = 0.0;
      for (int i = 0; i < n; ++i) {
        const auto count = counts[static_cast<std::size_t>(i)];
        const std::size_t base = static_cast<std::size_t>(i) * local_b;
        double ti = t[static_cast<std::size_t>(i)];
        for (std::uint32_t a = 0; a < count; ++a) {
          const data::SampleId sample = samples[base + a];
          const AccessDecision decision = decisions[base + a];
          const double mb = dataset.size_mb(sample);
          double fetch_s = 0.0;
          if (!zero_io) {
            switch (decision.location) {
              case Location::kLocal:
                fetch_s = model.fetch_local_s(mb, decision.storage_class);
                break;
              case Location::kRemote:
                fetch_s = model.fetch_remote_s(mb, decision.storage_class);
                break;
              case Location::kPfs:
                fetch_s = pfs.seconds(mb);
                break;
              default:
                break;
            }
          }
          const double write_s = zero_io ? 0.0 : model.write_s(mb);
          const int loc = static_cast<int>(decision.location);
          const int staging = static_cast<int>(Location::kStagingWrite);
          result.location_s[loc] += fetch_s;
          result.location_s[staging] += write_s;
          result.location_count[loc] += 1;
          result.location_count[staging] += 1;
          result.location_mb[loc] += mb;
          result.location_mb[staging] += mb;

          const double compute_s =
              model.compute_s(config.uniform_compute ? dataset.mean_size_mb() : mb);
          compute[static_cast<std::size_t>(i)] += compute_s;
          if (recorder != nullptr) {
            AccessTrace trace;
            trace.worker = i;
            trace.location = decision.location;
            trace.storage_class = (decision.location == Location::kLocal ||
                                   decision.location == Location::kRemote)
                                      ? decision.storage_class
                                      : -1;
            trace.mb = mb;
            trace.fetch_s = fetch_s;
            trace.write_s = write_s;
            trace.compute_s = compute_s;
            recorder->on_access(trace);
          }
          const double ready = ti + pending_compute[static_cast<std::size_t>(i)];
          double consume_at;
          if (overlapped) {
            // Local/remote fetches and staging writes parallelize across the
            // p0 staging threads (the paper's avail = sum read / p0).  A PFS
            // fetch does not: the worker is a single PFS client, so its p0
            // threads share one t(gamma)/gamma slice — threads cannot
            // multiply parallel-filesystem bandwidth.
            if (decision.location == Location::kPfs) {
              cum_read[static_cast<std::size_t>(i)] +=
                  fetch_s * static_cast<double>(p0) + write_s;
            } else {
              cum_read[static_cast<std::size_t>(i)] += fetch_s + write_s;
            }
            const double avail = cum_read[static_cast<std::size_t>(i)] /
                                 static_cast<double>(p0);
            consume_at = std::max(avail, ready);
          } else {
            // No prefetching: the read happens inline after compute.
            consume_at = ready + fetch_s + write_s;
          }
          stall[static_cast<std::size_t>(i)] += consume_at - ready;
          ti = consume_at;
          pending_compute[static_cast<std::size_t>(i)] = compute_s;
        }
        ti += pending_compute[static_cast<std::size_t>(i)];
        pending_compute[static_cast<std::size_t>(i)] = 0.0;
        t[static_cast<std::size_t>(i)] = ti;
        iter_end = std::max(iter_end, ti);
      }

      // Phase 3: the allreduce barrier aligns everyone.
      iter_end += config.allreduce_s;
      const double batch_s = iter_end - barrier_time;
      if (e == 0) {
        rec_epoch0.add(batch_s);
      } else {
        rec_rest.add(batch_s);
      }
      barrier_time = iter_end;
      std::fill(t.begin(), t.end(), iter_end);
      gamma_prev = gamma_now;
      if (recorder != nullptr) recorder->end_iteration(iter_end);
    }
    result.epoch_s.push_back(barrier_time - epoch_start);
  }

  result.total_s = barrier_time;
  result.stall_s = *std::max_element(stall.begin(), stall.end());
  result.compute_s = *std::max_element(compute.begin(), compute.end());
  result.accessed_fraction = policy.accessed_fraction(ctx);
  if (recorder != nullptr) recorder->end_run(result);
  return result;
}

}  // namespace nopfs::sim

#include "sim/policies.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace nopfs::sim {

namespace {

constexpr std::uint16_t kNoOwner = 0xffff;

/// How many samples ahead NoPFS prefetches holder rows when it walks a plan
/// or a local batch (sample order is random, so hardware prefetch misses).
constexpr std::size_t kPrefetchAhead = 8;

/// Samples consumed per epoch (drop_last may skip a tail).
std::uint64_t consumed_per_epoch(const SimContext& ctx) {
  const auto& cfg = ctx.gen->config();
  return std::min<std::uint64_t>(cfg.num_samples,
                                 cfg.iterations_per_epoch() * cfg.global_batch);
}

int holder_slots(const SimContext& ctx) {
  return std::min<int>(HolderTable::kMaxHolders,
                       std::max(1, ctx.config->num_epochs));
}

}  // namespace

CapacityTracker::CapacityTracker(const tiers::NodeParams& node, int num_workers,
                                 bool ram_only) {
  const std::size_t classes = ram_only ? std::min<std::size_t>(1, node.classes.size())
                                       : node.classes.size();
  capacity_mb_.reserve(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    capacity_mb_.push_back(node.classes[c].capacity_mb);
  }
  used_.assign(static_cast<std::size_t>(num_workers),
               std::vector<double>(classes, 0.0));
}

int CapacityTracker::try_cache(int worker, double mb) {
  auto& used = used_.at(static_cast<std::size_t>(worker));
  for (std::size_t c = 0; c < capacity_mb_.size(); ++c) {
    if (used[c] + mb <= capacity_mb_[c]) {
      used[c] += mb;
      return static_cast<int>(c);
    }
  }
  return -1;
}

double CapacityTracker::used_mb(int worker, int cls) const {
  return used_.at(static_cast<std::size_t>(worker)).at(static_cast<std::size_t>(cls));
}

// ---------------------------------------------------------------------------
// FirstTouchPolicy (DeepIO ordered, LBANN dynamic; base for others)

double FirstTouchPolicy::setup(const SimContext& ctx) {
  table_ = HolderTable(ctx.dataset->num_samples(), holder_slots(ctx));
  capacity_ = CapacityTracker(ctx.config->system.node, ctx.config->system.num_workers,
                              ram_only_);
  cached_by_worker_.assign(static_cast<std::size_t>(ctx.config->system.num_workers), {});
  return 0.0;
}

AccessDecision FirstTouchPolicy::on_access(const SimContext& ctx, int worker,
                                           int /*epoch*/, data::SampleId sample,
                                           int /*gamma*/) {
  return decide(ctx, worker, sample);
}

void FirstTouchPolicy::on_access_batch(const SimContext& ctx, int worker, int /*epoch*/,
                                       std::span<const data::SampleId> samples,
                                       int /*gamma*/, std::span<AccessDecision> out) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[i] = decide(ctx, worker, samples[i]);
  }
}

AccessDecision FirstTouchPolicy::decide(const SimContext& ctx, int worker,
                                        data::SampleId sample) {
  const HolderLookup row = table_.lookup(sample, worker);
  if (row.self_cached) return {Location::kLocal, row.self_class};
  if (row.remote_class >= 0) return {Location::kRemote, row.remote_class};
  // Miss: read from the PFS and cache it here if space remains (first touch).
  const double mb = ctx.dataset->size_mb(sample);
  const int cls = capacity_.try_cache(worker, mb);
  if (cls >= 0) {
    table_.add(sample, worker, cls);
    table_.mark_cached(sample, worker);
    cached_by_worker_[static_cast<std::size_t>(worker)].push_back(sample);
  }
  return {Location::kPfs, -1};
}

// ---------------------------------------------------------------------------
// DeepIO opportunistic: reorder toward cached samples after epoch 0.

double DeepIOOpportunisticPolicy::setup(const SimContext& ctx) {
  const double prestage = FirstTouchPolicy::setup(ctx);
  accessed_.assign(ctx.dataset->num_samples(), false);
  round_robin_.assign(static_cast<std::size_t>(ctx.config->system.num_workers), 0);
  return prestage;
}

data::SampleId DeepIOOpportunisticPolicy::remap(int worker, int epoch,
                                                std::uint64_t /*local_index*/,
                                                data::SampleId def) {
  if (epoch == 0) return def;
  if (table().has_any(def)) return def;  // cached somewhere: keep it
  // Opportunistic substitution: read something this worker already caches.
  auto& own = cached_by_worker_[static_cast<std::size_t>(worker)];
  if (own.empty()) return def;
  auto& rr = round_robin_[static_cast<std::size_t>(worker)];
  const data::SampleId substitute = own[rr % own.size()];
  ++rr;
  return substitute;
}

AccessDecision DeepIOOpportunisticPolicy::on_access(const SimContext& ctx, int worker,
                                                    int epoch, data::SampleId sample,
                                                    int gamma) {
  accessed_[sample] = true;
  return FirstTouchPolicy::on_access(ctx, worker, epoch, sample, gamma);
}

double DeepIOOpportunisticPolicy::accessed_fraction(const SimContext& ctx) const {
  std::uint64_t count = 0;
  for (bool a : accessed_) count += a ? 1 : 0;
  return static_cast<double>(count) / static_cast<double>(ctx.dataset->num_samples());
}

// ---------------------------------------------------------------------------
// Parallel staging (data sharding)

double ParallelStagingPolicy::setup(const SimContext& ctx) {
  const int n = ctx.config->system.num_workers;
  const auto& node = ctx.config->system.node;
  table_ = HolderTable(ctx.dataset->num_samples(), 1);
  shards_.assign(static_cast<std::size_t>(n), {});
  epoch_sequence_.assign(static_cast<std::size_t>(n), {});
  double max_shard_mb = 0.0;
  for (int w = 0; w < n; ++w) {
    double used = 0.0;
    std::size_t cls = 0;
    double shard_mb = 0.0;
    for (data::SampleId k = static_cast<data::SampleId>(w);
         k < ctx.dataset->num_samples(); k += static_cast<data::SampleId>(n)) {
      const double mb = ctx.dataset->size_mb(k);
      while (cls < node.classes.size() && used + mb > node.classes[cls].capacity_mb) {
        ++cls;
        used = 0.0;
      }
      if (cls >= node.classes.size()) break;  // local storage exhausted
      used += mb;
      shard_mb += mb;
      shards_[static_cast<std::size_t>(w)].push_back(k);
      table_.add(k, w, static_cast<int>(cls));
    }
    max_shard_mb = std::max(max_shard_mb, shard_mb);
  }
  table_.mark_all_cached();
  staged_mb_ = max_shard_mb;
  // The prestaging phase cannot overlap training: every worker pulls its
  // shard from the PFS at the contended per-client rate.
  return max_shard_mb / ctx.model->pfs_client_mbps(n);
}

void ParallelStagingPolicy::on_epoch_begin(const SimContext& ctx, int epoch) {
  const int n = ctx.config->system.num_workers;
  for (int w = 0; w < n; ++w) {
    auto& seq = epoch_sequence_[static_cast<std::size_t>(w)];
    seq = shards_[static_cast<std::size_t>(w)];
    util::Rng rng = util::Rng::for_stream(
        ctx.config->seed ^ 0x5a5a5a5aULL,
        static_cast<std::uint64_t>(epoch) * static_cast<std::uint64_t>(n) +
            static_cast<std::uint64_t>(w) + 1);
    util::fisher_yates_shuffle(std::span<data::SampleId>(seq), rng);
  }
}

data::SampleId ParallelStagingPolicy::remap(int worker, int /*epoch*/,
                                            std::uint64_t local_index,
                                            data::SampleId def) {
  const auto& seq = epoch_sequence_[static_cast<std::size_t>(worker)];
  if (seq.empty()) return def;
  return seq[local_index % seq.size()];
}

AccessDecision ParallelStagingPolicy::decide(int worker, data::SampleId sample) const {
  const HolderLookup row = table_.lookup(sample, worker);
  if (row.self_cached) return {Location::kLocal, row.self_class};
  return {Location::kPfs, -1};  // only with a degenerate empty shard
}

AccessDecision ParallelStagingPolicy::on_access(const SimContext& /*ctx*/, int worker,
                                                int /*epoch*/, data::SampleId sample,
                                                int /*gamma*/) {
  return decide(worker, sample);
}

void ParallelStagingPolicy::on_access_batch(const SimContext& /*ctx*/, int worker,
                                            int /*epoch*/,
                                            std::span<const data::SampleId> samples,
                                            int /*gamma*/,
                                            std::span<AccessDecision> out) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[i] = decide(worker, samples[i]);
  }
}

double ParallelStagingPolicy::accessed_fraction(const SimContext& ctx) const {
  std::uint64_t staged = 0;
  for (const auto& shard : shards_) staged += shard.size();
  return static_cast<double>(staged) / static_cast<double>(ctx.dataset->num_samples());
}

// ---------------------------------------------------------------------------
// LBANN data store

bool LbannDynamicPolicy::supported(const SimContext& ctx, std::string* why) const {
  const auto& node = ctx.config->system.node;
  if (node.classes.empty()) {
    if (why != nullptr) *why = "no RAM storage class configured";
    return false;
  }
  const double agg_ram =
      node.classes[0].capacity_mb * static_cast<double>(ctx.config->system.num_workers);
  if (ctx.dataset->total_mb() > agg_ram) {
    if (why != nullptr) *why = "dataset exceeds aggregate worker memory";
    return false;
  }
  return true;
}

double LbannPreloadPolicy::setup(const SimContext& ctx) {
  const int n = ctx.config->system.num_workers;
  table_ = HolderTable(ctx.dataset->num_samples(), 1);
  double max_shard_mb = 0.0;
  std::vector<double> shard_mb(static_cast<std::size_t>(n), 0.0);
  for (data::SampleId k = 0; k < ctx.dataset->num_samples(); ++k) {
    const int w = static_cast<int>(k % static_cast<data::SampleId>(n));
    table_.add(k, w, 0);
    shard_mb[static_cast<std::size_t>(w)] += ctx.dataset->size_mb(k);
  }
  for (double mb : shard_mb) max_shard_mb = std::max(max_shard_mb, mb);
  table_.mark_all_cached();
  return max_shard_mb / ctx.model->pfs_client_mbps(n);
}

bool LbannPreloadPolicy::supported(const SimContext& ctx, std::string* why) const {
  const auto& node = ctx.config->system.node;
  if (node.classes.empty()) {
    if (why != nullptr) *why = "no RAM storage class configured";
    return false;
  }
  const double per_worker =
      ctx.dataset->total_mb() / static_cast<double>(ctx.config->system.num_workers);
  if (per_worker > node.classes[0].capacity_mb) {
    if (why != nullptr) *why = "dataset exceeds aggregate worker memory";
    return false;
  }
  return true;
}

AccessDecision LbannPreloadPolicy::decide(int worker, data::SampleId sample) const {
  const HolderLookup row = table_.lookup(sample, worker);
  if (row.self_cached) return {Location::kLocal, row.self_class};
  if (row.remote_class >= 0) return {Location::kRemote, row.remote_class};
  return {Location::kPfs, -1};
}

AccessDecision LbannPreloadPolicy::on_access(const SimContext& /*ctx*/, int worker,
                                             int /*epoch*/, data::SampleId sample,
                                             int /*gamma*/) {
  return decide(worker, sample);
}

void LbannPreloadPolicy::on_access_batch(const SimContext& /*ctx*/, int worker,
                                         int /*epoch*/,
                                         std::span<const data::SampleId> samples,
                                         int /*gamma*/, std::span<AccessDecision> out) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[i] = decide(worker, samples[i]);
  }
}

// ---------------------------------------------------------------------------
// Locality-aware loading (Yang & Cong)

void LocalityAwarePolicy::on_epoch_begin(const SimContext& ctx, int epoch) {
  const int n = ctx.config->system.num_workers;
  if (epoch == 0) return;
  if (!reordered_) {
    // After the first (caching) epoch, assign every sample to the worker
    // that cached it; spread uncached samples round-robin; then balance so
    // every worker reads the same count per epoch.
    reordered_ = true;
    const std::uint64_t target = consumed_per_epoch(ctx) / static_cast<std::uint64_t>(n);
    assigned_.assign(static_cast<std::size_t>(n), {});
    std::vector<data::SampleId> pool;
    for (int w = 0; w < n; ++w) {
      const auto& own = cached_by_worker_[static_cast<std::size_t>(w)];
      auto& mine = assigned_[static_cast<std::size_t>(w)];
      for (data::SampleId k : own) {
        if (mine.size() < target) {
          mine.push_back(k);
        } else {
          pool.push_back(k);  // overflow: someone else reads it remotely
        }
      }
    }
    for (data::SampleId k = 0; k < ctx.dataset->num_samples(); ++k) {
      if (!table().has_any(k)) pool.push_back(k);
    }
    std::size_t next = 0;
    for (int w = 0; w < n && next < pool.size(); ++w) {
      auto& mine = assigned_[static_cast<std::size_t>(w)];
      while (mine.size() < target && next < pool.size()) mine.push_back(pool[next++]);
    }
    epoch_sequence_.assign(static_cast<std::size_t>(n), {});
  }
  for (int w = 0; w < n; ++w) {
    auto& seq = epoch_sequence_[static_cast<std::size_t>(w)];
    seq = assigned_[static_cast<std::size_t>(w)];
    util::Rng rng = util::Rng::for_stream(
        ctx.config->seed ^ 0xa1a1a1a1ULL,
        static_cast<std::uint64_t>(epoch) * static_cast<std::uint64_t>(n) +
            static_cast<std::uint64_t>(w) + 1);
    util::fisher_yates_shuffle(std::span<data::SampleId>(seq), rng);
  }
}

data::SampleId LocalityAwarePolicy::remap(int worker, int epoch,
                                          std::uint64_t local_index,
                                          data::SampleId def) {
  if (epoch == 0 || !reordered_) return def;
  const auto& seq = epoch_sequence_[static_cast<std::size_t>(worker)];
  if (seq.empty()) return def;
  return seq[local_index % seq.size()];
}

// ---------------------------------------------------------------------------
// NoPFS

double NoPFSPolicy::setup(const SimContext& ctx) {
  const int n = ctx.config->system.num_workers;
  const int epochs = ctx.config->num_epochs;
  const auto f = ctx.dataset->num_samples();
  const auto& node = ctx.config->system.node;
  if (n >= static_cast<int>(kNoOwner)) {
    throw std::invalid_argument("NoPFSPolicy: too many workers for owner encoding");
  }
  table_ = HolderTable(f, holder_slots(ctx));
  planned_mb_.assign(static_cast<std::size_t>(n), 0.0);
  if (node.classes.empty()) return 0.0;  // nothing to cache into

  // Pass 1 (clairvoyance): who reads each sample in each epoch.  Sweeps
  // share the permutations through the epoch-order cache (the engine will
  // walk the same epochs right after this); plain calls stay transient.
  std::vector<std::uint16_t> owners(f * static_cast<std::uint64_t>(epochs), kNoOwner);
  const std::uint64_t consumed = consumed_per_epoch(ctx);
  std::vector<data::SampleId> order_buffer;
  std::shared_ptr<const std::vector<data::SampleId>> order_shared;
  for (int e = 0; e < epochs; ++e) {
    if (ctx.config->share_epoch_orders) {
      order_shared = ctx.gen->epoch_order_shared(e);
    } else {
      ctx.gen->epoch_order_into(e, order_buffer);
    }
    const auto& order = ctx.config->share_epoch_orders ? *order_shared : order_buffer;
    for (std::uint64_t pos = 0; pos < consumed; ++pos) {
      owners[order[pos] * static_cast<std::uint64_t>(epochs) +
             static_cast<std::uint64_t>(e)] =
          static_cast<std::uint16_t>(pos % static_cast<std::uint64_t>(n));
    }
  }

  // Pass 2: exact per-worker access frequencies r_k.  Samples are walked
  // upward, so each worker's candidates arrive in ascending sample order;
  // hist[w * stride + r] counts worker w's candidates read r times, r in
  // [1, E].  Worker w reads ceil((consumed - w) / N) samples per epoch, so
  // E times that (at most F) bounds its candidate count up front.
  const auto stride = static_cast<std::size_t>(epochs) + 1;
  std::vector<std::uint32_t> hist(static_cast<std::size_t>(n) * stride, 0);
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> candidates(
      static_cast<std::size_t>(n));
  const auto workers = static_cast<std::uint64_t>(n);
  for (std::uint64_t w = 0; w < workers; ++w) {
    const std::uint64_t per_epoch = (consumed + workers - 1 - w) / workers;
    const std::uint64_t bound = per_epoch * static_cast<std::uint64_t>(epochs);
    candidates[w].reserve(std::min<std::uint64_t>(f, bound));
  }
  for (data::SampleId k = 0; k < f; ++k) {
    const std::uint16_t* row = &owners[k * static_cast<std::uint64_t>(epochs)];
    for (int e = 0; e < epochs; ++e) {
      const std::uint16_t owner = row[e];
      if (owner == kNoOwner) continue;
      bool seen = false;
      for (int prev = 0; prev < e; ++prev) {
        if (row[prev] == owner) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      std::uint32_t count = 1;
      for (int later = e + 1; later < epochs; ++later) {
        if (row[later] == owner) ++count;
      }
      candidates[owner].emplace_back(static_cast<std::uint32_t>(k), count);
      ++hist[owner * stride + count];
    }
  }
  owners.clear();
  owners.shrink_to_fit();

  // Pass 3: frequency-ordered greedy fill of the storage hierarchy, in
  // (r_k descending, sample ascending) order.  A stable counting sort on
  // r_k of the ascending candidate list yields exactly that order in
  // linear time.
  const std::vector<float>& sizes = ctx.dataset->sizes();
  std::vector<std::uint32_t> order;
  for (int w = 0; w < n; ++w) {
    auto& cand = candidates[static_cast<std::size_t>(w)];
    order.resize(cand.size());
    if (options_.frequency_aware) {
      std::uint32_t* next = &hist[static_cast<std::size_t>(w) * stride];
      std::uint32_t start = 0;
      for (int r = epochs; r >= 1; --r) {
        const std::uint32_t bucket = next[r];
        next[r] = start;
        start += bucket;
      }
      for (const auto& [sample32, count] : cand) order[next[count]++] = sample32;
    } else {
      util::Rng rng = util::Rng::for_stream(ctx.config->seed ^ 0x70f5ULL,
                                            static_cast<std::uint64_t>(w) + 1);
      util::fisher_yates_shuffle(
          std::span<std::pair<std::uint32_t, std::uint32_t>>(cand), rng);
      std::transform(cand.begin(), cand.end(), order.begin(),
                     [](const auto& c) { return c.first; });
    }
    cand.clear();
    cand.shrink_to_fit();
    std::size_t cls = 0;
    double used = 0.0;
    double planned = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i + kPrefetchAhead < order.size()) table_.prefetch(order[i + kPrefetchAhead]);
      const auto k = static_cast<data::SampleId>(order[i]);
      const double mb = sizes[k];
      while (cls < node.classes.size() && used + mb > node.classes[cls].capacity_mb) {
        ++cls;
        used = 0.0;
      }
      if (cls >= node.classes.size()) break;
      used += mb;
      planned += mb;
      table_.add(k, w, static_cast<int>(cls));
    }
    planned_mb_[static_cast<std::size_t>(w)] = planned;
  }
  return 0.0;  // NoPFS needs no prestaging phase
}

AccessDecision NoPFSPolicy::on_access(const SimContext& ctx, int worker, int /*epoch*/,
                                      data::SampleId sample, int gamma) {
  return decide(ctx, worker, sample, ctx.model->pfs_quote(std::max(1, gamma)));
}

void NoPFSPolicy::on_access_batch(const SimContext& ctx, int worker, int /*epoch*/,
                                  std::span<const data::SampleId> samples, int gamma,
                                  std::span<AccessDecision> out) {
  // gamma is fixed for the whole local batch: quote the PFS once.
  const core::PfsQuote pfs = ctx.model->pfs_quote(std::max(1, gamma));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i + kPrefetchAhead < samples.size()) table_.prefetch(samples[i + kPrefetchAhead]);
    out[i] = decide(ctx, worker, samples[i], pfs);
  }
}

AccessDecision NoPFSPolicy::decide(const SimContext& ctx, int worker,
                                   data::SampleId sample, const core::PfsQuote& pfs) {
  const HolderLookup row = table_.lookup(sample, worker);
  if (row.self_cached) return {Location::kLocal, row.self_class};

  const int remote_cls = options_.use_remote ? row.remote_class : -1;
  if (remote_cls < 0) {
    // Nobody has materialized this sample yet: its first read comes from
    // the PFS (exactly once per run when it is planned anywhere).
    if (row.self_slot >= 0) table_.mark_cached_at(sample, row.self_slot);
    return {Location::kPfs, -1};
  }

  // A peer holds the sample.  Whether this worker's *own* class prefetcher
  // already materialized its planned copy depends on whether prefetching
  // keeps ahead of consumption: prefetchers refill at the worker's PFS
  // share, the trainer drains at c.  Ahead -> the staging prefetcher finds
  // the sample locally; behind -> it fetches it (remote or PFS, by the
  // model) and caches it on the way through (Sec. 5.2.2 load smoothing).
  const double mb = ctx.dataset->size_mb(sample);
  const double pfs_s = pfs.seconds(mb);
  if (row.self_slot >= 0) {
    const double pfs_mbps = pfs_s > 0.0 ? mb / pfs_s : 0.0;
    const bool prefetcher_ahead = pfs_mbps > ctx.config->system.node.compute_mbps;
    table_.mark_cached_at(sample, row.self_slot);
    if (prefetcher_ahead) return {Location::kLocal, row.self_class};
  }
  // PerfModel::choose_fetch(mb, -1, remote_cls, peer, gamma) with the PFS
  // time already in hand: the remote copy wins unless the PFS is strictly
  // faster (or the remote class has no bandwidth).
  const double remote_s = ctx.model->fetch_remote_s(mb, remote_cls);
  if (remote_s < std::numeric_limits<double>::infinity() && !(pfs_s < remote_s)) {
    return {Location::kRemote, remote_cls};
  }
  return {Location::kPfs, -1};
}

// ---------------------------------------------------------------------------

std::unique_ptr<Policy> make_policy(const std::string& name) {
  if (name == "perfect") return std::make_unique<PerfectPolicy>();
  if (name == "naive") return std::make_unique<NaivePolicy>();
  if (name == "staging") return std::make_unique<StagingBufferPolicy>();
  if (name == "deepio-ordered") return std::make_unique<DeepIOOrderedPolicy>();
  if (name == "deepio-opportunistic") {
    return std::make_unique<DeepIOOpportunisticPolicy>();
  }
  if (name == "parallel-staging") return std::make_unique<ParallelStagingPolicy>();
  if (name == "lbann-dynamic") return std::make_unique<LbannDynamicPolicy>();
  if (name == "lbann-preload") return std::make_unique<LbannPreloadPolicy>();
  if (name == "locality-aware") return std::make_unique<LocalityAwarePolicy>();
  if (name == "nopfs") return std::make_unique<NoPFSPolicy>();
  throw std::invalid_argument("unknown policy: " + name);
}

std::vector<std::string> all_policy_names() {
  return {"naive",          "staging",        "deepio-ordered",
          "deepio-opportunistic", "parallel-staging", "lbann-dynamic",
          "lbann-preload",  "locality-aware", "nopfs",
          "perfect"};
}

}  // namespace nopfs::sim

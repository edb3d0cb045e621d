// Implementations of the baseline loaders and the NoPFS adapter.
//
// Each loader charges the same emulated devices (PFS, tiers, NIC,
// preprocessing) so the runtime comparison against NoPFS is apples to
// apples.  See loader.hpp for the interface.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "baselines/loader.hpp"
#include "baselines/pipelined_fetcher.hpp"
#include "core/access_stream.hpp"
#include "tiers/clock.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nopfs::baselines {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::StreamConfig stream_config_of(const LoaderContext& ctx) {
  core::StreamConfig config;
  config.seed = ctx.seed;
  config.num_samples = ctx.dataset->num_samples();
  config.num_workers = ctx.system->num_workers;
  config.num_epochs = ctx.num_epochs;
  config.global_batch = ctx.global_batch;
  config.drop_last = ctx.drop_last;
  return config;
}

/// Charges preprocessing (paced at beta) and the staging-buffer store.
void charge_preprocess_and_stage(const LoaderContext& ctx, double mb,
                                 double preprocess_speedup = 1.0) {
  if (ctx.devices == nullptr) return;
  ctx.devices->staging->write(mb);
  const double beta = ctx.system->node.preprocess_mbps * preprocess_speedup;
  if (beta > 0.0 && ctx.time_scale > 0.0) {
    // One pacer per calling thread (pool workers, consumers): no shared debt.
    thread_local tiers::Pacer pacer(tiers::real_clock());
    pacer.charge(mb / beta / ctx.time_scale);
  }
}

/// Common bookkeeping: counts, MB, stall time.
class StatsAccum {
 public:
  void count_pfs(double mb) {
    ++pfs_;
    pfs_mb_ += mb;
  }
  void count_local(double mb) {
    ++local_;
    local_mb_ += mb;
  }
  void count_remote(double mb) {
    ++remote_;
    remote_mb_ += mb;
  }
  void add_stall(double seconds) { stall_s_ += seconds; }

  [[nodiscard]] core::JobStats snapshot(double time_scale) const {
    core::JobStats stats;
    stats.pfs_fetches = pfs_.load();
    stats.local_fetches = local_.load();
    stats.remote_fetches = remote_.load();
    stats.pfs_mb = pfs_mb_.load();
    stats.local_mb = local_mb_.load();
    stats.remote_mb = remote_mb_.load();
    stats.stall_s = stall_s_.load() * time_scale;
    return stats;
  }

 private:
  std::atomic<std::uint64_t> pfs_{0};
  std::atomic<std::uint64_t> local_{0};
  std::atomic<std::uint64_t> remote_{0};
  std::atomic<double> pfs_mb_{0.0};
  std::atomic<double> local_mb_{0.0};
  std::atomic<double> remote_mb_{0.0};
  std::atomic<double> stall_s_{0.0};
};

// ---------------------------------------------------------------------------

/// NoPFS adapter over core::Job.
class NoPFSLoader final : public Loader {
 public:
  explicit NoPFSLoader(const LoaderContext& ctx) : ctx_(ctx) {
    core::JobOptions options;
    options.seed = ctx.seed;
    options.num_epochs = ctx.num_epochs;
    options.global_batch = ctx.global_batch;
    options.drop_last = ctx.drop_last;
    options.router = ctx.router;
    options.time_scale = ctx.time_scale;
    job_ = std::make_unique<core::Job>(*ctx.dataset, *ctx.system, ctx.rank, options,
                                       *ctx.source, ctx.transport, ctx.devices);
  }

  void start() override { job_->start(); }

  std::optional<LoadedSample> next() override {
    auto handle = job_->next();
    if (!handle.has_value()) return std::nullopt;
    return LoadedSample(std::move(*handle));
  }

  [[nodiscard]] core::JobStats stats() const override { return job_->stats(); }
  [[nodiscard]] std::string name() const override { return "NoPFS"; }

 private:
  LoaderContext ctx_;
  std::unique_ptr<core::Job> job_;
};

// ---------------------------------------------------------------------------

/// Synchronous PFS reads, no prefetching (the Naive strategy).
class NaiveLoader final : public Loader {
 public:
  explicit NaiveLoader(const LoaderContext& ctx) : ctx_(ctx) {
    const core::AccessStreamGenerator gen(stream_config_of(ctx));
    stream_ = gen.worker_stream(ctx.rank);
  }

  void start() override {}

  std::optional<LoadedSample> next() override {
    if (position_ >= stream_.size()) return std::nullopt;
    const data::SampleId id = stream_[position_++];
    const double mb = ctx_.dataset->size_mb(id);
    const double begin = now_s();
    auto bytes = ctx_.source->read(ctx_.rank, id);
    charge_preprocess_and_stage(ctx_, mb);
    stats_.add_stall(now_s() - begin);
    stats_.count_pfs(mb);
    return LoadedSample(id, std::move(bytes));
  }

  [[nodiscard]] core::JobStats stats() const override {
    return stats_.snapshot(ctx_.time_scale);
  }
  [[nodiscard]] std::string name() const override { return "Naive"; }

 private:
  LoaderContext ctx_;
  std::vector<data::SampleId> stream_;
  std::uint64_t position_ = 0;
  StatsAccum stats_;
};

// ---------------------------------------------------------------------------

/// PyTorch DataLoader: threads double-buffer the access stream from the PFS
/// with a bounded lookahead.  With preprocess_speedup > 1 this models DALI
/// (GPU-offloaded preprocessing).
class DoubleBufferLoader final : public Loader {
 public:
  DoubleBufferLoader(const LoaderContext& ctx, double preprocess_speedup,
                     std::string name)
      : ctx_(ctx), preprocess_speedup_(preprocess_speedup), name_(std::move(name)) {
    const core::AccessStreamGenerator gen(stream_config_of(ctx));
    stream_ = gen.worker_stream(ctx.rank);
    fetcher_ = std::make_unique<PipelinedFetcher>(
        stream_.size(), ctx.threads, ctx.lookahead, [this](std::uint64_t pos) {
          const data::SampleId id = stream_[pos];
          const double mb = ctx_.dataset->size_mb(id);
          auto bytes = ctx_.source->read(ctx_.rank, id);
          charge_preprocess_and_stage(ctx_, mb, preprocess_speedup_);
          stats_.count_pfs(mb);
          return bytes;
        });
  }

  void start() override { fetcher_->start(); }

  std::optional<LoadedSample> next() override {
    if (position_ >= stream_.size()) return std::nullopt;
    const double begin = now_s();
    auto bytes = fetcher_->next();
    stats_.add_stall(now_s() - begin);
    if (!bytes.has_value()) return std::nullopt;
    const data::SampleId id = stream_[position_++];
    return LoadedSample(id, std::move(*bytes));
  }

  [[nodiscard]] core::JobStats stats() const override {
    return stats_.snapshot(ctx_.time_scale);
  }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  LoaderContext ctx_;
  double preprocess_speedup_;
  std::string name_;
  std::vector<data::SampleId> stream_;
  std::unique_ptr<PipelinedFetcher> fetcher_;
  std::uint64_t position_ = 0;
  StatsAccum stats_;
};

// ---------------------------------------------------------------------------

/// tf.data: sequential strided reads with a sliding shuffle window — limited
/// randomization instead of a full per-epoch reshuffle.
class ShuffleBufferLoader final : public Loader {
 public:
  static constexpr std::size_t kWindow = 256;

  explicit ShuffleBufferLoader(const LoaderContext& ctx)
      : ctx_(ctx), rng_(util::Rng::for_stream(ctx.seed ^ 0x7fdaULL,
                                              static_cast<std::uint64_t>(ctx.rank) + 1)) {
    // Per-epoch sequential order over this worker's file shard
    // (rank-strided ids), repeated for E epochs.
    const core::StreamConfig config = stream_config_of(ctx);
    const std::uint64_t per_epoch = config.samples_per_worker_epoch();
    order_.reserve(per_epoch * static_cast<std::uint64_t>(ctx.num_epochs));
    for (int e = 0; e < ctx.num_epochs; ++e) {
      std::uint64_t emitted = 0;
      for (data::SampleId k = static_cast<data::SampleId>(ctx.rank);
           k < ctx.dataset->num_samples() && emitted < per_epoch;
           k += static_cast<data::SampleId>(ctx.system->num_workers), ++emitted) {
        order_.push_back(k);
      }
    }
    fetcher_ = std::make_unique<PipelinedFetcher>(
        order_.size(), ctx.threads, ctx.lookahead, [this](std::uint64_t pos) {
          const data::SampleId id = order_[pos];
          const double mb = ctx_.dataset->size_mb(id);
          auto bytes = ctx_.source->read(ctx_.rank, id);
          charge_preprocess_and_stage(ctx_, mb);
          stats_.count_pfs(mb);
          return bytes;
        });
  }

  void start() override { fetcher_->start(); }

  std::optional<LoadedSample> next() override {
    // Keep the shuffle window full, then emit a random member.
    while (window_.size() < kWindow && fill_position_ < order_.size()) {
      const double begin = now_s();
      auto bytes = fetcher_->next();
      stats_.add_stall(now_s() - begin);
      if (!bytes.has_value()) break;
      window_.emplace_back(order_[fill_position_++], std::move(*bytes));
    }
    if (window_.empty()) return std::nullopt;
    const std::size_t pick =
        static_cast<std::size_t>(rng_.uniform_below(window_.size()));
    LoadedSample sample(window_[pick].first, std::move(window_[pick].second));
    window_[pick] = std::move(window_.back());
    window_.pop_back();
    return sample;
  }

  [[nodiscard]] core::JobStats stats() const override {
    return stats_.snapshot(ctx_.time_scale);
  }
  [[nodiscard]] std::string name() const override { return "tf.data"; }

 private:
  LoaderContext ctx_;
  util::Rng rng_;
  std::vector<data::SampleId> order_;
  std::unique_ptr<PipelinedFetcher> fetcher_;
  std::uint64_t fill_position_ = 0;
  std::vector<std::pair<data::SampleId, std::vector<std::uint8_t>>> window_;
  StatsAccum stats_;
};

// ---------------------------------------------------------------------------

/// Data sharding: prestage a static shard into local memory, then read only
/// locally (deviates from full-dataset randomization).
class ShardedLoader final : public Loader {
 public:
  explicit ShardedLoader(const LoaderContext& ctx) : ctx_(ctx) {
    double capacity = 0.0;
    for (const auto& sc : ctx.system->node.classes) capacity += sc.capacity_mb;
    backend_ = std::make_unique<core::MemoryBackend>(capacity);
    const core::StreamConfig config = stream_config_of(ctx);
    per_epoch_ = config.samples_per_worker_epoch();
    double used = 0.0;
    for (data::SampleId k = static_cast<data::SampleId>(ctx.rank);
         k < ctx.dataset->num_samples();
         k += static_cast<data::SampleId>(ctx.system->num_workers)) {
      const double mb = ctx.dataset->size_mb(k);
      if (used + mb > capacity) break;
      used += mb;
      shard_.push_back(k);
    }
  }

  void start() override {
    // Prestage: read the shard from the PFS into local memory.  This phase
    // cannot overlap training.
    for (data::SampleId k : shard_) {
      const double mb = ctx_.dataset->size_mb(k);
      auto bytes = ctx_.source->read(ctx_.rank, k);
      stats_.count_pfs(mb);
      backend_->store(k, bytes);
      if (ctx_.devices != nullptr && !ctx_.devices->tiers.empty()) {
        ctx_.devices->tiers.front()->write(mb);
      }
    }
    reshuffle(0);
  }

  std::optional<LoadedSample> next() override {
    const std::uint64_t total = per_epoch_ * static_cast<std::uint64_t>(ctx_.num_epochs);
    if (shard_.empty() || position_ >= total) return std::nullopt;
    const std::uint64_t epoch = position_ / per_epoch_;
    if (epoch != current_epoch_) reshuffle(static_cast<int>(epoch));
    const data::SampleId id = sequence_[position_ % sequence_.size()];
    ++position_;
    const double mb = ctx_.dataset->size_mb(id);
    const double begin = now_s();
    const auto bytes = backend_->share(id);
    if (bytes == nullptr) {
      throw std::runtime_error("Sharded: sample " + std::to_string(id) +
                               " is missing from the prestaged shard");
    }
    if (ctx_.devices != nullptr && !ctx_.devices->tiers.empty()) {
      ctx_.devices->tiers.front()->read(mb);
    }
    charge_preprocess_and_stage(ctx_, mb);
    stats_.add_stall(now_s() - begin);
    stats_.count_local(mb);
    return LoadedSample(id, *bytes);
  }

  [[nodiscard]] core::JobStats stats() const override {
    return stats_.snapshot(ctx_.time_scale);
  }
  [[nodiscard]] std::string name() const override { return "Sharded"; }

 private:
  void reshuffle(int epoch) {
    current_epoch_ = static_cast<std::uint64_t>(epoch);
    sequence_ = shard_;
    util::Rng rng = util::Rng::for_stream(
        ctx_.seed ^ 0x3c3cULL,
        static_cast<std::uint64_t>(epoch) *
                static_cast<std::uint64_t>(ctx_.system->num_workers) +
            static_cast<std::uint64_t>(ctx_.rank) + 1);
    util::fisher_yates_shuffle(std::span<data::SampleId>(sequence_), rng);
  }

  LoaderContext ctx_;
  std::vector<data::SampleId> shard_;
  std::vector<data::SampleId> sequence_;
  std::unique_ptr<core::MemoryBackend> backend_;
  std::uint64_t per_epoch_ = 0;
  std::uint64_t position_ = 0;
  std::uint64_t current_epoch_ = 0;
  StatsAccum stats_;
};

// ---------------------------------------------------------------------------

/// LBANN data store (dynamic mode): every sample is owned by the worker
/// that reads it first (epoch 0); owners cache in RAM and serve peers.
class LbannLoader final : public Loader {
 public:
  explicit LbannLoader(const LoaderContext& ctx) : ctx_(ctx) {
    const core::AccessStreamGenerator gen(stream_config_of(ctx));
    stream_ = gen.worker_stream(ctx.rank);
    per_epoch_ = gen.config().samples_per_worker_epoch();
    // Clairvoyant shortcut for ownership metadata: the first reader of a
    // sample in epoch 0 is deterministic given the seed (the real LBANN
    // data store exchanges this metadata at the end of epoch 0).
    owners_.assign(ctx.dataset->num_samples(), kUnowned);
    const auto order = gen.epoch_order(0);
    const std::uint64_t consumed = std::min<std::uint64_t>(
        order.size(), gen.config().iterations_per_epoch() * gen.config().global_batch);
    for (std::uint64_t pos = 0; pos < consumed; ++pos) {
      owners_[order[pos]] = static_cast<std::uint32_t>(
          pos % static_cast<std::uint64_t>(ctx.system->num_workers));
    }
    const double ram = ctx.system->node.classes.empty()
                           ? 0.0
                           : ctx.system->node.classes[0].capacity_mb;
    backend_ = std::make_unique<core::MemoryBackend>(ram);
    fetcher_ = std::make_unique<PipelinedFetcher>(
        stream_.size(), ctx.threads, ctx.lookahead,
        [this](std::uint64_t pos) { return fetch(pos); });
  }

  ~LbannLoader() override {
    // Uninstall the serve handler before backend_ dies: a straggling peer
    // fetch must become a miss, not a use-after-free.  (core::Job does the
    // same in stop(); both transports hold their handler mutex across a
    // serve, so after this call no serve can touch freed state.)
    if (ctx_.transport != nullptr && ctx_.transport->world_size() > 1) {
      ctx_.transport->set_serve_handler(net::Transport::ServeHandler{});
    }
  }

  void start() override {
    if (ctx_.transport != nullptr && ctx_.transport->world_size() > 1) {
      core::MemoryBackend* backend = backend_.get();
      const LoaderContext ctx = ctx_;
      ctx_.transport->set_serve_handler(
          [backend, ctx](std::uint64_t id) {
            auto bytes = backend->share(id);
            if (bytes != nullptr && ctx.devices != nullptr &&
                !ctx.devices->tiers.empty()) {
              ctx.devices->tiers.front()->read(
                  util::bytes_to_mb(bytes->size()));
            }
            return bytes;
          });
      ctx_.transport->barrier();
    }
    fetcher_->start();
  }

  std::optional<LoadedSample> next() override {
    if (position_ >= stream_.size()) return std::nullopt;
    const double begin = now_s();
    auto bytes = fetcher_->next();
    stats_.add_stall(now_s() - begin);
    if (!bytes.has_value()) return std::nullopt;
    const data::SampleId id = stream_[position_++];
    return LoadedSample(id, std::move(*bytes));
  }

  [[nodiscard]] core::JobStats stats() const override {
    return stats_.snapshot(ctx_.time_scale);
  }
  [[nodiscard]] std::string name() const override { return "LBANN"; }

 private:
  static constexpr std::uint32_t kUnowned = 0xffffffffu;

  std::vector<std::uint8_t> fetch(std::uint64_t pos) {
    const data::SampleId id = stream_[pos];
    const double mb = ctx_.dataset->size_mb(id);
    // Local cache hit.
    if (const auto cached = backend_->share(id); cached != nullptr) {
      if (ctx_.devices != nullptr && !ctx_.devices->tiers.empty()) {
        ctx_.devices->tiers.front()->read(mb);
      }
      charge_preprocess_and_stage(ctx_, mb);
      stats_.count_local(mb);
      return *cached;
    }
    // After epoch 0, the owner has it: fetch remotely.
    const std::uint32_t owner = owners_[id];
    const bool past_first_epoch = pos >= per_epoch_;
    if (past_first_epoch && owner != kUnowned &&
        owner != static_cast<std::uint32_t>(ctx_.rank) && ctx_.transport != nullptr) {
      auto remote = ctx_.transport->fetch_sample(static_cast<int>(owner), id);
      if (remote.has_value()) {
        charge_preprocess_and_stage(ctx_, mb);
        stats_.count_remote(mb);
        return std::move(*remote);
      }
    }
    // PFS read; cache if this worker owns the sample.
    auto bytes = ctx_.source->read(ctx_.rank, id);
    stats_.count_pfs(mb);
    if (owner == static_cast<std::uint32_t>(ctx_.rank) && backend_->store(id, bytes)) {
      if (ctx_.devices != nullptr && !ctx_.devices->tiers.empty()) {
        ctx_.devices->tiers.front()->write(mb);
      }
    }
    charge_preprocess_and_stage(ctx_, mb);
    return bytes;
  }

  LoaderContext ctx_;
  std::vector<data::SampleId> stream_;
  std::vector<std::uint32_t> owners_;
  std::unique_ptr<core::MemoryBackend> backend_;
  std::unique_ptr<PipelinedFetcher> fetcher_;
  std::uint64_t per_epoch_ = 0;
  std::uint64_t position_ = 0;
  StatsAccum stats_;
};

}  // namespace

const char* loader_kind_name(LoaderKind kind) noexcept {
  switch (kind) {
    case LoaderKind::kNoPFS: return "NoPFS";
    case LoaderKind::kNaive: return "Naive";
    case LoaderKind::kPyTorch: return "PyTorch";
    case LoaderKind::kDali: return "PyTorch+DALI";
    case LoaderKind::kTfData: return "tf.data";
    case LoaderKind::kSharded: return "Sharded";
    case LoaderKind::kLbann: return "LBANN";
  }
  return "?";
}

namespace {

constexpr std::pair<LoaderKind, const char*> kLoaderFlags[] = {
    {LoaderKind::kNoPFS, "nopfs"},     {LoaderKind::kNaive, "naive"},
    {LoaderKind::kPyTorch, "pytorch"}, {LoaderKind::kDali, "dali"},
    {LoaderKind::kTfData, "tfdata"},   {LoaderKind::kSharded, "sharded"},
    {LoaderKind::kLbann, "lbann"},
};

}  // namespace

const char* loader_flag_name(LoaderKind kind) noexcept {
  for (const auto& [k, name] : kLoaderFlags) {
    if (k == kind) return name;
  }
  return "nopfs";
}

LoaderKind parse_loader_kind(const std::string& name) {
  for (const auto& [kind, flag] : kLoaderFlags) {
    if (name == flag) return kind;
  }
  throw std::invalid_argument("unknown loader '" + name + "'; known: " +
                              loader_flag_names());
}

const std::string& loader_flag_names() {
  static const std::string joined = [] {
    std::string out;
    for (const auto& [kind, flag] : kLoaderFlags) {
      if (!out.empty()) out += '|';
      out += flag;
    }
    return out;
  }();
  return joined;
}

std::unique_ptr<Loader> make_loader(LoaderKind kind, const LoaderContext& ctx) {
  switch (kind) {
    case LoaderKind::kNoPFS:
      return std::make_unique<NoPFSLoader>(ctx);
    case LoaderKind::kNaive:
      return std::make_unique<NaiveLoader>(ctx);
    case LoaderKind::kPyTorch:
      return std::make_unique<DoubleBufferLoader>(ctx, 1.0, "PyTorch");
    case LoaderKind::kDali:
      // DALI offloads decoding/augmentation to GPU: ~8x the CPU pipeline.
      return std::make_unique<DoubleBufferLoader>(ctx, 8.0, "PyTorch+DALI");
    case LoaderKind::kTfData:
      return std::make_unique<ShuffleBufferLoader>(ctx);
    case LoaderKind::kSharded:
      return std::make_unique<ShardedLoader>(ctx);
    case LoaderKind::kLbann:
      return std::make_unique<LbannLoader>(ctx);
  }
  throw std::invalid_argument("make_loader: unknown kind");
}

}  // namespace nopfs::baselines

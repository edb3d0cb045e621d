#include "core/job.hpp"

#include <stdexcept>

#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::core {

namespace {

StreamConfig make_stream_config(const data::Dataset& dataset,
                                const tiers::SystemParams& system,
                                const JobOptions& options) {
  StreamConfig config;
  config.seed = options.seed;
  config.num_samples = dataset.num_samples();
  config.num_workers = system.num_workers;
  config.num_epochs = options.num_epochs;
  config.global_batch = options.global_batch;
  config.drop_last = options.drop_last;
  config.shuffle = options.shuffle;
  return config;
}

}  // namespace

Job::Job(const data::Dataset& dataset, const tiers::SystemParams& system, int rank,
         JobOptions options, SampleSource& source, net::Transport* transport,
         tiers::WorkerDevices* devices)
    : dataset_(dataset),
      system_(system),
      rank_(rank),
      options_(std::move(options)),
      source_(source),
      transport_(transport),
      devices_(devices),
      generator_(make_stream_config(dataset, system, options_)),
      model_(system),
      metadata_(static_cast<int>(system.node.classes.size())) {
  if (rank_ < 0 || rank_ >= system_.num_workers) {
    throw std::invalid_argument("Job: rank out of range");
  }
  if (transport_ != nullptr && transport_->world_size() != system_.num_workers) {
    throw std::invalid_argument("Job: transport world size != num_workers");
  }
  if (transport_ == nullptr && system_.num_workers > 1 && options_.router.use_remote) {
    throw std::invalid_argument(
        "Job: multi-worker jobs with remote fetching need a transport");
  }
}

Job::~Job() { stop(); }

void Job::start() {
  if (started_) throw std::logic_error("Job: start() called twice");
  started_ = true;

  // Clairvoyance: the entire access stream R is known up front.
  stream_ = generator_.worker_stream(rank_);
  plan_ = compute_cache_plan(generator_, rank_, dataset_, system_.node);

  // Exchange plans so every worker knows where every sample will live.
  if (transport_ != nullptr && transport_->world_size() > 1) {
    auto gathered = transport_->allgather(encode_plan(plan_));
    all_plans_.reserve(gathered.size());
    for (auto& bytes : gathered) all_plans_.push_back(decode_plan(bytes));
  } else {
    all_plans_.push_back(plan_);
  }
  locations_ = LocationIndex(all_plans_, rank_);
  readiness_ = RemoteReadiness(all_plans_);

  // Storage backends for classes 1..J.
  backends_.clear();
  for (std::size_t cls = 0; cls < system_.node.classes.size(); ++cls) {
    const auto& sc = system_.node.classes[cls];
    if (sc.name == "ssd" && !options_.ssd_dir.empty()) {
      backends_.push_back(std::make_unique<FilesystemBackend>(
          options_.ssd_dir / ("rank_" + std::to_string(rank_) + "_cls_" +
                              std::to_string(cls)),
          sc.capacity_mb));
    } else {
      backends_.push_back(std::make_unique<MemoryBackend>(sc.capacity_mb));
    }
  }

  staging_ = std::make_unique<StagingBuffer>(
      util::mb_to_bytes(system_.node.staging.capacity_mb));

  router_ = std::make_unique<FetchRouter>(rank_, model_, plan_, locations_, readiness_,
                                          metadata_, backends_, source_, transport_,
                                          devices_, options_.router);

  if (transport_ != nullptr && transport_->world_size() > 1) {
    // Serve locally cached samples to peers, then synchronize so nobody
    // issues a remote fetch before every handler is installed.
    FetchRouter* router = router_.get();
    transport_->set_serve_handler(
        [router](std::uint64_t id) { return router->load_local(id); });
    transport_->barrier();
  }

  for (std::size_t cls = 0; cls < backends_.size(); ++cls) {
    class_prefetchers_.push_back(std::make_unique<ClassPrefetcher>(
        static_cast<int>(cls), plan_.per_class[cls], dataset_, *router_, metadata_,
        backends_, devices_, system_.node.classes[cls].prefetch_threads));
  }
  staging_prefetcher_ = std::make_unique<StagingPrefetcher>(
      stream_, dataset_, *staging_, *router_, devices_,
      system_.node.preprocess_mbps, options_.time_scale,
      system_.node.staging.prefetch_threads, transport_);

  for (auto& prefetcher : class_prefetchers_) prefetcher->start();
  staging_prefetcher_->start();
  util::log_debug("rank ", rank_, ": job started, |R|=", stream_.size(),
                  ", planned cache=", plan_.total_samples(), " samples");
}

std::optional<SampleHandle> Job::next() {
  if (!started_ || stopped_) return std::nullopt;
  if (consume_position_ >= stream_.size()) return std::nullopt;
  auto consumed = staging_->consume(consume_position_);
  if (!consumed.has_value()) {
    staging_prefetcher_->rethrow_error();  // a producer failed and closed it
    return std::nullopt;                   // closed
  }
  ++consume_position_;
  return SampleHandle(staging_.get(), *consumed);
}

void Job::stop() {
  if (!started_ || stopped_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  if (staging_prefetcher_ != nullptr) staging_prefetcher_->stop();
  for (auto& prefetcher : class_prefetchers_) prefetcher->stop();
  if (transport_ != nullptr && transport_->world_size() > 1) {
    // Withdraw the serve handler so peers that outlive this job get clean
    // misses (they fall back to the PFS) instead of touching freed state.
    transport_->set_serve_handler(net::Transport::ServeHandler{});
  }
}

JobStats Job::stats() const {
  JobStats stats;
  if (router_ != nullptr) {
    const FetchStats& fs = router_->stats();
    stats.local_fetches = fs.local_fetches.load(std::memory_order_relaxed);
    stats.remote_fetches = fs.remote_fetches.load(std::memory_order_relaxed);
    stats.pfs_fetches = fs.pfs_fetches.load(std::memory_order_relaxed);
    stats.remote_misses = fs.remote_misses.load(std::memory_order_relaxed);
    stats.local_mb = fs.local_mb.load(std::memory_order_relaxed);
    stats.remote_mb = fs.remote_mb.load(std::memory_order_relaxed);
    stats.pfs_mb = fs.pfs_mb.load(std::memory_order_relaxed);
  }
  if (staging_ != nullptr) {
    stats.stall_s = staging_->consumer_stall_s() * options_.time_scale;
  }
  stats.cached_samples = metadata_.total_count();
  return stats;
}

int Job::epoch_of(std::uint64_t position) const noexcept {
  const auto per_epoch = static_cast<std::uint64_t>(generator_.config().num_epochs) > 0
                             ? stream_.size() /
                                   static_cast<std::uint64_t>(generator_.config().num_epochs)
                             : stream_.size();
  if (per_epoch == 0) return 0;
  const auto epoch = position / per_epoch;
  const int max_epoch = generator_.config().num_epochs - 1;
  return static_cast<int>(epoch) > max_epoch ? max_epoch : static_cast<int>(epoch);
}

}  // namespace nopfs::core

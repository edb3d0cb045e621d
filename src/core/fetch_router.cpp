#include "core/fetch_router.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::core {

RemoteReadiness::RemoteReadiness(const std::vector<CachePlan>& plans) {
  positions_.resize(plans.size());
  for (std::size_t rank = 0; rank < plans.size(); ++rank) {
    positions_[rank].resize(plans[rank].per_class.size());
    for (std::size_t cls = 0; cls < plans[rank].per_class.size(); ++cls) {
      auto& map = positions_[rank][cls];
      const auto& samples = plans[rank].per_class[cls].samples;
      map.reserve(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        map.emplace(samples[i], static_cast<std::uint32_t>(i));
      }
    }
  }
}

std::int64_t RemoteReadiness::position(int peer, int cls, data::SampleId sample) const {
  if (peer < 0 || static_cast<std::size_t>(peer) >= positions_.size()) return -1;
  if (cls < 0 || static_cast<std::size_t>(cls) >= positions_[peer].size()) return -1;
  const auto& map = positions_[static_cast<std::size_t>(peer)][static_cast<std::size_t>(cls)];
  const auto it = map.find(sample);
  if (it == map.end()) return -1;
  return static_cast<std::int64_t>(it->second);
}

bool RemoteReadiness::likely_cached(int peer, int cls, data::SampleId sample,
                                    std::uint64_t self_progress) const {
  const std::int64_t pos = position(peer, cls, sample);
  if (pos < 0) return false;
  return static_cast<std::uint64_t>(pos) < self_progress;
}

FetchRouter::FetchRouter(int rank, const PerfModel& model, const CachePlan& self_plan,
                         const LocationIndex& locations, const RemoteReadiness& readiness,
                         MetadataStore& metadata,
                         std::vector<std::unique_ptr<StorageBackend>>& backends,
                         SampleSource& source, net::Transport* transport,
                         tiers::WorkerDevices* devices, RouterOptions options)
    : rank_(rank),
      model_(model),
      self_plan_(self_plan),
      locations_(locations),
      readiness_(readiness),
      metadata_(metadata),
      backends_(backends),
      source_(source),
      transport_(transport),
      devices_(devices),
      options_(options),
      progress_(backends.size()) {
  for (auto& p : progress_) p.store(0, std::memory_order_relaxed);
}

void FetchRouter::note_class_progress(int cls) {
  progress_.at(static_cast<std::size_t>(cls)).fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FetchRouter::class_progress(int cls) const {
  return progress_.at(static_cast<std::size_t>(cls)).load(std::memory_order_relaxed);
}

std::shared_ptr<const Bytes> FetchRouter::share_from(int cls, data::SampleId sample) {
  auto bytes = backends_.at(static_cast<std::size_t>(cls))->share(sample);
  if (bytes != nullptr && devices_ != nullptr) {
    devices_->tiers.at(static_cast<std::size_t>(cls))
        ->read(util::bytes_to_mb(bytes->size()));
  }
  return bytes;
}

std::shared_ptr<const Bytes> FetchRouter::load_local(data::SampleId sample) {
  const auto cls = metadata_.find(sample);
  if (!cls.has_value()) return nullptr;
  return share_from(*cls, sample);
}

bool FetchRouter::try_claim(data::SampleId sample) {
  const std::scoped_lock lock(inflight_mutex_);
  if (metadata_.contains(sample)) return false;
  return inflight_.insert(sample).second;
}

void FetchRouter::finish_claim(data::SampleId sample,
                               std::span<const std::uint8_t> bytes) {
  const auto planned = self_plan_.find(sample);
  if (planned.has_value()) {
    const double mb = util::bytes_to_mb(bytes.size());
    auto& backend = backends_.at(static_cast<std::size_t>(*planned));
    if (backend->store(sample, bytes)) {
      if (devices_ != nullptr) {
        devices_->tiers.at(static_cast<std::size_t>(*planned))->write(mb);
      }
      metadata_.insert(sample, *planned, mb);
    }
  }
  release_claim(sample);
}

void FetchRouter::release_claim(data::SampleId sample) {
  {
    const std::scoped_lock lock(inflight_mutex_);
    inflight_.erase(sample);
  }
  inflight_cv_.notify_all();
}

void FetchRouter::wait_if_inflight(data::SampleId sample) {
  std::unique_lock lock(inflight_mutex_);
  if (!inflight_.contains(sample)) return;
  util::log_trace("rank ", rank_, ": waiting for in-flight sample ", sample);
  inflight_cv_.wait(lock, [&] { return !inflight_.contains(sample); });
  util::log_trace("rank ", rank_, ": in-flight wait done for sample ", sample);
}

bool FetchRouter::fetch_remote(data::SampleId sample, double size_mb,
                               std::span<std::uint8_t> out) {
  int remote_cls = -1;
  int remote_peer = -1;
  if (options_.use_remote && transport_ != nullptr && transport_->world_size() > 1) {
    if (const auto remote = locations_.best_remote(sample); remote.has_value()) {
      const bool ready =
          !options_.use_watermark_heuristic ||
          readiness_.likely_cached(remote->peer, remote->storage_class, sample,
                                   class_progress(remote->storage_class));
      if (ready) {
        remote_cls = remote->storage_class;
        remote_peer = remote->peer;
      }
    }
  }

  // The model cannot see live PFS congestion; it uses the conservative
  // estimate gamma = N (every worker contending), which is what the paper's
  // "minimize gamma" reasoning assumes.
  const int gamma = model_.params().num_workers;
  const FetchChoice choice =
      model_.choose_fetch(size_mb, /*local=*/-1, remote_cls, remote_peer, gamma);
  if (choice.source != FetchSource::kRemote) return false;

  // A payload of the wrong length is never delivered in part: it counts
  // as a miss like an absent one.
  if (transport_->fetch_sample_into(choice.peer, sample, out)) {
    ++stats_.remote_fetches;
    stats_.add_mb(stats_.remote_mb, size_mb);
    return true;
  }
  // Heuristic false positive: detected, not an error (Sec. 5.2.2).
  ++stats_.remote_misses;
  return false;
}

void FetchRouter::read_pfs(data::SampleId sample, double size_mb,
                           std::span<std::uint8_t> out) {
  // Case 0: the PFS always has the data at rest.
  source_.read_into(rank_, sample, out);
  ++stats_.pfs_fetches;
  stats_.add_mb(stats_.pfs_mb, size_mb);
}

void FetchRouter::fill_claimed(data::SampleId sample, double size_mb,
                               std::span<std::uint8_t> out) {
  try {
    if (!fetch_remote(sample, size_mb, out)) read_pfs(sample, size_mb, out);
  } catch (...) {
    // Waiters in wait_if_inflight() must not block on a fetch that died.
    release_claim(sample);
    throw;
  }
}

void FetchRouter::fetch_into(data::SampleId sample, double size_mb,
                             std::span<std::uint8_t> out) {
  if (out.size() != util::mb_to_bytes(size_mb)) {
    throw std::invalid_argument("fetch_into: buffer is not the sample's size");
  }
  const bool may_cache = options_.cache_on_miss && self_plan_.find(sample).has_value();
  for (;;) {
    // Local cache first — the fastest source when present.  A claim is
    // stored before it is listed and nothing evicts, so a listed sample the
    // backend cannot produce is lost for good: retrying would spin.
    if (const auto cls = metadata_.find(sample); cls.has_value()) {
      const auto bytes = share_from(*cls, sample);
      if (bytes == nullptr) {
        throw std::runtime_error("fetch_into: sample " + std::to_string(sample) +
                                 " is listed in class " + std::to_string(*cls) +
                                 " but its backend cannot produce it");
      }
      if (bytes->size() != out.size()) {
        throw std::runtime_error("fetch_into: local copy has the wrong length");
      }
      if (!out.empty()) std::memcpy(out.data(), bytes->data(), out.size());
      ++stats_.local_fetches;
      stats_.add_mb(stats_.local_mb, size_mb);
      return;
    }
    if (!may_cache) break;
    if (try_claim(sample)) {
      // This thread materializes the sample for everyone: straight into
      // `out`, which the cache then copies.
      fill_claimed(sample, size_mb, out);
      finish_claim(sample, out);
      return;
    }
    // Someone else (class prefetcher or a sibling staging thread) is
    // fetching it right now; wait and serve it from the local cache —
    // planned samples hit the PFS at most once per worker.
    wait_if_inflight(sample);
  }
  // Not cacheable here: a remote payload or a PFS read lands straight in
  // `out`.
  if (!fetch_remote(sample, size_mb, out)) read_pfs(sample, size_mb, out);
}

bool FetchRouter::prefetch_planned(data::SampleId sample, double size_mb) {
  if (!try_claim(sample)) return false;
  Bytes bytes(util::mb_to_bytes(size_mb));
  fill_claimed(sample, size_mb, bytes);
  finish_claim(sample, bytes);
  return true;
}

}  // namespace nopfs::core

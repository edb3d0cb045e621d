#include "core/perf_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nopfs::core {

const char* to_string(FetchSource source) noexcept {
  switch (source) {
    case FetchSource::kStaging: return "staging";
    case FetchSource::kLocal: return "local";
    case FetchSource::kRemote: return "remote";
    case FetchSource::kPfs: return "pfs";
    case FetchSource::kUnavailable: return "unavailable";
  }
  return "?";
}

PerfModel::PerfModel(const tiers::SystemParams& params) : params_(params) {
  if (params_.num_workers <= 0) {
    throw std::invalid_argument("PerfModel: num_workers must be positive");
  }
  for (const auto& sc : params_.node.classes) {
    const double per_thread = sc.per_thread_read_mbps();
    local_mbps_.push_back(per_thread);
    remote_mbps_.push_back(std::min(params_.node.network_mbps, per_thread));
  }
  staging_write_mbps_ = params_.node.staging.per_thread_write_mbps();
}

double PerfModel::fetch_pfs_s(double mb, int gamma) const {
  return pfs_quote(gamma).seconds(mb);
}

PfsQuote PerfModel::pfs_quote(int gamma) const {
  // Bandwidth share plus the per-file metadata-op latency (0 when the
  // system has no op model configured).
  return {pfs_client_mbps(gamma), params_.pfs.op_latency_s(gamma)};
}

double PerfModel::fetch_remote_s(double mb, int cls) const {
  const double rate = remote_class_mbps(cls);
  if (rate <= 0.0) return std::numeric_limits<double>::infinity();
  return mb / rate;
}

double PerfModel::fetch_local_s(double mb, int cls) const {
  const double rate = local_class_mbps(cls);
  if (rate <= 0.0) return std::numeric_limits<double>::infinity();
  return mb / rate;
}

double PerfModel::write_s(double mb) const {
  // Preprocessing and the staging-buffer store pipeline in parallel; the
  // slower of the two dominates (paper Sec. 4).
  const double beta = params_.node.preprocess_mbps;
  const double preprocess = beta > 0.0 ? mb / beta : 0.0;
  const double store = staging_write_mbps_ > 0.0 ? mb / staging_write_mbps_ : 0.0;
  return std::max(preprocess, store);
}

double PerfModel::compute_s(double mb) const {
  const double c = params_.node.compute_mbps;
  if (c <= 0.0) return 0.0;
  return mb / c;
}

double PerfModel::local_class_mbps(int cls) const {
  if (cls < 0 || cls >= static_cast<int>(local_mbps_.size())) return 0.0;
  return local_mbps_[static_cast<std::size_t>(cls)];
}

double PerfModel::remote_class_mbps(int cls) const {
  if (cls < 0 || cls >= static_cast<int>(remote_mbps_.size())) return 0.0;
  return remote_mbps_[static_cast<std::size_t>(cls)];
}

double PerfModel::pfs_client_mbps(int gamma) const {
  return params_.pfs.per_client_mbps(gamma);
}

FetchChoice PerfModel::choose_fetch(double mb, int local_class, int remote_class,
                                    int remote_peer, int gamma) const {
  FetchChoice best;
  best.seconds = std::numeric_limits<double>::infinity();
  // Case 2: local storage class (fastest holding class).
  if (local_class >= 0) {
    const double t = fetch_local_s(mb, local_class);
    if (t < best.seconds) {
      best = FetchChoice{FetchSource::kLocal, local_class, -1, t};
    }
  }
  // Case 1: remote worker's storage class.
  if (remote_class >= 0 && remote_peer >= 0) {
    const double t = fetch_remote_s(mb, remote_class);
    if (t < best.seconds) {
      best = FetchChoice{FetchSource::kRemote, remote_class, remote_peer, t};
    }
  }
  // Case 0: the PFS always works (data at rest there).
  {
    const double t = fetch_pfs_s(mb, gamma);
    if (t < best.seconds) {
      best = FetchChoice{FetchSource::kPfs, -1, -1, t};
    }
  }
  return best;
}

TimelineResult evaluate_timeline(std::span<const double> sizes_mb,
                                 std::span<const double> read_s, double compute_mbps,
                                 int staging_threads) {
  if (sizes_mb.size() != read_s.size()) {
    throw std::invalid_argument("evaluate_timeline: size/read length mismatch");
  }
  if (staging_threads < 1) staging_threads = 1;
  TimelineResult result;
  double cumulative_read = 0.0;
  double t_prev = 0.0;      // t_{i,f-1}
  double prev_compute = 0.0;  // s_{R_{f-1}} / c
  for (std::size_t f = 0; f < sizes_mb.size(); ++f) {
    cumulative_read += read_s[f];
    const double avail = cumulative_read / static_cast<double>(staging_threads);
    const double ready = t_prev + prev_compute;  // when compute could consume
    const double t_now = std::max(avail, ready);
    result.stall_s += std::max(0.0, avail - ready);
    t_prev = t_now;
    prev_compute = compute_mbps > 0.0 ? sizes_mb[f] / compute_mbps : 0.0;
    result.compute_s += prev_compute;
  }
  // The run ends when the last sample has been *processed*.
  result.total_s = t_prev + prev_compute;
  return result;
}

}  // namespace nopfs::core

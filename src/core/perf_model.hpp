#pragma once
// The training-I/O performance model (paper Sec. 4).
//
// Time is seconds, sizes MB.  For worker i consuming its access stream R:
//
//   t_{i,f}    = max(avail_i(f), t_{i,f-1} + s_{R_{f-1}} / c)
//   avail_i(f) = (sum_{k<=f} read_i(R_k)) / p_0
//   read_i(k)  = fetch_i(k) + write_i(k)
//   write_i(k) = max(s_k / beta, s_k / (w_0(p_0)/p_0))
//   fetch_i(k) = one of
//     s_k / (t(gamma)/gamma)                  read from the PFS (case 0)
//     s_k / min(b_c, r_j(p_j)/p_j)            read from a remote worker (1)
//     s_k / (r_j(p_j)/p_j)                    read from local class j  (2)
//
// The model drives both the runtime fetch-source selection (Sec. 5) and the
// performance simulator (Sec. 6).

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "tiers/params.hpp"

namespace nopfs::core {

/// Where a sample was (or would be) fetched from.
enum class FetchSource : int { kStaging = 0, kLocal, kRemote, kPfs, kUnavailable };

[[nodiscard]] const char* to_string(FetchSource source) noexcept;

/// A concrete fetch option with its modeled latency.
struct FetchChoice {
  FetchSource source = FetchSource::kUnavailable;
  int storage_class = -1;  ///< class index j (local or remote), -1 for PFS
  int peer = -1;           ///< remote worker rank, -1 otherwise
  double seconds = 0.0;    ///< modeled fetch time for the queried size
};

/// Case 0 priced at one gamma: the PFS terms that depend on gamma alone, so a
/// caller pricing many reads at the same gamma pays the throughput-curve
/// lookup once.  seconds() is the expression PerfModel::fetch_pfs_s uses.
struct PfsQuote {
  double client_mbps = 0.0;   ///< t(gamma)/gamma
  double op_latency_s = 0.0;  ///< per-file metadata-op latency

  [[nodiscard]] double seconds(double mb) const {
    if (client_mbps <= 0.0) return std::numeric_limits<double>::infinity();
    return mb / client_mbps + op_latency_s;
  }
};

/// Evaluates the Sec. 4 equations for one system description.
class PerfModel {
 public:
  explicit PerfModel(const tiers::SystemParams& params);

  /// Case 0: fetch `mb` from the PFS while `gamma` clients read in total.
  [[nodiscard]] double fetch_pfs_s(double mb, int gamma) const;

  /// The gamma-dependent half of fetch_pfs_s: fetch_pfs_s(mb, gamma) ==
  /// pfs_quote(gamma).seconds(mb), bit for bit.
  [[nodiscard]] PfsQuote pfs_quote(int gamma) const;

  /// Case 1: fetch `mb` from remote storage class `cls` over the network.
  [[nodiscard]] double fetch_remote_s(double mb, int cls) const;

  /// Case 2: fetch `mb` from local storage class `cls`.
  [[nodiscard]] double fetch_local_s(double mb, int cls) const;

  /// write_i: preprocess and store `mb` into the staging buffer.
  [[nodiscard]] double write_s(double mb) const;

  /// Compute time of one sample: s_k / c.
  [[nodiscard]] double compute_s(double mb) const;

  /// Effective per-thread throughput of local class `cls`: r_j(p_j)/p_j.
  [[nodiscard]] double local_class_mbps(int cls) const;

  /// Effective remote-read throughput of class `cls`: min(b_c, r_j(p_j)/p_j).
  [[nodiscard]] double remote_class_mbps(int cls) const;

  /// Effective per-client PFS throughput: t(gamma)/gamma.
  [[nodiscard]] double pfs_client_mbps(int gamma) const;

  /// Picks the fastest applicable fetch option (paper Sec. 5.1:
  /// argmin fetch_{i,l,j}(k)).  `local_class` / `remote_class` are the
  /// fastest classes holding the sample locally / remotely, or -1.
  [[nodiscard]] FetchChoice choose_fetch(double mb, int local_class, int remote_class,
                                         int remote_peer, int gamma) const;

  [[nodiscard]] const tiers::SystemParams& params() const noexcept { return params_; }
  [[nodiscard]] int num_storage_classes() const noexcept {
    return static_cast<int>(params_.node.classes.size());
  }

 private:
  tiers::SystemParams params_;
  std::vector<double> local_mbps_;   ///< r_j(p_j)/p_j per class
  std::vector<double> remote_mbps_;  ///< min(b_c, r_j(p_j)/p_j) per class
  double staging_write_mbps_ = 0.0;  ///< w_0(p_0)/p_0
};

/// Evaluates the t_{i,f} recurrence for a worker's whole stream given the
/// per-access read times; returns total time and accumulated stall time
/// (time the trainer waited on avail_i beyond pure compute).
struct TimelineResult {
  double total_s = 0.0;       ///< t_{i,|R|}
  double stall_s = 0.0;       ///< sum of max(0, avail - compute-ready time)
  double compute_s = 0.0;     ///< sum of s/c terms
};

/// `sizes_mb[f]` and `read_s[f]` describe access f of the stream.
[[nodiscard]] TimelineResult evaluate_timeline(std::span<const double> sizes_mb,
                                               std::span<const double> read_s,
                                               double compute_mbps, int staging_threads);

}  // namespace nopfs::core

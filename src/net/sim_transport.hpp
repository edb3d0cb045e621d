#pragma once
// SimTransport: the single-box substitute for MPI.
//
// Workers are threads in one process sharing a SimFabric.  Remote sample
// fetches are direct calls into the peer's serve handler (an emulated RPC);
// the requester's NIC token bucket charges the transfer at b_c, and the
// peer's tier devices charge the read inside its handler, reproducing the
// paper's fetch cost s_k / min(b_c, r_j(p_j)/p_j) as a store-and-forward
// pipeline.  Collectives use generation-counted barriers.
//
// Substitution note (DESIGN.md Sec. 1): NoPFS's policy logic only needs the
// Transport surface, so swapping SimTransport for an MPI transport does not
// touch any core code.

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::tiers {
class EmulatedCluster;
}

namespace nopfs::net {

/// Shared state connecting all SimTransport endpoints of one job.
class SimFabric {
 public:
  explicit SimFabric(int world_size);

  [[nodiscard]] int world_size() const noexcept { return world_size_; }

 private:
  friend class SimTransport;

  int world_size_;

  // Collectives.  The last arriver of a generation swaps the slots into an
  // immutable published snapshot; waiters read the snapshot, so arrivals of
  // the *next* generation can never race with readers of the previous one
  // (a rank still reading generation g cannot have arrived at g+1, and g+1
  // cannot complete without it).
  std::mutex collective_mutex_;
  std::condition_variable collective_cv_;
  std::vector<Bytes> gather_slots_;
  std::shared_ptr<const std::vector<Bytes>> published_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;

  // Serve handlers, one per rank.  Each rank has its own
  // serve mutex, held both while (re)installing the handler and for the
  // duration of a serve call — so clearing the handler (Job teardown)
  // cannot race with an in-flight serve touching freed state.
  std::vector<Transport::ServeHandler> handlers_;
  std::vector<std::unique_ptr<std::mutex>> serve_mutexes_;

  // Optional NICs (may be null: then transfers are free / untimed).
  std::vector<tiers::NicDevice*> nics_;

  // Job-wide PFS contention accounting: each rank's current reader-count
  // contribution (its reader-thread fan-out while it has a read in flight,
  // 0 while idle), and the per-rank gamma listeners.  Shared memory makes
  // this the exact parity oracle for the batched socket gossip: every
  // pfs_adjust is folded and visible to all listeners before it returns.
  // Listeners are invoked under pfs_mutex_ so withdrawal
  // (set_pfs_listener({})) fences as the Transport contract requires; this
  // cannot deadlock because SharedPfs never holds its own lock across a
  // pfs_adjust call.
  std::mutex pfs_mutex_;
  std::vector<int> pfs_readers_;
  std::vector<Transport::PfsListener> pfs_listeners_;
};

/// One rank's endpoint on a SimFabric.
class SimTransport final : public Transport {
 public:
  /// `nic` may be nullptr for untimed tests.
  SimTransport(std::shared_ptr<SimFabric> fabric, int rank,
               tiers::NicDevice* nic = nullptr);

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int world_size() const override;

  std::vector<Bytes> allgather(Bytes local) override;
  void barrier() override;

  void set_serve_handler(ServeHandler handler) override;
  std::optional<Bytes> fetch_sample(int peer, std::uint64_t id) override;
  bool fetch_sample_into(int peer, std::uint64_t id,
                         std::span<std::uint8_t> out) override;

  int pfs_adjust(int delta) override;
  void set_pfs_listener(PfsListener listener) override;

  [[nodiscard]] double transferred_mb() const override;

 private:
  /// The emulated RPC: `peer`'s handler result, with both NICs charged on
  /// a hit.
  [[nodiscard]] std::shared_ptr<const Bytes> serve(int peer, std::uint64_t id);

  std::shared_ptr<SimFabric> fabric_;
  int rank_;
  tiers::NicDevice* nic_;
  std::atomic<double> transferred_mb_no_nic_{0.0};
};

/// Creates connected endpoints for ranks 0..world_size-1.
/// `cluster` may be nullptr (untimed transfers).
[[nodiscard]] std::vector<std::unique_ptr<SimTransport>> make_sim_transports(
    int world_size, tiers::EmulatedCluster* cluster = nullptr);

}  // namespace nopfs::net

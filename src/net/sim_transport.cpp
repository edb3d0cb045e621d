#include "net/sim_transport.hpp"

#include <cstring>
#include <stdexcept>

#include "tiers/devices.hpp"
#include "util/units.hpp"

namespace nopfs::net {

SimFabric::SimFabric(int world_size) : world_size_(world_size) {
  if (world_size <= 0) throw std::invalid_argument("SimFabric: world_size must be > 0");
  gather_slots_.resize(static_cast<std::size_t>(world_size));
  handlers_.resize(static_cast<std::size_t>(world_size));
  serve_mutexes_.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    serve_mutexes_.push_back(std::make_unique<std::mutex>());
  }
  watermarks_ = std::vector<std::atomic<std::uint64_t>>(static_cast<std::size_t>(world_size));
  for (auto& w : watermarks_) w.store(0, std::memory_order_relaxed);
  nics_.resize(static_cast<std::size_t>(world_size), nullptr);
  pfs_readers_.resize(static_cast<std::size_t>(world_size), 0);
  pfs_listeners_.resize(static_cast<std::size_t>(world_size));
}

SimTransport::SimTransport(std::shared_ptr<SimFabric> fabric, int rank,
                           tiers::NicDevice* nic)
    : fabric_(std::move(fabric)), rank_(rank), nic_(nic) {
  if (fabric_ == nullptr) throw std::invalid_argument("SimTransport: null fabric");
  if (rank < 0 || rank >= fabric_->world_size()) {
    throw std::invalid_argument("SimTransport: rank out of range");
  }
  fabric_->nics_[static_cast<std::size_t>(rank)] = nic;
}

int SimTransport::world_size() const { return fabric_->world_size(); }

std::vector<Bytes> SimTransport::allgather(Bytes local) {
  std::unique_lock lock(fabric_->collective_mutex_);
  const std::uint64_t my_generation = fabric_->generation_;
  fabric_->gather_slots_[static_cast<std::size_t>(rank_)] = std::move(local);
  std::shared_ptr<const std::vector<Bytes>> snapshot;
  if (++fabric_->arrived_ == fabric_->world_size()) {
    // Last arriver publishes an immutable snapshot and opens the next
    // generation with fresh slots.
    auto published = std::make_shared<std::vector<Bytes>>();
    published->swap(fabric_->gather_slots_);
    fabric_->gather_slots_.resize(static_cast<std::size_t>(fabric_->world_size()));
    fabric_->published_ = published;
    fabric_->arrived_ = 0;
    ++fabric_->generation_;
    snapshot = std::move(published);
    fabric_->collective_cv_.notify_all();
  } else {
    fabric_->collective_cv_.wait(
        lock, [&] { return fabric_->generation_ != my_generation; });
    snapshot = fabric_->published_;
  }
  lock.unlock();
  return *snapshot;
}

void SimTransport::barrier() { (void)allgather(Bytes{}); }

void SimTransport::set_serve_handler(ServeHandler handler) {
  const std::scoped_lock lock(*fabric_->serve_mutexes_[static_cast<std::size_t>(rank_)]);
  fabric_->handlers_[static_cast<std::size_t>(rank_)] = std::move(handler);
}

std::shared_ptr<const Bytes> SimTransport::serve(int peer, std::uint64_t id) {
  if (peer < 0 || peer >= fabric_->world_size()) {
    throw std::invalid_argument("SimTransport: peer out of range");
  }
  if (peer == rank_) {
    throw std::invalid_argument("SimTransport: fetch_sample from self");
  }
  // The peer-side read cost is charged inside the handler (it reads from
  // its own emulated tiers); the wire cost is charged on both NICs.  The
  // peer's serve mutex is held across the call: serves from one peer are
  // serialized (a server loop), and handler teardown cannot race a serve.
  // The returned buffer is shared and immutable, so it is read after the
  // mutex is released.
  std::shared_ptr<const Bytes> result;
  {
    const std::scoped_lock lock(
        *fabric_->serve_mutexes_[static_cast<std::size_t>(peer)]);
    const ServeHandler& handler = fabric_->handlers_[static_cast<std::size_t>(peer)];
    if (!handler) return nullptr;
    result = handler(id);
  }
  if (result != nullptr) {
    const double mb = util::bytes_to_mb(result->size());
    tiers::NicDevice* peer_nic = fabric_->nics_[static_cast<std::size_t>(peer)];
    if (peer_nic != nullptr) peer_nic->transfer(mb);
    if (nic_ != nullptr) {
      nic_->transfer(mb);
    } else {
      transferred_mb_no_nic_.fetch_add(mb, std::memory_order_relaxed);
    }
  }
  return result;
}

std::optional<Bytes> SimTransport::fetch_sample(int peer, std::uint64_t id) {
  const auto result = serve(peer, id);
  if (result == nullptr) return std::nullopt;
  return *result;
}

bool SimTransport::fetch_sample_into(int peer, std::uint64_t id,
                                     std::span<std::uint8_t> out) {
  const auto result = serve(peer, id);
  if (result == nullptr || result->size() != out.size()) return false;
  if (!out.empty()) std::memcpy(out.data(), result->data(), out.size());
  return true;
}

int SimTransport::pfs_adjust(int delta) {
  const std::scoped_lock lock(fabric_->pfs_mutex_);
  int& readers = fabric_->pfs_readers_[static_cast<std::size_t>(rank_)];
  readers += delta;
  if (readers < 0) readers = 0;  // a release of an idle rank is a no-op
  int gamma = 0;
  for (const int r : fabric_->pfs_readers_) gamma += r;
  // Shared memory makes the "gossip" exact and immediate: every other
  // rank's listener sees the new gamma before this call returns.
  for (int r = 0; r < fabric_->world_size(); ++r) {
    if (r == rank_) continue;
    const Transport::PfsListener& listener =
        fabric_->pfs_listeners_[static_cast<std::size_t>(r)];
    if (listener) listener(gamma);
  }
  return gamma;
}

void SimTransport::set_pfs_listener(PfsListener listener) {
  const std::scoped_lock lock(fabric_->pfs_mutex_);
  fabric_->pfs_listeners_[static_cast<std::size_t>(rank_)] = std::move(listener);
}

void SimTransport::set_sweep_service(SweepService service) {
  if ((service.on_pull || service.on_result) && rank_ != 0) {
    throw std::runtime_error("SimTransport: the sweep service lives on rank 0");
  }
  const std::scoped_lock lock(fabric_->sweep_mutex_);
  fabric_->sweep_service_ = std::move(service);
}

std::optional<std::pair<bool, Bytes>> SimTransport::sweep_pull(Bytes pull) {
  if (rank_ == 0) {
    throw std::runtime_error("SimTransport: rank 0 cannot pull from itself");
  }
  // The emulated RPC: a direct call into rank 0's handler under the fabric
  // sweep mutex (same serve discipline as fetch_sample).
  const std::scoped_lock lock(fabric_->sweep_mutex_);
  if (!fabric_->sweep_service_.on_pull) return std::nullopt;
  return fabric_->sweep_service_.on_pull(rank_, std::move(pull));
}

void SimTransport::sweep_push_result(Bytes batch) {
  if (rank_ == 0) {
    throw std::runtime_error("SimTransport: rank 0 folds results locally");
  }
  const std::scoped_lock lock(fabric_->sweep_mutex_);
  if (fabric_->sweep_service_.on_result) {
    fabric_->sweep_service_.on_result(rank_, std::move(batch));
  }
}

void SimTransport::publish_watermark(std::uint64_t position) {
  fabric_->watermarks_[static_cast<std::size_t>(rank_)].store(position,
                                                              std::memory_order_release);
}

std::uint64_t SimTransport::watermark_of(int peer) const {
  if (peer < 0 || peer >= fabric_->world_size()) {
    throw std::invalid_argument("SimTransport: peer out of range");
  }
  return fabric_->watermarks_[static_cast<std::size_t>(peer)].load(std::memory_order_acquire);
}

double SimTransport::transferred_mb() const {
  if (nic_ != nullptr) return nic_->total_transferred_mb();
  return transferred_mb_no_nic_.load(std::memory_order_relaxed);
}

std::vector<std::unique_ptr<SimTransport>> make_sim_transports(
    int world_size, tiers::EmulatedCluster* cluster) {
  auto fabric = std::make_shared<SimFabric>(world_size);
  std::vector<std::unique_ptr<SimTransport>> endpoints;
  endpoints.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    tiers::NicDevice* nic =
        cluster != nullptr ? cluster->worker(r).nic.get() : nullptr;
    endpoints.push_back(std::make_unique<SimTransport>(fabric, r, nic));
  }
  return endpoints;
}

}  // namespace nopfs::net

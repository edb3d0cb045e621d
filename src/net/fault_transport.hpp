#pragma once
// Fault-injecting Transport decorator (DESIGN.md Sec. 11).
//
// Wraps any Transport and applies a scenario FaultPlan's connection-drop
// windows: a remote fetch issued by this rank inside a scripted window
// fails as a miss (nullopt), exactly as if the peer connection dropped —
// the fetch router then falls back to the PFS, so delivery completeness
// holds and the delivered-sample digest is unchanged.  Everything else
// (collectives, gamma gossip, sweep frames, watermarks) forwards
// untouched, so the decorator composes over SimTransport and
// SocketTransport alike and both launch modes exercise the same plans.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "scenario/fault_plan.hpp"

namespace nopfs::net {

class FaultTransport final : public Transport {
 public:
  /// `inner` must outlive the decorator.  Drop windows are in virtual
  /// seconds; `time_scale` converts the decorator's wall clock (which
  /// starts at construction) to virtual time.
  FaultTransport(Transport& inner, scenario::FaultPlan plan, double time_scale)
      : inner_(inner),
        plan_(std::move(plan)),
        time_scale_(time_scale),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  std::vector<Bytes> allgather(Bytes local) override {
    return inner_.allgather(std::move(local));
  }
  void barrier() override { inner_.barrier(); }
  void set_serve_handler(ServeHandler handler) override {
    inner_.set_serve_handler(std::move(handler));
  }

  std::optional<Bytes> fetch_sample(int peer, std::uint64_t id) override {
    if (dropped_now()) return std::nullopt;
    return inner_.fetch_sample(peer, id);
  }

  bool fetch_sample_into(int peer, std::uint64_t id,
                         std::span<std::uint8_t> out) override {
    return !dropped_now() && inner_.fetch_sample_into(peer, id, out);
  }

  int pfs_adjust(int delta) override { return inner_.pfs_adjust(delta); }
  void set_pfs_listener(PfsListener listener) override {
    inner_.set_pfs_listener(std::move(listener));
  }
  void set_sweep_service(SweepService service) override {
    inner_.set_sweep_service(std::move(service));
  }
  std::optional<std::pair<bool, Bytes>> sweep_pull(Bytes pull) override {
    return inner_.sweep_pull(std::move(pull));
  }
  void sweep_push_result(Bytes batch) override {
    inner_.sweep_push_result(std::move(batch));
  }
  void publish_watermark(std::uint64_t position) override {
    inner_.publish_watermark(position);
  }
  [[nodiscard]] std::uint64_t watermark_of(int peer) const override {
    return inner_.watermark_of(peer);
  }
  [[nodiscard]] double transferred_mb() const override {
    return inner_.transferred_mb();
  }

  /// Fetches swallowed by drop windows so far (diagnostics/tests).
  [[nodiscard]] int dropped_fetches() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  /// True, and counted, when a drop window covers this rank right now.
  bool dropped_now() {
    if (!plan_.connection_down(inner_.rank(), virtual_now())) return false;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] double virtual_now() const {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(elapsed).count() * time_scale_;
  }

  Transport& inner_;
  const scenario::FaultPlan plan_;
  const double time_scale_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<int> dropped_{0};
};

}  // namespace nopfs::net

#pragma once
// Tracing decorators: each wraps one public interface of a layer and
// records a span (trace.hpp) around every call into it, forwarding the
// call unchanged.  Only the traced run builds them; with tracing off the
// job runs through runtime::run_distributed undecorated.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/loader.hpp"
#include "core/sample_source.hpp"
#include "net/transport.hpp"
#include "tiers/device_iface.hpp"
#include "trace.hpp"

namespace perfbench {

/// Transport decorator in the shape of net::FaultTransport: collectives,
/// remote fetches and PFS gamma transitions are traced, everything else
/// forwards untouched.
class TracingTransport final : public nopfs::net::Transport {
 public:
  using Bytes = nopfs::net::Bytes;

  /// `inner` and `tracer` must outlive the decorator.
  TracingTransport(nopfs::net::Transport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  std::vector<Bytes> allgather(Bytes local) override {
    const Span span(&tracer_, SpanName::kAllgather);
    return inner_.allgather(std::move(local));
  }
  void barrier() override {
    const Span span(&tracer_, SpanName::kBarrier);
    inner_.barrier();
  }
  void set_serve_handler(ServeHandler handler) override {
    inner_.set_serve_handler(std::move(handler));
  }
  std::optional<Bytes> fetch_sample(int peer, std::uint64_t id) override {
    const Span span(&tracer_, SpanName::kFetch);
    return inner_.fetch_sample(peer, id);
  }
  int pfs_adjust(int delta) override {
    const Span span(&tracer_, SpanName::kPfsAdjust);
    return inner_.pfs_adjust(delta);
  }
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
  [[nodiscard]] const char* reactor_backend() const noexcept override {
    return inner_.reactor_backend();
  }

 private:
  nopfs::net::Transport& inner_;
  Tracer& tracer_;
};

class TracingSource final : public nopfs::core::SampleSource {
 public:
  TracingSource(nopfs::core::SampleSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] nopfs::core::Bytes read(int worker, nopfs::data::SampleId id) override {
    const Span span(&tracer_, SpanName::kSourceRead);
    return inner_.read(worker, id);
  }
  [[nodiscard]] double size_mb(nopfs::data::SampleId id) const override {
    return inner_.size_mb(id);
  }

 private:
  nopfs::core::SampleSource& inner_;
  Tracer& tracer_;
};

class TracingPfs final : public nopfs::tiers::PfsDevice {
 public:
  TracingPfs(nopfs::tiers::PfsDevice& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void read(int worker, double mb) override {
    const Span span(&tracer_, SpanName::kPfsRead);
    inner_.read(worker, mb);
  }
  void set_reader_threads(int worker, int threads) override {
    inner_.set_reader_threads(worker, threads);
  }
  [[nodiscard]] int active_clients() const override { return inner_.active_clients(); }
  [[nodiscard]] int peak_clients() const override { return inner_.peak_clients(); }
  [[nodiscard]] double total_read_mb() const override { return inner_.total_read_mb(); }

 private:
  nopfs::tiers::PfsDevice& inner_;
  Tracer& tracer_;
};

/// Owns the tier it wraps, so it can replace a WorkerDevices entry.
class TracingTier final : public nopfs::tiers::TierDevice {
 public:
  TracingTier(std::unique_ptr<nopfs::tiers::TierDevice> inner, Tracer& tracer,
              SpanName read_span, SpanName write_span)
      : inner_(std::move(inner)),
        tracer_(tracer),
        read_span_(read_span),
        write_span_(write_span) {}

  void read(double mb) override {
    const Span span(&tracer_, read_span_);
    inner_->read(mb);
  }
  void write(double mb) override {
    const Span span(&tracer_, write_span_);
    inner_->write(mb);
  }
  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] double capacity_mb() const noexcept override {
    return inner_->capacity_mb();
  }
  [[nodiscard]] double total_read_mb() const override { return inner_->total_read_mb(); }
  [[nodiscard]] double total_written_mb() const override {
    return inner_->total_written_mb();
  }

 private:
  std::unique_ptr<nopfs::tiers::TierDevice> inner_;
  Tracer& tracer_;
  SpanName read_span_;
  SpanName write_span_;
};

class TracingNic final : public nopfs::tiers::NicDevice {
 public:
  TracingNic(nopfs::tiers::NicDevice& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void transfer(double mb) override {
    const Span span(&tracer_, SpanName::kNicTransfer);
    inner_.transfer(mb);
  }
  [[nodiscard]] double reserve_transfer(double mb) override {
    const Span span(&tracer_, SpanName::kNicReserve);
    return inner_.reserve_transfer(mb);
  }
  [[nodiscard]] double total_transferred_mb() const override {
    return inner_.total_transferred_mb();
  }

 private:
  nopfs::tiers::NicDevice& inner_;
  Tracer& tracer_;
};

/// Owns the loader it wraps (baselines::make_loader's result).
class TracingLoader final : public nopfs::baselines::Loader {
 public:
  TracingLoader(std::unique_ptr<nopfs::baselines::Loader> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void start() override {
    const Span span(&tracer_, SpanName::kLoaderStart);
    inner_->start();
  }
  [[nodiscard]] std::optional<nopfs::baselines::LoadedSample> next() override {
    const Span span(&tracer_, SpanName::kLoaderNext);
    return inner_->next();
  }
  [[nodiscard]] nopfs::core::JobStats stats() const override { return inner_->stats(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<nopfs::baselines::Loader> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench

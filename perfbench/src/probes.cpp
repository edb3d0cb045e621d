// Isolated probes for costs the decorators cannot see from outside a
// layer: the wire codec and the reactor sit inside SocketTransport, so
// their per-frame and per-task costs are timed on their public types
// directly; the core probe prices a cold epoch permutation.

#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common.hpp"
#include "core/access_stream.hpp"
#include "core/epoch_order_cache.hpp"
#include "data/dataset.hpp"
#include "net/reactor.hpp"
#include "net/wire.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

using namespace nopfs;

constexpr int kRepeats = 7;

/// A connected non-blocking AF_UNIX stream pair, closed on destruction.
class SocketPair {
 public:
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds_) != 0) {
      throw std::runtime_error("probe: socketpair failed");
    }
  }
  ~SocketPair() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  [[nodiscard]] int tx() const { return fds_[0]; }
  [[nodiscard]] int rx() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

struct FrameSpec {
  net::wire::MsgType type;
  std::uint64_t arg;
  std::vector<std::uint8_t> payload;
};

/// Sends `frames` through a SendQueue into a FrameReader over a socketpair
/// and returns ns per frame (median of kRepeats batches).  Payloads are
/// moved through the pipe and back, so the batch allocates only what the
/// reader allocates per frame.  Every frame must arrive intact.
double frame_ns(std::vector<FrameSpec> frames) {
  const SocketPair pair;
  net::wire::SendQueue queue;
  net::wire::FrameReader reader;
  std::vector<double> per_frame;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double t0 = now_s();
    for (FrameSpec& frame : frames) queue.push(frame.type, frame.arg, std::move(frame.payload));
    std::size_t got = 0;
    while (got < frames.size()) {
      if (!queue.empty()) queue.flush(pair.tx());
      reader.fill_from(pair.rx());
      while (reader.has_frame()) {
        net::wire::Frame frame = reader.pop_frame();
        FrameSpec& spec = frames[got++];
        if (frame.header.type != spec.type || frame.header.arg != spec.arg) {
          throw std::runtime_error("probe: frame mismatch");
        }
        spec.payload = std::move(frame.payload);
      }
    }
    per_frame.push_back((now_s() - t0) * 1e9 / static_cast<double>(frames.size()));
  }
  return median(per_frame);
}

/// kHit frames sized like the training workloads' samples (mean 0.2 MB).
std::vector<FrameSpec> hit_frames() {
  const data::Dataset sizes =
      data::Dataset::synthetic(data::DatasetSpec{"probe", 64, 0.2, 0.05, 1}, 7);
  std::vector<FrameSpec> frames;
  for (std::uint64_t id = 0; id < sizes.num_samples(); ++id) {
    frames.push_back({net::wire::MsgType::kHit, id,
                      std::vector<std::uint8_t>(util::mb_to_bytes(sizes.size_mb(id)), 0x5a)});
  }
  return frames;
}

/// The small frames of the control plane: fetch requests, gamma gossip,
/// watermarks and collective contributions.
std::vector<FrameSpec> control_frames() {
  std::vector<FrameSpec> frames;
  for (std::uint32_t i = 0; i < 256; ++i) {
    switch (i % 5) {
      case 0:
        frames.push_back({net::wire::MsgType::kFetch, i, {}});
        break;
      case 1:
        frames.push_back({net::wire::MsgType::kPfsDelta, 1,
                          net::wire::encode_pfs_delta({1, i})});
        break;
      case 2:
        frames.push_back({net::wire::MsgType::kPfsGamma, 0,
                          net::wire::encode_pfs_gamma({2, i})});
        break;
      case 3: {
        std::vector<std::uint8_t> rank;
        net::wire::put_u32(rank, 1);
        frames.push_back({net::wire::MsgType::kWatermark, i, std::move(rank)});
        break;
      }
      default:
        frames.push_back({net::wire::MsgType::kGather, 1, {}});
        break;
    }
  }
  return frames;
}

/// ns per Reactor::post on the auto-selected backend: one producer posts a
/// train of empty tasks and waits for the last (FIFO makes it the marker).
double reactor_post_ns(std::string& backend) {
  constexpr int kPosts = 20000;
  auto reactor = net::make_reactor(net::ReactorBackend::kAuto);
  backend = reactor->backend_name();
  reactor->start();
  std::vector<double> per_post;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    const double t0 = now_s();
    for (int i = 0; i + 1 < kPosts; ++i) reactor->post([] {});
    reactor->post([&] {
      const std::scoped_lock lock(mutex);
      finished = true;
      cv.notify_one();
    });
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return finished; });
    per_post.push_back((now_s() - t0) * 1e9 / kPosts);
  }
  reactor->stop();
  return median(per_post);
}

}  // namespace

void run_net_probes(Outcome& out) {
  out.set("wire.hit_frame_ns", frame_ns(hit_frames()), "ns");
  out.set("wire.control_frame_ns", frame_ns(control_frames()), "ns");
  std::string backend;
  out.set("reactor.post_ns", reactor_post_ns(backend), "ns");
  out.env["probe_reactor_backend"] = backend;
}

void run_core_probes(std::uint64_t seed, std::uint64_t num_samples, Outcome& out) {
  core::StreamConfig stream;
  stream.seed = seed;
  stream.num_samples = num_samples;
  stream.num_epochs = kRepeats;
  const core::AccessStreamGenerator generator(stream);
  std::vector<double> ms;
  for (int epoch = 0; epoch < kRepeats; ++epoch) {
    const double t0 = now_s();
    const std::vector<data::SampleId> order = generator.epoch_order(epoch);
    ms.push_back((now_s() - t0) * 1e3);
    if (order.size() != num_samples) throw std::runtime_error("probe: short epoch order");
  }
  out.set("core.epoch_order_ms", median(ms), "ms");
  const core::EpochOrderCache& cache = core::EpochOrderCache::global();
  const auto hits = static_cast<double>(cache.hits());
  out.set("core.epoch_cache_hit_ratio",
          ratio(hits, hits + static_cast<double>(cache.misses())), "ratio");
}

}  // namespace perfbench

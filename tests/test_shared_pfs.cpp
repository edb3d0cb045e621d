// Job-wide PFS contention: the multi-process harness must price t(gamma)
// against the JOB-WIDE active-reader count, matching the threaded harness
// where all workers share one EmulatedPfs.
//
//   * protocol: weighted kPfsDelta frames (possibly many transitions
//     coalesced into one) reach rank 0's authoritative counter and the new
//     gamma gossips back as coalesced kPfsGamma broadcasts;
//   * batching: flush interval 0 (a zero window, its tick due at once) and
//     large batching
//     must be observationally equivalent — identical delivered digests,
//     exact pfs_fetches, equal gamma envelopes — on the contention-heavy
//     scenario, and queued deltas are FLUSHED (not dropped) at teardown so
//     a cooperative shutdown drains rank 0's counter to zero;
//   * thread-aware counting: a rank's acquire carries its reader-thread
//     fan-out, so gamma prices t(gamma) per reader thread in both launch
//     modes (EmulatedPfs and SharedPfs apply the same weights);
//   * parity: a 2-rank socket world reproduces the threaded harness's
//     delivered digest, PFS totals (within 1%) and gamma-trace envelope on
//     a contention-heavy config.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/shared_pfs.hpp"
#include "net/sim_transport.hpp"
#include "net/socket_transport.hpp"
#include "runtime/harness.hpp"
#include "scenario/scenario.hpp"
#include "tiers/clock.hpp"
#include "tiers/devices.hpp"
#include "tiers/params.hpp"
#include "util/units.hpp"

namespace nopfs {
namespace {

/// Polls `predicate` until it holds or ~2 s elapse.
bool eventually(const std::function<bool()>& predicate) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

tiers::PfsParams slow_pfs() {
  // The "contention-pfs" scenario's deliberately glacial PFS: it must stay
  // the bottleneck (reads blocking in the token bucket, gamma overlap
  // across ranks) even on a loaded single-core runner or under a ~10x
  // sanitizer slowdown.
  return scenario::runtime_config(scenario::get("contention-pfs"), 1).system.pfs;
}

/// Builds a 2-rank loopback world; `gossip` applies to BOTH endpoints.
std::array<std::unique_ptr<net::SocketTransport>, 2> make_pair_world(
    net::GossipConfig gossip = {}, double time_scale = 1.0) {
  const std::uint16_t port = net::pick_free_port();
  std::array<std::unique_ptr<net::SocketTransport>, 2> transports;
  std::vector<std::thread> dialers;
  for (int r = 0; r < 2; ++r) {
    dialers.emplace_back([&, r] {
      net::SocketOptions options;
      options.rank = r;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      options.gossip = gossip;
      options.time_scale = time_scale;
      transports[static_cast<std::size_t>(r)] =
          std::make_unique<net::SocketTransport>(options);
    });
  }
  for (auto& t : dialers) t.join();
  return transports;
}

TEST(SharedPfs, GammaGossipOverSocketLoopback) {
  auto transports = make_pair_world();
  ASSERT_NE(transports[0], nullptr);
  ASSERT_NE(transports[1], nullptr);

  std::atomic<int> gamma_at_0{-1};
  std::atomic<int> gamma_at_1{-1};
  transports[0]->set_pfs_listener([&](int gamma) { gamma_at_0 = gamma; });
  transports[1]->set_pfs_listener([&](int gamma) { gamma_at_1 = gamma; });

  // Root acquires: its own return value is authoritative, and the gossip
  // reaches rank 1.
  EXPECT_EQ(transports[0]->pfs_adjust(+1), 1);
  EXPECT_TRUE(eventually([&] { return gamma_at_1.load() == 1; }));

  // Rank 1 acquires: the local estimate never dips below its own reader
  // count, and both listeners converge on the authoritative 2.
  EXPECT_GE(transports[1]->pfs_adjust(+1), 1);
  EXPECT_TRUE(eventually([&] { return gamma_at_0.load() == 2; }));
  EXPECT_TRUE(eventually([&] { return gamma_at_1.load() == 2; }));

  // Releases drain the counter on both sides.
  EXPECT_EQ(transports[0]->pfs_adjust(-1), 1);
  transports[1]->pfs_adjust(-1);
  EXPECT_TRUE(eventually([&] { return gamma_at_0.load() == 0; }));
  EXPECT_TRUE(eventually([&] { return gamma_at_1.load() == 0; }));

  transports[0]->set_pfs_listener({});
  transports[1]->set_pfs_listener({});
}

TEST(SharedPfs, WeightedDeltasCoalesceIntoOneFrame) {
  // Batched mode with a far-off flush horizon and max_batch 3: three
  // weighted transitions (+2, -2, +2) must coalesce into ONE kPfsDelta of
  // net +2 — the root's listener sees a single 0 -> 2 jump, never the
  // intermediate states a unary protocol would have produced.
  auto transports = make_pair_world({/*flush_virtual_s=*/60.0, /*max_batch=*/3});
  ASSERT_NE(transports[0], nullptr);
  ASSERT_NE(transports[1], nullptr);

  std::mutex mutex;
  std::vector<int> history;
  transports[0]->set_pfs_listener([&](int gamma) {
    const std::scoped_lock lock(mutex);
    history.push_back(gamma);
  });

  transports[1]->pfs_adjust(+2);
  transports[1]->pfs_adjust(-2);
  {
    // Nothing may have left the queue yet: two transitions < max_batch and
    // the flush horizon is a minute away.
    const std::scoped_lock lock(mutex);
    EXPECT_TRUE(history.empty());
  }
  transports[1]->pfs_adjust(+2);  // third transition: batch full, flush
  EXPECT_TRUE(eventually([&] {
    const std::scoped_lock lock(mutex);
    return !history.empty();
  }));
  {
    const std::scoped_lock lock(mutex);
    ASSERT_EQ(history.size(), 1u) << "coalesced batch must fold as ONE delta";
    EXPECT_EQ(history.front(), 2);
  }
  transports[0]->set_pfs_listener({});
}

TEST(SharedPfs, TeardownFlushesQueuedDeltas) {
  // A queued release must be FLUSHED on cooperative teardown, not dropped:
  // rank 0's counter drains to zero through the delta itself, leaving
  // nothing for the dead-rank cleanup to find.
  auto transports = make_pair_world({/*flush_virtual_s=*/60.0, /*max_batch=*/100});
  ASSERT_NE(transports[0], nullptr);
  ASSERT_NE(transports[1], nullptr);

  std::atomic<int> gamma_at_root{-1};
  transports[0]->set_pfs_listener([&](int gamma) { gamma_at_root = gamma; });

  transports[1]->pfs_adjust(+3);
  transports[1]->flush_pfs_gossip();  // deterministic: push the acquire out
  ASSERT_TRUE(eventually([&] { return gamma_at_root.load() == 3; }));

  // The release sits in the queue (flush horizon is a minute away)...
  transports[1]->pfs_adjust(-3);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(gamma_at_root.load(), 3) << "release must still be queued";

  // ...until cooperative teardown flushes it ahead of closing the channel.
  transports[1].reset();
  EXPECT_TRUE(eventually([&] { return gamma_at_root.load() == 0; }))
      << "teardown dropped the queued release; gamma stuck at "
      << gamma_at_root.load();
  transports[0]->set_pfs_listener({});
}

TEST(SharedPfs, RootReleasesOutstandingAcquireOnPeerDisconnect) {
  // Wire-level regression for the gamma leak: a rank that dies while
  // holding a kPfsAcquire must not pin the job-wide counter.  Rank 1
  // acquires, then its transport is destroyed mid-read (the crash); rank
  // 0's serve connection sees EOF and must release the orphaned acquire.
  const std::uint16_t port = net::pick_free_port();
  std::array<std::unique_ptr<net::SocketTransport>, 2> transports;
  std::vector<std::thread> dialers;
  for (int r = 0; r < 2; ++r) {
    dialers.emplace_back([&, r] {
      net::SocketOptions options;
      options.rank = r;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      transports[static_cast<std::size_t>(r)] =
          std::make_unique<net::SocketTransport>(options);
    });
  }
  for (auto& t : dialers) t.join();
  ASSERT_NE(transports[0], nullptr);
  ASSERT_NE(transports[1], nullptr);

  std::atomic<int> gamma_at_root{-1};
  transports[0]->set_pfs_listener([&](int gamma) { gamma_at_root = gamma; });

  transports[1]->pfs_adjust(+1);
  ASSERT_TRUE(eventually([&] { return gamma_at_root.load() == 1; }));

  // Rank 1 "crashes" while its acquire is outstanding.
  transports[1].reset();
  EXPECT_TRUE(eventually([&] { return gamma_at_root.load() == 0; }))
      << "dead rank still pins gamma at " << gamma_at_root.load();

  // And a clean acquire/release pair must not be double-released by the
  // later disconnect: after release the counter is 0 and stays 0.
  EXPECT_EQ(transports[0]->pfs_adjust(+1), 1);
  EXPECT_EQ(transports[0]->pfs_adjust(-1), 0);
  transports[0]->set_pfs_listener({});
}

TEST(SharedPfs, ConcurrentRanksSeeJobWideGamma) {
  // Two ranks over SimTransport (exact in-process gossip): concurrent reads
  // must raise BOTH ranks' gamma view to 2 and split the aggregate fairly.
  auto transports = net::make_sim_transports(2);
  tiers::RealClock clock;
  const tiers::PfsParams params = slow_pfs();
  const double scale = 100.0;
  net::SharedPfs pfs0(clock, params, scale, *transports[0]);
  net::SharedPfs pfs1(clock, params, scale, *transports[1]);

  // 30 MB per rank at t(2)/2 = 12.5 MB/s x100: ~24 ms each if concurrent.
  const double t0 = clock.now();
  std::thread reader0([&] { pfs0.read(0, 30.0); });
  std::thread reader1([&] { pfs1.read(1, 30.0); });
  reader0.join();
  reader1.join();
  const double elapsed = clock.now() - t0;

  EXPECT_EQ(pfs0.peak_clients(), 2);
  EXPECT_EQ(pfs1.peak_clients(), 2);
  EXPECT_EQ(pfs0.active_clients(), 0);
  EXPECT_NEAR(pfs0.total_read_mb(), 30.0, 1e-9);
  // Both buckets ran at the contended fair share, not at t(1): the job
  // cannot finish faster than the aggregate t(2) allows (with slack for
  // the sequential tails around thread startup).
  EXPECT_GE(elapsed, 60.0 / (params.agg_read_mbps.at(2) * scale) * 0.5);
}

TEST(SharedPfs, TransportWithoutAccountingDegradesToLocalGamma) {
  // The default Transport::pfs_adjust returns 0: SharedPfs must fall back
  // to pricing its own process's activity (gamma >= 1 while reading).
  class NullTransport final : public net::Transport {
   public:
    [[nodiscard]] int rank() const override { return 0; }
    [[nodiscard]] int world_size() const override { return 1; }
    std::vector<net::Bytes> allgather(net::Bytes local) override { return {local}; }
    void barrier() override {}
    void set_serve_handler(ServeHandler) override {}
    std::optional<net::Bytes> fetch_sample(int, std::uint64_t) override {
      return std::nullopt;
    }
    [[nodiscard]] double transferred_mb() const override { return 0.0; }
  };
  NullTransport transport;
  tiers::RealClock clock;
  net::SharedPfs pfs(clock, slow_pfs(), 1000.0, transport);
  pfs.read(0, 5.0);
  EXPECT_EQ(pfs.peak_clients(), 1);
  EXPECT_NEAR(pfs.total_read_mb(), 5.0, 1e-9);
  EXPECT_THROW(pfs.read(-1, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Launch-mode parity on a contention-heavy configuration.

data::Dataset contention_dataset() {
  return scenario::worker_dataset(scenario::get("contention-pfs"));
}

/// The "contention-pfs" registry entry: contention-heavy by construction —
/// no local cache capacity, so EVERY access is a PFS read, and a low
/// time_scale so the cumulative read time far exceeds the token bucket's
/// burst credit — reads genuinely block and overlap across ranks, making a
/// wrong gamma measurable.  (The 8 MB ring, far larger than the stream,
/// lets the producers stream ahead without consumer gating: both ranks
/// issue PFS reads back-to-back from t=0, so in-flight overlap (gamma = 2)
/// is structural, not a scheduling accident — it survives single-core hosts
/// under sanitizer slowdowns, where lockstep-gated fetch bursts can
/// interleave in antiphase.  Remote fetches are off: with no cache there is
/// nothing to serve remotely, and every access is a PFS fetch — the PFS
/// counts and MB become a pure function of the access stream, exact across
/// launch modes, while the prefetch threads still race for gamma overlap.)
runtime::RuntimeConfig contention_config(int world_size) {
  return scenario::runtime_config(scenario::get("contention-pfs"), world_size);
}

TEST(SharedPfs, ThreadWeightedGammaCountsReaderFanOut) {
  // Thread-aware counting over the exact SimTransport oracle: rank 0
  // declares 2 reader threads, rank 1 declares 3 — concurrent reads must
  // raise BOTH ranks' gamma view to 5, and the threaded EmulatedPfs applies
  // identical weights, which is what keeps the launch modes' envelopes
  // comparable.
  auto transports = net::make_sim_transports(2);
  tiers::RealClock clock;
  const tiers::PfsParams params = slow_pfs();
  net::SharedPfs pfs0(clock, params, 100.0, *transports[0]);
  net::SharedPfs pfs1(clock, params, 100.0, *transports[1]);
  pfs0.set_reader_threads(0, 2);
  pfs1.set_reader_threads(1, 3);

  std::thread reader0([&] { pfs0.read(0, 30.0); });
  std::thread reader1([&] { pfs1.read(1, 30.0); });
  reader0.join();
  reader1.join();

  EXPECT_EQ(pfs0.peak_clients(), 5);
  EXPECT_EQ(pfs1.peak_clients(), 5);
  EXPECT_EQ(pfs0.active_clients(), 0);
  EXPECT_EQ(pfs1.active_clients(), 0);

  // The threaded harness's EmulatedPfs counts the same weights: one device,
  // two workers, fan-outs 2 and 3 -> weighted gamma envelope 5.
  tiers::EmulatedPfs emulated(clock, params, 100.0);
  emulated.set_reader_threads(0, 2);
  emulated.set_reader_threads(1, 3);
  std::thread w0([&] { emulated.read(0, 30.0); });
  std::thread w1([&] { emulated.read(1, 30.0); });
  w0.join();
  w1.join();
  EXPECT_EQ(emulated.peak_clients(), 5);
  EXPECT_EQ(emulated.active_clients(), 0);
}

TEST(SharedPfs, GammaDrainsToZeroAtCooperativeTeardown) {
  // The StagingPrefetcher::stop() shape: reader threads finish their last
  // PFS reads (enqueueing weighted releases), then the rank's SharedPfs and
  // transport are torn down while the releases may still sit in the gossip
  // queue.  Rank 0's counter must drain to zero through the flushed deltas
  // — no dead-rank cleanup involved, the shutdown is cooperative.
  auto transports =
      make_pair_world({/*flush_virtual_s=*/60.0, /*max_batch=*/100});
  ASSERT_NE(transports[0], nullptr);
  ASSERT_NE(transports[1], nullptr);
  std::atomic<int> gamma_at_root{-1};
  transports[0]->set_pfs_listener([&](int gamma) { gamma_at_root = gamma; });

  tiers::RealClock clock;
  {
    // ~150 ms of real read time at t(1) x100: long enough to flush the
    // weighted acquire OUT while the read is still in flight, so the
    // matching release genuinely sits in the queue at teardown (instead of
    // the +2/-2 pair coalescing to nothing, which would test nothing).
    net::SharedPfs pfs(clock, slow_pfs(), 100.0, *transports[1]);
    pfs.set_reader_threads(1, 2);
    std::thread reader([&] { pfs.read(1, 30.0); });
    EXPECT_TRUE(eventually([&] {
      transports[1]->flush_pfs_gossip();
      return gamma_at_root.load() == 2;
    })) << "weighted acquire never reached the root";
    reader.join();  // release (-2) is now queued behind a 60 s horizon
    EXPECT_EQ(pfs.active_clients(), 0);
  }
  // The SharedPfs is gone; tear the rank down and watch the counter drain.
  transports[1].reset();
  EXPECT_TRUE(eventually([&] { return gamma_at_root.load() == 0; }))
      << "cooperative teardown left gamma at " << gamma_at_root.load();
  // And rank 0's own view agrees once it acquires/releases itself.
  EXPECT_EQ(transports[0]->pfs_adjust(+1), 1);
  EXPECT_EQ(transports[0]->pfs_adjust(-1), 0);
  transports[0]->set_pfs_listener({});
}

runtime::RuntimeResult run_socket_rank(const data::Dataset& dataset,
                                       const runtime::RuntimeConfig& config, int rank,
                                       std::uint16_t port) {
  runtime::WorkerEndpoint endpoint;
  endpoint.rank = rank;
  endpoint.world_size = 2;
  endpoint.rendezvous_port = port;
  endpoint.timeout_s = 60.0;
  return run_distributed(dataset, config, endpoint);
}

std::array<runtime::RuntimeResult, 2> run_socket_world(
    const data::Dataset& dataset, const runtime::RuntimeConfig& config) {
  const std::uint16_t port = net::pick_free_port();
  std::array<runtime::RuntimeResult, 2> results;
  std::array<std::string, 2> errors;
  std::vector<std::thread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([&, r] {
      try {
        results[static_cast<std::size_t>(r)] =
            run_socket_rank(dataset, config, r, port);
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = ex.what();
      }
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_TRUE(errors[0].empty()) << errors[0];
  EXPECT_TRUE(errors[1].empty()) << errors[1];
  return results;
}

TEST(SharedPfsParity, TwoRankSocketWorldMatchesThreadedContention) {
  const auto dataset = contention_dataset();
  const runtime::RuntimeConfig config = contention_config(2);

  const runtime::RuntimeResult threaded = runtime::run_training(dataset, config);
  // The threaded harness shares one EmulatedPfs: with tiny caches both
  // workers keep a read in flight, so the reference gamma envelope is 2.
  ASSERT_EQ(threaded.pfs_peak_gamma, 2);

  const auto results = run_socket_world(dataset, config);

  // Delivered digest: bit-for-bit across launch modes (Sec. 7.3).
  EXPECT_EQ(results[0].delivered_digest, threaded.delivered_digest);
  EXPECT_EQ(results[1].delivered_digest, threaded.delivered_digest);
  // Job-wide PFS traffic: with remote fetching off it is a pure function
  // of the cache plan — identical counts, MB within the 1% acceptance band.
  EXPECT_EQ(results[0].stats.pfs_fetches, threaded.stats.pfs_fetches);
  EXPECT_NEAR(results[0].stats.pfs_mb, threaded.stats.pfs_mb,
              threaded.stats.pfs_mb * 0.01);
  // Gamma-trace envelope: the socket world's SharedPfs saw the job-wide
  // contention the threaded EmulatedPfs saw.
  EXPECT_EQ(results[0].pfs_peak_gamma, threaded.pfs_peak_gamma);
  EXPECT_EQ(results[1].pfs_peak_gamma, threaded.pfs_peak_gamma);
}

TEST(SharedPfsParity, BatchedAndUnaryGossipAreObservationallyEquivalent) {
  // The batching acceptance gate: the same contention-heavy scenario run
  // with flush interval 0 (a zero window: each transition's tick due at
  // once) and with coarse batching (the "contention-batched-socket"
  // registry shape: 5 ms real flush windows, 512-transition batches) must
  // be indistinguishable in everything the protocol promises — delivered
  // digest bit-for-bit, exact pfs_fetches, equal gamma envelope.  Batching
  // may only change WHEN counts travel, never what the job computes.
  const auto dataset = contention_dataset();

  runtime::RuntimeConfig unary = contention_config(2);
  unary.pfs_gossip.flush_virtual_s = 0.0;
  const auto unary_results = run_socket_world(dataset, unary);

  const runtime::RuntimeConfig batched = scenario::runtime_config(
      scenario::get("contention-batched-socket"), 2);
  ASSERT_GT(batched.pfs_gossip.flush_virtual_s, 0.0);
  ASSERT_GT(batched.pfs_gossip.max_batch, 1);
  const auto batched_results = run_socket_world(dataset, batched);

  EXPECT_EQ(batched_results[0].delivered_digest, unary_results[0].delivered_digest);
  EXPECT_EQ(batched_results[1].delivered_digest, unary_results[1].delivered_digest);
  EXPECT_EQ(batched_results[0].stats.pfs_fetches, unary_results[0].stats.pfs_fetches);
  EXPECT_EQ(batched_results[0].pfs_peak_gamma, unary_results[0].pfs_peak_gamma);
  EXPECT_EQ(batched_results[1].pfs_peak_gamma, unary_results[1].pfs_peak_gamma);
}

}  // namespace
}  // namespace nopfs

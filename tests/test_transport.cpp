// Tests for the MPI-substitute transport: allgather, barrier, remote sample
// serving, watermark gossip (paper Sec. 5.2.2 communication surface).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>

#include "net/fault_transport.hpp"
#include "net/sim_transport.hpp"
#include "util/units.hpp"

namespace nopfs::net {
namespace {

std::vector<std::unique_ptr<SimTransport>> make(int n) {
  return make_sim_transports(n);
}

TEST(SimTransport, RankAndWorldSize) {
  auto endpoints = make(3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(endpoints[r]->rank(), r);
    EXPECT_EQ(endpoints[r]->world_size(), 3);
  }
}

TEST(SimTransport, AllgatherDeliversEveryContribution) {
  constexpr int kN = 4;
  auto endpoints = make(kN);
  std::vector<std::vector<Bytes>> results(kN);
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      Bytes mine = {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(r * 2)};
      results[r] = endpoints[r]->allgather(std::move(mine));
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kN; ++r) {
    ASSERT_EQ(results[r].size(), static_cast<std::size_t>(kN));
    for (int peer = 0; peer < kN; ++peer) {
      ASSERT_EQ(results[r][peer].size(), 2u);
      EXPECT_EQ(results[r][peer][0], peer);
      EXPECT_EQ(results[r][peer][1], peer * 2);
    }
  }
}

TEST(SimTransport, RepeatedCollectivesDoNotCrossTalk) {
  constexpr int kN = 3;
  constexpr int kRounds = 50;
  auto endpoints = make(kN);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        Bytes mine = {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(round)};
        const auto all = endpoints[r]->allgather(std::move(mine));
        for (int peer = 0; peer < kN; ++peer) {
          if (all[peer][0] != peer || all[peer][1] != round) ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SimTransport, BarrierSynchronizes) {
  constexpr int kN = 4;
  auto endpoints = make(kN);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      ++before;
      endpoints[r]->barrier();
      if (before.load() != kN) violated.store(true);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(SimTransport, FetchSampleRoundTrip) {
  auto endpoints = make(2);
  endpoints[1]->set_serve_handler([](std::uint64_t id) -> std::shared_ptr<const Bytes> {
    if (id == 42) return std::make_shared<const Bytes>(Bytes{1, 2, 3});
    return nullptr;
  });
  auto hit = endpoints[0]->fetch_sample(1, 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Bytes{1, 2, 3}));
  const auto miss = endpoints[0]->fetch_sample(1, 7);
  EXPECT_FALSE(miss.has_value());
}

TEST(SimTransport, FetchWithoutHandlerIsMiss) {
  auto endpoints = make(2);
  EXPECT_FALSE(endpoints[0]->fetch_sample(1, 1).has_value());
}

TEST(SimTransport, FetchFromSelfRejected) {
  auto endpoints = make(2);
  EXPECT_THROW((void)endpoints[0]->fetch_sample(0, 1), std::invalid_argument);
  EXPECT_THROW((void)endpoints[0]->fetch_sample(9, 1), std::invalid_argument);
}

TEST(SimTransport, TransferAccountingWithoutNic) {
  auto endpoints = make(2);
  endpoints[1]->set_serve_handler(
      [](std::uint64_t) { return std::make_shared<const Bytes>(1024 * 1024, 0); });
  (void)endpoints[0]->fetch_sample(1, 0);
  EXPECT_NEAR(endpoints[0]->transferred_mb(), 1.0, 1e-9);
}

/// Records what a NIC is charged.
class CountingNic final : public tiers::NicDevice {
 public:
  void transfer(double mb) override {
    const std::scoped_lock lock(mutex_);
    mb_ += mb;
  }
  [[nodiscard]] double total_transferred_mb() const override {
    const std::scoped_lock lock(mutex_);
    return mb_;
  }

 private:
  mutable std::mutex mutex_;
  double mb_ = 0.0;
};

/// fetch_sample_into through `client` (rank 0) from rank 1, which serves
/// only sample 42 (5 bytes): a hit lands whole, a miss and a payload of
/// another length leave the buffer as it was, and every call is charged
/// on `charged` exactly like fetch_sample.
void expect_fetch_into_cases(Transport& client, const std::function<double()>& charged) {
  const double mb = util::bytes_to_mb(5);
  Bytes out(5, 0xee);
  EXPECT_TRUE(client.fetch_sample_into(1, 42, out));
  EXPECT_EQ(out, (Bytes{1, 2, 3, 4, 5}));
  EXPECT_NEAR(charged(), mb, 1e-12);

  Bytes miss(5, 0xee);
  EXPECT_FALSE(client.fetch_sample_into(1, 7, miss));
  EXPECT_EQ(miss, Bytes(5, 0xee));
  EXPECT_NEAR(charged(), mb, 1e-12);

  for (const std::size_t size : {4, 6}) {
    Bytes other(size, 0xee);
    EXPECT_FALSE(client.fetch_sample_into(1, 42, other));
    EXPECT_EQ(other, Bytes(size, 0xee));
  }
  EXPECT_NEAR(charged(), 3 * mb, 1e-12);

  EXPECT_TRUE(client.fetch_sample(1, 42).has_value());
  EXPECT_NEAR(charged(), 4 * mb, 1e-12);
}

std::shared_ptr<const Bytes> serve_only_42(std::uint64_t id) {
  if (id != 42) return nullptr;
  return std::make_shared<const Bytes>(Bytes{1, 2, 3, 4, 5});
}

TEST(SimTransport, FetchSampleIntoHitMissAndWrongSize) {
  CountingNic client_nic;
  CountingNic server_nic;
  auto fabric = std::make_shared<SimFabric>(2);
  SimTransport client(fabric, 0, &client_nic);
  SimTransport server(fabric, 1, &server_nic);
  server.set_serve_handler(serve_only_42);
  expect_fetch_into_cases(client, [&] { return client_nic.total_transferred_mb(); });
  EXPECT_DOUBLE_EQ(server_nic.total_transferred_mb(), client_nic.total_transferred_mb());

  // Without a NIC the same bytes land in transferred_mb().
  auto endpoints = make(2);
  endpoints[1]->set_serve_handler(serve_only_42);
  expect_fetch_into_cases(*endpoints[0], [&] { return endpoints[0]->transferred_mb(); });
}

TEST(FaultTransport, FetchSampleIntoDropsInsideTheWindowAndForwardsOutside) {
  auto endpoints = make(2);
  endpoints[1]->set_serve_handler(serve_only_42);
  scenario::FaultPlan never;
  never.drops = {{0, 1.0e9, 2.0e9}};
  FaultTransport up(*endpoints[0], never, 1.0);
  expect_fetch_into_cases(up, [&] { return up.transferred_mb(); });
  EXPECT_EQ(up.dropped_fetches(), 0);

  scenario::FaultPlan always;
  always.drops = {{0, 0.0, 1.0e9}};
  FaultTransport down(*endpoints[0], always, 1.0);
  const double before = down.transferred_mb();
  Bytes out(5, 0xee);
  EXPECT_FALSE(down.fetch_sample_into(1, 42, out));
  EXPECT_EQ(out, Bytes(5, 0xee));
  EXPECT_EQ(down.dropped_fetches(), 1);
  EXPECT_DOUBLE_EQ(down.transferred_mb(), before);
}

TEST(SimTransport, WatermarksPropagate) {
  auto endpoints = make(3);
  EXPECT_EQ(endpoints[0]->watermark_of(1), 0u);
  endpoints[1]->publish_watermark(123);
  EXPECT_EQ(endpoints[0]->watermark_of(1), 123u);
  EXPECT_EQ(endpoints[2]->watermark_of(1), 123u);
  endpoints[1]->publish_watermark(456);
  EXPECT_EQ(endpoints[0]->watermark_of(1), 456u);
}

TEST(SimTransport, ConcurrentFetchesAreSafe) {
  constexpr int kN = 4;
  auto endpoints = make(kN);
  for (int r = 0; r < kN; ++r) {
    endpoints[r]->set_serve_handler(
        [r](std::uint64_t id) {
          return std::make_shared<const Bytes>(
              Bytes{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(id)});
        });
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < 200; ++i) {
        const int peer = (r + 1 + i % (kN - 1)) % kN;
        if (peer == r) continue;
        const auto bytes = endpoints[r]->fetch_sample(peer, i % 250);
        if (!bytes.has_value() || (*bytes)[0] != peer ||
            (*bytes)[1] != static_cast<std::uint8_t>(i % 250)) {
          ++bad;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(SimFabric, RejectsInvalidConstruction) {
  EXPECT_THROW(SimFabric(0), std::invalid_argument);
  auto fabric = std::make_shared<SimFabric>(2);
  EXPECT_THROW(SimTransport(nullptr, 0), std::invalid_argument);
  EXPECT_THROW(SimTransport(fabric, 5), std::invalid_argument);
}

}  // namespace
}  // namespace nopfs::net

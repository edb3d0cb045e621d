// Tests for the emulation clock and token-bucket rate limiter.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tiers/clock.hpp"
#include "tiers/token_bucket.hpp"

namespace nopfs::tiers {
namespace {

TEST(RealClock, MonotoneAndSleeps) {
  RealClock clock;
  const double t0 = clock.now();
  clock.sleep_for(0.01);
  const double t1 = clock.now();
  EXPECT_GE(t1 - t0, 0.009);
}

TEST(ManualClock, AdvanceWakesSleepers) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.sleep_for(5.0);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.advance(4.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  clock.advance(1.5);
  sleeper.join();
  EXPECT_TRUE(woke.load());
  EXPECT_DOUBLE_EQ(clock.now(), 5.5);
}

/// Counts sleeps; every sleep lasts its request plus a fixed overshoot,
/// like a kernel timer with slack.
class OvershootClock final : public Clock {
 public:
  static constexpr double kOvershoot = 50e-6;

  [[nodiscard]] double now() const override { return now_; }
  void sleep_for(double seconds) override {
    ++sleeps;
    slept += seconds + kOvershoot;
    now_ += seconds + kOvershoot;
  }

  int sleeps = 0;
  double slept = 0.0;

 private:
  double now_ = 0.0;
};

TEST(Pacer, TinyChargesShareOneSleep) {
  OvershootClock clock;
  Pacer pacer(clock);
  for (int i = 0; i < 100000; ++i) pacer.charge(1e-9);
  EXPECT_EQ(clock.sleeps, 1);
}

TEST(Pacer, SleptTimeTracksChargedTime) {
  OvershootClock clock;
  Pacer pacer(clock);
  // A deterministic mix from 1 ns to 2 ms, plus ignored non-positive charges.
  constexpr double kCharges[] = {1e-9, 4e-7, 2e-5, 0.0, 7e-5, 3e-4, -1e-3, 2e-3, 5e-6};
  double charged = 0.0;
  int calls = 0;
  for (int round = 0; round < 2000; ++round) {
    for (const double charge : kCharges) {
      pacer.charge(charge);
      if (charge > 0.0) charged += charge;
      ++calls;
    }
  }
  EXPECT_NEAR(clock.slept, charged, OvershootClock::kOvershoot);
  EXPECT_LT(clock.sleeps, calls / 2);
}

TEST(TokenBucket, TryAcquireRespectsBalance) {
  ManualClock clock;
  TokenBucket bucket(clock, /*rate=*/100.0, /*burst=*/10.0);
  // Initially empty; refills only as the clock advances.
  EXPECT_FALSE(bucket.try_acquire(5.0));
  clock.advance(0.05);  // +5 MB
  EXPECT_TRUE(bucket.try_acquire(5.0));
  EXPECT_FALSE(bucket.try_acquire(0.5));
}

TEST(TokenBucket, BurstCapsAccumulation) {
  ManualClock clock;
  TokenBucket bucket(clock, 100.0, /*burst=*/10.0);
  clock.advance(100.0);  // would be 10,000 MB uncapped
  EXPECT_TRUE(bucket.try_acquire(10.0));
  EXPECT_FALSE(bucket.try_acquire(1.0));
}

TEST(TokenBucket, AcquireBlocksUntilRefilled) {
  RealClock clock;
  TokenBucket bucket(clock, /*rate=*/1000.0, /*burst=*/1.0);
  const double t0 = clock.now();
  bucket.acquire(50.0);  // needs ~50 ms at 1000 MB/s
  const double elapsed = clock.now() - t0;
  EXPECT_GE(elapsed, 0.04);
  EXPECT_LT(elapsed, 1.0);
  EXPECT_NEAR(bucket.total_granted(), 50.0, 1e-9);
}

TEST(TokenBucket, AggregateRateEnforcedUnderConcurrency) {
  RealClock clock;
  TokenBucket bucket(clock, /*rate=*/2000.0, /*burst=*/1.0);
  const double t0 = clock.now();
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] { bucket.acquire(25.0); });
  }
  for (auto& r : readers) r.join();
  const double elapsed = clock.now() - t0;
  // 100 MB total at 2000 MB/s = 50 ms minimum regardless of thread count.
  EXPECT_GE(elapsed, 0.04);
  EXPECT_NEAR(bucket.total_granted(), 100.0, 1e-9);
}

TEST(TokenBucket, RateChangeTakesEffect) {
  RealClock clock;
  TokenBucket bucket(clock, /*rate=*/10.0, /*burst=*/0.1);
  bucket.set_rate(10'000.0);
  EXPECT_DOUBLE_EQ(bucket.rate(), 10'000.0);
  const double t0 = clock.now();
  bucket.acquire(100.0);  // 10 ms at the new rate; minutes at the old one
  EXPECT_LT(clock.now() - t0, 1.0);
}

TEST(TokenBucket, ZeroSizeIsFree) {
  ManualClock clock;
  TokenBucket bucket(clock, 1.0, 0.0);
  bucket.acquire(0.0);  // must not block
  EXPECT_DOUBLE_EQ(bucket.total_granted(), 0.0);
}

}  // namespace
}  // namespace nopfs::tiers

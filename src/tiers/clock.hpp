#pragma once
// Clock abstraction for device emulation.
//
// The threaded runtime emulates storage devices in *scaled real time*: a
// device with virtual throughput R MB/s is emulated by a token bucket
// refilling at R * time_scale MB per real second, so one real second
// represents `time_scale` virtual seconds.  Contention then emerges from
// genuine thread concurrency rather than from a model — the point of the
// runtime experiments is to exercise the production code paths.
//
// Tests use ManualClock to make token-bucket behaviour exactly
// deterministic.
//
// Pacer charges per-sample emulated work that has no device bucket
// (preprocessing, compute), batching sub-timer-slack sleeps.

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace nopfs::tiers {

/// Time source measured in (real) seconds.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotone current time in seconds.
  [[nodiscard]] virtual double now() const = 0;

  /// Blocks the calling thread for `seconds` (cooperatively for ManualClock).
  virtual void sleep_for(double seconds) = 0;
};

/// Wall-clock implementation over std::chrono::steady_clock.
class RealClock final : public Clock {
 public:
  RealClock();
  [[nodiscard]] double now() const override;
  void sleep_for(double seconds) override;

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Manually advanced clock for deterministic tests.  sleep_for() blocks
/// until advance() has moved the clock past the wake time.
class ManualClock final : public Clock {
 public:
  [[nodiscard]] double now() const override;
  void sleep_for(double seconds) override;

  /// Advances the clock and wakes sleepers whose deadline passed.
  void advance(double seconds);

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  double now_ = 0.0;
};

/// The process-wide RealClock (stateless after construction; any thread may
/// use it).
[[nodiscard]] Clock& real_clock();

/// Charges emulated time to ONE thread as a debt.  charge() adds to the
/// debt; once the debt reaches kMinSleepS the pacer sleeps for it and
/// subtracts the *measured* sleep, so an overshoot leaves a negative debt
/// that pays for later charges.  Over any sequence the time slept equals
/// the time charged to within one overshoot or kMinSleepS, whichever is
/// larger: the sum model of DESIGN.md Sec. 2.1 is kept.  Not thread-safe:
/// each producer or consumer thread owns its own pacer.
class Pacer {
 public:
  /// Debts below this are carried, not slept: 50 us is Linux's default
  /// timer slack, the least a sleep costs anyway.
  static constexpr double kMinSleepS = 50e-6;

  /// `clock` must outlive the pacer.
  explicit Pacer(Clock& clock) noexcept : clock_(clock) {}

  /// Adds `seconds` of real time to the debt; sleeps it off when due.
  void charge(double seconds);

 private:
  Clock& clock_;
  double debt_ = 0.0;
};

}  // namespace nopfs::tiers

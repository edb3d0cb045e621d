#include "tiers/clock.hpp"

#include <thread>

namespace nopfs::tiers {

RealClock::RealClock() : epoch_(std::chrono::steady_clock::now()) {}

double RealClock::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count();
}

void RealClock::sleep_for(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

Clock& real_clock() {
  static RealClock clock;
  return clock;
}

void Pacer::charge(double seconds) {
  if (!(seconds > 0.0)) return;
  debt_ += seconds;
  if (debt_ < kMinSleepS) return;
  const double start = clock_.now();
  clock_.sleep_for(debt_);
  debt_ -= clock_.now() - start;
}

double ManualClock::now() const {
  const std::scoped_lock lock(mutex_);
  return now_;
}

void ManualClock::sleep_for(double seconds) {
  std::unique_lock lock(mutex_);
  const double deadline = now_ + seconds;
  cv_.wait(lock, [&] { return now_ >= deadline; });
}

void ManualClock::advance(double seconds) {
  {
    const std::scoped_lock lock(mutex_);
    now_ += seconds;
  }
  cv_.notify_all();
}

}  // namespace nopfs::tiers

// Reactor: the level-triggered epoll loop (DESIGN.md Sec. 7.5).
// epoll_pwait2 takes the next timer's deadline as a timespec, so timers keep
// sub-millisecond precision on an otherwise idle loop (epoll_wait rounds to
// whole milliseconds; it remains the fallback on kernels without pwait2).
// Registrations carry (generation << 32) | fd in epoll_event.data.u64, so
// dispatch can drop an event whose fd was closed and re-registered within
// the same epoll_wait batch.

#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/log.hpp"

namespace nopfs::net {

namespace {

static_assert(kEventIn == EPOLLIN && kEventOut == EPOLLOUT &&
              kEventErr == EPOLLERR && kEventHup == EPOLLHUP);

/// Events dispatched per loop iteration.
constexpr int kEventBatch = 64;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("Reactor: ") + what + ": " +
                           std::strerror(errno));
}

std::uint64_t make_tag(int fd, std::uint32_t gen) noexcept {
  return (static_cast<std::uint64_t>(gen) << 32) | static_cast<std::uint32_t>(fd);
}

}  // namespace

Reactor::Reactor() {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  try {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("epoll_create1");
    // Registered before start(): no concurrent loop yet, so direct add is
    // safe.
    add_fd(wake_fd_, kEventIn, [this](std::uint32_t) {
      std::uint64_t drained = 0;
      while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
      }
    });
  } catch (...) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    ::close(wake_fd_);
    throw;
  }
}

Reactor::~Reactor() {
  stop();  // before the epoll fd goes away under the loop
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

void Reactor::start() {
  thread_ = std::thread([this] { run(); });
}

void Reactor::stop() {
  if (!thread_.joinable()) return;
  {
    const std::scoped_lock lock(task_mutex_);
    if (!stop_posted_) {
      stop_posted_ = true;
      tasks_.push_back([this] { stop_requested_ = true; });
    }
  }
  wake();
  thread_.join();
}

void Reactor::post(Task task) {
  {
    const std::scoped_lock lock(task_mutex_);
    tasks_.push_back(std::move(task));
  }
  wake();
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  // The eventfd counter saturating (EAGAIN) still leaves it readable, so a
  // failed write never loses a wakeup.
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  FdEntry entry;
  entry.gen = ++generation_;
  entry.handler = std::make_shared<FdHandler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = make_tag(fd, entry.gen);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(add)");
  }
  handlers_[fd] = std::move(entry);
}

void Reactor::mod_fd(int fd, std::uint32_t events) {
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    throw std::runtime_error("Reactor: mod_fd on unregistered fd");
  }
  // The kernel-side registration survives a MOD, so its generation does.
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = make_tag(fd, it->second.gen);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
}

void Reactor::del_fd(int fd) {
  const auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(it);
}

void Reactor::call_later(double delay_s, Task task) {
  Timer timer;
  timer.when = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(std::max(0.0, delay_s)));
  timer.seq = timer_seq_++;
  timer.fn = std::move(task);
  timers_.push_back(std::move(timer));
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
}

void Reactor::set_iteration_hook(Task hook) {
  iteration_hook_ = std::move(hook);
}

void Reactor::drain_tasks() {
  std::vector<Task> batch;
  {
    const std::scoped_lock lock(task_mutex_);
    batch.swap(tasks_);
  }
  for (Task& task : batch) task();
}

void Reactor::fire_due_timers() {
  const auto now = Clock::now();
  while (!timers_.empty() && timers_.front().when <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    Task fn = std::move(timers_.back().fn);
    timers_.pop_back();
    fn();
  }
}

bool Reactor::next_timeout(timespec& timeout) const {
  if (timers_.empty()) return false;
  const auto wait = std::max(Clock::duration::zero(),
                             timers_.front().when - Clock::now());
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::min<Clock::duration>(wait, std::chrono::seconds(60)));
  timeout.tv_sec = static_cast<time_t>(ns.count() / 1'000'000'000);
  timeout.tv_nsec = static_cast<long>(ns.count() % 1'000'000'000);
  return true;
}

bool Reactor::poll() {
  epoll_event events[kEventBatch];
  timespec timeout{};
  const bool timed = next_timeout(timeout);
  int n = -1;
  if (pwait2_) {
    n = ::epoll_pwait2(epoll_fd_, events, kEventBatch, timed ? &timeout : nullptr,
                       nullptr);
    if (n < 0 && errno == ENOSYS) pwait2_ = false;  // kernel older than 5.11
  }
  if (!pwait2_) {
    // Whole milliseconds, rounded up so a timer never spins on a
    // 0 ms-but-not-due wait.
    const long long ms =
        timed ? timeout.tv_sec * 1000LL + (timeout.tv_nsec + 999'999) / 1'000'000 : -1;
    n = ::epoll_wait(epoll_fd_, events, kEventBatch, static_cast<int>(ms));
  }
  if (n < 0) {
    if (errno == EINTR) return true;
    util::log_error("Reactor: epoll_wait: ", std::strerror(errno));
    return false;
  }
  for (int i = 0; i < n; ++i) {
    const std::uint64_t tag = events[i].data.u64;
    const auto it = handlers_.find(static_cast<int>(tag & 0xffffffffu));
    // Removed earlier in this batch, or the fd number was recycled into a
    // new registration: the stale event must not reach the new handler.
    if (it == handlers_.end() || make_tag(it->first, it->second.gen) != tag) continue;
    // Copy the shared_ptr: the handler may del_fd itself mid-call.
    const std::shared_ptr<FdHandler> handler = it->second.handler;
    (*handler)(events[i].events);
  }
  return true;
}

void Reactor::run() {
  for (;;) {
    drain_tasks();
    if (stop_requested_) break;
    fire_due_timers();
    if (iteration_hook_) iteration_hook_();
    if (!poll()) break;
  }
}

std::unique_ptr<Reactor> make_reactor(ReactorBackend) {
  return std::make_unique<Reactor>();
}

}  // namespace nopfs::net

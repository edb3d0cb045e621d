#pragma once
// Reactor: one level-triggered epoll event-loop thread driving every socket
// of a process's SocketTransport (DESIGN.md Sec. 7.5/7.6).
//
// CONTRACT:
//
//   * post() is thread-safe and FIFO: "post A, then post B" from one thread
//     always executes A before B on the loop.  The transport leans on this
//     for wire ordering — a gamma broadcast posted under the pfs mutex
//     lands in sequence order, and teardown posts its final gossip flush
//     strictly before the drain task.
//   * Everything else — add_fd/mod_fd/del_fd, call_later, set_iteration_hook
//     — is loop-thread-only, callable from inside posted tasks, fd handlers
//     and timers (and, before start(), from the constructing thread).
//   * Readiness is level-triggered: an fd that still has unread bytes (a
//     handler that stopped at its read budget) or that is already ready
//     when registered or re-masked fires again on the next epoll_wait.
//   * Handlers are held by shared_ptr, so a handler may del_fd itself
//     mid-dispatch.  Registrations are generation-tagged: an fd closed and
//     re-registered within one epoll_wait batch can never deliver a stale
//     event to the new handler — the pending event carries the old
//     generation and is dropped at dispatch.
//   * One iteration runs: queued tasks, due timers, the iteration hook (the
//     transport batches its dirty-session flushes there so frames queued by
//     many tasks share one sendmsg), then one epoll_wait and the ready
//     handlers.
//   * Timers fire in deadline order; equal deadlines fire in scheduling
//     order.  The poll waits for the next deadline with nanosecond
//     resolution (epoll_pwait2), so a 50 us timer on an idle loop fires
//     after about 50 us plus the kernel's timer slack, not a millisecond.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace nopfs::net {

/// Readiness bits for add_fd/mod_fd and handler dispatch — the epoll(7)
/// values.
inline constexpr std::uint32_t kEventIn = 0x001;
inline constexpr std::uint32_t kEventOut = 0x004;
inline constexpr std::uint32_t kEventErr = 0x008;
inline constexpr std::uint32_t kEventHup = 0x010;

class Reactor {
 public:
  using Task = std::function<void()>;
  using FdHandler = std::function<void(std::uint32_t events)>;

  /// Creates the epoll instance and its wake eventfd; throws
  /// std::runtime_error when either is refused.
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Launches the loop thread.  Tasks posted (and fds added) before start()
  /// are picked up on the first iteration.
  void start();

  /// Asks the loop to finish its queued tasks and exit, then joins it.
  /// Idempotent; must not be called from the loop thread.
  void stop();

  /// Thread-safe: enqueue a task for the loop (FIFO per poster) and wake it.
  void post(Task task);

  // --- loop-thread-only ----------------------------------------------------

  void add_fd(int fd, std::uint32_t events, FdHandler handler);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  /// Runs `task` on the loop after at least `delay_s` seconds.
  void call_later(double delay_s, Task task);

  /// Installed hook runs once per loop iteration, after tasks and timers,
  /// before the poll.
  void set_iteration_hook(Task hook);

  [[nodiscard]] const char* backend_name() const noexcept { return "epoll"; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Timer {
    Clock::time_point when;
    std::uint64_t seq = 0;  // tie-break: equal deadlines fire in post order
    Task fn;
    /// Heap order: std::greater<> over this makes timers_ a min-heap.
    friend bool operator>(const Timer& a, const Timer& b) {
      return a.when > b.when || (a.when == b.when && a.seq > b.seq);
    }
  };
  struct FdEntry {
    std::uint32_t gen = 0;
    std::shared_ptr<FdHandler> handler;
  };

  void run();
  void wake();
  void drain_tasks();
  void fire_due_timers();
  /// The wait until the earliest timer is due (zero when overdue, capped at
  /// 60 s); false when no timer is scheduled.
  [[nodiscard]] bool next_timeout(timespec& timeout) const;
  /// Polls once, up to the next timer's deadline, and dispatches each ready
  /// registration whose generation is still current.  Returns false on a
  /// fatal epoll error.
  bool poll();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool stop_requested_ = false;  // loop-thread once running; see stop()
  bool pwait2_ = true;           // loop-thread: false once the kernel lacks it

  std::mutex task_mutex_;
  std::vector<Task> tasks_;
  bool stop_posted_ = false;

  // Loop-thread-only state.
  std::unordered_map<int, FdEntry> handlers_;
  std::uint32_t generation_ = 0;
  std::vector<Timer> timers_;  // min-heap on (when, seq)
  std::uint64_t timer_seq_ = 0;
  Task iteration_hook_;

  std::thread thread_;  // last: runs over every member above
};

// Compatibility spelling: ReactorBackend (one enumerator), make_reactor(),
// Reactor::backend_name(), Transport::reactor_backend() and
// RuntimeResult::reactor_backend stay only until the next benchmark change
// removes their last users in perfbench/.
enum class ReactorBackend { kAuto };

[[nodiscard]] std::unique_ptr<Reactor> make_reactor(
    ReactorBackend backend = ReactorBackend::kAuto);

}  // namespace nopfs::net

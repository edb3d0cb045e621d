// Conformance suite for the epoll reactor (DESIGN.md Sec. 7.5) plus the
// reactor-backed SocketTransport paths the threaded-era suite could not
// exercise: task FIFO, timer ordering, fd dispatch, level-triggered
// re-delivery of unread bytes, generation-tagged re-registration, the
// mod_fd missed-edge hazard, the pipelined-fetch ticket API (dozens of
// kFetch in flight on ONE connection, interleaved with kPfsDelta gossip on
// the same wire), bursts larger than the read budget, and dead-rank gamma
// release when a peer process dies abruptly (fork + _exit, the real crash
// shape).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/reactor.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"

namespace nopfs::net {
namespace {

bool eventually(const std::function<bool()>& predicate,
                std::chrono::seconds limit = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

TEST(Reactor, CompatibilitySpellingBuildsTheEpollLoop) {
  EXPECT_STREQ(make_reactor(ReactorBackend::kAuto)->backend_name(), "epoll");
}

TEST(Reactor, TasksRunInPostOrder) {
  // The FIFO guarantee is what the transport's gossip sequencing leans on:
  // post A then B from one thread must run A before B on the loop.
  auto reactor = std::make_unique<Reactor>();
  reactor->start();
  std::mutex mutex;
  std::vector<int> order;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    reactor->post([&, i] {
      const std::scoped_lock lock(mutex);
      order.push_back(i);
      if (i == 99) cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return order.size() == 100u; }));
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  reactor->stop();
}

TEST(Reactor, TimersFireInDeadlineOrderWithPostOrderTieBreak) {
  auto reactor = std::make_unique<Reactor>();
  std::mutex mutex;
  std::vector<int> order;
  std::condition_variable cv;
  // Scheduled from the loop itself (call_later is loop-thread-only): a
  // later deadline must not overtake an earlier one, and equal deadlines
  // fire in scheduling order.
  reactor->post([&, r = reactor.get()] {
    r->call_later(0.05, [&] {
      const std::scoped_lock lock(mutex);
      order.push_back(3);
      cv.notify_all();
    });
    r->call_later(0.0, [&] {
      const std::scoped_lock lock(mutex);
      order.push_back(1);
    });
    r->call_later(0.0, [&] {
      const std::scoped_lock lock(mutex);
      order.push_back(2);
    });
  });
  reactor->start();
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return order.size() == 3u; }));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  reactor->stop();
}

TEST(Reactor, DispatchesFdEventsAndHonorsSelfRemoval) {
  // A pipe becomes readable; its handler reads, then del_fd()s itself
  // mid-dispatch — the shared_ptr-held handler must survive its own
  // removal, and no further events may be delivered.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  auto reactor = std::make_unique<Reactor>();
  std::atomic<int> fired{0};
  reactor->add_fd(pipe_fds[0], kEventIn, [&, r = reactor.get()](std::uint32_t) {
    char buf[8];
    (void)::read(pipe_fds[0], buf, sizeof(buf));
    ++fired;
    r->del_fd(pipe_fds[0]);
  });
  reactor->start();
  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }));
  // A second byte after removal must not reach the handler.
  ASSERT_EQ(::write(pipe_fds[1], "y", 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 1);
  reactor->stop();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(Reactor, UnreadBytesFireTheHandlerAgain) {
  // Level-triggered readiness is what the transport's read budget relies
  // on: a handler that stops with bytes still queued must run again for
  // them without any new write.  Here each dispatch reads one byte of a
  // 64-byte burst written once.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  auto reactor = std::make_unique<Reactor>();
  std::atomic<int> consumed{0};
  reactor->add_fd(pipe_fds[0], kEventIn, [&](std::uint32_t) {
    char byte;
    if (::read(pipe_fds[0], &byte, 1) == 1) ++consumed;
  });
  const std::vector<char> burst(64, 'z');
  ASSERT_EQ(::write(pipe_fds[1], burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  reactor->start();
  EXPECT_TRUE(eventually([&] { return consumed.load() == 64; }))
      << "handler stopped after " << consumed.load() << " of 64 bytes";
  reactor->post([&, r = reactor.get()] { r->del_fd(pipe_fds[0]); });
  reactor->stop();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(Reactor, ReRegisteredFdRoutesOnlyToTheNewHandler) {
  // del_fd + add_fd of the SAME fd inside a handler: any event epoll
  // already collected for the old registration must be dropped by its stale
  // generation tag, and later readiness must reach only the new handler.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  auto reactor = std::make_unique<Reactor>();
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  reactor->add_fd(pipe_fds[0], kEventIn, [&, r = reactor.get()](std::uint32_t) {
    char buf[1];
    (void)::read(pipe_fds[0], buf, sizeof(buf));
    ++first;
    r->del_fd(pipe_fds[0]);
    r->add_fd(pipe_fds[0], kEventIn, [&](std::uint32_t) {
      char buf2[8];
      (void)::read(pipe_fds[0], buf2, sizeof(buf2));
      ++second;
    });
  });
  reactor->start();
  ASSERT_EQ(::write(pipe_fds[1], "a", 1), 1);
  EXPECT_TRUE(eventually([&] { return first.load() == 1; }));
  ASSERT_EQ(::write(pipe_fds[1], "b", 1), 1);
  EXPECT_TRUE(eventually([&] { return second.load() >= 1; }));
  EXPECT_EQ(first.load(), 1);
  reactor->post([&, r = reactor.get()] { r->del_fd(pipe_fds[0]); });
  reactor->stop();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(Reactor, ModFdDeliversReadinessPresentBeforeTheMod) {
  // The missed-edge hazard: a mask widened to kEventOut on an ALREADY
  // writable socket must still dispatch, without waiting for a new edge.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto reactor = std::make_unique<Reactor>();
  std::atomic<int> out_events{0};
  reactor->add_fd(sv[0], kEventIn, [&](std::uint32_t events) {
    if ((events & kEventOut) != 0) ++out_events;
  });
  reactor->start();
  reactor->post(
      [&, r = reactor.get()] { r->mod_fd(sv[0], kEventIn | kEventOut); });
  EXPECT_TRUE(eventually([&] { return out_events.load() >= 1; }));
  reactor->post([&, r = reactor.get()] { r->del_fd(sv[0]); });
  reactor->stop();
  ::close(sv[0]);
  ::close(sv[1]);
}

/// Builds a connected 2-rank world over loopback (same idiom as
/// tests/test_socket_transport.cpp).
std::vector<std::unique_ptr<SocketTransport>> make_pair_world() {
  const std::uint16_t port = pick_free_port();
  std::vector<std::unique_ptr<SocketTransport>> endpoints(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      SocketOptions options;
      options.rank = r;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      endpoints[static_cast<std::size_t>(r)] =
          std::make_unique<SocketTransport>(options);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& endpoint : endpoints) {
    if (endpoint == nullptr) throw std::runtime_error("handshake failed");
  }
  return endpoints;
}

TEST(ReactorTransport, DozensInFlightInterleavedWithGossip) {
  // The ticket API keeps a deep train of kFetch frames on rank 1's single
  // channel to rank 0 while unary kPfsDelta frames ride the SAME
  // connection between them.  Every reply must land on the ticket that
  // issued it (payload encodes the id), misses must resolve at their exact
  // positions, and the contention counter must drain back to zero — the
  // digest + gamma parity contract of the threaded transport, under
  // pipelining it never supported.
  auto endpoints = make_pair_world();
  endpoints[0]->set_serve_handler([](std::uint64_t id) -> std::shared_ptr<const Bytes> {
    if (id % 7 == 3) return nullptr;  // deterministic miss positions
    auto bytes = std::make_shared<Bytes>(64);
    for (std::size_t i = 0; i < bytes->size(); ++i) {
      (*bytes)[i] = static_cast<std::uint8_t>((id * 2654435761u + i) >> 3);
    }
    return bytes;
  });

  std::atomic<int> gamma_at_1{-1};
  endpoints[1]->set_pfs_listener([&](int gamma) { gamma_at_1 = gamma; });

  constexpr int kRounds = 20;
  constexpr int kDepth = 48;
  int bad = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::deque<std::pair<std::uint64_t, SocketTransport::FetchTicket>> window;
    for (int i = 0; i < kDepth; ++i) {
      const auto id = static_cast<std::uint64_t>(round * kDepth + i);
      window.emplace_back(id, endpoints[1]->fetch_sample_start(0, id));
      // Interleave contention traffic between the queued fetches: unary
      // mode sends each delta immediately, on the same channel session.
      if (i % 8 == 0) endpoints[1]->pfs_adjust(+1);
      if (i % 8 == 4) endpoints[1]->pfs_adjust(-1);
    }
    // Odd rounds finish the window back to front: resolution order on the
    // wire is fixed (TCP FIFO), completion order at the caller is not.
    if (round % 2 == 1) std::reverse(window.begin(), window.end());
    for (auto& [id, ticket] : window) {
      const auto bytes = endpoints[1]->fetch_sample_finish(ticket);
      if (id % 7 == 3) {
        if (bytes.has_value()) ++bad;
        continue;
      }
      if (!bytes.has_value() || bytes->size() != 64u) {
        ++bad;
        continue;
      }
      for (std::size_t i = 0; i < bytes->size(); ++i) {
        if ((*bytes)[i] !=
            static_cast<std::uint8_t>((id * 2654435761u + i) >> 3)) {
          ++bad;
          break;
        }
      }
    }
  }
  EXPECT_EQ(bad, 0);

  // Gamma parity drain marker: a weight-2 acquire is unreachable by the
  // +1/-1 interleave above, so seeing 2 proves every earlier delta folded
  // at the root; the release then drains the counter to exactly zero.
  endpoints[1]->pfs_adjust(+2);
  endpoints[1]->flush_pfs_gossip();
  EXPECT_TRUE(eventually([&] { return gamma_at_1.load() == 2; }));
  endpoints[1]->pfs_adjust(-2);
  endpoints[1]->flush_pfs_gossip();
  EXPECT_TRUE(eventually([&] { return gamma_at_1.load() == 0; }));
  endpoints[1]->set_pfs_listener({});
}

TEST(ReactorTransport, TicketsFromManyThreadsShareOneConnection) {
  // Several caller threads each keep their own ticket window on the same
  // channel session; per-connection reply matching must never cross wires.
  auto endpoints = make_pair_world();
  endpoints[0]->set_serve_handler([](std::uint64_t id) {
    return std::make_shared<const Bytes>(
        Bytes{static_cast<std::uint8_t>(id), static_cast<std::uint8_t>(id >> 8)});
  });
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        std::vector<std::pair<std::uint64_t, SocketTransport::FetchTicket>> window;
        for (int i = 0; i < 16; ++i) {
          const auto id = static_cast<std::uint64_t>(t * 10'000 + round * 16 + i);
          window.emplace_back(id, endpoints[1]->fetch_sample_start(0, id));
        }
        for (auto& [id, ticket] : window) {
          const auto bytes = endpoints[1]->fetch_sample_finish(ticket);
          if (!bytes.has_value() || bytes->size() != 2u ||
              (*bytes)[0] != static_cast<std::uint8_t>(id) ||
              (*bytes)[1] != static_cast<std::uint8_t>(id >> 8)) {
            ++bad;
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ReactorTransport, BurstsPastTheReadBudgetDrainIntact) {
  // Eight 1 MiB replies pipelined on one connection put twice the
  // per-event read budget in flight, so fills stop at the budget with
  // bytes still in the socket; level-triggered readiness must bring the
  // loop back for them, and every reply must land whole on its ticket.
  auto endpoints = make_pair_world();
  constexpr std::size_t kPayload = 1u << 20;
  static_assert(8 * kPayload > wire::FrameReader::kDefaultReadBudget);
  endpoints[0]->set_serve_handler([](std::uint64_t id) -> std::shared_ptr<const Bytes> {
    auto bytes = std::make_shared<Bytes>(std::size_t{kPayload});
    for (std::size_t i = 0; i < bytes->size(); ++i) {
      (*bytes)[i] = static_cast<std::uint8_t>(id + i * 31);
    }
    return bytes;
  });
  int bad = 0;
  std::vector<std::pair<std::uint64_t, SocketTransport::FetchTicket>> window;
  for (std::uint64_t id = 0; id < 8; ++id) {
    window.emplace_back(id, endpoints[1]->fetch_sample_start(0, id));
  }
  for (auto& [id, ticket] : window) {
    const auto bytes = endpoints[1]->fetch_sample_finish(ticket);
    if (!bytes.has_value() || bytes->size() != kPayload) {
      ++bad;
      continue;
    }
    for (std::size_t i = 0; i < bytes->size(); ++i) {
      if ((*bytes)[i] != static_cast<std::uint8_t>(id + i * 31)) {
        ++bad;
        break;
      }
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(ReactorTransport, AbruptPeerDeathReleasesGammaFromReactorPath) {
  // fork + _exit is the real crash shape: the child's transport never runs
  // a destructor, sends no teardown frames, and the kernel closes its
  // sockets.  The root's reactor must see EOF on the serve session that
  // carried the child's delta and drop the dead rank's outstanding
  // readers.  (Fork happens before EITHER transport exists, so the child
  // inherits no reactor threads, epoll fds, or locks.)
  const std::uint16_t port = pick_free_port();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: rank 1 acquires, confirms the root folded it (the gamma
    // broadcast comes back), then dies without any cleanup.
    try {
      SocketOptions options;
      options.rank = 1;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 30.0;
      SocketTransport transport(options);
      std::atomic<int> gamma{-1};
      transport.set_pfs_listener([&](int g) { gamma = g; });
      transport.pfs_adjust(+1);
      transport.flush_pfs_gossip();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (gamma.load() != 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ::_exit(gamma.load() == 1 ? 42 : 43);
    } catch (...) {
      ::_exit(44);
    }
  }

  SocketOptions options;
  options.rank = 0;
  options.world_size = 2;
  options.rendezvous_port = port;
  options.timeout_s = 30.0;
  SocketTransport root(options);
  std::atomic<int> gamma_at_root{-1};
  root.set_pfs_listener([&](int gamma) { gamma_at_root = gamma; });

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42) << "child never saw its own acquire";

  // The child held +1 at death; only the reactor's EOF path can release
  // it.  The authoritative probe is an adjust bracket (+1 must read 1, so
  // the orphan is gone AND nothing was double-released to below zero) —
  // the listener alone can't distinguish "released" from "installed after
  // the whole episode settled".
  EXPECT_TRUE(eventually([&] {
    const int held = root.pfs_adjust(+1);
    root.pfs_adjust(-1);
    return held == 1;
  })) << "dead rank still pins gamma (listener last saw "
      << gamma_at_root.load() << ")";
  root.set_pfs_listener({});
}

}  // namespace
}  // namespace nopfs::net

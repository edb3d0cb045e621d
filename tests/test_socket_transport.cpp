// Tests for the TCP/loopback transport: the rendezvous handshake, the wire
// protocol (framing, collectives, fetch round-trip, watermark gossip) and
// byte accounting.  Worlds here are threads of this process, each owning a
// real socket endpoint — the multi-PROCESS path is covered by
// tests/test_distributed_runtime.cpp.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "net/socket_transport.hpp"
#include "net/wire.hpp"

namespace nopfs::net {
namespace {

/// Builds a connected world of `n` SocketTransports over loopback.
std::vector<std::unique_ptr<SocketTransport>> make_world(int n,
                                                         double timeout_s = 30.0) {
  const std::uint16_t port = pick_free_port();
  std::vector<std::unique_ptr<SocketTransport>> endpoints(
      static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      SocketOptions options;
      options.rank = r;
      options.world_size = n;
      options.rendezvous_port = port;
      options.timeout_s = timeout_s;
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

TEST(Wire, HeaderRoundTrip) {
  // kHit: a payload-carrying type, so an arbitrary length is in bounds.
  std::uint8_t raw[wire::kHeaderBytes];
  wire::encode_header(raw, wire::MsgType::kHit, 0xDEADBEEFCAFEull, 12345);
  const wire::FrameHeader header = wire::decode_header(raw);
  EXPECT_EQ(header.type, wire::MsgType::kHit);
  EXPECT_EQ(header.arg, 0xDEADBEEFCAFEull);
  EXPECT_EQ(header.payload_len, 12345u);
}

TEST(Wire, RejectsBadMagicAndOversizedPayload) {
  std::uint8_t raw[wire::kHeaderBytes];
  wire::encode_header(raw, wire::MsgType::kHit, 1, 1);
  raw[0] ^= 0xff;
  EXPECT_THROW((void)wire::decode_header(raw), std::runtime_error);

  // Every type's cap holds at the header, before the reader allocates:
  // fixed-size frames accept at most their exact size, payload-carrying
  // ones at most kMaxPayloadBytes.  The last byte past each cap throws.
  struct Case {
    wire::MsgType type;
    std::uint32_t cap;
  };
  const Case cases[] = {
      {wire::MsgType::kHello, 14},
      {wire::MsgType::kWelcome, 4 + 6 * wire::kMaxWelcomeRanks},
      {wire::MsgType::kGather, wire::kMaxPayloadBytes},
      {wire::MsgType::kAllgather, wire::kMaxPayloadBytes},
      {wire::MsgType::kFetch, 0},
      {wire::MsgType::kHit, wire::kMaxPayloadBytes},
      {wire::MsgType::kMiss, 0},
      {wire::MsgType::kWatermark, 4},
      {wire::MsgType::kPfsDelta, 8},
      {wire::MsgType::kPfsGamma, 8},
      {wire::MsgType::kSweepPull, 4},
      {wire::MsgType::kSweepResult, wire::kMaxPayloadBytes},
      {wire::MsgType::kSweepGrant, 16},
      {wire::MsgType::kSweepDone, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.type));
    EXPECT_EQ(wire::max_payload_bytes(c.type), c.cap);
    wire::encode_header(raw, c.type, 1, c.cap);
    EXPECT_EQ(wire::decode_header(raw).payload_len, c.cap);
    wire::encode_header(raw, c.type, 1, c.cap + 1);
    EXPECT_THROW((void)wire::decode_header(raw), std::runtime_error);
  }
  // A corrupt 1 GiB kFetch or kPfsDelta is refused outright.
  for (const wire::MsgType type : {wire::MsgType::kFetch, wire::MsgType::kPfsDelta}) {
    wire::encode_header(raw, type, 1, wire::kMaxPayloadBytes);
    EXPECT_THROW((void)wire::decode_header(raw), std::runtime_error);
  }
  // The sender refuses what the receiver would reject.
  wire::SendQueue queue;
  EXPECT_THROW(queue.push(wire::MsgType::kFetch, 1, Bytes{0}), std::runtime_error);
  EXPECT_THROW(queue.push(wire::MsgType::kPfsDelta, 1, Bytes(9)), std::runtime_error);
  EXPECT_TRUE(queue.empty());
}

TEST(Wire, TruncatedFillLeavesBytesQueuedAndLaterFillsDrainEveryFrame) {
  // fill_from with a 4 KiB budget stops (kDone) while the socket still
  // holds bytes; repeated calls must pick up exactly where it stopped and
  // deliver every frame intact and in order.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  std::vector<wire::Frame> sent;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Bytes payload(24u << 10);
    for (std::size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<std::uint8_t>(i * 131 + b * 7);
    }
    sent.push_back({{wire::MsgType::kHit, i, 0}, payload});
    sent.push_back({{wire::MsgType::kPfsDelta, i, 0},
                    wire::encode_pfs_delta({static_cast<std::int32_t>(i), 1})});
    sent.push_back({{wire::MsgType::kFetch, 100 + i, 0}, {}});
  }
  wire::SendQueue queue;
  for (const wire::Frame& frame : sent) {
    queue.push(frame.header.type, frame.header.arg, frame.payload);
  }
  ASSERT_EQ(queue.flush(sv[0]), wire::IoStatus::kDone);

  wire::FrameReader reader;
  ASSERT_EQ(reader.fill_from(sv[1], 4096), wire::IoStatus::kDone);
  int queued = 0;
  ASSERT_EQ(::ioctl(sv[1], FIONREAD, &queued), 0);
  EXPECT_GT(queued, 0);

  std::vector<wire::Frame> got;
  int truncated_fills = 1;
  for (;;) {
    while (reader.has_frame()) got.push_back(reader.pop_frame());
    const wire::IoStatus status = reader.fill_from(sv[1], 4096);
    if (status != wire::IoStatus::kDone) {
      EXPECT_EQ(status, wire::IoStatus::kWouldBlock);
      break;
    }
    ASSERT_LT(++truncated_fills, 1000);
  }
  while (reader.has_frame()) got.push_back(reader.pop_frame());
  EXPECT_GT(truncated_fills, 1);
  EXPECT_FALSE(reader.mid_frame());
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].header.type, sent[i].header.type) << i;
    EXPECT_EQ(got[i].header.arg, sent[i].header.arg) << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << i;
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Wire, ReaderThrowsOnTruncation) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, 7);
  wire::Reader reader(buf);
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_THROW((void)reader.u16(), std::runtime_error);
}

TEST(Wire, PfsDeltaAndGammaRoundTrip) {
  // Negative reader deltas (weighted releases) must survive the two's-
  // complement packing, and the per-sender sequence rides along.
  const wire::PfsDelta delta = wire::decode_pfs_delta(
      wire::encode_pfs_delta({-12, 0xFEEDu}));
  EXPECT_EQ(delta.reader_delta, -12);
  EXPECT_EQ(delta.seq, 0xFEEDu);
  const wire::PfsGamma gamma =
      wire::decode_pfs_gamma(wire::encode_pfs_gamma({37, 41}));
  EXPECT_EQ(gamma.gamma, 37);
  EXPECT_EQ(gamma.seq, 41u);
  EXPECT_THROW((void)wire::decode_pfs_delta({1, 2, 3}), std::runtime_error);
}

TEST(Wire, RejectsRetiredUnaryContentionFrameType) {
  // Type 11 was kPfsGamma before the delta protocol; the valid range now
  // ends at 10, so a frame from the retired numbering fails loudly.
  std::uint8_t raw[wire::kHeaderBytes];
  wire::encode_header(raw, static_cast<wire::MsgType>(11), 0, 0);
  EXPECT_THROW((void)wire::decode_header(raw), std::runtime_error);
}

TEST(SocketTransport, PickFreePortAvoidsTheEphemeralRange) {
  // A port the kernel can hand out by itself (bind to port 0, a connect's
  // source port) may be taken again before the rendezvous binds it; picked
  // ports must lie outside that range and be bindable when returned.
  std::uint32_t low = 32768;
  std::uint32_t high = 60999;
  std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> low >> high;
  for (int i = 0; i < 200; ++i) {
    const std::uint16_t port = pick_free_port();
    EXPECT_TRUE(port < low || port > high) << port;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0) << port;
    ::close(fd);
  }
}

TEST(SocketTransport, RejectsInvalidOptions) {
  SocketOptions options;
  options.world_size = 0;
  options.rendezvous_port = 1;
  EXPECT_THROW(SocketTransport{options}, std::invalid_argument);
  options.world_size = 2;
  options.rank = 2;
  EXPECT_THROW(SocketTransport{options}, std::invalid_argument);
  options.rank = 0;
  options.rendezvous_port = 0;
  EXPECT_THROW(SocketTransport{options}, std::invalid_argument);
}

TEST(SocketTransport, WorldSizeOneHandshakesInstantly) {
  SocketOptions options;
  options.rendezvous_port = pick_free_port();
  SocketTransport transport(options);
  EXPECT_EQ(transport.rank(), 0);
  EXPECT_EQ(transport.world_size(), 1);
  transport.barrier();  // no peers: must not block
  const auto all = transport.allgather(Bytes{9, 9});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], (Bytes{9, 9}));
}

TEST(SocketTransport, RankAndWorldSize) {
  auto endpoints = make_world(3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(endpoints[static_cast<std::size_t>(r)]->rank(), r);
    EXPECT_EQ(endpoints[static_cast<std::size_t>(r)]->world_size(), 3);
    EXPECT_NE(endpoints[static_cast<std::size_t>(r)]->serve_port(), 0);
  }
}

TEST(SocketTransport, AllgatherDeliversEveryContribution) {
  constexpr int kN = 4;
  auto endpoints = make_world(kN);
  std::vector<std::vector<Bytes>> results(kN);
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      Bytes mine = {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(r * 2)};
      results[static_cast<std::size_t>(r)] =
          endpoints[static_cast<std::size_t>(r)]->allgather(std::move(mine));
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < kN; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(kN));
    for (int peer = 0; peer < kN; ++peer) {
      const Bytes& slot =
          results[static_cast<std::size_t>(r)][static_cast<std::size_t>(peer)];
      ASSERT_EQ(slot.size(), 2u);
      EXPECT_EQ(slot[0], peer);
      EXPECT_EQ(slot[1], peer * 2);
    }
  }
}

TEST(SocketTransport, RepeatedCollectivesDoNotCrossTalk) {
  constexpr int kN = 3;
  constexpr int kRounds = 25;
  auto endpoints = make_world(kN);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        Bytes mine = {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(round)};
        const auto all =
            endpoints[static_cast<std::size_t>(r)]->allgather(std::move(mine));
        for (int peer = 0; peer < kN; ++peer) {
          const Bytes& slot = all[static_cast<std::size_t>(peer)];
          if (slot.size() != 2 || slot[0] != peer || slot[1] != round) ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SocketTransport, BarrierSynchronizes) {
  constexpr int kN = 4;
  auto endpoints = make_world(kN);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      ++before;
      endpoints[static_cast<std::size_t>(r)]->barrier();
      if (before.load() != kN) violated.store(true);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(SocketTransport, FetchSampleRoundTrip) {
  auto endpoints = make_world(2);
  endpoints[1]->set_serve_handler([](std::uint64_t id) -> std::optional<Bytes> {
    if (id == 42) return Bytes{1, 2, 3};
    return std::nullopt;
  });
  auto hit = endpoints[0]->fetch_sample(1, 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (Bytes{1, 2, 3}));
  const auto miss = endpoints[0]->fetch_sample(1, 7);
  EXPECT_FALSE(miss.has_value());
}

TEST(SocketTransport, FetchWithoutHandlerIsMiss) {
  auto endpoints = make_world(2);
  EXPECT_FALSE(endpoints[0]->fetch_sample(1, 1).has_value());
}

TEST(SocketTransport, FetchFromSelfRejected) {
  auto endpoints = make_world(2);
  EXPECT_THROW((void)endpoints[0]->fetch_sample(0, 1), std::invalid_argument);
  EXPECT_THROW((void)endpoints[0]->fetch_sample(9, 1), std::invalid_argument);
}

TEST(SocketTransport, LargePayloadRoundTrips) {
  // Multi-MB payloads cross the socket in many segments: exercises the
  // partial-read/partial-write paths of the framing layer.
  auto endpoints = make_world(2);
  Bytes big(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  endpoints[1]->set_serve_handler(
      [&big](std::uint64_t) -> std::optional<Bytes> { return big; });
  const auto fetched = endpoints[0]->fetch_sample(1, 0);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, big);
}

TEST(SocketTransport, TransferAccountingWithoutNic) {
  auto endpoints = make_world(2);
  endpoints[1]->set_serve_handler(
      [](std::uint64_t) -> std::optional<Bytes> { return Bytes(1024 * 1024, 0); });
  (void)endpoints[0]->fetch_sample(1, 0);
  EXPECT_NEAR(endpoints[0]->transferred_mb(), 1.0, 1e-9);
}

TEST(SocketTransport, WatermarksPropagate) {
  auto endpoints = make_world(3);
  EXPECT_EQ(endpoints[0]->watermark_of(1), 0u);
  endpoints[1]->publish_watermark(123);
  // Gossip is asynchronous (unlike SimTransport's shared memory): poll.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((endpoints[0]->watermark_of(1) != 123u ||
          endpoints[2]->watermark_of(1) != 123u) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(endpoints[0]->watermark_of(1), 123u);
  EXPECT_EQ(endpoints[2]->watermark_of(1), 123u);
  EXPECT_EQ(endpoints[1]->watermark_of(1), 123u);  // own view is immediate
}

TEST(SocketTransport, ConcurrentFetchesAreSafe) {
  constexpr int kN = 4;
  auto endpoints = make_world(kN);
  for (int r = 0; r < kN; ++r) {
    endpoints[static_cast<std::size_t>(r)]->set_serve_handler(
        [r](std::uint64_t id) -> std::optional<Bytes> {
          return Bytes{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(id)};
        });
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kN; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < 100; ++i) {
        const int peer = (r + 1 + i % (kN - 1)) % kN;
        if (peer == r) continue;
        const auto bytes =
            endpoints[static_cast<std::size_t>(r)]->fetch_sample(peer, i % 250);
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

TEST(SocketTransport, ProtocolVersionMismatchFailsHandshake) {
  // An unversioned (pre-kPfsDelta) peer leads its kHello with the world
  // size where the protocol version now goes — the root must reject it at
  // the handshake instead of misreading contention frames mid-rollout.
  const std::uint16_t port = pick_free_port();
  std::atomic<bool> root_failed{false};
  std::thread root([&] {
    try {
      SocketOptions options;
      options.rank = 0;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 20.0;
      SocketTransport transport(options);
    } catch (const std::runtime_error&) {
      root_failed = true;
    }
  });
  std::thread old_peer([&] {
    // Hand-rolled legacy kHello: [u32 world, u16 serve_port], no version.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    int connected = -1;
    while ((connected = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof(addr))) != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(connected, 0);
    Bytes payload;
    wire::put_u32(payload, 2);   // world size where the version belongs
    wire::put_u16(payload, 1);   // serve port
    std::uint8_t header[wire::kHeaderBytes];
    wire::encode_header(header, wire::MsgType::kHello, 1,
                        static_cast<std::uint32_t>(payload.size()));
    (void)::send(fd, header, sizeof(header), MSG_NOSIGNAL);
    (void)::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL);
    // Hold the socket open until the root has reacted, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  });
  root.join();
  old_peer.join();
  EXPECT_TRUE(root_failed.load());
}

TEST(SocketTransport, WorldSizeDisagreementFailsHandshake) {
  const std::uint16_t port = pick_free_port();
  std::atomic<int> failures{0};
  std::thread root([&] {
    try {
      SocketOptions options;
      options.rank = 0;
      options.world_size = 2;
      options.rendezvous_port = port;
      options.timeout_s = 20.0;
      SocketTransport transport(options);
    } catch (const std::runtime_error&) {
      ++failures;
    }
  });
  std::thread peer([&] {
    try {
      SocketOptions options;
      options.rank = 1;
      options.world_size = 3;  // disagrees with the root
      options.rendezvous_port = port;
      options.timeout_s = 20.0;
      SocketTransport transport(options);
      transport.barrier();
    } catch (const std::runtime_error&) {
      ++failures;
    }
  });
  root.join();
  peer.join();
  EXPECT_GE(failures.load(), 1);
}

}  // namespace
}  // namespace nopfs::net

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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/storage_backend.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "util/units.hpp"

namespace nopfs::net {
namespace {

/// Builds a connected world of `n` SocketTransports over loopback; rank r
/// charges nics[r] when given.
std::vector<std::unique_ptr<SocketTransport>> make_world(
    int n, double timeout_s = 30.0, std::vector<tiers::NicDevice*> nics = {}) {
  nics.resize(static_cast<std::size_t>(n), nullptr);
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
      options.nic = nics[static_cast<std::size_t>(r)];
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

/// One frame as it travels: header, then payload.
Bytes encode_frame(wire::MsgType type, std::uint64_t arg, const Bytes& payload) {
  std::uint8_t header[wire::kHeaderBytes];
  wire::encode_header(header, type, arg, static_cast<std::uint32_t>(payload.size()));
  Bytes out(wire::kHeaderBytes + payload.size());
  std::memcpy(out.data(), header, wire::kHeaderBytes);
  std::copy(payload.begin(), payload.end(), out.begin() + wire::kHeaderBytes);
  return out;
}

void send_exactly(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

Bytes patterned(std::size_t size, std::uint64_t seed) {
  Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>((seed * 131 + i * 7) >> 1);
  }
  return bytes;
}

/// A payload sink with SocketTransport's rule: a kHit lands in `dest` when
/// its id and length match.  Counts how often the reader consults it.
struct SinkProbe {
  std::uint64_t id = 0;
  std::span<std::uint8_t> dest;
  int calls = 0;

  wire::FrameReader::PayloadSink sink() {
    return [this](const wire::FrameHeader& header) {
      ++calls;
      if (header.type == wire::MsgType::kHit && header.arg == id &&
          header.payload_len == dest.size()) {
        return dest;
      }
      return std::span<std::uint8_t>{};
    };
  }
};

struct SocketPair {
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
  }
  ~SocketPair() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  int fds[2] = {-1, -1};
};

/// Offsets to split a `frame_size`-byte frame at: all of them for a frame
/// that fits the reader's scratch buffer.  For a larger one, every offset
/// up to 128 bytes past the header (the splits whose remainder the reader
/// `recv`s straight into the sink span lie there), the last 128, and every
/// 509th in between: each interior split takes the scratch path that the
/// small frame already covers at every offset.
std::vector<std::size_t> split_points(std::size_t frame_size) {
  std::vector<std::size_t> splits;
  const std::size_t dense = wire::kHeaderBytes + 128;
  for (std::size_t split = 0; split <= frame_size; ++split) {
    if (frame_size < 64 * 1024 || split <= dense || split + 128 >= frame_size ||
        split % 509 == 0) {
      splits.push_back(split);
    }
  }
  return splits;
}

TEST(Wire, SinkReceivesAHitInPlaceWhereverItIsSplit) {
  // Header and payload split in two sends.  The small payload only ever
  // passes through the reader's scratch buffer; the large one also takes
  // the direct recv() into the sink span whenever 64 KiB or more of it is
  // still missing after the first part.
  for (const std::size_t size : {std::size_t{300}, std::size_t{64 * 1024 + 40}}) {
    SCOPED_TRACE(size);
    const Bytes payload = patterned(size, 9);
    const Bytes frame = encode_frame(wire::MsgType::kHit, 9, payload);
    const SocketPair pair;
    wire::FrameReader reader;
    Bytes dest(size);
    SinkProbe probe{9, dest};
    reader.set_payload_sink(probe.sink());
    for (const std::size_t split : split_points(frame.size())) {
      std::fill(dest.begin(), dest.end(), 0xee);
      probe.calls = 0;
      send_exactly(pair.fds[0], frame.data(), split);
      (void)reader.fill_from(pair.fds[1]);
      send_exactly(pair.fds[0], frame.data() + split, frame.size() - split);
      (void)reader.fill_from(pair.fds[1]);
      ASSERT_TRUE(reader.has_frame()) << "split " << split;
      const wire::Frame got = reader.pop_frame();
      ASSERT_FALSE(reader.has_frame());
      ASSERT_TRUE(got.sunk) << "split " << split;
      ASSERT_TRUE(got.payload.empty());
      ASSERT_EQ(got.header.payload_len, size);
      ASSERT_EQ(probe.calls, 1) << "split " << split;
      ASSERT_EQ(dest, payload) << "split " << split;
    }
  }
}

TEST(Wire, SinkMismatchKeepsThePayloadInTheFrame) {
  // Wrong id, wrong length, or not a kHit: the payload lands in the frame's
  // own buffer and the span keeps its bytes.
  constexpr std::size_t kSize = 70'000;
  const SocketPair pair;
  wire::FrameReader reader;
  Bytes dest(kSize, 0xee);
  SinkProbe probe{9, dest};
  reader.set_payload_sink(probe.sink());
  const Bytes wrong_id = patterned(kSize, 8);
  const Bytes wrong_length = patterned(kSize + 1, 9);
  const Bytes grant = patterned(16, 9);
  const Bytes stream = [&] {
    Bytes all = encode_frame(wire::MsgType::kHit, 8, wrong_id);
    const Bytes b = encode_frame(wire::MsgType::kHit, 9, wrong_length);
    const Bytes c = encode_frame(wire::MsgType::kMiss, 9, {});
    const Bytes d = encode_frame(wire::MsgType::kSweepGrant, 9, grant);
    for (const Bytes* part : {&b, &c, &d}) {
      all.insert(all.end(), part->begin(), part->end());
    }
    return all;
  }();
  std::vector<wire::Frame> got;
  std::size_t sent = 0;
  while (got.size() < 4) {
    const std::size_t chunk = std::min<std::size_t>(stream.size() - sent, 50'000);
    send_exactly(pair.fds[0], stream.data() + sent, chunk);
    sent += chunk;
    (void)reader.fill_from(pair.fds[1]);
    while (reader.has_frame()) got.push_back(reader.pop_frame());
    ASSERT_TRUE(chunk > 0 || got.size() == 4);
  }
  EXPECT_EQ(probe.calls, 4);
  for (const wire::Frame& frame : got) EXPECT_FALSE(frame.sunk);
  EXPECT_EQ(got[0].payload, wrong_id);
  EXPECT_EQ(got[1].payload, wrong_length);
  EXPECT_TRUE(got[2].payload.empty());
  EXPECT_EQ(got[3].payload, grant);
  EXPECT_EQ(dest, Bytes(kSize, 0xee));
}

TEST(Wire, OverCapHeaderIsRejectedBeforeTheSinkIsConsulted) {
  for (const auto& [type, len] :
       {std::pair{wire::MsgType::kHit, wire::kMaxPayloadBytes + 1},
        std::pair{wire::MsgType::kFetch, std::uint32_t{1}}}) {
    const SocketPair pair;
    wire::FrameReader reader;
    Bytes dest(16);
    SinkProbe probe{1, dest};
    reader.set_payload_sink(probe.sink());
    std::uint8_t header[wire::kHeaderBytes];
    wire::encode_header(header, type, 1, len);
    send_exactly(pair.fds[0], header, sizeof(header));
    EXPECT_THROW((void)reader.fill_from(pair.fds[1]), std::runtime_error);
    EXPECT_EQ(probe.calls, 0);
  }
}

TEST(Wire, DetachMidFrameStillDeliversTheWholePayload) {
  // A payload half received into the sink span moves into the reader's own
  // buffer; the rest (past 64 KiB: the direct recv path) goes there too and
  // the span is never written again.
  constexpr std::size_t kSize = 100'000;
  constexpr std::size_t kFirst = 30'000;
  const Bytes payload = patterned(kSize, 4);
  const Bytes frame = encode_frame(wire::MsgType::kHit, 4, payload);
  const SocketPair pair;
  wire::FrameReader reader;
  Bytes dest(kSize, 0xee);
  SinkProbe probe{4, dest};
  reader.set_payload_sink(probe.sink());
  reader.detach_sink();  // nothing landing yet: a no-op
  const std::size_t head = wire::kHeaderBytes + kFirst;
  send_exactly(pair.fds[0], frame.data(), head);
  (void)reader.fill_from(pair.fds[1]);
  ASSERT_TRUE(reader.mid_frame());
  ASSERT_EQ(probe.calls, 1);
  reader.detach_sink();
  send_exactly(pair.fds[0], frame.data() + head, frame.size() - head);
  while (!reader.has_frame()) {
    ASSERT_NE(reader.fill_from(pair.fds[1]), wire::IoStatus::kEof);
  }
  const wire::Frame got = reader.pop_frame();
  EXPECT_FALSE(got.sunk);
  EXPECT_EQ(got.payload, payload);
  EXPECT_TRUE(std::equal(payload.begin(), payload.begin() + kFirst, dest.begin()));
  EXPECT_TRUE(std::all_of(dest.begin() + kFirst, dest.end(),
                          [](std::uint8_t b) { return b == 0xee; }));
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
  auto big = std::make_shared<Bytes>(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big->size(); ++i) {
    (*big)[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  }
  endpoints[1]->set_serve_handler([big](std::uint64_t) { return big; });
  const auto fetched = endpoints[0]->fetch_sample(1, 0);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, *big);
}

TEST(SocketTransport, TransferAccountingWithoutNic) {
  auto endpoints = make_world(2);
  endpoints[1]->set_serve_handler(
      [](std::uint64_t) { return std::make_shared<const Bytes>(1024 * 1024, 0); });
  (void)endpoints[0]->fetch_sample(1, 0);
  EXPECT_NEAR(endpoints[0]->transferred_mb(), 1.0, 1e-9);
}

/// Records what a NIC is charged; replies it serves are held `delay_s`.
class CountingNic final : public tiers::NicDevice {
 public:
  explicit CountingNic(double delay_s = 0.0) : delay_s_(delay_s) {}
  void transfer(double mb) override { add(mb); }
  [[nodiscard]] double reserve_transfer(double mb) override {
    add(mb);
    return delay_s_;
  }
  [[nodiscard]] double total_transferred_mb() const override {
    const std::scoped_lock lock(mutex_);
    return mb_;
  }

 private:
  void add(double mb) {
    const std::scoped_lock lock(mutex_);
    mb_ += mb;
  }
  const double delay_s_;
  mutable std::mutex mutex_;
  double mb_ = 0.0;
};

TEST(SocketTransport, FetchSampleIntoHitMissAndWrongSize) {
  // The in-place call answers exactly like fetch_sample and is charged
  // exactly like it on both NICs: a hit lands whole, a miss and a payload
  // of another length leave the caller's buffer as it was.
  CountingNic client_nic;
  CountingNic server_nic;
  auto endpoints = make_world(2, 30.0, {&client_nic, &server_nic});
  const auto sample = std::make_shared<const Bytes>(patterned(100'000, 42));
  endpoints[1]->set_serve_handler(
      [sample](std::uint64_t id) -> std::shared_ptr<const Bytes> {
        return id == 42 ? sample : nullptr;
      });
  const double mb = util::bytes_to_mb(sample->size());
  const auto charged = [&](double expected) {
    EXPECT_NEAR(client_nic.total_transferred_mb(), expected, 1e-12);
    EXPECT_NEAR(server_nic.total_transferred_mb(), expected, 1e-12);
  };

  Bytes out(sample->size(), 0xee);
  EXPECT_TRUE(endpoints[0]->fetch_sample_into(1, 42, out));
  EXPECT_EQ(out, *sample);
  charged(mb);

  Bytes miss(sample->size(), 0xee);
  EXPECT_FALSE(endpoints[0]->fetch_sample_into(1, 7, miss));
  EXPECT_EQ(miss, Bytes(sample->size(), 0xee));
  charged(mb);

  for (const std::size_t size : {sample->size() - 1, sample->size() + 1}) {
    Bytes other(size, 0xee);
    EXPECT_FALSE(endpoints[0]->fetch_sample_into(1, 42, other));
    EXPECT_EQ(other, Bytes(size, 0xee));
  }
  charged(3 * mb);

  const auto copied = endpoints[0]->fetch_sample(1, 42);
  ASSERT_TRUE(copied.has_value());
  EXPECT_EQ(*copied, *sample);
  charged(4 * mb);
  EXPECT_FALSE(endpoints[0]->fetch_sample(1, 7).has_value());
  charged(4 * mb);
}

/// Size and content of sample `id` in the mixed-ticket test: every third is
/// past 64 KiB, every fifth is a miss.
std::size_t mixed_size(std::uint64_t id) {
  return id % 3 == 0 ? 70'000 + id : 100 + id % 50;
}

TEST(SocketTransport, FetchIntoFetchAndSweepTicketsPairInOrderOnOneChannel) {
  // Rank 1's one channel to rank 0 carries in-place fetches, copying
  // fetches, pipelined tickets and sweep pulls from five threads at once.
  // Replies decoded ahead of dispatch must still map to their tickets in
  // FIFO order, so every payload lands where its own request asked.
  auto endpoints = make_world(2);
  endpoints[0]->set_serve_handler([](std::uint64_t id) -> std::shared_ptr<const Bytes> {
    if (id % 5 == 0) return nullptr;
    return std::make_shared<const Bytes>(patterned(mixed_size(id), id));
  });
  Transport::SweepService service;
  service.on_pull = [](int, Bytes pull) {
    const wire::SweepPull request = wire::decode_sweep_pull(pull);
    return std::make_pair(
        false, wire::encode_sweep_grant({request.seq, request.seq * 10ull, 1}));
  };
  endpoints[0]->set_sweep_service(service);

  std::atomic<int> bad{0};
  const auto check = [&](bool ok) {
    if (!ok) ++bad;
  };
  std::vector<std::thread> callers;
  // Two threads fetch the same ids in place: a reply paired with the wrong
  // ticket would fill one buffer twice and leave the other unwritten.
  for (int twin = 0; twin < 2; ++twin) {
    callers.emplace_back([&] {
      for (std::uint64_t id = 1; id < 1200; id += 2) {
        Bytes out(mixed_size(id), 0xee);
        const bool hit = endpoints[1]->fetch_sample_into(0, id, out);
        check(hit == (id % 5 != 0));
        check(hit ? out == patterned(out.size(), id) : out == Bytes(out.size(), 0xee));
      }
    });
  }
  callers.emplace_back([&] {
    for (std::uint64_t id = 2; id < 300; id += 4) {
      const auto bytes = endpoints[1]->fetch_sample(0, id);
      check(bytes.has_value() == (id % 5 != 0));
      if (bytes.has_value()) check(*bytes == patterned(mixed_size(id), id));
    }
  });
  callers.emplace_back([&] {
    for (std::uint32_t seq = 1; seq <= 60; ++seq) {
      const auto reply = endpoints[1]->sweep_pull(wire::encode_sweep_pull({seq}));
      check(reply.has_value() && !reply->first);
      if (reply.has_value()) {
        const wire::SweepGrant grant = wire::decode_sweep_grant(reply->second);
        check(grant.seq == seq && grant.first == seq * 10ull);
      }
    }
  });
  for (std::uint64_t base = 3; base < 300; base += 40) {
    std::vector<std::pair<std::uint64_t, SocketTransport::FetchTicket>> window;
    for (std::uint64_t id = base; id < base + 40; id += 4) {
      window.emplace_back(id, endpoints[1]->fetch_sample_start(0, id));
    }
    for (const auto& [id, ticket] : window) {
      const auto bytes = endpoints[1]->fetch_sample_finish(ticket);
      check(bytes.has_value() == (id % 5 != 0));
      if (bytes.has_value()) check(*bytes == patterned(mixed_size(id), id));
    }
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(bad.load(), 0);
  endpoints[0]->set_sweep_service({});
}

TEST(SocketTransport, ReplyAfterTimeoutNeverWritesIntoTheCallersBuffer) {
  // The handler sleeps past the fetch timeout, so the kHit arrives after
  // fetch_sample_into gave up and the caller freed its buffer (a heap
  // buffer: the sanitizer build would flag a late write into it).  The late
  // reply is absorbed by its abandoned ticket and the channel stays in step.
  constexpr std::size_t kSize = 100'000;
  auto endpoints = make_world(2, /*timeout_s=*/1.0);
  std::atomic<bool> slow{true};
  endpoints[1]->set_serve_handler([&slow](std::uint64_t id) {
    if (slow.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1300));
    }
    return std::make_shared<const Bytes>(patterned(kSize, id));
  });
  {
    auto out = std::make_unique<Bytes>(kSize, 0xee);
    EXPECT_FALSE(endpoints[0]->fetch_sample_into(1, 3, *out));
    EXPECT_EQ(*out, Bytes(kSize, 0xee));
  }
  Bytes next(kSize, 0xee);
  EXPECT_TRUE(endpoints[0]->fetch_sample_into(1, 4, next));
  EXPECT_EQ(next, patterned(kSize, 4));
}

TEST(SocketTransport, BufferErasedWhileItsHitIsQueuedArrivesIntact) {
  // The server's NIC holds the reply back; meanwhile the sample is erased
  // from the backend (and the id re-stored with other bytes).  The queued
  // kHit holds its own reference to the buffer, so it arrives as served.
  constexpr std::size_t kSize = 100'000;
  core::MemoryBackend backend(10.0);
  const Bytes sample = patterned(kSize, 5);
  ASSERT_TRUE(backend.store(5, sample));
  CountingNic server_nic(/*delay_s=*/0.3);
  auto endpoints = make_world(2, 30.0, {nullptr, &server_nic});
  std::promise<void> served;
  endpoints[1]->set_serve_handler([&](std::uint64_t id) {
    auto bytes = backend.share(id);
    served.set_value();
    return bytes;
  });
  std::thread eraser([&] {
    served.get_future().wait();
    backend.erase(5);
    backend.store(5, Bytes(kSize, 0));
  });
  Bytes out(kSize, 0xee);
  EXPECT_TRUE(endpoints[0]->fetch_sample_into(1, 5, out));
  eraser.join();
  EXPECT_EQ(out, sample);
  endpoints[1]->set_serve_handler({});
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
        [r](std::uint64_t id) {
          return std::make_shared<const Bytes>(
              Bytes{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(id)});
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

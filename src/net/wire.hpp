#pragma once
// Wire format shared by SocketTransport and the distributed harness.
//
// Every socket message is one length-prefixed frame:
//
//   u32 magic ("NPFS") | u8 type | u64 arg | u32 payload_len | payload bytes
//
// All integers are little-endian regardless of host order (the encode/decode
// helpers below are byte-explicit).  `arg` carries the small fixed operand of
// each message (rank, sample id, watermark position) so the common cases —
// barriers, fetch requests, watermark gossip — need no payload allocation.
// The payload length is bounded per message type (max_payload_bytes) before
// anything is allocated: fixed-size frames by their exact size, variable
// ones by kMaxPayloadBytes, so a corrupt or truncated header fails loudly
// instead of driving a gigabyte allocation.
//
// Two consumers sit on top of the frame format:
//
//   * the blocking rendezvous handshake (send_all/recv_all in
//     socket_transport.cpp) encodes/decodes one frame at a time;
//   * the reactor (net/reactor.hpp) pumps non-blocking fds through
//     FrameReader (incremental parse across partial reads; a payload sink
//     lets a kHit land straight in the requester's buffer) and SendQueue
//     (buffered partial writes, scatter/gather flush: a kHit header and its
//     sample payload leave in one sendmsg, the payload sent from the
//     server's cached buffer itself).
//
// DESIGN.md Sec. 7 documents the message exchange on top of these frames.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace nopfs::sim {
struct SimResult;  // sim/sim_config.hpp; wire.cpp holds the codec
}

namespace nopfs::net::wire {

inline constexpr std::uint32_t kMagic = 0x4E504653u;  // "NPFS"
inline constexpr std::size_t kHeaderBytes = 4 + 1 + 8 + 4;
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;  // 1 GiB sanity cap
/// Ranks a kWelcome endpoint table may list (it carries 6 bytes per rank).
inline constexpr std::uint32_t kMaxWelcomeRanks = 1u << 20;

/// Protocol revision carried in the rendezvous handshake (kHello leads with
/// it, kWelcome echoes it back).  Bumped whenever a frame's meaning changes
/// — revision 2 replaced the unary kPfsAcquire/kPfsRelease contention
/// frames with batched kPfsDelta; revision 3 made fetch channels pipelined
/// (many in-flight kFetch per connection, replies matched FIFO) and led
/// every dialed channel with a kHello identifying the dialing rank; revision
/// 4 added the sweep-service frames (kSweepPull/kSweepResult/kSweepGrant/
/// kSweepDone) and the SimResult codec they carry; revision 5 made worlds
/// elastic (DESIGN.md Sec. 11): the rendezvous kHello carries max_world so
/// every rank sizes its tables for late joiners, and rank 0 keeps the
/// rendezvous listener open to admit ranks in [world_size, max_world) after
/// the base world is up — so a mixed-version world fails loudly at the
/// handshake instead of misreading frames mid-rollout.  The high bytes
/// spell "NP", so the version field can never be confused with a plausible
/// world size (the field an unversioned peer sends first).
inline constexpr std::uint32_t kProtocolVersion = 0x4E500005u;

enum class MsgType : std::uint8_t {
  kHello = 1,      ///< rank -> rendezvous: arg=rank, payload=[u32 protocol,
                   ///<   u32 world, u16 serve_port, u32 max_world] (rev 5).
                   ///< Also the first frame on every dialed peer channel:
                   ///<   arg=rank, payload=[u32 protocol] (revision 3).
  kWelcome = 2,    ///< rendezvous -> rank: payload=[u32 protocol, endpoint table]
  kGather = 3,     ///< rank -> root: arg=rank, payload = local contribution
  kAllgather = 4,  ///< root -> rank: payload = world_size x [u32 len, bytes]
  kFetch = 5,      ///< requester -> server: arg = sample id
  kHit = 6,        ///< server -> requester: payload = sample bytes
  kMiss = 7,       ///< server -> requester: sample not (yet) cached
  kWatermark = 8,  ///< one-way gossip: arg = position, payload=[u32 rank]
  // PFS contention accounting (DESIGN.md Sec. 7.4): rank 0 hosts the
  // authoritative job-wide active-reader counter.  One kPfsDelta frame
  // carries the NET effect of any number of coalesced acquire/release
  // transitions, each weighted by the rank's local reader-thread fan-out.
  kPfsDelta = 9,  ///< rank -> rank 0: arg = rank, payload = PfsDelta below
  kPfsGamma = 10, ///< rank 0 -> everyone: payload = PfsGamma below
  // Type 11 is permanently retired (it was kPfsGamma before the delta
  // protocol and decoding it must keep failing loudly), so the sweep
  // service starts at 12.  Sweep frames ride the per-peer fetch channel to
  // rank 0 (DESIGN.md Sec. 10): a worker pulls a cell range, rank 0 replies
  // with a grant (or done), and completed ranges stream back one-way.
  kSweepPull = 12,    ///< worker -> rank 0: arg = rank, payload = SweepPull
  kSweepResult = 13,  ///< worker -> rank 0: arg = rank,
                      ///<   payload = SweepResultBatch
  kSweepGrant = 14,   ///< rank 0 -> worker: reply to kSweepPull,
                      ///<   payload = SweepGrant
  kSweepDone = 15,    ///< rank 0 -> worker: reply to kSweepPull when the
                      ///<   grid is drained (or interrupted), payload =
                      ///<   SweepDone — the worker stops pulling
};

/// Payload of kPfsDelta: the sender's net reader-count change since its
/// previous frame, plus a per-sender sequence number (monotone across
/// redials) so rank 0 can drop duplicated or reordered frames defensively.
struct PfsDelta {
  std::int32_t reader_delta = 0;
  std::uint32_t seq = 0;
};

/// Payload of kPfsGamma: the authoritative job-wide active-reader count and
/// rank 0's broadcast sequence number (a receiver ignores anything at or
/// below the last seq it applied).
struct PfsGamma {
  std::int32_t gamma = 0;
  std::uint32_t seq = 0;
};

/// Payload of kSweepPull: an idle worker asking rank 0 for its next cell
/// range.  `seq` is monotone per sender (same defensive discipline as
/// PfsDelta) so a duplicated or reordered pull is dropped, never re-granted.
struct SweepPull {
  std::uint32_t seq = 0;
};

/// Payload of kSweepGrant: a contiguous cell range [first, first + count).
/// `seq` echoes the pull being answered.
struct SweepGrant {
  std::uint32_t seq = 0;
  std::uint64_t first = 0;
  std::uint32_t count = 0;
};

/// Payload of kSweepDone: the grid is drained (or the sweep was
/// interrupted); the receiving worker stops pulling and enters the final
/// barrier.  `seq` echoes the pull being answered.
struct SweepDone {
  std::uint32_t seq = 0;
};

/// Payload of kSweepResult: the results for a completed contiguous range,
/// ordered by flat cell index starting at `first`.  Results are pure
/// functions of the cell, so rank 0 folds a duplicate batch idempotently.
struct SweepResultBatch {
  std::uint32_t seq = 0;
  std::uint64_t first = 0;
  std::vector<sim::SimResult> results;
};

/// Largest payload a frame of `type` may carry.  Fixed-size frames get their
/// exact size (kHello its longer rendezvous form); only the frames whose
/// payload is data — kHit, kGather/kAllgather (collective contributions,
/// e.g. a job's cache plan) and kSweepResult — keep kMaxPayloadBytes.
[[nodiscard]] std::uint32_t max_payload_bytes(MsgType type) noexcept;

struct FrameHeader {
  MsgType type = MsgType::kMiss;
  std::uint64_t arg = 0;
  std::uint32_t payload_len = 0;
};

// --- byte-explicit integer packing -----------------------------------------

inline void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  // Two's-complement bit pattern, little-endian (mirrors Reader::i32).
  const auto bits = static_cast<std::uint32_t>(v);
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((bits >> shift) & 0xff));
  }
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

/// Packs a double by bit pattern (both ends are IEEE-754 here; the byte
/// order is still made explicit so the wire format has one definition).
void put_f64(std::vector<std::uint8_t>& out, double v);

/// Bounds-checked cursor over a received payload.  Throws std::runtime_error
/// on under-run — a malformed frame must never read past the buffer.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::int32_t i32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t n);
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- frame header ----------------------------------------------------------

/// Serializes a frame header into exactly kHeaderBytes.
void encode_header(std::uint8_t (&out)[kHeaderBytes], MsgType type,
                   std::uint64_t arg, std::uint32_t payload_len);

/// Parses and validates a frame header (magic, type, the type's payload
/// bound).  Throws std::runtime_error on a malformed header.
[[nodiscard]] FrameHeader decode_header(const std::uint8_t (&in)[kHeaderBytes]);

// --- contention frame payloads ---------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_pfs_delta(const PfsDelta& delta);
[[nodiscard]] PfsDelta decode_pfs_delta(const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_pfs_gamma(const PfsGamma& gamma);
[[nodiscard]] PfsGamma decode_pfs_gamma(const std::vector<std::uint8_t>& payload);

// --- sweep-service frame payloads (DESIGN.md Sec. 10) -----------------------

[[nodiscard]] std::vector<std::uint8_t> encode_sweep_pull(const SweepPull& pull);
[[nodiscard]] SweepPull decode_sweep_pull(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_sweep_grant(
    const SweepGrant& grant);
[[nodiscard]] SweepGrant decode_sweep_grant(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_sweep_done(const SweepDone& done);
[[nodiscard]] SweepDone decode_sweep_done(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_sweep_result_batch(
    const SweepResultBatch& batch);
[[nodiscard]] SweepResultBatch decode_sweep_result_batch(
    const std::vector<std::uint8_t>& payload);

/// Field-by-field SimResult serialization: strings as u32 length + bytes,
/// double vectors as u64 length + f64s, every double by IEEE-754 bit
/// pattern — two ranks (or a checkpoint round trip) reproduce the struct
/// bit-for-bit, which is what lets the deterministic-ordering contract
/// survive distribution and resume.
void put_sim_result(std::vector<std::uint8_t>& out,
                    const sim::SimResult& result);
[[nodiscard]] sim::SimResult read_sim_result(Reader& reader);

[[nodiscard]] std::vector<std::uint8_t> encode_sim_result(
    const sim::SimResult& result);
[[nodiscard]] sim::SimResult decode_sim_result(
    const std::vector<std::uint8_t>& payload);

// --- non-blocking frame I/O ------------------------------------------------

/// Result of pumping a non-blocking fd: made bounded progress (more may be
/// pending — level-triggered epoll will refire), drained the fd until it
/// would block, or hit clean EOF.
enum class IoStatus { kDone, kWouldBlock, kEof };

/// One fully parsed inbound frame.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  /// The payload went to the span a FrameReader::PayloadSink chose, and
  /// `payload` is empty.
  bool sunk = false;
};

/// Incremental frame parser for a non-blocking socket.  fill_from() reads
/// whatever the fd has (header and payload boundaries land anywhere — a
/// 17-byte header can arrive one byte at a time, a payload across many
/// reads) and completed frames queue up behind has_frame()/pop_frame().
/// Large payload remainders are read straight into the payload buffer so a
/// multi-megabyte sample costs no extra copy.  That buffer is the reader's
/// own unless a payload sink supplies one.
class FrameReader {
 public:
  /// Chooses where a frame's payload lands.  Consulted once per decoded
  /// header, after the header passed its payload cap.  A non-empty span of
  /// exactly header.payload_len bytes receives the payload and the frame
  /// arrives `sunk`; any other span (empty, by convention) keeps the
  /// payload in the frame's own buffer.
  using PayloadSink = std::function<std::span<std::uint8_t>(const FrameHeader&)>;

  /// Per-call read budget: one session cannot starve the rest of the loop.
  /// Bytes left in the socket past it fire the level-triggered reactor
  /// again on its next iteration.
  static constexpr std::size_t kDefaultReadBudget = 4u << 20;

  /// Pumps bytes from `fd` until it would block, reaches EOF, or roughly
  /// `max_bytes` have been consumed.  Throws std::runtime_error on a
  /// malformed frame or a socket error (EINTR is retried internally).
  IoStatus fill_from(int fd, std::size_t max_bytes = kDefaultReadBudget);

  [[nodiscard]] bool has_frame() const noexcept { return !ready_.empty(); }
  [[nodiscard]] Frame pop_frame();

  void set_payload_sink(PayloadSink sink) { sink_ = std::move(sink); }

  /// Stops writing into the sink's span: a payload still being received
  /// there moves, with the bytes it has so far, into the reader's own
  /// buffer, and its frame arrives whole and not `sunk`.  No-op when no
  /// payload is landing in a sink span.
  void detach_sink();

  /// True when the stream stopped mid-frame — an EOF here means the peer
  /// died mid-send rather than closing cleanly between frames.
  [[nodiscard]] bool mid_frame() const noexcept {
    return header_have_ > 0 || have_header_;
  }

 private:
  void dispense();
  void finish_if_complete();
  /// Where the current payload's bytes go: the sink's span or payload_.
  [[nodiscard]] std::uint8_t* payload_dest() noexcept {
    return sunk_.empty() ? payload_.data() : sunk_.data();
  }

  std::deque<Frame> ready_;
  std::uint8_t header_buf_[kHeaderBytes] = {};
  std::size_t header_have_ = 0;
  bool have_header_ = false;
  FrameHeader header_;
  PayloadSink sink_;
  std::span<std::uint8_t> sunk_;  ///< the current payload's sink span, if any
  std::vector<std::uint8_t> payload_;
  std::size_t payload_have_ = 0;
  std::uint8_t scratch_[64 * 1024];
  std::size_t scratch_pos_ = 0;
  std::size_t scratch_len_ = 0;
};

/// Outbound frame queue for a non-blocking socket.  push() stages a frame
/// (header encoded in place, payload moved in or shared — never copied);
/// flush() writes as much as the socket accepts with one sendmsg() per batch,
/// gathering up to kMaxFlushIov iovecs so a kHit header and its sample
/// payload — and any frames queued behind them — leave in one syscall.
/// Partial writes persist as a byte offset into the front frame.
class SendQueue {
 public:
  /// Gather cap in iovecs per sendmsg (a frame is a header iovec plus, when
  /// non-empty, a payload iovec — so 16 to 32 small frames a batch).
  static constexpr std::size_t kMaxFlushIov = 32;

  /// Throws std::runtime_error when `payload` exceeds max_payload_bytes(type).
  void push(MsgType type, std::uint64_t arg, std::vector<std::uint8_t> payload);
  void push(MsgType type, std::uint64_t arg, const std::uint8_t* payload,
            std::size_t len);
  /// Sends `payload` itself, holding the reference until sendmsg has
  /// written the frame's last byte; the buffer must not change meanwhile.
  /// nullptr sends an empty payload.
  void push(MsgType type, std::uint64_t arg,
            std::shared_ptr<const std::vector<std::uint8_t>> payload);

  /// Returns kDone when the queue emptied, kWouldBlock when the socket
  /// stopped accepting bytes (re-arm EPOLLOUT).  Throws std::runtime_error
  /// on a socket error; SIGPIPE is suppressed (MSG_NOSIGNAL).
  IoStatus flush(int fd);

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return bytes_; }

 private:
  struct Entry {
    std::uint8_t header[kHeaderBytes] = {};
    std::vector<std::uint8_t> owned;
    std::shared_ptr<const std::vector<std::uint8_t>> shared;
    [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
      if (shared != nullptr) return *shared;
      return owned;
    }
  };
  void push_entry(MsgType type, std::uint64_t arg, Entry entry);

  std::deque<Entry> entries_;
  std::size_t front_offset_ = 0;  // bytes of the front entry already sent
  std::size_t bytes_ = 0;
};

}  // namespace nopfs::net::wire

#include "net/wire.hpp"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/sim_config.hpp"

namespace nopfs::net::wire {

void put_f64(std::vector<std::uint8_t>& out, double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void Reader::need(std::size_t n) const {
  if (pos_ + n > size_) throw std::runtime_error("wire: truncated payload");
}

std::uint16_t Reader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::uint8_t> Reader::bytes(std::size_t n) {
  need(n);
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

void encode_header(std::uint8_t (&out)[kHeaderBytes], MsgType type,
                   std::uint64_t arg, std::uint32_t payload_len) {
  std::size_t pos = 0;
  auto byte = [&](std::uint64_t v, int shift) {
    out[pos++] = static_cast<std::uint8_t>((v >> shift) & 0xff);
  };
  for (int shift = 0; shift < 32; shift += 8) byte(kMagic, shift);
  out[pos++] = static_cast<std::uint8_t>(type);
  for (int shift = 0; shift < 64; shift += 8) byte(arg, shift);
  for (int shift = 0; shift < 32; shift += 8) byte(payload_len, shift);
}

std::vector<std::uint8_t> encode_pfs_delta(const PfsDelta& delta) {
  std::vector<std::uint8_t> out;
  out.reserve(8);
  put_i32(out, delta.reader_delta);
  put_u32(out, delta.seq);
  return out;
}

PfsDelta decode_pfs_delta(const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  PfsDelta delta;
  delta.reader_delta = reader.i32();
  delta.seq = reader.u32();
  return delta;
}

std::vector<std::uint8_t> encode_pfs_gamma(const PfsGamma& gamma) {
  std::vector<std::uint8_t> out;
  out.reserve(8);
  put_i32(out, gamma.gamma);
  put_u32(out, gamma.seq);
  return out;
}

PfsGamma decode_pfs_gamma(const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  PfsGamma gamma;
  gamma.gamma = reader.i32();
  gamma.seq = reader.u32();
  return gamma;
}

// --- sweep-service frame payloads -------------------------------------------

namespace {

constexpr int kLocationCount = static_cast<int>(sim::Location::kCount);

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string read_string(Reader& reader) {
  const std::uint32_t len = reader.u32();
  const auto raw = reader.bytes(len);
  return std::string(raw.begin(), raw.end());
}

void put_f64_vector(std::vector<std::uint8_t>& out,
                    const std::vector<double>& v) {
  put_u64(out, v.size());
  for (const double x : v) put_f64(out, x);
}

std::vector<double> read_f64_vector(Reader& reader) {
  const std::uint64_t len = reader.u64();
  // The Reader bounds-checks every element, but reserve() before the loop
  // must not trust a corrupt length.
  if (len * 8 > kMaxPayloadBytes) {
    throw std::runtime_error("wire: sim-result vector exceeds sanity cap");
  }
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(len));
  for (std::uint64_t i = 0; i < len; ++i) v.push_back(reader.f64());
  return v;
}

}  // namespace

void put_sim_result(std::vector<std::uint8_t>& out,
                    const sim::SimResult& result) {
  put_string(out, result.policy);
  put_string(out, result.dataset);
  out.push_back(result.supported ? 1 : 0);
  put_string(out, result.unsupported_reason);
  put_f64(out, result.total_s);
  put_f64(out, result.prestage_s);
  put_f64(out, result.stall_s);
  put_f64(out, result.compute_s);
  put_f64_vector(out, result.epoch_s);
  put_f64_vector(out, result.batch_s_epoch0);
  put_f64_vector(out, result.batch_s_rest);
  for (int i = 0; i < kLocationCount; ++i) put_f64(out, result.location_s[i]);
  for (int i = 0; i < kLocationCount; ++i) {
    put_u64(out, result.location_count[i]);
  }
  for (int i = 0; i < kLocationCount; ++i) put_f64(out, result.location_mb[i]);
  put_f64(out, result.accessed_fraction);
}

sim::SimResult read_sim_result(Reader& reader) {
  sim::SimResult result;
  result.policy = read_string(reader);
  result.dataset = read_string(reader);
  result.supported = reader.bytes(1)[0] != 0;
  result.unsupported_reason = read_string(reader);
  result.total_s = reader.f64();
  result.prestage_s = reader.f64();
  result.stall_s = reader.f64();
  result.compute_s = reader.f64();
  result.epoch_s = read_f64_vector(reader);
  result.batch_s_epoch0 = read_f64_vector(reader);
  result.batch_s_rest = read_f64_vector(reader);
  for (int i = 0; i < kLocationCount; ++i) result.location_s[i] = reader.f64();
  for (int i = 0; i < kLocationCount; ++i) {
    result.location_count[i] = reader.u64();
  }
  for (int i = 0; i < kLocationCount; ++i) result.location_mb[i] = reader.f64();
  result.accessed_fraction = reader.f64();
  return result;
}

std::vector<std::uint8_t> encode_sim_result(const sim::SimResult& result) {
  std::vector<std::uint8_t> out;
  put_sim_result(out, result);
  return out;
}

sim::SimResult decode_sim_result(const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  sim::SimResult result = read_sim_result(reader);
  if (reader.remaining() != 0) {
    throw std::runtime_error("wire: trailing bytes after sim result");
  }
  return result;
}

std::vector<std::uint8_t> encode_sweep_pull(const SweepPull& pull) {
  std::vector<std::uint8_t> out;
  out.reserve(4);
  put_u32(out, pull.seq);
  return out;
}

SweepPull decode_sweep_pull(const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  SweepPull pull;
  pull.seq = reader.u32();
  if (reader.remaining() != 0) {
    throw std::runtime_error("wire: trailing bytes after sweep pull");
  }
  return pull;
}

std::vector<std::uint8_t> encode_sweep_grant(const SweepGrant& grant) {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  put_u32(out, grant.seq);
  put_u64(out, grant.first);
  put_u32(out, grant.count);
  return out;
}

SweepGrant decode_sweep_grant(const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  SweepGrant grant;
  grant.seq = reader.u32();
  grant.first = reader.u64();
  grant.count = reader.u32();
  if (reader.remaining() != 0) {
    throw std::runtime_error("wire: trailing bytes after sweep grant");
  }
  return grant;
}

std::vector<std::uint8_t> encode_sweep_done(const SweepDone& done) {
  std::vector<std::uint8_t> out;
  out.reserve(4);
  put_u32(out, done.seq);
  return out;
}

SweepDone decode_sweep_done(const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  SweepDone done;
  done.seq = reader.u32();
  if (reader.remaining() != 0) {
    throw std::runtime_error("wire: trailing bytes after sweep done");
  }
  return done;
}

std::vector<std::uint8_t> encode_sweep_result_batch(
    const SweepResultBatch& batch) {
  std::vector<std::uint8_t> out;
  put_u32(out, batch.seq);
  put_u64(out, batch.first);
  put_u32(out, static_cast<std::uint32_t>(batch.results.size()));
  for (const sim::SimResult& result : batch.results) {
    put_sim_result(out, result);
  }
  return out;
}

SweepResultBatch decode_sweep_result_batch(
    const std::vector<std::uint8_t>& payload) {
  Reader reader(payload);
  SweepResultBatch batch;
  batch.seq = reader.u32();
  batch.first = reader.u64();
  const std::uint32_t count = reader.u32();
  batch.results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.results.push_back(read_sim_result(reader));
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("wire: trailing bytes after sweep result batch");
  }
  return batch;
}

std::uint32_t max_payload_bytes(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello:
      return 4 + 4 + 2 + 4;  // protocol, world, serve port, max_world
    case MsgType::kWelcome:
      return 4 + 6 * kMaxWelcomeRanks;  // protocol + (ipv4, port) per rank
    case MsgType::kFetch:
    case MsgType::kMiss:
      return 0;
    case MsgType::kWatermark:
    case MsgType::kSweepPull:
    case MsgType::kSweepDone:
      return 4;
    case MsgType::kPfsDelta:
    case MsgType::kPfsGamma:
      return 8;
    case MsgType::kSweepGrant:
      return 16;
    case MsgType::kGather:
    case MsgType::kAllgather:
    case MsgType::kHit:
    case MsgType::kSweepResult:
      return kMaxPayloadBytes;
  }
  return 0;
}

FrameHeader decode_header(const std::uint8_t (&in)[kHeaderBytes]) {
  Reader reader(in, kHeaderBytes);
  const std::uint32_t magic = reader.u32();
  if (magic != kMagic) throw std::runtime_error("wire: bad frame magic");
  FrameHeader header;
  const auto raw = reader.bytes(1);
  header.type = static_cast<MsgType>(raw[0]);
  // Valid types are [kHello, kPfsGamma] plus the sweep-service block
  // [kSweepPull, kSweepDone]; 11 sits between them and stays permanently
  // retired (it was kPfsGamma before the delta protocol).
  const bool core = raw[0] >= static_cast<std::uint8_t>(MsgType::kHello) &&
                    raw[0] <= static_cast<std::uint8_t>(MsgType::kPfsGamma);
  const bool sweep = raw[0] >= static_cast<std::uint8_t>(MsgType::kSweepPull) &&
                     raw[0] <= static_cast<std::uint8_t>(MsgType::kSweepDone);
  if (!core && !sweep) {
    throw std::runtime_error("wire: unknown message type");
  }
  header.arg = reader.u64();
  header.payload_len = reader.u32();
  if (header.payload_len > max_payload_bytes(header.type)) {
    throw std::runtime_error("wire: payload exceeds the cap for its type");
  }
  return header;
}

// --- FrameReader -----------------------------------------------------------

IoStatus FrameReader::fill_from(int fd, std::size_t max_bytes) {
  std::size_t consumed = 0;
  for (;;) {
    dispense();  // scratch fully drains into header/payload state
    scratch_pos_ = scratch_len_ = 0;
    if (consumed >= max_bytes) return IoStatus::kDone;
    ssize_t n = 0;
    const std::size_t payload_want =
        have_header_ ? header_.payload_len - payload_have_ : 0;
    if (payload_want >= sizeof(scratch_)) {
      // Large remainder: read straight into the payload's destination.
      n = ::recv(fd, payload_dest() + payload_have_, payload_want, 0);
      if (n > 0) {
        payload_have_ += static_cast<std::size_t>(n);
        consumed += static_cast<std::size_t>(n);
        finish_if_complete();
        continue;
      }
    } else {
      n = ::recv(fd, scratch_, sizeof(scratch_), 0);
      if (n > 0) {
        scratch_len_ = static_cast<std::size_t>(n);
        consumed += static_cast<std::size_t>(n);
        continue;
      }
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    throw std::runtime_error(std::string("wire: recv: ") +
                             std::strerror(errno));
  }
}

void FrameReader::dispense() {
  while (scratch_pos_ < scratch_len_) {
    const std::size_t avail = scratch_len_ - scratch_pos_;
    if (!have_header_) {
      const std::size_t take = std::min(avail, kHeaderBytes - header_have_);
      std::memcpy(header_buf_ + header_have_, scratch_ + scratch_pos_, take);
      header_have_ += take;
      scratch_pos_ += take;
      if (header_have_ < kHeaderBytes) return;
      header_ = decode_header(header_buf_);  // throws on a malformed header
      have_header_ = true;
      header_have_ = 0;
      payload_have_ = 0;
      if (sink_) {
        const std::span<std::uint8_t> span = sink_(header_);
        if (span.size() == header_.payload_len) sunk_ = span;
      }
      payload_.clear();
      if (sunk_.empty()) payload_.resize(header_.payload_len);
      finish_if_complete();  // zero-payload frames complete immediately
    } else {
      const std::size_t take =
          std::min(avail, header_.payload_len - payload_have_);
      std::memcpy(payload_dest() + payload_have_, scratch_ + scratch_pos_, take);
      payload_have_ += take;
      scratch_pos_ += take;
      finish_if_complete();
    }
  }
}

void FrameReader::finish_if_complete() {
  if (have_header_ && payload_have_ == header_.payload_len) {
    ready_.push_back(Frame{header_, std::move(payload_), !sunk_.empty()});
    payload_ = {};
    payload_have_ = 0;
    sunk_ = {};
    have_header_ = false;
  }
}

void FrameReader::detach_sink() {
  if (!have_header_ || sunk_.empty()) return;
  payload_.assign(sunk_.begin(),
                  sunk_.begin() + static_cast<std::ptrdiff_t>(payload_have_));
  payload_.resize(header_.payload_len);
  sunk_ = {};
}

Frame FrameReader::pop_frame() {
  Frame frame = std::move(ready_.front());
  ready_.pop_front();
  return frame;
}

// --- SendQueue -------------------------------------------------------------

void SendQueue::push_entry(MsgType type, std::uint64_t arg, Entry entry) {
  const std::size_t len = entry.payload().size();
  if (len > max_payload_bytes(type)) {
    throw std::runtime_error("wire: payload exceeds the cap for its type");
  }
  encode_header(entry.header, type, arg, static_cast<std::uint32_t>(len));
  bytes_ += kHeaderBytes + len;
  entries_.push_back(std::move(entry));
}

void SendQueue::push(MsgType type, std::uint64_t arg,
                     std::vector<std::uint8_t> payload) {
  Entry entry;
  entry.owned = std::move(payload);
  push_entry(type, arg, std::move(entry));
}

void SendQueue::push(MsgType type, std::uint64_t arg,
                     const std::uint8_t* payload, std::size_t len) {
  std::vector<std::uint8_t> copy;
  if (len > 0) copy.assign(payload, payload + len);
  push(type, arg, std::move(copy));
}

void SendQueue::push(MsgType type, std::uint64_t arg,
                     std::shared_ptr<const std::vector<std::uint8_t>> payload) {
  Entry entry;
  entry.shared = std::move(payload);
  push_entry(type, arg, std::move(entry));
}

IoStatus SendQueue::flush(int fd) {
  while (!entries_.empty()) {
    iovec iov[kMaxFlushIov];
    std::size_t iovcnt = 0;
    std::size_t skip = front_offset_;  // non-zero only for the front entry
    for (auto it = entries_.begin();
         it != entries_.end() && iovcnt + 2 <= kMaxFlushIov; ++it) {
      if (skip < kHeaderBytes) {
        iov[iovcnt].iov_base = it->header + skip;
        iov[iovcnt].iov_len = kHeaderBytes - skip;
        ++iovcnt;
        skip = 0;
      } else {
        skip -= kHeaderBytes;
      }
      const std::span<const std::uint8_t> payload = it->payload();
      if (skip < payload.size()) {
        // sendmsg only reads through iov_base; the cast just fits iovec.
        iov[iovcnt].iov_base = const_cast<std::uint8_t*>(payload.data()) + skip;
        iov[iovcnt].iov_len = payload.size() - skip;
        ++iovcnt;
      }
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    // sendmsg rather than writev: writev cannot suppress SIGPIPE, and a
    // peer racing us to close must surface as EPIPE, not kill the process.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
      throw std::runtime_error(std::string("wire: sendmsg: ") +
                               std::strerror(errno));
    }
    bytes_ -= static_cast<std::size_t>(n);
    front_offset_ += static_cast<std::size_t>(n);
    while (!entries_.empty()) {
      const std::size_t entry_bytes =
          kHeaderBytes + entries_.front().payload().size();
      if (front_offset_ < entry_bytes) break;
      front_offset_ -= entry_bytes;
      entries_.pop_front();
    }
  }
  return IoStatus::kDone;
}

}  // namespace nopfs::net::wire

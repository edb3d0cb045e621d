#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/reactor.hpp"
#include "net/wire.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::net {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("SocketTransport: ") + what + ": " +
                           std::strerror(errno));
}

void set_socket_timeout(int fd, int option, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(timeout)");
  }
}

/// Writes exactly `len` bytes; throws on any error (including timeout).
void send_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Reads exactly `len` bytes.  Returns false on clean EOF before the first
/// byte; throws on errors, timeouts, and mid-buffer EOF.
bool recv_all(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw std::runtime_error("SocketTransport: recv timed out");
      }
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("SocketTransport: peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// One blocking frame out (the rendezvous handshake only; everything else
/// rides the reactor's SendQueues).
void send_frame_blocking(int fd, wire::MsgType type, std::uint64_t arg,
                         const Bytes& payload) {
  if (payload.size() > wire::max_payload_bytes(type)) {
    throw std::runtime_error("SocketTransport: frame payload too large");
  }
  std::uint8_t header[wire::kHeaderBytes];
  wire::encode_header(header, type, arg,
                      static_cast<std::uint32_t>(payload.size()));
  send_all(fd, header, sizeof(header));
  if (!payload.empty()) send_all(fd, payload.data(), payload.size());
}

/// One blocking frame in.  Returns false on clean EOF at a frame boundary.
bool recv_frame_blocking(int fd, wire::FrameHeader& header, Bytes& payload) {
  std::uint8_t raw[wire::kHeaderBytes];
  if (!recv_all(fd, raw, sizeof(raw))) return false;
  header = wire::decode_header(raw);
  payload.resize(header.payload_len);
  if (header.payload_len > 0 && !recv_all(fd, payload.data(), payload.size())) {
    throw std::runtime_error("SocketTransport: peer closed mid-frame");
  }
  return true;
}

std::uint32_t resolve_ipv4(const std::string& host) {
  in_addr addr{};
  if (::inet_pton(AF_INET, host.c_str(), &addr) != 1) {
    throw std::invalid_argument("SocketTransport: host must be IPv4 dotted quad: " +
                                host);
  }
  return addr.s_addr;  // network byte order
}

sockaddr_in make_addr(std::uint32_t ipv4_nbo, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ipv4_nbo;
  addr.sin_port = htons(port);
  return addr;
}

int make_tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

/// Reply frames answer the ticket at the front of a channel's FIFO.
bool is_reply(wire::MsgType type) {
  return type == wire::MsgType::kHit || type == wire::MsgType::kMiss ||
         type == wire::MsgType::kSweepGrant || type == wire::MsgType::kSweepDone;
}

/// Deep enough that a whole large world dialing at once doesn't drop SYNs;
/// the kernel clamps to net.core.somaxconn.
int listen_backlog(int world_size) { return std::max(world_size + 8, 128); }

}  // namespace

// ---------------------------------------------------------------------------
// Reactor-confined per-connection state.

struct SocketTransport::PendingFetch {
  std::uint64_t id = 0;
  int peer = -1;
  /// Sweep pull tickets share the channel's FIFO deque with fetch tickets
  /// (the serve side answers one connection's requests in order, so the
  /// reply kinds can never mis-pair); a sweep ticket resolves on
  /// kSweepGrant/kSweepDone instead of kHit/kMiss.
  bool sweep = false;
  /// fetch_sample_into: the caller's buffer, where a kHit of exactly its
  /// size is received in place.  Reactor-confined once the ticket is
  /// posted; a timed-out caller's cancel empties it.
  std::span<std::uint8_t> dest;
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool hit = false;
  bool landed = false;      ///< the hit's payload was received into `dest`
  bool cancelled = false;   ///< the reactor will not write into `dest` again
  bool sweep_done = false;  ///< reply was kSweepDone (grid drained)
  Bytes payload;

  void resolve(bool hit_value, Bytes bytes, bool landed_value = false) {
    {
      const std::scoped_lock lock(m);
      if (done) return;
      done = true;
      hit = hit_value;
      landed = landed_value;
      payload = std::move(bytes);
    }
    cv.notify_all();
  }

  void resolve_sweep(bool done_frame, Bytes bytes) {
    {
      const std::scoped_lock lock(m);
      if (done) return;
      done = true;
      hit = true;
      sweep_done = done_frame;
      payload = std::move(bytes);
    }
    cv.notify_all();
  }
};

struct SocketTransport::Session : std::enable_shared_from_this<Session> {
  // Kind is fixed at accept/dial time except for one transition: an
  // accepted rendezvous connection becomes the root's control connection
  // to the rank it introduced (kRendezvous -> kControl).
  enum class Kind {
    kRendezvous,  ///< accepted on the rendezvous listener, pre-kHello
    kControl,     ///< collective channel (root: per peer; non-root: to root)
    kServe,       ///< accepted on the serve listener: answers kFetch etc.
    kChannel      ///< dialed to a peer's serve listener: fetch + gossip out
  };
  enum class State { kConnecting, kHandshake, kOpen, kDraining, kClosed };

  int fd = -1;
  Kind kind = Kind::kServe;
  State state = State::kHandshake;
  int peer = -1;
  bool want_write = false;  ///< kEventOut currently armed
  bool dirty = false;       ///< queued for this iteration's batched flush
  wire::FrameReader reader;
  wire::SendQueue sendq;

  /// kChannel: in-flight pipelined fetches, oldest first.  The serve side
  /// answers one connection's requests in order, so replies resolve these
  /// FIFO.
  std::deque<std::shared_ptr<PendingFetch>> pending_fetches;
  /// kChannel: reply headers the reader decoded that are not dispatched
  /// yet.  They pair with the front of pending_fetches in order, so the
  /// next decoded reply belongs to pending_fetches[undispatched_replies].
  std::size_t undispatched_replies = 0;
  /// kChannel: the ticket whose `dest` the reader chose for the payload it
  /// decoded last (null when that payload went to the reader's buffer).
  std::shared_ptr<PendingFetch> sinking;

  /// kServe: replies owing an emulated-NIC delay.  Strictly FIFO — a free
  /// reply behind a delayed one waits for it (deadlines are monotone), or
  /// the requester's ticket pipeline would mis-pair.
  struct DelayedReply {
    Clock::time_point due;
    wire::MsgType type;
    std::uint64_t arg;
    std::shared_ptr<const Bytes> payload;
  };
  std::deque<DelayedReply> delayed;
  bool delayed_timer_armed = false;

  /// Rank 0, kServe: the rank whose kPfsDelta frames arrived here (-1 until
  /// the first one) — the dead-rank cleanup's owner handle.
  int pfs_rank_on_conn = -1;

  /// kRendezvous: the peer address captured at accept (its reachable IPv4).
  std::uint32_t peer_ipv4 = 0;
};

struct SocketTransport::SyncWaiter {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  std::string error;
  Bytes payload;             ///< non-root allgather: the packed reply
  std::vector<Bytes> slots;  ///< root allgather: the gathered contributions
  int remaining = 0;         ///< rendezvous: ranks still missing

  void fulfill_ok(Bytes reply = {}, std::vector<Bytes> gathered = {}) {
    {
      const std::scoped_lock lock(m);
      if (done) return;
      done = true;
      ok = true;
      payload = std::move(reply);
      slots = std::move(gathered);
    }
    cv.notify_all();
  }

  void fulfill_error(std::string message) {
    {
      const std::scoped_lock lock(m);
      if (done) return;
      done = true;
      ok = false;
      error = std::move(message);
    }
    cv.notify_all();
  }

  /// Returns whether the waiter was fulfilled within `seconds`.
  bool wait_for(double seconds) {
    std::unique_lock lock(m);
    cv.wait_for(lock, std::chrono::duration<double>(seconds),
                [this] { return done; });
    return done;
  }
};

struct SocketTransport::Loop {
  std::unordered_map<int, std::shared_ptr<Session>> sessions;  // by fd
  std::vector<std::shared_ptr<Session>> channels;   // dialed, by peer rank
  std::vector<std::shared_ptr<Session>> controls;   // root: by peer rank
  std::shared_ptr<Session> control;                 // non-root: to the root
  std::vector<std::shared_ptr<Session>> dirty;

  // Rendezvous (root).
  int rendezvous_remaining = 0;
  std::shared_ptr<SyncWaiter> rendezvous_waiter;

  // Collectives.  At most one in flight (collective_mutex_ serializes the
  // callers); early_gathers absorbs a peer whose kGather lands before the
  // root's own thread begins the collective.
  std::shared_ptr<SyncWaiter> gather_waiter;     // root
  std::vector<Bytes> gather_slots;
  std::vector<bool> gather_have;
  int gather_missing = 0;
  std::vector<std::deque<Bytes>> early_gathers;  // root, per rank
  std::shared_ptr<SyncWaiter> allgather_waiter;  // non-root
  bool collective_broken = false;
  std::string collective_error;

  // Teardown drain.
  bool draining = false;
  std::shared_ptr<SyncWaiter> drain_waiter;
};

// ---------------------------------------------------------------------------

SocketTransport::SocketTransport(const SocketOptions& options) : options_(options) {
  if (options_.world_size <= 0) {
    throw std::invalid_argument("SocketTransport: world_size must be > 0");
  }
  if (options_.max_world != 0 && options_.max_world < options_.world_size) {
    throw std::invalid_argument(
        "SocketTransport: max_world must be 0 or >= world_size");
  }
  // Joiner ranks live in [world_size, max_world); every per-rank table is
  // sized for the largest world this one may grow to.
  if (options_.rank < 0 || options_.rank >= total_ranks()) {
    throw std::invalid_argument("SocketTransport: rank out of range");
  }
  if (options_.rendezvous_port == 0) {
    throw std::invalid_argument("SocketTransport: rendezvous_port must be nonzero");
  }
  const auto world = static_cast<std::size_t>(total_ranks());
  endpoints_.resize(world);
  watermarks_ = std::vector<std::atomic<std::uint64_t>>(world);
  for (auto& w : watermarks_) w.store(0, std::memory_order_relaxed);
  pfs_readers_.resize(world, 0);
  pfs_owner_.resize(world, nullptr);
  pfs_rank_seq_.resize(world, 0);
  if (options_.gossip.max_batch < 1) options_.gossip.max_batch = 1;
  if (options_.time_scale <= 0.0) options_.time_scale = 1.0;

  loop_ = std::make_unique<Loop>();
  loop_->channels.resize(world);
  loop_->controls.resize(world);
  loop_->early_gathers.resize(world);

  try {
    // Serve listener first: by the time any peer learns this rank's port
    // (the rendezvous completes strictly later), the listener is accepting.
    // Bound to INADDR_ANY — this rank may live on a different host than the
    // rendezvous; peers learn its *reachable* address from the rendezvous
    // (getpeername of the control connection), not from this bind.
    serve_listener_fd_ = make_tcp_socket();
    sockaddr_in addr = make_addr(htonl(INADDR_ANY), 0);
    if (::bind(serve_listener_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw_errno("bind(serve)");
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(serve_listener_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) != 0) {
      throw_errno("getsockname(serve)");
    }
    serve_port_ = ntohs(addr.sin_port);
    if (::listen(serve_listener_fd_, listen_backlog(options_.world_size)) != 0) {
      throw_errno("listen(serve)");
    }
    make_nonblocking(serve_listener_fd_);

    reactor_ = std::make_unique<Reactor>();
    reactor_->post([this] {
      reactor_->set_iteration_hook([this] { loop_flush_dirty(); });
      reactor_->add_fd(serve_listener_fd_, kEventIn,
                       [this](std::uint32_t) { loop_accept_serve(); });
    });
    reactor_->start();

    if (options_.rank == 0) {
      rendezvous_as_root();
    } else {
      rendezvous_as_peer();
    }
    // Batched contention gossip needs its drain thread; the unary mode
    // (flush interval 0) sends inline from the caller and never starts one.
    if (total_ranks() > 1 && options_.gossip.flush_virtual_s > 0.0) {
      gossip_thread_ = std::thread([this] { gossip_loop(); });
    }
  } catch (...) {
    teardown();
    throw;
  }
}

SocketTransport::~SocketTransport() { teardown(); }

void SocketTransport::teardown() {
  // Cooperative gossip drain FIRST, while the channels are still usable: a
  // queued release must reach rank 0's counter (it must drain to zero on a
  // clean shutdown, not lean on the dead-rank cleanup), and rank 0's final
  // coalesced gamma must reach the survivors.
  {
    const std::scoped_lock lock(gossip_mutex_);
    gossip_stop_ = true;
  }
  gossip_cv_.notify_all();
  if (gossip_thread_.joinable()) gossip_thread_.join();

  if (reactor_ != nullptr) {
    // The flush POSTS its frames; the drain task is posted strictly after,
    // so the reactor enqueues the final deltas/gamma into the session send
    // queues before the drain walks them — FIFO task order is the whole
    // teardown-ordering argument.
    flush_pfs_gossip();
    stopping_.store(true, std::memory_order_release);
    auto drained = std::make_shared<SyncWaiter>();
    reactor_->post([this, drained] { loop_begin_drain(drained); });
    // Bounded: a peer that stopped reading must not wedge our destructor.
    (void)drained->wait_for(std::min(options_.timeout_s, 5.0));
    reactor_->stop();
  } else {
    stopping_.store(true, std::memory_order_release);
  }

  // The loop thread is gone; close whatever the drain deadline left behind
  // and resolve any parked caller so no thread waits out its full timeout.
  if (loop_ != nullptr) {
    for (auto& [fd, session] : loop_->sessions) {
      for (auto& ticket : session->pending_fetches) ticket->resolve(false, {});
      session->pending_fetches.clear();
      if (session->fd >= 0) ::close(session->fd);
      session->fd = -1;
      session->state = Session::State::kClosed;
    }
    loop_->sessions.clear();
    loop_->channels.clear();
    loop_->controls.clear();
    loop_->control.reset();
    loop_->dirty.clear();
    if (loop_->rendezvous_waiter) {
      loop_->rendezvous_waiter->fulfill_error("SocketTransport: torn down");
    }
    if (loop_->gather_waiter) {
      loop_->gather_waiter->fulfill_error("SocketTransport: torn down");
    }
    if (loop_->allgather_waiter) {
      loop_->allgather_waiter->fulfill_error("SocketTransport: torn down");
    }
  }
  if (rendezvous_listener_fd_ >= 0) {
    ::close(rendezvous_listener_fd_);
    rendezvous_listener_fd_ = -1;
  }
  if (serve_listener_fd_ >= 0) {
    ::close(serve_listener_fd_);
    serve_listener_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Rendezvous.

void SocketTransport::rendezvous_as_root() {
  endpoints_[0] = PeerEndpoint{0 /* "the address you dialed" */, serve_port_};
  // A fixed solo world needs no listener at all; an elastic one listens
  // even when the base world is just this rank, so joiners can find it.
  if (total_ranks() == 1) return;

  const int listener = make_tcp_socket();
  rendezvous_listener_fd_ = listener;
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr =
      make_addr(resolve_ipv4(options_.rendezvous_host), options_.rendezvous_port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(rendezvous)");
  }
  if (::listen(listener, listen_backlog(total_ranks())) != 0) {
    throw_errno("listen(rendezvous)");
  }
  make_nonblocking(listener);

  auto waiter = std::make_shared<SyncWaiter>();
  waiter->remaining = options_.world_size - 1;
  reactor_->post([this, waiter] {
    loop_->rendezvous_waiter = waiter;
    loop_->rendezvous_remaining = options_.world_size - 1;
    reactor_->add_fd(rendezvous_listener_fd_, kEventIn,
                     [this](std::uint32_t) { loop_accept_rendezvous(); });
  });
  // Only base ranks are waited for; late joiners arrive whenever their
  // scripts say and are welcomed by the (still open) listener.
  if (options_.world_size == 1) return;
  if (!waiter->wait_for(options_.timeout_s)) {
    int missing = 0;
    {
      const std::scoped_lock lock(waiter->m);
      missing = waiter->remaining;
    }
    throw std::runtime_error("SocketTransport: rendezvous timed out waiting for " +
                             std::to_string(missing) + " rank(s)");
  }
  bool ok = false;
  std::string error;
  {
    const std::scoped_lock lock(waiter->m);
    ok = waiter->ok;
    error = waiter->error;
  }
  if (!ok) throw std::runtime_error(error);
}

void SocketTransport::loop_accept_rendezvous() {
  for (;;) {
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    const int fd = ::accept(rendezvous_listener_fd_,
                            reinterpret_cast<sockaddr*>(&peer_addr), &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    make_nonblocking(fd);
    set_nodelay(fd);
    const auto session =
        loop_make_session(fd, static_cast<int>(Session::Kind::kRendezvous),
                          static_cast<int>(Session::State::kHandshake));
    session->peer_ipv4 = peer_addr.sin_addr.s_addr;
  }
}

void SocketTransport::loop_fail_rendezvous(const std::string& error) {
  if (loop_->rendezvous_waiter) {
    loop_->rendezvous_waiter->fulfill_error(error);
    loop_->rendezvous_waiter.reset();
  }
}

void SocketTransport::loop_rendezvous_hello(
    const std::shared_ptr<Session>& session, wire::Frame frame) {
  try {
    if (frame.header.type != wire::MsgType::kHello) {
      throw std::runtime_error("SocketTransport: expected kHello at rendezvous");
    }
    wire::Reader reader(frame.payload);
    const std::uint32_t peer_protocol = reader.u32();
    const auto peer_rank = static_cast<int>(frame.header.arg);
    if (peer_protocol != wire::kProtocolVersion) {
      throw std::runtime_error(
          "SocketTransport: rank " + std::to_string(peer_rank) +
          " speaks protocol " + std::to_string(peer_protocol) + ", this rank " +
          std::to_string(wire::kProtocolVersion) +
          " — mixed-version world rejected at the handshake");
    }
    const auto peer_world = static_cast<int>(reader.u32());
    const std::uint16_t peer_serve_port = reader.u16();
    const auto peer_max_world = static_cast<int>(reader.u32());
    if (peer_world != options_.world_size) {
      throw std::runtime_error("SocketTransport: rank " + std::to_string(peer_rank) +
                               " disagrees on world size (" +
                               std::to_string(peer_world) + " vs " +
                               std::to_string(options_.world_size) + ")");
    }
    if (peer_max_world != options_.max_world) {
      throw std::runtime_error("SocketTransport: rank " + std::to_string(peer_rank) +
                               " disagrees on max_world (" +
                               std::to_string(peer_max_world) + " vs " +
                               std::to_string(options_.max_world) + ")");
    }
    if (peer_rank <= 0 || peer_rank >= total_ranks() ||
        loop_->controls[static_cast<std::size_t>(peer_rank)] != nullptr) {
      throw std::runtime_error("SocketTransport: duplicate or invalid rank " +
                               std::to_string(peer_rank) + " at rendezvous");
    }
    endpoints_[static_cast<std::size_t>(peer_rank)] =
        PeerEndpoint{session->peer_ipv4, peer_serve_port};
    session->kind = Session::Kind::kControl;
    session->state = Session::State::kOpen;
    session->peer = peer_rank;
    loop_->controls[static_cast<std::size_t>(peer_rank)] = session;

    const auto make_table = [this] {
      Bytes table;
      wire::put_u32(table, wire::kProtocolVersion);
      for (const PeerEndpoint& ep : endpoints_) {
        wire::put_u32(table, ep.ipv4);
        wire::put_u16(table, ep.port);
      }
      return table;
    };

    if (peer_rank >= options_.world_size) {
      // Late joiner (DESIGN.md Sec. 11): not part of the base rendezvous
      // count — welcome it immediately with the current endpoint table.
      // Rank 0's own entry is always populated, and that is all a joiner
      // needs to dial the fetch channel and start pulling; entries of
      // ranks that have not joined (yet) are zero.
      const Bytes table = make_table();
      session->sendq.push(wire::MsgType::kWelcome, 0, table.data(), table.size());
      loop_mark_dirty(session);
      return;
    }

    --loop_->rendezvous_remaining;
    if (loop_->rendezvous_waiter) {
      const std::scoped_lock lock(loop_->rendezvous_waiter->m);
      loop_->rendezvous_waiter->remaining = loop_->rendezvous_remaining;
    }
    if (loop_->rendezvous_remaining > 0) return;

    // Every base rank checked in: broadcast the endpoint table (led by the
    // protocol version, so a peer can likewise reject a root from the
    // wrong rollout generation).  A fixed world retires the rendezvous
    // listener here; an elastic one keeps it open for late joiners.
    const Bytes table = make_table();
    for (int r = 1; r < options_.world_size; ++r) {
      const auto& control = loop_->controls[static_cast<std::size_t>(r)];
      control->sendq.push(wire::MsgType::kWelcome, 0, table.data(), table.size());
      loop_mark_dirty(control);
    }
    if (total_ranks() == options_.world_size) {
      reactor_->del_fd(rendezvous_listener_fd_);
      ::close(rendezvous_listener_fd_);
      rendezvous_listener_fd_ = -1;
    }
    if (loop_->rendezvous_waiter) {
      loop_->rendezvous_waiter->fulfill_ok();
      loop_->rendezvous_waiter.reset();
    }
  } catch (const std::exception& ex) {
    loop_fail_rendezvous(ex.what());
    throw;  // loop_on_session_event closes the offending session
  }
}

void SocketTransport::rendezvous_as_peer() {
  const std::uint32_t root_ipv4 = resolve_ipv4(options_.rendezvous_host);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options_.timeout_s));
  // Rank 0 may not have bound the rendezvous port yet, and a large world
  // dialing at once can overflow even a deep backlog: retry with
  // exponential backoff (5ms -> 250ms) to spread the SYN storm.
  int fd = -1;
  auto backoff = std::chrono::milliseconds(5);
  for (;;) {
    fd = make_tcp_socket();
    sockaddr_in addr = make_addr(root_ipv4, options_.rendezvous_port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    ::close(fd);
    fd = -1;
    if (Clock::now() >= deadline) {
      throw std::runtime_error("SocketTransport: rendezvous connect timed out (" +
                               options_.rendezvous_host + ":" +
                               std::to_string(options_.rendezvous_port) + ")");
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(250));
  }
  set_socket_timeout(fd, SO_RCVTIMEO, options_.timeout_s);
  set_socket_timeout(fd, SO_SNDTIMEO, options_.timeout_s);

  bool registered = false;
  try {
    Bytes hello;
    wire::put_u32(hello, wire::kProtocolVersion);
    wire::put_u32(hello, static_cast<std::uint32_t>(options_.world_size));
    wire::put_u16(hello, serve_port_);
    wire::put_u32(hello, static_cast<std::uint32_t>(options_.max_world));
    send_frame_blocking(fd, wire::MsgType::kHello,
                        static_cast<std::uint64_t>(options_.rank), hello);

    wire::FrameHeader header;
    Bytes payload;
    if (!recv_frame_blocking(fd, header, payload) ||
        header.type != wire::MsgType::kWelcome) {
      throw std::runtime_error("SocketTransport: expected kWelcome from rendezvous");
    }
    wire::Reader reader(payload);
    const std::uint32_t root_protocol = reader.u32();
    if (root_protocol != wire::kProtocolVersion) {
      throw std::runtime_error("SocketTransport: rendezvous speaks protocol " +
                               std::to_string(root_protocol) + ", this rank " +
                               std::to_string(wire::kProtocolVersion));
    }
    for (auto& endpoint : endpoints_) {
      endpoint.ipv4 = reader.u32();
      endpoint.port = reader.u16();
    }
    // Rank 0 advertises ipv4 == 0, "the address you dialed".
    if (endpoints_[0].ipv4 == 0) endpoints_[0].ipv4 = root_ipv4;

    // Handshake done: hand the (now non-blocking) control connection to the
    // reactor.  Posted before the constructor returns, so any collective
    // posted afterwards finds loop_->control in place (FIFO task order).
    make_nonblocking(fd);
    reactor_->post([this, fd] {
      const auto session =
          loop_make_session(fd, static_cast<int>(Session::Kind::kControl),
                            static_cast<int>(Session::State::kOpen));
      session->peer = 0;
      loop_->control = session;
    });
    registered = true;
  } catch (...) {
    if (!registered) ::close(fd);
    throw;
  }
}

// ---------------------------------------------------------------------------
// Session plumbing.

std::shared_ptr<SocketTransport::Session> SocketTransport::loop_make_session(
    int fd, int kind, int state) {
  auto session = std::make_shared<Session>();
  session->fd = fd;
  session->kind = static_cast<Session::Kind>(kind);
  session->state = static_cast<Session::State>(state);
  loop_->sessions.emplace(fd, session);
  reactor_->add_fd(fd, kEventIn, [this, fd](std::uint32_t events) {
    loop_on_session_event(fd, events);
  });
  return session;
}

void SocketTransport::loop_accept_serve() {
  for (;;) {
    const int fd = ::accept(serve_listener_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    if (stopping_.load(std::memory_order_acquire) || loop_->draining) {
      ::close(fd);
      continue;
    }
    make_nonblocking(fd);
    set_nodelay(fd);
    loop_make_session(fd, static_cast<int>(Session::Kind::kServe),
                      static_cast<int>(Session::State::kHandshake));
  }
}

void SocketTransport::loop_on_session_event(int fd, std::uint32_t events) {
  const auto it = loop_->sessions.find(fd);
  if (it == loop_->sessions.end()) return;  // closed earlier this batch
  const std::shared_ptr<Session> session = it->second;
  try {
    if (session->state == Session::State::kConnecting) {
      if ((events & (kEventOut | kEventErr | kEventHup)) != 0) {
        loop_finish_connect(session);
      }
      if (session->state == Session::State::kClosed ||
          session->state == Session::State::kConnecting) {
        return;
      }
    }
    if ((events & (kEventIn | kEventHup | kEventErr)) != 0) {
      // A burst past the read budget leaves bytes in the socket; the
      // level-triggered reactor fires again for them next iteration.
      const wire::IoStatus status = session->reader.fill_from(session->fd);
      // Dispatch everything that arrived BEFORE acting on EOF: a peer's
      // teardown-flushed deltas can land in the same read as its close,
      // and they must still fold.
      while (session->reader.has_frame()) {
        loop_dispatch_frame(session, session->reader.pop_frame());
        if (session->state == Session::State::kClosed) return;
      }
      if (status == wire::IoStatus::kEof) {
        if (session->reader.mid_frame()) {
          throw std::runtime_error("SocketTransport: peer closed mid-frame");
        }
        loop_close_session(session);
        return;
      }
    }
    if ((events & kEventOut) != 0) loop_flush_session(session);
  } catch (const std::exception& ex) {
    if (!stopping_.load(std::memory_order_acquire)) {
      util::log_error("SocketTransport rank ", options_.rank, ": ", ex.what());
    }
    loop_close_session(session);
  }
}

void SocketTransport::loop_finish_connect(const std::shared_ptr<Session>& session) {
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(session->fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    loop_close_session(session);  // peer unreachable: recorded miss
    return;
  }
  session->state =
      loop_->draining ? Session::State::kDraining : Session::State::kOpen;
  session->want_write = false;
  reactor_->mod_fd(session->fd, kEventIn);
  loop_mark_dirty(session);  // the queued kHello (and anything behind it)
}

void SocketTransport::loop_dispatch_frame(const std::shared_ptr<Session>& session,
                                          wire::Frame frame) {
  switch (session->kind) {
    case Session::Kind::kRendezvous:
      loop_rendezvous_hello(session, std::move(frame));
      return;
    case Session::Kind::kServe:
      loop_serve_frame(session, std::move(frame));
      return;
    case Session::Kind::kChannel:
      loop_channel_reply(session, std::move(frame));
      return;
    case Session::Kind::kControl:
      loop_control_frame(session, std::move(frame));
      return;
  }
}

void SocketTransport::loop_mark_dirty(const std::shared_ptr<Session>& session) {
  if (session->dirty || session->state == Session::State::kClosed ||
      session->state == Session::State::kConnecting) {
    return;
  }
  session->dirty = true;
  loop_->dirty.push_back(session);
}

void SocketTransport::loop_flush_dirty() {
  // One batched pass per reactor iteration: every task/handler that queued
  // frames this iteration shares one sendmsg per session.
  while (!loop_->dirty.empty()) {
    auto batch = std::move(loop_->dirty);
    loop_->dirty.clear();
    for (const auto& session : batch) {
      session->dirty = false;
      if (session->state == Session::State::kClosed ||
          session->state == Session::State::kConnecting) {
        continue;
      }
      loop_flush_session(session);
    }
  }
}

void SocketTransport::loop_flush_session(const std::shared_ptr<Session>& session) {
  try {
    const wire::IoStatus status = session->sendq.flush(session->fd);
    const bool want = status == wire::IoStatus::kWouldBlock;
    if (want != session->want_write) {
      session->want_write = want;
      reactor_->mod_fd(session->fd, want ? (kEventIn | kEventOut) : kEventIn);
    }
    if (session->state == Session::State::kDraining && session->sendq.empty() &&
        session->delayed.empty()) {
      loop_close_session(session);
    }
  } catch (const std::exception& ex) {
    if (!stopping_.load(std::memory_order_acquire)) {
      util::log_error("SocketTransport rank ", options_.rank, ": ", ex.what());
    }
    loop_close_session(session);
  }
}

void SocketTransport::loop_close_session(const std::shared_ptr<Session>& session) {
  if (session->state == Session::State::kClosed) return;
  session->state = Session::State::kClosed;
  reactor_->del_fd(session->fd);
  ::close(session->fd);
  loop_->sessions.erase(session->fd);
  session->fd = -1;
  session->delayed.clear();

  switch (session->kind) {
    case Session::Kind::kChannel: {
      // In-flight fetches on a dead channel are recorded misses — exactly
      // how the paper treats a peer that cannot (yet) serve a sample.
      for (auto& ticket : session->pending_fetches) ticket->resolve(false, {});
      session->pending_fetches.clear();
      if (session->peer >= 0 &&
          loop_->channels[static_cast<std::size_t>(session->peer)] == session) {
        loop_->channels[static_cast<std::size_t>(session->peer)].reset();
      }
      break;
    }
    case Session::Kind::kServe: {
      // Connection gone (clean EOF or error): drop the peer's outstanding
      // reader-count contribution so a crashed rank no longer pins gamma.
      // Skipped during our own teardown — every channel is closing at once
      // and the counter dies with the job.  The owner tag guards the race
      // where the rank redialed and its live deltas moved to a newer
      // connection before this cleanup ran.
      if (session->pfs_rank_on_conn > 0 &&
          !stopping_.load(std::memory_order_acquire)) {
        pfs_root_drop_dead_rank(session->pfs_rank_on_conn, session.get());
      }
      break;
    }
    case Session::Kind::kControl: {
      if (session->peer >= 0 &&
          loop_->controls[static_cast<std::size_t>(session->peer)] == session) {
        loop_->controls[static_cast<std::size_t>(session->peer)].reset();
      }
      if (loop_->control == session) loop_->control.reset();
      if (session->peer >= options_.world_size) {
        // A late joiner leaving is an expected elastic event, not a torn
        // collective: joiners never participate in them.
        break;
      }
      if (!stopping_.load(std::memory_order_acquire) && !loop_->draining) {
        loop_->collective_broken = true;
        loop_->collective_error =
            options_.rank == 0
                ? "SocketTransport: collective out of step with rank " +
                      std::to_string(session->peer)
                : "SocketTransport: lost the root mid-collective";
      }
      if (loop_->gather_waiter) {
        loop_->gather_waiter->fulfill_error(
            "SocketTransport: collective out of step with rank " +
            std::to_string(session->peer));
        loop_->gather_waiter.reset();
      }
      if (loop_->allgather_waiter) {
        loop_->allgather_waiter->fulfill_error(
            "SocketTransport: lost the root mid-collective");
        loop_->allgather_waiter.reset();
      }
      break;
    }
    case Session::Kind::kRendezvous: {
      // Dying before introducing itself fails the handshake, matching the
      // old blocking root's behaviour on a bad first frame.
      if (!loop_->draining) {
        loop_fail_rendezvous("SocketTransport: expected kHello at rendezvous");
      }
      break;
    }
  }
  if (loop_->draining) loop_check_drained();
}

// ---------------------------------------------------------------------------
// Frame dispatch per session kind.

void SocketTransport::loop_serve_frame(const std::shared_ptr<Session>& session,
                                       wire::Frame frame) {
  if (frame.header.type == wire::MsgType::kHello) {
    // The channel handshake (protocol revision 3): identifies the dialing
    // rank and rejects a mixed-version straggler that somehow skipped the
    // rendezvous.
    if (session->state != Session::State::kHandshake) {
      throw std::runtime_error("SocketTransport: duplicate channel hello");
    }
    wire::Reader reader(frame.payload);
    const std::uint32_t peer_protocol = reader.u32();
    if (peer_protocol != wire::kProtocolVersion) {
      throw std::runtime_error("SocketTransport: channel hello speaks protocol " +
                               std::to_string(peer_protocol) + ", this rank " +
                               std::to_string(wire::kProtocolVersion));
    }
    const auto who = static_cast<int>(frame.header.arg);
    if (who < 0 || who >= total_ranks()) {
      throw std::runtime_error("SocketTransport: channel hello from invalid rank " +
                               std::to_string(who));
    }
    session->peer = who;
    session->state = Session::State::kOpen;
    return;
  }
  if (session->state == Session::State::kHandshake) {
    throw std::runtime_error("SocketTransport: frame before channel hello");
  }
  switch (frame.header.type) {
    case wire::MsgType::kFetch: {
      // The handler hands over the cached buffer itself; the reply sends
      // from it without a copy.
      std::shared_ptr<const Bytes> sample;
      {
        const std::scoped_lock lock(handler_mutex_);
        if (handler_) sample = handler_(frame.header.arg);
      }
      if (sample != nullptr) {
        // The server-side NIC charge: same rule as SimTransport, which
        // prices a remote fetch on both endpoints' NICs.  Reserved, not
        // blocked: the delay becomes a reactor timer on the reply.
        double delay_s = 0.0;
        if (options_.nic != nullptr) {
          delay_s = options_.nic->reserve_transfer(
              util::bytes_to_mb(sample->size()));
        }
        loop_enqueue_reply(session, wire::MsgType::kHit, frame.header.arg,
                           std::move(sample), delay_s);
      } else {
        loop_enqueue_reply(session, wire::MsgType::kMiss, frame.header.arg,
                           nullptr, 0.0);
      }
      return;
    }
    case wire::MsgType::kWatermark: {
      wire::Reader reader(frame.payload);
      const auto peer = static_cast<int>(reader.u32());
      if (peer >= 0 && peer < total_ranks()) {
        watermarks_[static_cast<std::size_t>(peer)].store(
            frame.header.arg, std::memory_order_release);
      }
      return;
    }
    case wire::MsgType::kPfsDelta: {
      if (options_.rank != 0) {
        throw std::runtime_error(
            "SocketTransport: PFS contention frame at non-root rank");
      }
      const auto who = static_cast<int>(frame.header.arg);
      if (who > 0 && who < total_ranks()) {
        const wire::PfsDelta delta = wire::decode_pfs_delta(frame.payload);
        session->pfs_rank_on_conn = who;
        pfs_root_fold(who, delta.reader_delta, /*notify_local=*/true,
                      session.get(), delta.seq);
      }
      return;
    }
    case wire::MsgType::kPfsGamma: {
      if (options_.rank == 0) {
        throw std::runtime_error("SocketTransport: kPfsGamma at the root");
      }
      pfs_apply_gamma(wire::decode_pfs_gamma(frame.payload));
      return;
    }
    case wire::MsgType::kSweepPull: {
      if (options_.rank != 0) {
        throw std::runtime_error(
            "SocketTransport: sweep frame at non-root rank");
      }
      const auto who = static_cast<int>(frame.header.arg);
      if (who <= 0 || who >= total_ranks()) {
        throw std::runtime_error(
            "SocketTransport: sweep pull from invalid rank " +
            std::to_string(who));
      }
      std::pair<bool, Bytes> reply;
      {
        const std::scoped_lock lock(sweep_mutex_);
        if (!sweep_service_.on_pull) {
          throw std::runtime_error(
              "SocketTransport: sweep pull with no service installed");
        }
        reply = sweep_service_.on_pull(who, std::move(frame.payload));
      }
      loop_enqueue_reply(session,
                         reply.first ? wire::MsgType::kSweepDone
                                     : wire::MsgType::kSweepGrant,
                         frame.header.arg,
                         std::make_shared<const Bytes>(std::move(reply.second)), 0.0);
      return;
    }
    case wire::MsgType::kSweepResult: {
      if (options_.rank != 0) {
        throw std::runtime_error(
            "SocketTransport: sweep frame at non-root rank");
      }
      const auto who = static_cast<int>(frame.header.arg);
      if (who <= 0 || who >= total_ranks()) {
        throw std::runtime_error(
            "SocketTransport: sweep result from invalid rank " +
            std::to_string(who));
      }
      const std::scoped_lock lock(sweep_mutex_);
      if (sweep_service_.on_result) {
        sweep_service_.on_result(who, std::move(frame.payload));
      }
      return;
    }
    default:
      throw std::runtime_error("SocketTransport: unexpected frame on serve conn");
  }
}

void SocketTransport::loop_enqueue_reply(const std::shared_ptr<Session>& session,
                                         wire::MsgType type, std::uint64_t arg,
                                         std::shared_ptr<const Bytes> payload,
                                         double delay_s) {
  if (delay_s <= 0.0 && session->delayed.empty()) {
    session->sendq.push(type, arg, std::move(payload));
    loop_mark_dirty(session);
    return;
  }
  const auto now = Clock::now();
  auto due = now + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(std::max(0.0, delay_s)));
  // Monotone deadlines keep replies FIFO: anything behind a NIC-delayed
  // reply waits for it, even if itself free.
  if (!session->delayed.empty() && due < session->delayed.back().due) {
    due = session->delayed.back().due;
  }
  session->delayed.push_back(
      Session::DelayedReply{due, type, arg, std::move(payload)});
  loop_arm_delayed_timer(session);
}

void SocketTransport::loop_arm_delayed_timer(
    const std::shared_ptr<Session>& session) {
  if (session->delayed_timer_armed || session->delayed.empty()) return;
  session->delayed_timer_armed = true;
  const double wait_s =
      std::chrono::duration<double>(session->delayed.front().due - Clock::now())
          .count();
  // Weak: the timer must not resurrect (or misfire into) a closed session
  // whose fd number was reused.
  std::weak_ptr<Session> weak = session;
  reactor_->call_later(wait_s, [this, weak] {
    const auto session = weak.lock();
    if (!session || session->state == Session::State::kClosed) return;
    session->delayed_timer_armed = false;
    const auto now = Clock::now();
    while (!session->delayed.empty() && session->delayed.front().due <= now) {
      auto& reply = session->delayed.front();
      session->sendq.push(reply.type, reply.arg, std::move(reply.payload));
      session->delayed.pop_front();
    }
    loop_mark_dirty(session);
    loop_arm_delayed_timer(session);
  });
}

void SocketTransport::loop_channel_reply(const std::shared_ptr<Session>& session,
                                         wire::Frame frame) {
  if (is_reply(frame.header.type)) --session->undispatched_replies;
  switch (frame.header.type) {
    case wire::MsgType::kHit:
    case wire::MsgType::kMiss: {
      if (session->pending_fetches.empty()) {
        throw std::runtime_error("SocketTransport: unsolicited fetch reply");
      }
      const auto ticket = session->pending_fetches.front();
      session->pending_fetches.pop_front();
      if (frame.header.arg != ticket->id) {
        throw std::runtime_error("SocketTransport: fetch reply out of step");
      }
      if (ticket->sweep) {
        throw std::runtime_error(
            "SocketTransport: fetch reply paired with a sweep ticket");
      }
      ticket->resolve(frame.header.type == wire::MsgType::kHit,
                      std::move(frame.payload), frame.sunk);
      return;
    }
    case wire::MsgType::kSweepGrant:
    case wire::MsgType::kSweepDone: {
      if (session->pending_fetches.empty()) {
        throw std::runtime_error("SocketTransport: unsolicited sweep reply");
      }
      const auto ticket = session->pending_fetches.front();
      session->pending_fetches.pop_front();
      if (!ticket->sweep) {
        throw std::runtime_error(
            "SocketTransport: sweep reply paired with a fetch ticket");
      }
      ticket->resolve_sweep(frame.header.type == wire::MsgType::kSweepDone,
                            std::move(frame.payload));
      return;
    }
    default:
      throw std::runtime_error("SocketTransport: unexpected frame on fetch channel");
  }
}

void SocketTransport::loop_control_frame(const std::shared_ptr<Session>& session,
                                         wire::Frame frame) {
  if (options_.rank == 0) {
    const int r = session->peer;
    if (frame.header.type != wire::MsgType::kGather ||
        frame.header.arg != static_cast<std::uint64_t>(r)) {
      throw std::runtime_error(
          "SocketTransport: collective out of step with rank " +
          std::to_string(r));
    }
    if (loop_->gather_waiter &&
        !loop_->gather_have[static_cast<std::size_t>(r)]) {
      loop_->gather_slots[static_cast<std::size_t>(r)] = std::move(frame.payload);
      loop_->gather_have[static_cast<std::size_t>(r)] = true;
      if (--loop_->gather_missing == 0) loop_finish_root_gather();
    } else {
      // This peer's kGather beat the root's own thread to the collective.
      loop_->early_gathers[static_cast<std::size_t>(r)].push_back(
          std::move(frame.payload));
    }
    return;
  }
  if (frame.header.type != wire::MsgType::kAllgather) {
    throw std::runtime_error("SocketTransport: lost the root mid-collective");
  }
  if (loop_->allgather_waiter) {
    loop_->allgather_waiter->fulfill_ok(std::move(frame.payload));
    loop_->allgather_waiter.reset();
  }
}

// ---------------------------------------------------------------------------
// Collectives: gather-to-root + broadcast over the control sessions.

void SocketTransport::loop_begin_root_gather(
    const std::shared_ptr<SyncWaiter>& waiter, Bytes local) {
  if (loop_->collective_broken) {
    waiter->fulfill_error(loop_->collective_error);
    return;
  }
  const auto world = static_cast<std::size_t>(options_.world_size);
  loop_->gather_waiter = waiter;
  loop_->gather_slots.assign(world, {});
  loop_->gather_have.assign(world, false);
  loop_->gather_slots[0] = std::move(local);
  loop_->gather_have[0] = true;
  loop_->gather_missing = options_.world_size - 1;
  for (std::size_t r = 1; r < world; ++r) {
    auto& early = loop_->early_gathers[r];
    if (!early.empty()) {
      loop_->gather_slots[r] = std::move(early.front());
      early.pop_front();
      loop_->gather_have[r] = true;
      --loop_->gather_missing;
    }
  }
  if (loop_->gather_missing == 0) loop_finish_root_gather();
}

void SocketTransport::loop_finish_root_gather() {
  const auto waiter = loop_->gather_waiter;
  loop_->gather_waiter.reset();
  Bytes packed;
  for (const Bytes& slot : loop_->gather_slots) {
    wire::put_u32(packed, static_cast<std::uint32_t>(slot.size()));
    packed.insert(packed.end(), slot.begin(), slot.end());
  }
  for (int r = 1; r < options_.world_size; ++r) {
    const auto& control = loop_->controls[static_cast<std::size_t>(r)];
    if (control == nullptr || control->state == Session::State::kClosed) {
      waiter->fulfill_error("SocketTransport: collective out of step with rank " +
                            std::to_string(r));
      return;
    }
    control->sendq.push(wire::MsgType::kAllgather, 0, packed.data(),
                        packed.size());
    loop_mark_dirty(control);
  }
  waiter->fulfill_ok({}, std::move(loop_->gather_slots));
  loop_->gather_slots.clear();
}

void SocketTransport::loop_begin_peer_gather(
    const std::shared_ptr<SyncWaiter>& waiter, Bytes local) {
  if (loop_->collective_broken || loop_->control == nullptr ||
      loop_->control->state == Session::State::kClosed) {
    waiter->fulfill_error(loop_->collective_broken
                              ? loop_->collective_error
                              : "SocketTransport: lost the root mid-collective");
    return;
  }
  loop_->allgather_waiter = waiter;
  loop_->control->sendq.push(wire::MsgType::kGather,
                             static_cast<std::uint64_t>(options_.rank),
                             local.data(), local.size());
  loop_mark_dirty(loop_->control);
}

std::vector<Bytes> SocketTransport::allgather(Bytes local) {
  if (is_joiner()) {
    // The base world's collectives are sized world_size and a joiner was
    // never part of the rendezvous count: letting it gather would wedge
    // (or corrupt) the base ranks.  Joiners pull, fetch, and gossip only.
    throw std::runtime_error(
        "SocketTransport: a late joiner cannot enter collectives");
  }
  const std::scoped_lock lock(collective_mutex_);
  const auto world = static_cast<std::size_t>(options_.world_size);
  if (world == 1) {
    std::vector<Bytes> slots(1);
    slots[0] = std::move(local);
    return slots;
  }
  auto waiter = std::make_shared<SyncWaiter>();
  if (options_.rank == 0) {
    reactor_->post([this, waiter, local = std::move(local)]() mutable {
      loop_begin_root_gather(waiter, std::move(local));
    });
  } else {
    reactor_->post([this, waiter, local = std::move(local)]() mutable {
      loop_begin_peer_gather(waiter, std::move(local));
    });
  }
  if (!waiter->wait_for(options_.timeout_s)) {
    throw std::runtime_error("SocketTransport: collective timed out");
  }
  {
    const std::scoped_lock waiter_lock(waiter->m);
    if (!waiter->ok) throw std::runtime_error(waiter->error);
    if (options_.rank == 0) return std::move(waiter->slots);
  }
  wire::Reader reader(waiter->payload);
  std::vector<Bytes> slots(world);
  for (auto& slot : slots) slot = reader.bytes(reader.u32());
  return slots;
}

void SocketTransport::barrier() { (void)allgather(Bytes{}); }

// ---------------------------------------------------------------------------
// Serving handler + fetch.

void SocketTransport::set_serve_handler(ServeHandler handler) {
  const std::scoped_lock lock(handler_mutex_);
  handler_ = std::move(handler);
}

// ---------------------------------------------------------------------------
// Sweep service (DESIGN.md Sec. 10): pull/grant on the fetch-channel ticket
// pipeline, results one-way on the same channel.

void SocketTransport::set_sweep_service(SweepService service) {
  if ((service.on_pull || service.on_result) && options_.rank != 0) {
    throw std::runtime_error(
        "SocketTransport: the sweep service lives on rank 0");
  }
  // Holding sweep_mutex_ fences withdrawal: the reactor invokes handlers
  // under the same mutex, so after this returns no old handler is running.
  const std::scoped_lock lock(sweep_mutex_);
  sweep_service_ = std::move(service);
}

std::optional<std::pair<bool, Bytes>> SocketTransport::sweep_pull(Bytes pull) {
  if (options_.rank == 0) {
    throw std::runtime_error("SocketTransport: rank 0 cannot pull from itself");
  }
  const auto ticket = std::make_shared<PendingFetch>();
  ticket->peer = 0;
  ticket->sweep = true;
  if (stopping_.load(std::memory_order_acquire) || reactor_ == nullptr) {
    return std::nullopt;
  }
  reactor_->post([this, ticket, payload = std::move(pull)]() mutable {
    const auto channel = loop_channel(0);
    if (channel == nullptr) {
      ticket->resolve(false, {});
      return;
    }
    channel->pending_fetches.push_back(ticket);
    channel->sendq.push(wire::MsgType::kSweepPull,
                        static_cast<std::uint64_t>(options_.rank),
                        std::move(payload));
    loop_mark_dirty(channel);
  });
  if (!await_resolved(ticket)) return std::nullopt;
  const std::scoped_lock lock(ticket->m);
  if (!ticket->hit) return std::nullopt;
  return std::make_pair(ticket->sweep_done, std::move(ticket->payload));
}

void SocketTransport::sweep_push_result(Bytes batch) {
  if (options_.rank == 0) {
    throw std::runtime_error("SocketTransport: rank 0 folds results locally");
  }
  if (stopping_.load(std::memory_order_acquire) || reactor_ == nullptr) return;
  // Fire-and-forget, like watermarks: a batch lost to a dying root is
  // recovered by the scheduler's tail re-grant, never by a retry here.
  reactor_->post([this, payload = std::move(batch)]() mutable {
    const auto channel = loop_channel(0);
    if (channel == nullptr) return;
    channel->sendq.push(wire::MsgType::kSweepResult,
                        static_cast<std::uint64_t>(options_.rank),
                        std::move(payload));
    loop_mark_dirty(channel);
  });
}

void SocketTransport::check_peer(int peer) const {
  if (peer < 0 || peer >= total_ranks()) {
    throw std::invalid_argument("SocketTransport: peer out of range");
  }
}

std::shared_ptr<SocketTransport::Session> SocketTransport::loop_channel(int peer) {
  auto& slot = loop_->channels[static_cast<std::size_t>(peer)];
  if (slot != nullptr && slot->state != Session::State::kClosed) return slot;
  if (loop_->draining) return nullptr;
  const PeerEndpoint endpoint = endpoints_[static_cast<std::size_t>(peer)];
  // No endpoint yet — an elastic rank that has not joined (or already
  // left).  Best-effort gossip to it is skipped, never dialed blind.
  if (endpoint.port == 0) return nullptr;
  int fd = -1;
  try {
    fd = make_tcp_socket();
    make_nonblocking(fd);
  } catch (const std::exception&) {
    if (fd >= 0) ::close(fd);
    return nullptr;
  }
  sockaddr_in addr = make_addr(endpoint.ipv4, endpoint.port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    ::close(fd);
    return nullptr;  // peer torn down: a recorded miss, not a crash
  }
  const auto session = loop_make_session(
      fd, static_cast<int>(Session::Kind::kChannel),
      static_cast<int>(rc == 0 ? Session::State::kOpen
                               : Session::State::kConnecting));
  session->peer = peer;
  if (rc != 0) reactor_->mod_fd(fd, kEventIn | kEventOut);
  // In-place receive (DESIGN.md Sec. 7.1): a kHit lands straight in the
  // buffer of the ticket it answers when its id and length match.  Every
  // reply header is counted, so the pairing is the dispatcher's FIFO one.
  Session* raw = session.get();
  session->reader.set_payload_sink([raw](const wire::FrameHeader& header) {
    std::span<std::uint8_t> dest;
    if (!is_reply(header.type)) return dest;
    const std::size_t index = raw->undispatched_replies++;
    raw->sinking.reset();
    if (header.type != wire::MsgType::kHit || index >= raw->pending_fetches.size()) {
      return dest;
    }
    const auto& ticket = raw->pending_fetches[index];
    if (ticket->sweep || ticket->id != header.arg || ticket->dest.empty() ||
        ticket->dest.size() != header.payload_len) {
      return dest;
    }
    raw->sinking = ticket;
    return ticket->dest;
  });
  // The channel hello leads every frame on a dialed channel (revision 3).
  Bytes hello;
  wire::put_u32(hello, wire::kProtocolVersion);
  session->sendq.push(wire::MsgType::kHello,
                      static_cast<std::uint64_t>(options_.rank),
                      std::move(hello));
  if (rc == 0) loop_mark_dirty(session);
  slot = session;
  return session;
}

SocketTransport::FetchTicket SocketTransport::fetch_sample_start(
    int peer, std::uint64_t id) {
  return start_fetch(peer, id, {});
}

SocketTransport::FetchTicket SocketTransport::start_fetch(
    int peer, std::uint64_t id, std::span<std::uint8_t> dest) {
  check_peer(peer);
  if (peer == options_.rank) {
    throw std::invalid_argument("SocketTransport: fetch_sample from self");
  }
  auto ticket = std::make_shared<PendingFetch>();
  ticket->id = id;
  ticket->peer = peer;
  ticket->dest = dest;
  if (stopping_.load(std::memory_order_acquire) || reactor_ == nullptr) {
    ticket->resolve(false, {});
    return ticket;
  }
  reactor_->post([this, peer, id, ticket] {
    const auto channel = loop_channel(peer);
    if (channel == nullptr) {
      ticket->resolve(false, {});
      return;
    }
    channel->pending_fetches.push_back(ticket);
    channel->sendq.push(wire::MsgType::kFetch, id, nullptr, 0);
    loop_mark_dirty(channel);
  });
  return ticket;
}

bool SocketTransport::await_resolved(const FetchTicket& ticket) {
  {
    std::unique_lock lock(ticket->m);
    if (ticket->cv.wait_for(lock, std::chrono::duration<double>(options_.timeout_s),
                            [&] { return ticket->done; })) {
      return true;
    }
  }
  if (!stopping_.load(std::memory_order_acquire)) {
    if (ticket->sweep) {
      util::log_error("SocketTransport rank ", options_.rank, " sweep pull: timed out");
    } else {
      util::log_error("SocketTransport rank ", options_.rank, " fetch from ",
                      ticket->peer, ": timed out");
    }
  }
  return false;
}

void SocketTransport::cancel_landing(const FetchTicket& ticket) {
  // A resolved ticket is never written again: the reply that resolved it
  // was fully received, or its channel is closed, or the reactor is gone.
  // Otherwise the reactor stops using the caller's buffer here, moving a
  // half-received payload into the reader's own.
  reactor_->post([this, ticket] {
    ticket->dest = {};
    const auto& channel = loop_->channels[static_cast<std::size_t>(ticket->peer)];
    if (channel != nullptr && channel->sinking == ticket) {
      channel->reader.detach_sink();
      channel->sinking.reset();
    }
    {
      const std::scoped_lock lock(ticket->m);
      ticket->cancelled = true;
    }
    ticket->cv.notify_all();
  });
  std::unique_lock lock(ticket->m);
  while (!ticket->cv.wait_for(lock, std::chrono::duration<double>(options_.timeout_s),
                              [&] { return ticket->done || ticket->cancelled; })) {
    util::log_warn("SocketTransport rank ", options_.rank, ": fetch from ",
                   ticket->peer,
                   " timed out; waiting for the reactor to release the caller's buffer");
  }
}

void SocketTransport::charge_received(std::size_t bytes) {
  const double mb = util::bytes_to_mb(bytes);
  if (options_.nic != nullptr) {
    options_.nic->transfer(mb);
  } else {
    // Atomic add (fetches may race from several prefetch threads).
    transferred_mb_no_nic_.fetch_add(mb, std::memory_order_relaxed);
  }
}

std::optional<Bytes> SocketTransport::fetch_sample_finish(
    const FetchTicket& ticket) {
  if (!await_resolved(ticket)) return std::nullopt;
  Bytes payload;
  {
    const std::scoped_lock lock(ticket->m);
    if (!ticket->hit) return std::nullopt;
    payload = std::move(ticket->payload);
  }
  charge_received(payload.size());
  return payload;
}

std::optional<Bytes> SocketTransport::fetch_sample(int peer, std::uint64_t id) {
  return fetch_sample_finish(fetch_sample_start(peer, id));
}

bool SocketTransport::fetch_sample_into(int peer, std::uint64_t id,
                                        std::span<std::uint8_t> out) {
  const FetchTicket ticket = start_fetch(peer, id, out);
  if (!await_resolved(ticket)) {
    cancel_landing(ticket);
    return false;
  }
  bool landed = false;
  Bytes payload;
  {
    const std::scoped_lock lock(ticket->m);
    if (!ticket->hit) return false;
    landed = ticket->landed;
    payload = std::move(ticket->payload);
  }
  if (landed) {
    charge_received(out.size());
    return true;
  }
  // A hit that did not land in place: an empty sample, or a payload of
  // another length (a miss to the caller, but its bytes did cross the NIC).
  charge_received(payload.size());
  if (payload.size() != out.size()) return false;
  if (!out.empty()) std::memcpy(out.data(), payload.data(), out.size());
  return true;
}

// ---------------------------------------------------------------------------
// PFS contention accounting (DESIGN.md Sec. 7.4).

double SocketTransport::flush_interval_s() const noexcept {
  return options_.gossip.flush_virtual_s / options_.time_scale;
}

int SocketTransport::pfs_root_fold(int rank, int delta, bool notify_local,
                                   const void* conn_tag, std::uint32_t seq) {
  const std::scoped_lock lock(pfs_mutex_);
  if (seq != 0) {
    std::uint32_t& last = pfs_rank_seq_[static_cast<std::size_t>(rank)];
    if (seq <= last) return pfs_gamma_;  // duplicate / reordered frame
    last = seq;
  }
  return pfs_fold_locked(rank, delta, notify_local, conn_tag);
}

int SocketTransport::pfs_fold_locked(int rank, int delta, bool notify_local,
                                     const void* conn_tag) {
  int& readers = pfs_readers_[static_cast<std::size_t>(rank)];
  readers += delta;
  // A release folded after a dead-rank cleanup (or a lost acquire) must
  // not drive the contribution negative — mirroring the unary protocol,
  // where releasing an idle rank was a no-op.
  if (readers < 0) readers = 0;
  pfs_owner_[static_cast<std::size_t>(rank)] = readers > 0 ? conn_tag : nullptr;
  int gamma = 0;
  for (const int r : pfs_readers_) gamma += r;
  if (gamma == pfs_gamma_) return gamma;  // coalesced to a no-op
  pfs_gamma_ = gamma;
  if (notify_local && pfs_listener_) pfs_listener_(gamma);
  if (flush_interval_s() > 0.0) {
    // Batched mode: the gossip thread broadcasts within one flush interval
    // — many folds coalesce into one window (that interval, plus the RTT,
    // is the staleness bound), with the window's PEAK remembered so the
    // envelope survives the coalescing.
    pfs_broadcast_pending_ = true;
    if (gamma > pfs_broadcast_peak_) pfs_broadcast_peak_ = gamma;
  } else {
    // Unary mode: post the broadcast while still holding pfs_mutex_, so two
    // racing transitions reach the reactor's FIFO queue — and therefore
    // every peer — in the order they were folded.
    pfs_broadcast_gamma_locked(gamma);
  }
  return gamma;
}

void SocketTransport::pfs_emit_pending_broadcast_locked() {
  if (!pfs_broadcast_pending_) return;
  pfs_broadcast_pending_ = false;
  if (pfs_broadcast_peak_ > pfs_gamma_) {
    pfs_broadcast_gamma_locked(pfs_broadcast_peak_);
  }
  pfs_broadcast_peak_ = pfs_gamma_;
  pfs_broadcast_gamma_locked(pfs_gamma_);
}

void SocketTransport::pfs_root_drop_dead_rank(int rank, const void* conn_tag) {
  const std::scoped_lock lock(pfs_mutex_);
  if (pfs_owner_[static_cast<std::size_t>(rank)] != conn_tag) {
    // The rank's live deltas moved to a newer connection after this one
    // went stale: its contribution is current, not orphaned.
    return;
  }
  const int outstanding = pfs_readers_[static_cast<std::size_t>(rank)];
  if (outstanding == 0) return;
  (void)pfs_fold_locked(rank, -outstanding, /*notify_local=*/true, conn_tag);
}

void SocketTransport::pfs_broadcast_gamma_locked(int gamma_value) {
  if (reactor_ == nullptr) return;
  const Bytes payload =
      wire::encode_pfs_gamma({gamma_value, ++pfs_gamma_seq_});
  // ALWAYS posted, never sent inline (even when already on the reactor):
  // mixing inline and posted sends would let a later gamma overtake an
  // earlier one still sitting in the task queue.
  reactor_->post([this, payload] {
    for (int peer = 1; peer < total_ranks(); ++peer) {
      const auto channel = loop_channel(peer);
      if (channel != nullptr) {
        // Gossip is best-effort, like watermarks; a dead peer stays stale.
        channel->sendq.push(wire::MsgType::kPfsGamma, 0, payload.data(),
                            payload.size());
        loop_mark_dirty(channel);
      }
    }
  });
}

void SocketTransport::pfs_apply_gamma(const wire::PfsGamma& update) {
  const std::scoped_lock lock(pfs_mutex_);
  if (update.seq <= pfs_gamma_seen_) return;  // stale broadcast
  pfs_gamma_seen_ = update.seq;
  // Own in-flight transitions may not have reached the root yet: never let
  // the authoritative count talk this rank below its own activity.
  pfs_gamma_ = update.gamma > pfs_local_readers_ ? update.gamma : pfs_local_readers_;
  if (pfs_listener_) pfs_listener_(pfs_gamma_);
}

void SocketTransport::pfs_flush_deltas() {
  // Flushers (gossip thread, unary-mode callers, teardown) serialize here,
  // which pins the POST order — and therefore the frame order on the
  // channel — to seq order; the queue lock is dropped before the post so
  // enqueueing reader threads never wait on a flusher.
  const std::scoped_lock flush_lock(pfs_flush_mutex_);
  int net = 0;
  int peak = 0;
  std::uint32_t first_seq = 0;
  int frames = 0;
  {
    const std::scoped_lock lock(gossip_mutex_);
    net = pending_delta_;
    peak = pending_max_prefix_;
    pending_delta_ = 0;
    pending_max_prefix_ = 0;
    pending_transitions_ = 0;
    // Preserve the window's EXTREME, not just its endpoint: if the queued
    // transitions peaked above the net (an acquire/release pair inside one
    // window), send the peak first and the correction after, so the active
    // period still touches rank 0's counter trajectory.  Nothing to say
    // only when the trajectory never left its last-flushed value.
    frames = peak > net && peak > 0 ? 2 : (net != 0 ? 1 : 0);
    if (frames == 0) return;
    first_seq = delta_seq_ + 1;
    delta_seq_ += static_cast<std::uint32_t>(frames);
  }
  if (reactor_ == nullptr) return;
  std::vector<Bytes> payloads;
  if (frames == 2) {
    payloads.push_back(wire::encode_pfs_delta({peak, first_seq}));
    payloads.push_back(wire::encode_pfs_delta({net - peak, first_seq + 1}));
  } else {
    payloads.push_back(wire::encode_pfs_delta({net, first_seq}));
  }
  reactor_->post([this, payloads = std::move(payloads)] {
    // Best-effort, like the unary frames: a lost delta self-heals through
    // the root's per-rank clamp and the dead-rank cleanup.
    const auto channel = loop_channel(0);
    if (channel == nullptr) return;
    for (const Bytes& payload : payloads) {
      channel->sendq.push(wire::MsgType::kPfsDelta,
                          static_cast<std::uint64_t>(options_.rank),
                          payload.data(), payload.size());
    }
    loop_mark_dirty(channel);
  });
}

void SocketTransport::pfs_enqueue_delta(int delta) {
  bool flush_now = false;
  bool batch_full = false;
  {
    const std::scoped_lock lock(gossip_mutex_);
    pending_delta_ += delta;
    if (pending_delta_ > pending_max_prefix_) pending_max_prefix_ = pending_delta_;
    ++pending_transitions_;
    // Unary mode (and the post-teardown stragglers of any mode) flushes
    // from the calling thread, the historical behaviour.
    flush_now = flush_interval_s() <= 0.0 || gossip_stop_;
    batch_full = pending_transitions_ >= options_.gossip.max_batch;
  }
  if (flush_now) {
    pfs_flush_deltas();
  } else if (batch_full) {
    gossip_cv_.notify_all();
  }
}

void SocketTransport::gossip_loop() {
  // Fixed window by default; with gossip.min_flush_virtual_s > 0 the window
  // adapts per wake (DESIGN.md Sec. 11): halve toward the minimum after a
  // window that had transitions to flush (gamma is volatile), double back
  // toward the configured maximum after a quiet one (steady gamma needs no
  // frames).  Flushes are extreme-preserving regardless, so adaptation
  // changes delivery latency only, never the folded gamma.
  const double max_s = std::max(flush_interval_s(), 50e-6);  // never a busy spin
  const double min_s =
      options_.gossip.min_flush_virtual_s > 0.0
          ? std::clamp(options_.gossip.min_flush_virtual_s / options_.time_scale,
                       50e-6, max_s)
          : max_s;
  double window_s = max_s;
  std::unique_lock lock(gossip_mutex_);
  while (!gossip_stop_) {
    gossip_cv_.wait_for(lock, std::chrono::duration<double>(window_s), [this] {
      return gossip_stop_ || pending_transitions_ >= options_.gossip.max_batch;
    });
    if (gossip_stop_) break;
    const bool have_deltas = pending_transitions_ > 0;
    window_s = have_deltas ? std::max(min_s, window_s * 0.5)
                           : std::min(max_s, window_s * 2.0);
    lock.unlock();
    if (have_deltas) pfs_flush_deltas();
    if (options_.rank == 0) {
      const std::scoped_lock pfs_lock(pfs_mutex_);
      pfs_emit_pending_broadcast_locked();
    }
    lock.lock();
  }
}

void SocketTransport::flush_pfs_gossip() {
  pfs_flush_deltas();
  if (options_.rank == 0) {
    const std::scoped_lock lock(pfs_mutex_);
    pfs_emit_pending_broadcast_locked();
  }
}

int SocketTransport::pfs_adjust(int delta) {
  if (options_.rank == 0) {
    // Rank 0 folds its own transitions directly under the counter lock (the
    // caller learns the authoritative gamma from the return value; its
    // listener is only for changes it did not initiate) — only the
    // BROADCAST batches, so a root reader thread never touches the wire in
    // batched mode.
    return pfs_root_fold(0, delta, /*notify_local=*/false);
  }
  int estimate = 0;
  {
    // Local estimate until the authoritative kPfsGamma arrives (staleness
    // bound: one flush interval + a control round-trip).  Optimism is
    // asymmetric on purpose: a release lowers the estimate immediately
    // (underpricing briefly is the historical staleness behaviour), but an
    // acquire only floors it at this rank's own reader count — adding the
    // delta on top of a broadcast that may ALREADY count this rank (its
    // coalesced release never left the queue) would double-count and
    // inflate the gamma envelope above the job-wide truth.
    const std::scoped_lock lock(pfs_mutex_);
    pfs_local_readers_ += delta;
    if (pfs_local_readers_ < 0) pfs_local_readers_ = 0;
    if (delta < 0) pfs_gamma_ += delta;
    if (pfs_gamma_ < pfs_local_readers_) pfs_gamma_ = pfs_local_readers_;
    if (pfs_gamma_ < 0) pfs_gamma_ = 0;
    estimate = pfs_gamma_;
  }
  pfs_enqueue_delta(delta);
  return estimate;
}

void SocketTransport::set_pfs_listener(PfsListener listener) {
  const std::scoped_lock lock(pfs_mutex_);
  pfs_listener_ = std::move(listener);
}

// ---------------------------------------------------------------------------
// Watermarks + drain + odds and ends.

void SocketTransport::publish_watermark(std::uint64_t position) {
  watermarks_[static_cast<std::size_t>(options_.rank)].store(
      position, std::memory_order_release);
  if (stopping_.load(std::memory_order_acquire) || reactor_ == nullptr) return;
  Bytes who;
  wire::put_u32(who, static_cast<std::uint32_t>(options_.rank));
  reactor_->post([this, position, who = std::move(who)] {
    for (int peer = 0; peer < total_ranks(); ++peer) {
      if (peer == options_.rank) continue;
      const auto channel = loop_channel(peer);
      if (channel != nullptr) {
        // Watermarks are best-effort gossip; a dead peer just stays stale.
        channel->sendq.push(wire::MsgType::kWatermark, position, who.data(),
                            who.size());
        loop_mark_dirty(channel);
      }
    }
  });
}

std::uint64_t SocketTransport::watermark_of(int peer) const {
  check_peer(peer);
  return watermarks_[static_cast<std::size_t>(peer)].load(std::memory_order_acquire);
}

double SocketTransport::transferred_mb() const {
  if (options_.nic != nullptr) return options_.nic->total_transferred_mb();
  return transferred_mb_no_nic_.load(std::memory_order_relaxed);
}

void SocketTransport::loop_begin_drain(const std::shared_ptr<SyncWaiter>& waiter) {
  loop_->draining = true;
  loop_->drain_waiter = waiter;
  if (rendezvous_listener_fd_ >= 0) {
    reactor_->del_fd(rendezvous_listener_fd_);
    ::close(rendezvous_listener_fd_);
    rendezvous_listener_fd_ = -1;
  }
  if (serve_listener_fd_ >= 0) {
    reactor_->del_fd(serve_listener_fd_);
    ::close(serve_listener_fd_);
    serve_listener_fd_ = -1;
  }
  std::vector<std::shared_ptr<Session>> all;
  all.reserve(loop_->sessions.size());
  for (const auto& [fd, session] : loop_->sessions) all.push_back(session);
  for (const auto& session : all) {
    // NIC-priced replies still waiting on their timer are dropped: the
    // requester is tearing down too, or will see the close as a miss.
    session->delayed.clear();
    if (session->state == Session::State::kConnecting) {
      // Keep dialing: the queue may hold teardown-flushed deltas that must
      // reach the root.  loop_finish_connect sees draining and continues
      // the drain; the teardown deadline bounds a peer that never answers.
      continue;
    }
    if (session->state != Session::State::kClosed) {
      session->state = Session::State::kDraining;
      if (session->sendq.empty() && session->delayed.empty()) {
        loop_close_session(session);
      } else {
        loop_mark_dirty(session);
      }
    }
  }
  loop_check_drained();
}

void SocketTransport::loop_check_drained() {
  if (!loop_->draining || loop_->drain_waiter == nullptr) return;
  if (loop_->sessions.empty()) {
    loop_->drain_waiter->fulfill_ok();
    loop_->drain_waiter.reset();
  }
}

// ---------------------------------------------------------------------------

std::uint16_t pick_free_port() {
  // An ephemeral port probed with bind(0) and released can be handed out
  // again — to a serve listener's bind(0) or a connect's source port —
  // before the rendezvous binds it, failing the world with EADDRINUSE (about
  // 1 in 1300 back-to-back 2-rank worlds).  Ports outside the range are
  // only ever claimed by an explicit bind.
  std::uint32_t low = 32768;
  std::uint32_t high = 60999;
  std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> low >> high;
  thread_local std::minstd_rand rng{std::random_device{}()};
  std::uniform_int_distribution<std::uint32_t> any_port(1024, 65535);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::uint32_t port = any_port(rng);
    if (port >= low && port <= high) continue;
    const int fd = make_tcp_socket();
    sockaddr_in addr =
        make_addr(htonl(INADDR_LOOPBACK), static_cast<std::uint16_t>(port));
    const bool free = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (free) return static_cast<std::uint16_t>(port);
  }
  throw std::runtime_error("SocketTransport: no free port outside the ephemeral range");
}

}  // namespace nopfs::net

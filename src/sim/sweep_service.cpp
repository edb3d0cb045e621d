#include "sim/sweep_service.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "sim/policies.hpp"

namespace nopfs::sim {

namespace {

namespace wire = net::wire;

/// Checkpoint file leader: "NPSW" + format version.  Version 2 ends the
/// file with an FNV-1a checksum over every byte before it.
constexpr std::uint32_t kCheckpointMagic = 0x4E505357u;
constexpr std::uint32_t kCheckpointVersion = 2;
constexpr std::size_t kCheckpointLeaderBytes = 8;    // magic + version
constexpr std::size_t kCheckpointChecksumBytes = 8;  // trailing FNV-1a

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, 8); }

void fnv_f64(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  fnv_u64(h, bits);
}

void fnv_string(std::uint64_t& h, const std::string& s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

[[noreturn]] void checkpoint_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("sweep checkpoint " + path + ": " + what);
}

/// Writes `bytes` to `fd` in full, then fsyncs it; false on any failure.
bool write_all_and_sync(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return ::fsync(fd) == 0;
}

/// Replaces `path` with `bytes` so that a crash at any point leaves either
/// the old file or the new one: write and fsync a temp file, rename it over
/// `path`, then fsync the directory so the rename itself is durable.
void replace_file_durably(const std::string& path,
                          const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) checkpoint_error(path, "cannot write " + tmp);
  const bool written = write_all_and_sync(fd, bytes);
  if (::close(fd) != 0 || !written) checkpoint_error(path, "short write to " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    checkpoint_error(path, "rename from " + tmp + " failed");
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) checkpoint_error(path, "cannot open directory " + dir);
  const bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) checkpoint_error(path, "fsync of directory " + dir + " failed");
}

}  // namespace

std::uint64_t sweep_grid_signature(const std::vector<SweepPoint>& points) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, points.size());
  for (const SweepPoint& point : points) {
    fnv_string(h, point.policy);
    if (point.dataset != nullptr) {
      fnv_string(h, point.dataset->name());
      fnv_u64(h, point.dataset->num_samples());
      fnv_f64(h, point.dataset->total_mb());
    } else {
      fnv_u64(h, 0);
    }
    fnv_u64(h, point.config.seed);
    fnv_u64(h, static_cast<std::uint64_t>(point.config.num_epochs));
    fnv_u64(h, point.config.per_worker_batch);
    fnv_u64(h, static_cast<std::uint64_t>(point.config.system.num_workers));
    fnv_u64(h, point.config.drop_last ? 1 : 0);
    fnv_f64(h, point.config.allreduce_s);
    fnv_u64(h, point.config.uniform_compute ? 1 : 0);
  }
  return h;
}

std::uint64_t sweep_results_digest(const std::vector<SimResult>& results) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, results.size());
  for (const SimResult& result : results) {
    const std::vector<std::uint8_t> encoded = wire::encode_sim_result(result);
    fnv_u64(h, encoded.size());
    fnv_bytes(h, encoded.data(), encoded.size());
  }
  return h;
}

// ---------------------------------------------------------------------------
// SweepScheduler

SweepScheduler::SweepScheduler(std::uint64_t total_cells,
                               std::uint64_t grid_signature,
                               SweepServiceOptions options, int workers)
    : total_(total_cells),
      signature_(grid_signature),
      options_(std::move(options)),
      workers_(std::max(workers, 1)),
      results_(total_cells),
      completed_(total_cells, 0),
      last_pull_seq_(static_cast<std::size_t>(workers_), 0),
      last_result_seq_(static_cast<std::size_t>(workers_), 0) {}

std::uint64_t SweepScheduler::load_checkpoint() {
  if (options_.checkpoint_path.empty()) return 0;
  std::ifstream in(options_.checkpoint_path, std::ios::binary);
  if (!in) return 0;  // no checkpoint yet: fresh start
  const std::vector<std::uint8_t> raw(std::istreambuf_iterator<char>(in), {});
  const std::string& path = options_.checkpoint_path;
  if (raw.size() < kCheckpointLeaderBytes) checkpoint_error(path, "truncated file");
  wire::Reader leader(raw.data(), kCheckpointLeaderBytes);
  if (leader.u32() != kCheckpointMagic) checkpoint_error(path, "bad magic");
  const std::uint32_t version = leader.u32();
  if (version != kCheckpointVersion) {
    checkpoint_error(path, "unsupported version " + std::to_string(version));
  }
  if (raw.size() < kCheckpointLeaderBytes + kCheckpointChecksumBytes) {
    checkpoint_error(path, "truncated file");
  }
  const std::size_t body_end = raw.size() - kCheckpointChecksumBytes;
  std::uint64_t checksum = kFnvOffset;
  fnv_bytes(checksum, raw.data(), body_end);
  wire::Reader trailer(raw.data() + body_end, kCheckpointChecksumBytes);
  if (trailer.u64() != checksum) {
    checkpoint_error(path, "checksum mismatch (truncated or corrupt file)");
  }
  wire::Reader reader(raw.data() + kCheckpointLeaderBytes,
                      body_end - kCheckpointLeaderBytes);
  const std::uint64_t signature = reader.u64();
  const std::uint64_t total = reader.u64();
  if (signature != signature_ || total != total_) {
    checkpoint_error(path, "belongs to a different grid (signature/cell-count mismatch)");
  }
  const std::uint64_t count = reader.u64();
  const std::scoped_lock lock(mutex_);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t idx = reader.u64();
    if (idx >= total_) checkpoint_error(path, "cell index out of range");
    SimResult result = wire::read_sim_result(reader);
    if (completed_[idx] != 0) continue;  // defensive: duplicate record
    results_[idx] = std::move(result);
    completed_[idx] = 1;
    ++completed_count_;
  }
  if (reader.remaining() != 0) checkpoint_error(path, "trailing bytes");
  restored_ = completed_count_;
  last_checkpoint_at_ = completed_count_;
  return restored_;
}

bool SweepScheduler::interrupted_locked() const {
  return options_.interrupt_after_cells > 0 &&
         completed_count_ >= restored_ + options_.interrupt_after_cells;
}

SweepScheduler::Range SweepScheduler::grant(int holder) {
  const std::scoped_lock lock(mutex_);
  if (interrupted_locked() || completed_count_ == total_) return {};
  while (cursor_ < total_ && completed_[cursor_] != 0) ++cursor_;
  if (cursor_ < total_) {
    // Contiguous run of never-granted, not-completed cells at the cursor
    // (restored cells break runs and are never granted again).
    std::uint64_t run = 0;
    while (cursor_ + run < total_ && completed_[cursor_ + run] == 0) ++run;
    std::uint64_t pending = 0;  // not-completed cells still ungranted
    for (std::uint64_t i = cursor_; i < total_; ++i) {
      if (completed_[i] == 0) ++pending;
    }
    const std::uint64_t size = std::min<std::uint64_t>(
        sweep_grant_size(static_cast<std::size_t>(pending), workers_,
                         options_.min_grant),
        run);
    const Range range{cursor_, static_cast<std::uint32_t>(size)};
    cursor_ += size;
    outstanding_.push_back({range, {holder}});
    ++grants_;
    return range;
  }
  // Tail: every cell is granted but some are outstanding.  A rank that
  // still holds an outstanding range has cells in flight (or unfolded):
  // it gets nothing, drains, and asks again.  A rank that holds none
  // re-grants the oldest outstanding range — necessarily another rank's —
  // which rotates to the back, so successive pulls speculate on different
  // straggler ranges.  Results are pure functions of the cell, so the
  // duplicate fold is idempotent, and the grid drains even if the rank
  // holding a range died.
  const auto holds = [holder](const Outstanding& entry) {
    return std::find(entry.holders.begin(), entry.holders.end(), holder) !=
           entry.holders.end();
  };
  if (outstanding_.empty() ||
      std::any_of(outstanding_.begin(), outstanding_.end(), holds)) {
    return {};
  }
  Outstanding entry = std::move(outstanding_.front());
  outstanding_.erase(outstanding_.begin());
  entry.holders.push_back(holder);
  const Range range = entry.range;
  outstanding_.push_back(std::move(entry));
  ++regrants_;
  return range;
}

void SweepScheduler::submit(std::uint64_t first,
                            std::vector<SimResult> results) {
  const std::scoped_lock lock(mutex_);
  if (first + results.size() > total_) {
    throw std::runtime_error("sweep service: result range out of bounds");
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::uint64_t idx = first + i;
    if (completed_[idx] != 0) {
      ++duplicates_;  // tail re-grant or duplicated frame: first write won
      continue;
    }
    results_[idx] = std::move(results[i]);
    completed_[idx] = 1;
    ++completed_count_;
  }
  // Drop outstanding ranges whose every cell completed.
  std::erase_if(outstanding_, [&](const Outstanding& entry) {
    const Range& range = entry.range;
    for (std::uint64_t i = range.first; i < range.first + range.count; ++i) {
      if (completed_[i] == 0) return false;
    }
    return true;
  });
  if (!options_.checkpoint_path.empty() &&
      (completed_count_ - last_checkpoint_at_ >=
           std::max<std::uint64_t>(options_.checkpoint_every_cells, 1) ||
       completed_count_ == total_ || interrupted_locked())) {
    checkpoint_locked();
  }
}

bool SweepScheduler::advance_pull_seq(int from, std::uint32_t seq) {
  const std::scoped_lock lock(mutex_);
  if (from < 0 || from >= workers_) return false;
  std::uint32_t& last = last_pull_seq_[static_cast<std::size_t>(from)];
  if (seq <= last) return false;
  last = seq;
  return true;
}

bool SweepScheduler::advance_result_seq(int from, std::uint32_t seq) {
  const std::scoped_lock lock(mutex_);
  if (from < 0 || from >= workers_) return false;
  std::uint32_t& last = last_result_seq_[static_cast<std::size_t>(from)];
  if (seq <= last) return false;
  last = seq;
  return true;
}

bool SweepScheduler::done() const {
  const std::scoped_lock lock(mutex_);
  return completed_count_ == total_;
}

bool SweepScheduler::interrupted() const {
  const std::scoped_lock lock(mutex_);
  return interrupted_locked();
}

std::uint64_t SweepScheduler::completed_cells() const {
  const std::scoped_lock lock(mutex_);
  return completed_count_;
}

std::uint64_t SweepScheduler::duplicate_cells() const {
  const std::scoped_lock lock(mutex_);
  return duplicates_;
}

std::uint64_t SweepScheduler::grants() const {
  const std::scoped_lock lock(mutex_);
  return grants_;
}

std::uint64_t SweepScheduler::regrants() const {
  const std::scoped_lock lock(mutex_);
  return regrants_;
}

void SweepScheduler::checkpoint_now() {
  const std::scoped_lock lock(mutex_);
  if (options_.checkpoint_path.empty()) return;
  checkpoint_locked();
}

void SweepScheduler::checkpoint_locked() {
  std::vector<std::uint8_t> out;
  wire::put_u32(out, kCheckpointMagic);
  wire::put_u32(out, kCheckpointVersion);
  wire::put_u64(out, signature_);
  wire::put_u64(out, total_);
  wire::put_u64(out, completed_count_);
  for (std::uint64_t idx = 0; idx < total_; ++idx) {
    if (completed_[idx] == 0) continue;
    wire::put_u64(out, idx);
    wire::put_sim_result(out, results_[idx]);
  }
  std::uint64_t checksum = kFnvOffset;
  fnv_bytes(checksum, out.data(), out.size());
  wire::put_u64(out, checksum);
  // A kill mid-write leaves the previous checkpoint (or none), never a torn
  // file; a torn one from a crash below the filesystem fails the checksum.
  replace_file_durably(options_.checkpoint_path, out);
  last_checkpoint_at_ = completed_count_;
}

std::vector<SimResult> SweepScheduler::take_results() {
  const std::scoped_lock lock(mutex_);
  return std::move(results_);
}

// ---------------------------------------------------------------------------
// run_sweep_service

namespace {

/// Answers every pull "done" and drops every result.  Capture-free, so it
/// can stay installed after the scheduler is gone: rank 0 leaves it in an
/// elastic world (a straggler's in-flight pull must still be answered) and
/// when its own loop fails.
net::Transport::SweepService done_stub() {
  net::Transport::SweepService stub;
  stub.on_pull = [](int, net::Bytes pull) -> std::pair<bool, net::Bytes> {
    const wire::SweepPull request = wire::decode_sweep_pull(pull);
    return {true, wire::encode_sweep_done({request.seq})};
  };
  stub.on_result = [](int, net::Bytes) {};
  return stub;
}

}  // namespace

SweepServiceReport run_sweep_service(
    net::Transport* transport, std::uint64_t total_cells,
    const std::function<SimResult(std::uint64_t)>& evaluate,
    std::uint64_t grid_signature, const SweepServiceOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const int world = transport != nullptr ? transport->world_size() : 1;
  const int rank = transport != nullptr ? transport->rank() : 0;
  // Elastic worlds may hold late joiners with ranks >= world, so the
  // scheduler's per-sender seq guards are sized for the largest world the
  // transport may grow to; a solo elastic root still installs the service.
  const int max_workers = std::max(world, options.max_workers);
  const bool distributed = transport != nullptr && max_workers > 1;
  if (options.abandon_after_pulls > 0 && !options.elastic) {
    throw std::invalid_argument(
        "sweep service: abandon_after_pulls requires elastic (a dead worker "
        "cannot enter the completion barrier)");
  }

  SweepServiceReport report;
  report.stats.total_cells = total_cells;

  // Every rank works its grants on the cell-pull loop, its threads started
  // once for the whole call; the service only decides WHICH rank runs a
  // cell and where its result goes.
  const int threads = SweepRunner(SweepOptions{options.num_threads}).num_threads();
  CellPull pull;
  pull.evaluate = [&evaluate](std::uint64_t i) { return evaluate(i); };

  if (rank == 0) {
    SweepScheduler scheduler(total_cells, grid_signature, options, max_workers);
    if (options.resume) {
      report.stats.restored_cells = scheduler.load_checkpoint();
    }
    if (distributed) {
      net::Transport::SweepService service;
      service.on_pull = [&scheduler](int from, net::Bytes pull)
          -> std::pair<bool, net::Bytes> {
        const wire::SweepPull request = wire::decode_sweep_pull(pull);
        if (!scheduler.advance_pull_seq(from, request.seq)) {
          // Stale or duplicated pull: answer done — the sender's live pull
          // (the one with the fresh seq) keeps its grid share moving.
          return {true, wire::encode_sweep_done({request.seq})};
        }
        const SweepScheduler::Range range = scheduler.grant(from);
        if (range.count == 0) {
          return {true, wire::encode_sweep_done({request.seq})};
        }
        return {false, wire::encode_sweep_grant(
                           {request.seq, range.first, range.count})};
      };
      service.on_result = [&scheduler](int from, net::Bytes payload) {
        wire::SweepResultBatch batch =
            wire::decode_sweep_result_batch(payload);
        if (!scheduler.advance_result_seq(from, batch.seq)) return;
        scheduler.submit(batch.first, std::move(batch.results));
      };
      transport->set_sweep_service(std::move(service));
    }
    // Rank 0 works the grid too, pulling straight from the scheduler and
    // folding each cell as it finishes.  An empty grant() while rank 0
    // still holds a range makes the loop drain and ask again, and a rank
    // holding nothing is re-granted any range still outstanding, so the
    // loop returns only once the grid is fully drained — no separate
    // straggler wait.
    pull.next_range = [&scheduler] { return scheduler.grant(0); };
    pull.on_cell = [&scheduler](std::uint64_t cell, SimResult&& result) {
      std::vector<SimResult> one;
      one.push_back(std::move(result));
      scheduler.submit(cell, std::move(one));
    };
    try {
      // A pull that reaches rank 0 before the service is installed is a
      // protocol error that closes the worker's channel, so workers of a
      // fixed world pull only after this barrier.
      if (distributed && !options.elastic) transport->barrier();
      report.stats.executed_cells = pull_cells(threads, pull);
      // A worker enters the final barrier only after a pull it sent with
      // no cell in flight answered done, and that reply orders AFTER the
      // sender's prior result frames on the same channel — so barrier
      // completion implies every remote result has been folded.
      if (distributed && !options.elastic) transport->barrier();
    } catch (...) {
      // The installed handlers reference the scheduler this unwinds.
      if (distributed) transport->set_sweep_service(done_stub());
      throw;
    }
    if (distributed) {
      // An elastic world cannot barrier: a worker may have died holding a
      // grant (its cells were re-granted at the tail), and a late joiner
      // was never part of the collective count.  Completion needs no
      // barrier there — the loop above returns only once every cell is
      // folded — but a straggler's in-flight pull must still be answered,
      // so the done-stub replaces the service instead of withdrawing it.
      transport->set_sweep_service(options.elastic ? done_stub()
                                                   : net::Transport::SweepService{});
    }
    scheduler.checkpoint_now();
    report.stats.interrupted = scheduler.interrupted();
    report.stats.completed_cells = scheduler.completed_cells();
    report.stats.duplicate_cells = scheduler.duplicate_cells();
    report.stats.grants = scheduler.grants();
    report.stats.regrants = scheduler.regrants();
    report.results = scheduler.take_results();
  } else {
    // Pulls run on one thread at a time (the loop's fetching thread), so
    // the pull seq rises monotonically on the wire.
    std::uint32_t pull_seq = 0;
    int granted_pulls = 0;
    bool gone = false;  // rank 0 lost (elastic) or scripted death
    pull.next_range = [&]() -> CellRange {
      if (gone) return {};
      const auto reply = transport->sweep_pull(wire::encode_sweep_pull({++pull_seq}));
      if (!reply.has_value()) {
        // Rank 0 unreachable.  In an elastic world that is an expected
        // membership event (the sweep finished and rank 0 moved on);
        // everything this worker finished has already been pushed.
        if (!options.elastic) {
          throw std::runtime_error("sweep service: lost rank 0 mid-sweep");
        }
        gone = true;
        return {};
      }
      if (reply->first) return {};  // kSweepDone
      if (options.abandon_after_pulls > 0 &&
          granted_pulls >= options.abandon_after_pulls) {
        // Scripted mid-sweep death: this grant is never evaluated or
        // reported — rank 0's tail re-grants recover its cells, and the
        // results digest must come out bit-identical regardless.
        gone = true;
        return {};
      }
      ++granted_pulls;
      const wire::SweepGrant grant = wire::decode_sweep_grant(reply->second);
      return {grant.first, grant.count};
    };
    // A grant's batch goes out when its last cell finishes.  Batches of
    // different grants finish on different threads; the lock keeps the
    // result seq in send order.
    std::mutex push_mutex;
    std::uint32_t result_seq = 0;
    pull.on_range = [&](const CellRange& range, std::vector<SimResult>&& results) {
      const std::scoped_lock lock(push_mutex);
      wire::SweepResultBatch batch;
      batch.seq = ++result_seq;
      batch.first = range.first;
      batch.results = std::move(results);
      transport->sweep_push_result(wire::encode_sweep_result_batch(batch));
    };
    if (!options.elastic) transport->barrier();  // rank 0's service is installed
    report.stats.executed_cells = pull_cells(threads, pull);
    if (!options.elastic) transport->barrier();
  }
  report.stats.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

SweepServiceReport run_sweep_service(net::Transport* transport,
                                     const std::vector<SweepPoint>& points,
                                     const SweepServiceOptions& options) {
  return run_sweep_service(
      transport, points.size(),
      [&points](std::uint64_t i) {
        const SweepPoint& point = points[static_cast<std::size_t>(i)];
        if (point.dataset == nullptr) {
          throw std::invalid_argument("sweep service: point has no dataset");
        }
        const auto policy = make_policy(point.policy);
        // Same cell semantics as SweepRunner::run(points): shared epoch
        // permutations, fresh policy per cell — bit-identical output.
        SimConfig config = point.config;
        config.share_epoch_orders = true;
        return simulate(config, *point.dataset, *policy);
      },
      sweep_grid_signature(points), options);
}

}  // namespace nopfs::sim

#pragma once
// Distributed work-stealing sweep service (DESIGN.md Sec. 10).
//
// Promotes the local SweepRunner to a job: rank 0 owns the cell grid and
// hands out contiguous cell ranges on demand (a pull model — a rank asks,
// rank 0 grants sweep_grant_size() cells, shrinking toward the tail).
// Every rank works its grants on the cell-pull loop (pull_cells): its
// threads take one cell at a time from the current grant, and the thread
// that finds it empty fetches the next grant while the others keep
// working.  Rank 0 folds each cell as it finishes; other ranks stream a
// grant's SimResults back as one wire::SweepResultBatch frame when its last
// cell finishes.  Rank 0 folds every result into the grid slot of its flat
// cell index, so the output is in submission order — bit-identical to the
// serial SweepRunner no matter which rank computed a cell (the determinism
// contract, DESIGN.md Sec. 6.1, extended over the wire by the bit-exact
// SimResult codec).
//
// Rank 0 checkpoints sweep state (completed-cell bitmap + serialized
// results, net/wire encoding, temp-file + rename) every
// `checkpoint_every_cells` completions, so a killed sweep resumes from the
// last checkpoint without re-running any completed cell: restored cells are
// never granted again, and a resumed run's final results are bit-identical
// to an uninterrupted one.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/sweep.hpp"

namespace nopfs::net {
class Transport;
}

namespace nopfs::sim {

struct SweepServiceOptions {
  /// Per-rank cell concurrency (SweepRunner rules: 0 = auto).
  int num_threads = 0;
  /// Smallest grant; the tail degrades to min_grant-at-a-time stealing.
  std::size_t min_grant = 1;
  /// Checkpoint file (empty = no checkpointing).  Written atomically
  /// (temp + rename) by rank 0 only.
  std::string checkpoint_path;
  /// Completed cells between checkpoint writes (the cadence); a final
  /// write always happens at completion or interruption.
  std::uint64_t checkpoint_every_cells = 8;
  /// Resume from checkpoint_path if it exists (a missing file starts
  /// fresh; a file for a DIFFERENT grid throws).
  bool resume = false;
  /// Test/CI knob emulating a kill mid-sweep deterministically: once this
  /// many cells have completed IN THIS RUN (on top of any restored ones),
  /// rank 0 stops granting (workers are told done), checkpoints, and
  /// returns a partial report with stats.interrupted = true.  0 = off.
  std::uint64_t interrupt_after_cells = 0;
  /// Elastic membership (DESIGN.md Sec. 11).  When set, the world may gain
  /// and lose workers mid-sweep: the completion barrier is skipped on
  /// every rank (a dead worker cannot wedge it), a worker treats a lost
  /// rank 0 as "done" instead of an error, and after the grid drains rank
  /// 0 leaves a done-answering stub service installed so a straggling
  /// pull is answered instead of crashing the serve session.  The result
  /// digest is unchanged: rank 0 exits its grant loop only once every
  /// cell has been folded, faults or not.
  bool elastic = false;
  /// Elastic worlds: the largest worker count the scheduler must track
  /// (late joiners have ranks >= the transport world size).  0 = the
  /// transport world size.  Must match the transport's max_world.
  int max_workers = 0;
  /// Worker-side fault injection emulating a mid-sweep death
  /// deterministically: after this many granted pulls, the worker takes
  /// ONE more grant and vanishes without evaluating or reporting it (the
  /// grants it already held still finish and report) — the cells of the
  /// dropped grant are recovered by rank 0's tail re-grants.  Requires
  /// elastic (a dead worker cannot barrier).  0 = off.
  int abandon_after_pulls = 0;
};

struct SweepServiceStats {
  std::uint64_t total_cells = 0;
  std::uint64_t restored_cells = 0;   ///< folded from the resume checkpoint
  std::uint64_t executed_cells = 0;   ///< evaluated on THIS rank
  std::uint64_t completed_cells = 0;  ///< rank 0: grid slots filled
  /// Rank 0: result cells that arrived for an already-completed slot
  /// (tail re-grants, duplicated frames).  Folded idempotently.
  std::uint64_t duplicate_cells = 0;
  std::uint64_t grants = 0;    ///< rank 0: ranges granted from the cursor
  std::uint64_t regrants = 0;  ///< rank 0: speculative tail re-grants
  bool interrupted = false;           ///< stopped by interrupt_after_cells
  double wall_s = 0.0;
};

struct SweepServiceReport {
  /// Rank 0: the full grid in submission order (partial after an
  /// interruption — un-completed cells are default-constructed).  Other
  /// ranks: empty.
  std::vector<SimResult> results;
  SweepServiceStats stats;
};

/// Rank 0's grid state: the completed-cell bitmap, the result slots, the
/// grant cursor and the outstanding-range list.  Internally locked — the
/// transport invokes on_pull/on_result from its reactor thread while rank
/// 0's own worker loop grants directly.  Exposed for tests; jobs use
/// run_sweep_service().
class SweepScheduler {
 public:
  /// count == 0: nothing to grant to this rank (see grant()).
  using Range = CellRange;

  SweepScheduler(std::uint64_t total_cells, std::uint64_t grid_signature,
                 SweepServiceOptions options, int workers);

  /// Loads options.checkpoint_path (missing file = fresh start) and folds
  /// its completed cells.  Throws if the file belongs to a different grid
  /// (signature or cell-count mismatch) or is malformed.  Returns the
  /// number of restored cells.
  std::uint64_t load_checkpoint();

  /// Grants rank `holder` the next range: a contiguous run of
  /// never-granted cells sized by sweep_grant_size(), skipping restored
  /// cells.  When every cell has been granted but some are still
  /// outstanding, a `holder` that holds none of them gets the oldest one
  /// re-granted (speculative tail execution: results are pure functions
  /// of the cell, so duplicates fold idempotently) — the grid drains even
  /// if a worker dies holding a range, and a rank never runs a cell twice.
  /// count == 0 means nothing for `holder` now: done, interrupted, or it
  /// still holds an outstanding range (ask again once it is folded).
  [[nodiscard]] Range grant(int holder);

  /// Folds `results` for cells [first, first + results.size()).  First
  /// write to a slot wins; later duplicates are counted and dropped.
  /// Writes a checkpoint when the cadence says so.
  void submit(std::uint64_t first, std::vector<SimResult> results);

  /// Per-sender monotone sequence guards (same defensive discipline as the
  /// PfsDelta protocol): return false — and the caller drops the frame —
  /// when `seq` does not advance `from`'s last seen sequence.  Pulls and
  /// result batches are independent per-sender streams, so each has its
  /// own guard.
  [[nodiscard]] bool advance_pull_seq(int from, std::uint32_t seq);
  [[nodiscard]] bool advance_result_seq(int from, std::uint32_t seq);

  [[nodiscard]] bool done() const;
  [[nodiscard]] bool interrupted() const;
  [[nodiscard]] std::uint64_t completed_cells() const;
  [[nodiscard]] std::uint64_t restored_cells() const noexcept {
    return restored_;
  }
  [[nodiscard]] std::uint64_t duplicate_cells() const;
  [[nodiscard]] std::uint64_t grants() const;
  [[nodiscard]] std::uint64_t regrants() const;

  /// Final checkpoint write (no cadence check); no-op without a path.
  void checkpoint_now();

  /// Moves the result grid out (call once, after the sweep drained).
  [[nodiscard]] std::vector<SimResult> take_results();

 private:
  void checkpoint_locked();
  [[nodiscard]] bool interrupted_locked() const;

  mutable std::mutex mutex_;
  const std::uint64_t total_;
  const std::uint64_t signature_;
  const SweepServiceOptions options_;
  const int workers_;

  std::vector<SimResult> results_;
  std::vector<std::uint8_t> completed_;  ///< the completed-cell bitmap (0/1)
  std::uint64_t completed_count_ = 0;
  std::uint64_t restored_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t regrants_ = 0;
  std::uint64_t cursor_ = 0;  ///< next never-granted cell
  /// A granted-but-incomplete range and the ranks it was granted to.
  struct Outstanding {
    Range range;
    std::vector<int> holders;
  };
  /// Oldest first (tail re-grant order).
  std::vector<Outstanding> outstanding_;
  std::uint64_t last_checkpoint_at_ = 0;
  std::vector<std::uint32_t> last_pull_seq_;    ///< per-rank seq guards
  std::vector<std::uint32_t> last_result_seq_;
};

/// FNV-1a identity of a sweep grid: per-point policy, dataset identity and
/// the config fields that shape the result.  A checkpoint records it so a
/// resume against a different grid fails loudly instead of folding wrong
/// cells.
[[nodiscard]] std::uint64_t sweep_grid_signature(
    const std::vector<SweepPoint>& points);

/// Order-sensitive FNV-1a digest over the wire encoding of every result —
/// the CI currency for "bit-identical to serial".
[[nodiscard]] std::uint64_t sweep_results_digest(
    const std::vector<SimResult>& results);

/// Runs `points` through the sweep service.  `transport` may be null (or a
/// 1-rank world): the run stays in-process but keeps the scheduler path,
/// including checkpoint/resume.  With a world, every rank of the world
/// must call this collectively; rank 0 serves grants from the scheduler
/// while also working the grid itself, other ranks pull grants and push
/// their results until told done.  Rank 0 returns the full ordered
/// results; other ranks return an empty grid.
[[nodiscard]] SweepServiceReport run_sweep_service(
    net::Transport* transport, const std::vector<SweepPoint>& points,
    const SweepServiceOptions& options = {});

/// Generic-cell variant (tests): `evaluate(i)` must be a pure function of
/// i, safe to call concurrently for distinct i on any rank.
[[nodiscard]] SweepServiceReport run_sweep_service(
    net::Transport* transport, std::uint64_t total_cells,
    const std::function<SimResult(std::uint64_t)>& evaluate,
    std::uint64_t grid_signature, const SweepServiceOptions& options = {});

}  // namespace nopfs::sim

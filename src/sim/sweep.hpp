#pragma once
// Parallel sweep engine (DESIGN.md Sec. 6).
//
// The paper's figures are grids: policy x system scale x dataset x batch
// size, each cell one independent simulate() call.  SweepRunner evaluates
// those cells concurrently on the cell-pull loop (pull_cells) while
// guaranteeing the determinism contract (DESIGN.md Sec. 6.1):
//
//   * every cell constructs a fresh Policy and runs the unmodified serial
//     simulate(), so a cell's SimResult is a pure function of
//     (config, dataset, policy name);
//   * results are returned in submission order, indexed like the input;
//   * the only cross-cell shared state is the EpochOrderCache, which is
//     value-transparent — a hit and a regeneration yield the same bytes.
//
// Together these make the output byte-identical for any thread count,
// including 1 (which runs inline on the calling thread).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/policy.hpp"

namespace nopfs::sim {

/// One grid point of a sweep.
struct SweepPoint {
  SimConfig config;
  const data::Dataset* dataset = nullptr;
  std::string policy;  ///< make_policy() name
};

struct SweepOptions {
  /// 0 = auto: NOPFS_SWEEP_THREADS env var, else hardware concurrency.
  int num_threads = 0;
};

/// Guided self-scheduling grant size of the distributed sweep service
/// (DESIGN.md Sec. 10): half the per-worker fair share of what is left,
/// never below `min_grant`.  Early grants are large (few scheduling
/// events), tail grants shrink toward min_grant so a rank that dies
/// holding one strands little work.
[[nodiscard]] std::size_t sweep_grant_size(std::size_t remaining, int workers,
                                           std::size_t min_grant = 1);

/// A contiguous run of grid cells; count == 0 means "no more work".
struct CellRange {
  std::uint64_t first = 0;
  std::uint32_t count = 0;
};

/// What the cell-pull loop works on and where its results go.
struct CellPull {
  /// The next range to work.  Called by one thread at a time, while the
  /// other threads keep evaluating the cells they hold.
  std::function<CellRange()> next_range;
  /// Evaluates one cell; called concurrently for distinct cells.
  std::function<SimResult(std::uint64_t)> evaluate;
  /// Per-cell sink: receives each cell on the thread that evaluated it.
  std::function<void(std::uint64_t, SimResult&&)> on_cell;
  /// Per-range sink (instead of on_cell): receives a range's results in
  /// cell order on the thread that finished its last cell.
  std::function<void(const CellRange&, std::vector<SimResult>&&)> on_range;
};

/// The cell-pull loop (DESIGN.md Sec. 10.1): `threads` threads (the caller
/// is one of them) each take one cell at a time from the current range;
/// the thread that finds it empty asks next_range() for the next one.  An
/// empty range ends the loop only when it was asked for with no cell in
/// flight; otherwise the loop first drains the cells in flight (their
/// sinks included) and asks once more, so a source whose answer depends on
/// the results already delivered sees them all.  The first exception of
/// any callback stops the loop from taking new cells; it is rethrown once
/// the cells in flight drained.  A host with a single hardware thread runs
/// everything inline on the caller.  Returns the number of cells evaluated.
std::uint64_t pull_cells(int threads, const CellPull& pull);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }

  /// Evaluates every grid point; results[i] corresponds to points[i].
  /// Throws (after the cells in flight drain) if any cell throws.
  [[nodiscard]] std::vector<SimResult> run(const std::vector<SweepPoint>& points) const;

  /// Generic variant for cells that need custom policy construction:
  /// `evaluate(i)` must be safe to call concurrently for distinct i.
  [[nodiscard]] std::vector<SimResult> run(
      std::size_t count, const std::function<SimResult(std::size_t)>& evaluate) const;

 private:
  int num_threads_;
};

}  // namespace nopfs::sim

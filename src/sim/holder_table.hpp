#pragma once
// HolderTable: compact cluster-wide cache map for the simulator.
//
// For each sample it stores up to K holder entries (worker, storage class,
// cached flag) in a flat array — K = min(E, kMaxHolders) bounds the number
// of distinct workers that can plan to cache a sample, because a sample is
// accessed exactly once per epoch and policies only cache samples a worker
// actually accesses.  The flat layout keeps multi-ten-million-sample
// simulations (ImageNet-22k) in a few hundred MB.
//
// Entry encoding (uint32): owner (24 bits) | class (4 bits) | cached (1).

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace nopfs::sim {

/// What one scan of a sample's holder row says to worker `self`.
struct HolderLookup {
  int self_class = -1;       ///< class of self's entry (planned or cached), -1: none
  bool self_cached = false;  ///< self's entry is materialized
  int self_slot = -1;        ///< slot of self's entry, for mark_cached_at()
  int remote_class = -1;     ///< fastest cached copy on a worker != self, -1: none
  int remote_peer = -1;      ///< that copy's holder; ties go to the first slot
};

class HolderTable {
 public:
  static constexpr int kMaxHolders = 16;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  HolderTable() = default;

  /// `num_samples` = F; `holders_per_sample` = K (clamped to kMaxHolders).
  HolderTable(std::uint64_t num_samples, int holders_per_sample);

  /// Registers that `worker` plans to cache `sample` in `storage_class`.
  /// Returns false if the sample's holder slots are full (rare; the entry
  /// is dropped, which is a pessimization, never an error).
  bool add(data::SampleId sample, int worker, int storage_class);

  /// Marks `worker`'s copy of `sample` as materialized.
  void mark_cached(data::SampleId sample, int worker);

  /// Marks every registered holder entry cached (preloading policies).
  void mark_all_cached();

  /// Marks the entry in `slot` of `sample`'s row cached; `slot` comes from
  /// lookup(), so no second scan of the row is needed.
  void mark_cached_at(data::SampleId sample, int slot) {
    const std::uint64_t row = sample * static_cast<std::uint64_t>(slots_);
    table_[row + static_cast<std::uint64_t>(slot)] |= kCachedBit;
  }

  /// Hints the CPU to load `sample`'s row ahead of a lookup() or add().
  void prefetch(data::SampleId sample) const {
    __builtin_prefetch(&table_[sample * static_cast<std::uint64_t>(slots_)]);
  }

  /// True if any worker registered a (planned) copy of `sample`.
  [[nodiscard]] bool has_any(data::SampleId sample) const;

  /// The one read query: `self`'s own entry and the fastest cached copy on
  /// any other worker, from a single scan of `sample`'s row.
  [[nodiscard]] HolderLookup lookup(data::SampleId sample, int self) const;

  [[nodiscard]] std::uint64_t num_samples() const noexcept { return num_samples_; }
  [[nodiscard]] int slots_per_sample() const noexcept { return slots_; }

  /// Total registered entries (diagnostics).
  [[nodiscard]] std::uint64_t total_entries() const noexcept { return entries_; }
  /// Entries dropped because a sample's slots were full.
  [[nodiscard]] std::uint64_t dropped_entries() const noexcept { return dropped_; }

 private:
  static constexpr std::uint32_t kCachedBit = 1u;
  static constexpr int kClassShift = 1;
  static constexpr int kOwnerShift = 5;

  [[nodiscard]] static std::uint32_t encode(int worker, int cls, bool cached) {
    return (static_cast<std::uint32_t>(worker) << kOwnerShift) |
           (static_cast<std::uint32_t>(cls) << kClassShift) | (cached ? kCachedBit : 0);
  }
  [[nodiscard]] static int owner_of(std::uint32_t entry) {
    return static_cast<int>(entry >> kOwnerShift);
  }
  [[nodiscard]] static int class_of(std::uint32_t entry) {
    return static_cast<int>((entry >> kClassShift) & 0xfu);
  }
  [[nodiscard]] static bool cached(std::uint32_t entry) { return (entry & kCachedBit) != 0; }

  std::uint64_t num_samples_ = 0;
  int slots_ = 0;
  std::vector<std::uint32_t> table_;  ///< flat [sample * slots_ + k]
  std::uint64_t entries_ = 0;
  std::uint64_t dropped_ = 0;
};

// Inline: every simulated access of a caching policy runs it.
inline HolderLookup HolderTable::lookup(data::SampleId sample, int self) const {
  const std::uint32_t* row = &table_[sample * static_cast<std::uint64_t>(slots_)];
  HolderLookup out;
  for (int k = 0; k < slots_ && row[k] != kEmpty; ++k) {
    const std::uint32_t entry = row[k];
    const int cls = class_of(entry);
    if (owner_of(entry) == self) {
      out.self_class = cls;
      out.self_cached = cached(entry);
      out.self_slot = k;
    } else if (cached(entry) && (out.remote_class < 0 || cls < out.remote_class)) {
      out.remote_class = cls;
      out.remote_peer = owner_of(entry);
    }
  }
  return out;
}

}  // namespace nopfs::sim

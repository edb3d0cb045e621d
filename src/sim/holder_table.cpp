#include "sim/holder_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace nopfs::sim {

HolderTable::HolderTable(std::uint64_t num_samples, int holders_per_sample)
    : num_samples_(num_samples),
      slots_(std::clamp(holders_per_sample, 1, kMaxHolders)) {
  table_.assign(num_samples_ * static_cast<std::uint64_t>(slots_), kEmpty);
}

bool HolderTable::add(data::SampleId sample, int worker, int storage_class) {
  if (storage_class < 0 || storage_class > 0xf) {
    throw std::invalid_argument("HolderTable: class out of encodable range");
  }
  auto* row = &table_[sample * static_cast<std::uint64_t>(slots_)];
  for (int k = 0; k < slots_; ++k) {
    if (row[k] == kEmpty) {
      row[k] = encode(worker, storage_class, false);
      ++entries_;
      return true;
    }
    if (owner_of(row[k]) == worker) return false;  // already registered
  }
  ++dropped_;
  return false;
}

void HolderTable::mark_cached(data::SampleId sample, int worker) {
  auto* row = &table_[sample * static_cast<std::uint64_t>(slots_)];
  for (int k = 0; k < slots_; ++k) {
    if (row[k] == kEmpty) return;
    if (owner_of(row[k]) == worker) {
      row[k] |= kCachedBit;
      return;
    }
  }
}

void HolderTable::mark_all_cached() {
  for (auto& entry : table_) {
    if (entry != kEmpty) entry |= kCachedBit;
  }
}

bool HolderTable::has_any(data::SampleId sample) const {
  return table_[sample * static_cast<std::uint64_t>(slots_)] != kEmpty;
}

}  // namespace nopfs::sim

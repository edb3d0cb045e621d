#pragma once
// On-disk dataset materialization.
//
// The filesystem storage backend and the end-to-end integration tests need
// real files.  The materializer writes an ImageFolder-style layout
// (<root>/<class>/<sample>.bin) with deterministic per-sample content so
// that any read anywhere in the pipeline can be verified byte-for-byte:
// byte b of sample k equals sample_byte(k, b).

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace nopfs::data {

/// Deterministic content byte b of sample k (verifiable reads).
[[nodiscard]] constexpr std::uint8_t sample_byte(SampleId k, std::uint64_t b) noexcept {
  // Cheap mix of sample id and offset; constexpr so tests can table it.
  std::uint64_t x = k * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL + 0x1234567ULL;
  x ^= x >> 29;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 32;
  return static_cast<std::uint8_t>(x);
}

/// Fills `out` with the deterministic content of sample k: out[b] equals
/// sample_byte(k, b).  The loop is vectorized, compiled for several x86-64
/// levels and dispatched on the running CPU; sample_byte() stays the spec.
void fill_sample_content(SampleId k, std::span<std::uint8_t> out) noexcept;

/// Returns true iff `bytes` matches the deterministic content of sample k
/// (compares chunk by chunk against the fill_sample_content kernel).
[[nodiscard]] bool verify_sample_content(SampleId k, std::span<const std::uint8_t> bytes) noexcept;

/// A dataset written to a directory tree, one file per sample.
class MaterializedDataset {
 public:
  /// Writes every sample of `dataset` under `root` (created if missing) in
  /// ImageFolder layout.  Intended for small datasets (tests, examples);
  /// throws std::runtime_error on I/O failure.
  MaterializedDataset(const Dataset& dataset, std::filesystem::path root);

  /// Non-copyable (owns the directory tree while alive).
  MaterializedDataset(const MaterializedDataset&) = delete;
  MaterializedDataset& operator=(const MaterializedDataset&) = delete;

  /// Removes the directory tree unless `keep()` was called.
  ~MaterializedDataset();

  /// Path of sample k's file.
  [[nodiscard]] const std::filesystem::path& path_of(SampleId k) const {
    return paths_.at(k);
  }

  [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }
  [[nodiscard]] std::uint64_t num_samples() const noexcept { return paths_.size(); }

  /// Reads sample k's file fully into a buffer.
  [[nodiscard]] std::vector<std::uint8_t> read(SampleId k) const;

  /// Keeps the directory tree on destruction (for examples that want to
  /// inspect the output).
  void keep() noexcept { keep_ = true; }

 private:
  std::filesystem::path root_;
  std::vector<std::filesystem::path> paths_;
  bool keep_ = false;
};

}  // namespace nopfs::data

#pragma once
// On-disk dataset materialization.
//
// The filesystem storage backend and the end-to-end integration tests need
// real files.  The materializer writes an ImageFolder-style layout
// (<root>/<class>/<sample>.bin) with deterministic per-sample content so
// that any read anywhere in the pipeline can be verified byte-for-byte:
// byte b of sample k equals sample_byte(k, b), a byte of the 64-bit
// sample_word(k, b / 8).

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace nopfs::data {

/// Deterministic content word w of sample k: bytes [8w, 8w + 8) of the
/// sample in little-endian order.  One 64-bit mix of sample id and word
/// index yields 8 content bytes; constexpr so tests can table it.
[[nodiscard]] constexpr std::uint64_t sample_word(SampleId k, std::uint64_t w) noexcept {
  std::uint64_t x = k * 0x9e3779b97f4a7c15ULL + w * 0xbf58476d1ce4e5b9ULL + 0x1234567ULL;
  x ^= x >> 29;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 32;
  return x;
}

/// Deterministic content byte b of sample k (verifiable reads): byte b % 8,
/// counted from the least significant, of sample_word(k, b / 8).
[[nodiscard]] constexpr std::uint8_t sample_byte(SampleId k, std::uint64_t b) noexcept {
  return static_cast<std::uint8_t>(sample_word(k, b / 8) >> (8 * (b % 8)));
}

/// Fills `out` with the deterministic content of sample k: out[b] equals
/// sample_byte(k, b).  One of the detail:: kernels below, picked once per
/// process for the running CPU; sample_byte() stays the spec.
void fill_sample_content(SampleId k, std::span<std::uint8_t> out) noexcept;

/// Returns true iff `bytes` matches the deterministic content of sample k
/// (compares chunk by chunk against the fill_sample_content kernel).
[[nodiscard]] bool verify_sample_content(SampleId k, std::span<const std::uint8_t> bytes) noexcept;

namespace detail {

// The content kernel builds, exposed so that tests can check each one a
// host can run against sample_byte(), not only the one it dispatches to.
// Each fills `out` with sample k's bytes from byte 8 * first_word on; a
// length that is not a multiple of 8 ends in a partial word.

/// The kernel compiled for the target's baseline ISA; runs everywhere.
void fill_content_baseline(SampleId k, std::uint64_t first_word,
                           std::span<std::uint8_t> out) noexcept;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NOPFS_CONTENT_AVX512 1
/// The kernel compiled for x86-64-v4 (AVX-512 F/BW/DQ/VL).  Call it only
/// when the running CPU has all four.
void fill_content_avx512(SampleId k, std::uint64_t first_word,
                         std::span<std::uint8_t> out) noexcept;
#endif

}  // namespace detail

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

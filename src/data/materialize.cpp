#include "data/materialize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::data {

// The kernel stores each content word with memcpy, so native byte order
// must be the spec's little-endian order.
static_assert(std::endian::native == std::endian::little,
              "content words are stored in native order; sample_byte() is little-endian");

namespace {

// sample_word()'s finalizer.
[[gnu::always_inline]] inline std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 29;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 32);
}

// The content kernel: sample k's words from `first_word` on, n bytes in
// all.  It is sample_word() with the word term kept as a running sum (one
// add per word instead of a multiply), which is what lets the loop
// vectorize; the result is bit-identical because both wrap modulo 2^64.
// A start is a word index, so an unaligned start cannot be expressed; a
// length that is not a multiple of 8 ends in a partial word.
[[gnu::always_inline]] inline void fill_loop(SampleId k, std::uint64_t first_word,
                                             std::uint8_t* out, std::size_t n) noexcept {
  constexpr std::uint64_t kWordMul = 0xbf58476d1ce4e5b9ULL;
  std::uint64_t x0 = k * 0x9e3779b97f4a7c15ULL + first_word * kWordMul + 0x1234567ULL;
  const std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t x = mix(x0);
    std::memcpy(out + 8 * i, &x, sizeof x);
    x0 += kWordMul;
  }
  if (const std::size_t tail = n % 8; tail != 0) {
    const std::uint64_t x = mix(x0);
    std::memcpy(out + 8 * words, &x, tail);
  }
}

using FillFn = void (*)(SampleId, std::uint64_t, std::span<std::uint8_t>) noexcept;

#ifdef NOPFS_CONTENT_AVX512
// Picked once at run time.  x86-64-v4 has the 64-bit lane multiply
// (vpmullq) the loop needs; the baseline ISA must emulate it.  AVX2 must
// emulate it too: an AVX2 build of the byte-per-mix kernel did not beat
// the baseline one by more than the run-to-run spread (DESIGN.md Sec.
// 6.4), and none of this kernel has been measured on an AVX2-only host,
// so there is none.
FillFn resolve_fill() noexcept {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    return detail::fill_content_avx512;
  }
  return detail::fill_content_baseline;
}
#else
FillFn resolve_fill() noexcept { return detail::fill_content_baseline; }
#endif

void fill_range(SampleId k, std::uint64_t first_word, std::span<std::uint8_t> out) noexcept {
  static const FillFn fill = resolve_fill();
  fill(k, first_word, out);
}

}  // namespace

namespace detail {

void fill_content_baseline(SampleId k, std::uint64_t first_word,
                           std::span<std::uint8_t> out) noexcept {
  fill_loop(k, first_word, out.data(), out.size());
}

#ifdef NOPFS_CONTENT_AVX512
[[gnu::target("avx512f,avx512bw,avx512dq,avx512vl")]] void fill_content_avx512(
    SampleId k, std::uint64_t first_word, std::span<std::uint8_t> out) noexcept {
  fill_loop(k, first_word, out.data(), out.size());
}
#endif

}  // namespace detail

void fill_sample_content(SampleId k, std::span<std::uint8_t> out) noexcept {
  fill_range(k, 0, out);
}

bool verify_sample_content(SampleId k, std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::size_t kChunk = 4096;
  static_assert(kChunk % 8 == 0, "chunks must start on a content word");
  std::array<std::uint8_t, kChunk> expected{};
  for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, bytes.size() - at);
    fill_range(k, at / 8, std::span(expected).first(n));
    if (std::memcmp(expected.data(), bytes.data() + at, n) != 0) return false;
  }
  return true;
}

MaterializedDataset::MaterializedDataset(const Dataset& dataset, std::filesystem::path root)
    : root_(std::move(root)) {
  namespace fs = std::filesystem;
  fs::create_directories(root_);
  paths_.reserve(dataset.num_samples());
  std::vector<std::uint8_t> buffer;
  for (SampleId k = 0; k < dataset.num_samples(); ++k) {
    const fs::path class_dir = root_ / ("class_" + std::to_string(dataset.class_of(k)));
    if (k < dataset.num_classes()) fs::create_directories(class_dir);
    fs::path file = class_dir / ("sample_" + std::to_string(k) + ".bin");
    const auto bytes = util::mb_to_bytes(dataset.size_mb(k));
    buffer.resize(bytes);
    fill_sample_content(k, buffer);
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("materialize: cannot open " + file.string());
    out.write(reinterpret_cast<const char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
    if (!out) throw std::runtime_error("materialize: short write to " + file.string());
    paths_.push_back(std::move(file));
  }
  util::log_debug("materialized ", dataset.num_samples(), " samples under ", root_.string());
}

MaterializedDataset::~MaterializedDataset() {
  if (keep_) return;
  std::error_code ec;
  std::filesystem::remove_all(root_, ec);
  if (ec) util::log_warn("materialize: cleanup of ", root_.string(), " failed: ", ec.message());
}

std::vector<std::uint8_t> MaterializedDataset::read(SampleId k) const {
  const auto& path = paths_.at(k);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("materialize: cannot open " + path.string());
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("materialize: short read from " + path.string());
  return bytes;
}

}  // namespace nopfs::data

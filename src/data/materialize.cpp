#include "data/materialize.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::data {

namespace {

// The content kernel: bytes [first, first + n) of sample k.  It is
// sample_byte() with the offset term kept as a running sum (one add per
// byte instead of a multiply), which is what lets the loop vectorize; the
// result is bit-identical because both wrap modulo 2^64.
[[gnu::always_inline]] inline void fill_loop(SampleId k, std::uint64_t first,
                                             std::uint8_t* out, std::size_t n) noexcept {
  constexpr std::uint64_t kOffsetMul = 0xbf58476d1ce4e5b9ULL;
  std::uint64_t x0 = k * 0x9e3779b97f4a7c15ULL + first * kOffsetMul + 0x1234567ULL;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = x0 ^ (x0 >> 29);
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 32;
    out[i] = static_cast<std::uint8_t>(x);
    x0 += kOffsetMul;
  }
}

using FillFn = void (*)(SampleId, std::uint64_t, std::uint8_t*, std::size_t) noexcept;

void fill_default(SampleId k, std::uint64_t first, std::uint8_t* out,
                  std::size_t n) noexcept {
  fill_loop(k, first, out, n);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// The same loop compiled for x86-64-v4 (AVX-512 F/BW/DQ/VL), picked once at
// run time: that set has the 64-bit lane multiply (vpmullq) and the
// quadword-to-byte narrowing (vpmovqb) the loop needs.  An AVX2 build of
// the loop, which must emulate both, did not beat the baseline one by more
// than the run-to-run spread (DESIGN.md Sec. 6.4), so there is none.
[[gnu::target("avx512f,avx512bw,avx512dq,avx512vl")]] void fill_avx512(
    SampleId k, std::uint64_t first, std::uint8_t* out, std::size_t n) noexcept {
  fill_loop(k, first, out, n);
}

FillFn resolve_fill() noexcept {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    return fill_avx512;
  }
  return fill_default;
}
#else
FillFn resolve_fill() noexcept { return fill_default; }
#endif

void fill_range(SampleId k, std::uint64_t first, std::span<std::uint8_t> out) noexcept {
  static const FillFn fill = resolve_fill();
  fill(k, first, out.data(), out.size());
}

}  // namespace

void fill_sample_content(SampleId k, std::span<std::uint8_t> out) noexcept {
  fill_range(k, 0, out);
}

bool verify_sample_content(SampleId k, std::span<const std::uint8_t> bytes) noexcept {
  constexpr std::size_t kChunk = 4096;
  std::array<std::uint8_t, kChunk> expected{};
  for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, bytes.size() - at);
    fill_range(k, at, std::span(expected).first(n));
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

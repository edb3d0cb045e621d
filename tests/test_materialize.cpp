// Tests for on-disk dataset materialization and deterministic content.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/materialize.hpp"
#include "util/units.hpp"

namespace nopfs::data {
namespace {

namespace fs = std::filesystem;

DatasetSpec tiny_spec() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.num_samples = 20;
  spec.mean_size_mb = 0.01;  // ~10 KB files
  spec.stddev_size_mb = 0.005;
  spec.num_classes = 4;
  return spec;
}

TEST(SampleContent, DeterministicAndIdDependent) {
  std::vector<std::uint8_t> a(256);
  std::vector<std::uint8_t> b(256);
  fill_sample_content(7, a);
  fill_sample_content(7, b);
  EXPECT_EQ(a, b);
  fill_sample_content(8, b);
  EXPECT_NE(a, b);
  EXPECT_TRUE(verify_sample_content(7, a));
  EXPECT_FALSE(verify_sample_content(9, a));
}

// Golden values of the spec, computed outside this code base from the
// formula: a change of the mix, the word index or the byte lane order
// fails to compile.
static_assert(sample_word(0, 0) == 0xd353e73883e06bb5ULL);
static_assert(sample_word(0, 1) == 0x8f94baf569cd00edULL);
static_assert(sample_word(1, 0) == 0x88b176f0bcb42360ULL);
static_assert(sample_word(1, 1) == 0x793b162a45f9ddc1ULL);
static_assert(sample_word(1ULL << 63, 0) == 0xa0182ee4f0aba269ULL);
static_assert(sample_word(1ULL << 63, 1) == 0x5c5902a1ba00b8b9ULL);
static_assert(sample_byte(0, 0) == 0xb5 && sample_byte(0, 7) == 0xd3);
static_assert(sample_byte(0, 8) == 0xed && sample_byte(0, 15) == 0x8f);
static_assert(sample_byte(1, 0) == 0x60 && sample_byte(1, 7) == 0x88);
static_assert(sample_byte(1, 8) == 0xc1 && sample_byte(1, 15) == 0x79);
static_assert(sample_byte(1ULL << 63, 0) == 0x69 && sample_byte(1ULL << 63, 7) == 0xa0);
static_assert(sample_byte(1ULL << 63, 8) == 0xb9 && sample_byte(1ULL << 63, 15) == 0x5c);

TEST(SampleContent, VerifyDetectsSingleBitFlip) {
  std::vector<std::uint8_t> bytes(128);
  fill_sample_content(3, bytes);
  bytes[100] ^= 1;
  EXPECT_FALSE(verify_sample_content(3, bytes));
  bytes[100] ^= 1;
  // Every byte lane of one content word.
  for (std::size_t lane = 0; lane < 8; ++lane) {
    bytes[64 + lane] ^= 1;
    EXPECT_FALSE(verify_sample_content(3, bytes)) << "lane " << lane;
    bytes[64 + lane] ^= 1;
  }
  EXPECT_TRUE(verify_sample_content(3, bytes));
  // The last byte of a partial tail word, for every tail length.
  for (std::size_t n = 129; n <= 135; ++n) {
    std::vector<std::uint8_t> tailed(n);
    fill_sample_content(3, tailed);
    EXPECT_TRUE(verify_sample_content(3, tailed)) << n;
    tailed.back() ^= 0x80;
    EXPECT_FALSE(verify_sample_content(3, tailed)) << n;
  }
}

// Ids that exercise every bit of the id term: 0, 1, 2^32 - 1, 2^63, ~0.
constexpr SampleId kKernelIds[] = {0, 1, 0xffffffffULL, 1ULL << 63, ~0ULL};

/// Checks `got` byte for byte against the constexpr spec, sample_byte(),
/// as sample k's bytes from word `first_word` on.
void expect_spec_content(SampleId k, std::span<const std::uint8_t> got,
                         std::uint64_t first_word = 0) {
  for (std::uint64_t b = 0; b < got.size(); ++b) {
    if (got[b] != sample_byte(k, 8 * first_word + b)) {
      ADD_FAILURE() << "sample " << k << " word " << first_word << " byte " << b << " of "
                    << got.size();
      return;
    }
  }
}

/// A content kernel under test: fills `out` with sample k's bytes from
/// word `first_word` on.
using Kernel = std::function<void(SampleId, std::uint64_t, std::span<std::uint8_t>)>;

/// The dispatched kernel; it always starts at word 0.
void fill_dispatched(SampleId k, std::uint64_t /*first_word*/, std::span<std::uint8_t> out) {
  fill_sample_content(k, out);
}

// Word starts for the detail:: builds: the first words, one past a 4 KiB
// chunk edge, and one whose byte offset needs 63 bits.
constexpr std::uint64_t kFirstWords[] = {0, 1, 511, (1ULL << 60) + 3};

void expect_every_short_length(const Kernel& fill, std::span<const std::uint64_t> first_words) {
  for (const SampleId k : kKernelIds) {
    for (const std::uint64_t first_word : first_words) {
      for (std::size_t n = 0; n <= 300; ++n) {
        // Guard bytes on both sides catch a write past either end.
        std::vector<std::uint8_t> buffer(n + 2, 0xa5);
        fill(k, first_word, std::span(buffer).subspan(1, n));
        EXPECT_EQ(buffer.front(), 0xa5);
        EXPECT_EQ(buffer.back(), 0xa5);
        expect_spec_content(k, std::span(buffer).subspan(1, n), first_word);
      }
    }
  }
}

void expect_one_mib(const Kernel& fill) {
  std::vector<std::uint8_t> buffer(std::size_t{1} << 20);
  for (const SampleId k : kKernelIds) {
    fill(k, 0, buffer);
    expect_spec_content(k, buffer);
  }
}

void expect_unaligned_destinations(const Kernel& fill) {
  constexpr std::size_t kLength = 1000;
  std::vector<std::uint8_t> buffer(64 + kLength + 64);
  for (const SampleId k : kKernelIds) {
    for (std::size_t offset = 1; offset <= 63; ++offset) {
      std::fill(buffer.begin(), buffer.end(), std::uint8_t{0x5a});
      const std::size_t n = kLength - offset;  // vary the tail as well
      fill(k, 0, std::span(buffer).subspan(offset, n));
      EXPECT_EQ(buffer[offset - 1], 0x5a);
      EXPECT_EQ(buffer[offset + n], 0x5a);
      expect_spec_content(k, std::span(buffer).subspan(offset, n));
    }
  }
}

TEST(SampleContent, KernelMatchesSpecForEveryShortLength) {
  expect_every_short_length(fill_dispatched, std::span<const std::uint64_t>(kFirstWords, 1));
}

TEST(SampleContent, KernelMatchesSpecOverOneMiB) { expect_one_mib(fill_dispatched); }

TEST(SampleContent, KernelMatchesSpecAtUnalignedOffsets) {
  expect_unaligned_destinations(fill_dispatched);
}

// Each kernel build the host can run, not only the one it dispatches to.
void expect_build_matches_spec(const Kernel& fill) {
  expect_every_short_length(fill, kFirstWords);
  expect_one_mib(fill);
  expect_unaligned_destinations(fill);
}

TEST(SampleContent, BaselineKernelMatchesSpec) {
  expect_build_matches_spec(detail::fill_content_baseline);
}

TEST(SampleContent, Avx512KernelMatchesSpec) {
#ifdef NOPFS_CONTENT_AVX512
  __builtin_cpu_init();
  if (!(__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl"))) {
    GTEST_SKIP() << "this CPU lacks AVX-512 F/BW/DQ/VL";
  }
  expect_build_matches_spec(detail::fill_content_avx512);
#else
  GTEST_SKIP() << "no AVX-512 build of the kernel on this target";
#endif
}

TEST(SampleContent, VerifyMatchesSpecAcrossChunkEdges) {
  // verify_sample_content compares 4 KiB at a time; flips on either side
  // of each chunk edge and at both ends must all be caught.
  constexpr std::size_t kLengths[] = {1, 4095, 4096, 4097, 3 * 4096 + 5};
  constexpr std::size_t kFlips[] = {0, 4095, 4096, 8191, 8192};
  for (const std::size_t n : kLengths) {
    std::vector<std::uint8_t> bytes(n);
    fill_sample_content(11, bytes);
    EXPECT_TRUE(verify_sample_content(11, bytes)) << n;
    EXPECT_FALSE(verify_sample_content(12, bytes)) << n;
    std::vector<std::size_t> flips(std::begin(kFlips), std::end(kFlips));
    flips.push_back(n - 1);
    for (const std::size_t at : flips) {
      if (at >= n) continue;
      bytes[at] ^= 0x80;
      EXPECT_FALSE(verify_sample_content(11, bytes)) << n << " flip at " << at;
      bytes[at] ^= 0x80;
    }
  }
  EXPECT_TRUE(verify_sample_content(11, std::span<const std::uint8_t>{}));
}

TEST(Materialize, WritesAllFilesWithCorrectSizes) {
  const Dataset ds = Dataset::synthetic(tiny_spec(), 5);
  const fs::path root = fs::temp_directory_path() / "nopfs_test_mat1";
  {
    MaterializedDataset mat(ds, root);
    EXPECT_EQ(mat.num_samples(), ds.num_samples());
    for (SampleId k = 0; k < ds.num_samples(); ++k) {
      ASSERT_TRUE(fs::exists(mat.path_of(k)));
      EXPECT_EQ(fs::file_size(mat.path_of(k)), util::mb_to_bytes(ds.size_mb(k)));
    }
  }
  // Cleaned up on destruction.
  EXPECT_FALSE(fs::exists(root));
}

TEST(Materialize, ReadsBackVerifiableContent) {
  const Dataset ds = Dataset::synthetic(tiny_spec(), 6);
  const fs::path root = fs::temp_directory_path() / "nopfs_test_mat2";
  MaterializedDataset mat(ds, root);
  for (SampleId k = 0; k < ds.num_samples(); ++k) {
    const auto bytes = mat.read(k);
    EXPECT_TRUE(verify_sample_content(k, bytes)) << "sample " << k;
  }
}

TEST(Materialize, ImageFolderLayout) {
  const Dataset ds = Dataset::synthetic(tiny_spec(), 7);
  const fs::path root = fs::temp_directory_path() / "nopfs_test_mat3";
  MaterializedDataset mat(ds, root);
  // One directory per class that has samples.
  for (SampleId k = 0; k < ds.num_samples(); ++k) {
    const auto parent = mat.path_of(k).parent_path().filename().string();
    EXPECT_EQ(parent, "class_" + std::to_string(ds.class_of(k)));
  }
}

TEST(Materialize, KeepPreservesTree) {
  const Dataset ds = Dataset::synthetic(tiny_spec(), 8);
  const fs::path root = fs::temp_directory_path() / "nopfs_test_mat4";
  {
    MaterializedDataset mat(ds, root);
    mat.keep();
  }
  EXPECT_TRUE(fs::exists(root));
  fs::remove_all(root);
}

}  // namespace
}  // namespace nopfs::data

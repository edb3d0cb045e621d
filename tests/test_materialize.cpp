// Tests for on-disk dataset materialization and deterministic content.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
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

TEST(SampleContent, VerifyDetectsSingleBitFlip) {
  std::vector<std::uint8_t> bytes(128);
  fill_sample_content(3, bytes);
  bytes[100] ^= 1;
  EXPECT_FALSE(verify_sample_content(3, bytes));
}

// Ids that exercise every bit of the id term: 0, 1, 2^32 - 1, 2^63, ~0.
constexpr SampleId kKernelIds[] = {0, 1, 0xffffffffULL, 1ULL << 63, ~0ULL};

/// Checks `got` byte for byte against the constexpr spec, sample_byte().
void expect_spec_content(SampleId k, std::span<const std::uint8_t> got) {
  for (std::uint64_t b = 0; b < got.size(); ++b) {
    if (got[b] != sample_byte(k, b)) {
      ADD_FAILURE() << "sample " << k << " byte " << b << " of " << got.size();
      return;
    }
  }
}

TEST(SampleContent, KernelMatchesSpecForEveryShortLength) {
  for (const SampleId k : kKernelIds) {
    for (std::size_t n = 0; n <= 300; ++n) {
      // Guard bytes on both sides catch a write past either end.
      std::vector<std::uint8_t> buffer(n + 2, 0xa5);
      fill_sample_content(k, std::span(buffer).subspan(1, n));
      EXPECT_EQ(buffer.front(), 0xa5);
      EXPECT_EQ(buffer.back(), 0xa5);
      expect_spec_content(k, std::span(buffer).subspan(1, n));
    }
  }
}

TEST(SampleContent, KernelMatchesSpecOverOneMiB) {
  std::vector<std::uint8_t> buffer(std::size_t{1} << 20);
  for (const SampleId k : kKernelIds) {
    fill_sample_content(k, buffer);
    expect_spec_content(k, buffer);
  }
}

TEST(SampleContent, KernelMatchesSpecAtUnalignedOffsets) {
  constexpr std::size_t kLength = 1000;
  std::vector<std::uint8_t> buffer(64 + kLength + 64);
  for (const SampleId k : kKernelIds) {
    for (std::size_t offset = 1; offset <= 63; ++offset) {
      std::fill(buffer.begin(), buffer.end(), std::uint8_t{0x5a});
      const std::size_t n = kLength - offset;  // vary the tail as well
      fill_sample_content(k, std::span(buffer).subspan(offset, n));
      EXPECT_EQ(buffer[offset - 1], 0x5a);
      EXPECT_EQ(buffer[offset + n], 0x5a);
      expect_spec_content(k, std::span(buffer).subspan(offset, n));
    }
  }
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

// Tests for the metadata store and the memory/filesystem storage backends
// (paper Sec. 5.2.2).

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "core/metadata_store.hpp"
#include "core/storage_backend.hpp"
#include "data/materialize.hpp"

namespace nopfs::core {
namespace {

namespace fs = std::filesystem;

TEST(MetadataStore, InsertFindErase) {
  MetadataStore store(2);
  EXPECT_TRUE(store.insert(7, 0, 1.5));
  EXPECT_FALSE(store.insert(7, 1, 1.5));  // duplicate
  EXPECT_TRUE(store.contains(7));
  EXPECT_EQ(store.find(7), std::optional<int>(0));
  EXPECT_EQ(store.find(8), std::nullopt);
  EXPECT_DOUBLE_EQ(store.used_mb(0), 1.5);
  EXPECT_EQ(store.count(0), 1u);
  EXPECT_EQ(store.erase(7), std::optional<int>(0));
  EXPECT_DOUBLE_EQ(store.used_mb(0), 0.0);
  EXPECT_EQ(store.erase(7), std::nullopt);
  EXPECT_EQ(store.total_count(), 0u);
}

TEST(MetadataStore, PerClassAccounting) {
  MetadataStore store(3);
  store.insert(1, 0, 1.0);
  store.insert(2, 1, 2.0);
  store.insert(3, 1, 3.0);
  EXPECT_DOUBLE_EQ(store.used_mb(1), 5.0);
  EXPECT_EQ(store.count(1), 2u);
  EXPECT_EQ(store.total_count(), 3u);
}

TEST(MetadataStore, InvalidClassRejected) {
  MetadataStore store(1);
  EXPECT_THROW(store.insert(1, 5, 1.0), std::out_of_range);
  EXPECT_THROW(store.insert(1, -1, 1.0), std::out_of_range);
  EXPECT_THROW(MetadataStore(-1), std::invalid_argument);
}

TEST(MetadataStore, ThreadSafety) {
  MetadataStore store(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 500; ++i) {
        store.insert(static_cast<data::SampleId>(t * 1000 + i), t % 2, 0.1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(store.total_count(), 2000u);
  EXPECT_NEAR(store.used_mb(0) + store.used_mb(1), 200.0, 1e-6);
}

TEST(MemoryBackend, StoreLoadErase) {
  MemoryBackend backend(1.0);  // 1 MB
  const Bytes bytes = {1, 2, 3, 4};
  EXPECT_TRUE(backend.store(5, bytes));
  EXPECT_FALSE(backend.store(5, bytes));  // duplicate
  EXPECT_TRUE(backend.contains(5));
  const auto shared = backend.share(5);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(*shared, bytes);
  EXPECT_EQ(backend.share(5), shared);  // the stored buffer itself, not a copy
  EXPECT_EQ(backend.share(6), nullptr);
  EXPECT_TRUE(backend.erase(5));
  EXPECT_EQ(backend.share(5), nullptr);
  EXPECT_EQ(*shared, bytes);  // a held buffer outlives erase()
  EXPECT_FALSE(backend.erase(5));
  EXPECT_DOUBLE_EQ(backend.used_mb(), 0.0);
}

TEST(MemoryBackend, CapacityEnforced) {
  MemoryBackend backend(1.0);  // 1 MB
  const Bytes half(512 * 1024, 7);
  EXPECT_TRUE(backend.store(1, half));
  EXPECT_TRUE(backend.store(2, half));
  EXPECT_FALSE(backend.store(3, half));  // over capacity
  EXPECT_NEAR(backend.used_mb(), 1.0, 1e-9);
  backend.erase(1);
  EXPECT_TRUE(backend.store(3, half));
}

TEST(FilesystemBackend, StoreLoadWithMmap) {
  const fs::path dir = fs::temp_directory_path() / "nopfs_test_fsbackend1";
  {
    FilesystemBackend backend(dir, 10.0);
    Bytes bytes(8192);
    data::fill_sample_content(3, bytes);
    EXPECT_TRUE(backend.store(3, bytes));
    EXPECT_TRUE(backend.contains(3));
    const auto loaded = backend.share(3);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(*loaded, bytes);
    EXPECT_TRUE(data::verify_sample_content(3, *loaded));
    EXPECT_GT(backend.used_mb(), 0.0);
    EXPECT_TRUE(backend.erase(3));
    EXPECT_EQ(backend.share(3), nullptr);
    EXPECT_EQ(*loaded, bytes);
  }
  EXPECT_FALSE(fs::exists(dir));  // cleaned up
}

TEST(FilesystemBackend, CapacityEnforced) {
  const fs::path dir = fs::temp_directory_path() / "nopfs_test_fsbackend2";
  FilesystemBackend backend(dir, 0.01);  // ~10 KB
  const Bytes big(8 * 1024, 1);
  EXPECT_TRUE(backend.store(1, big));
  EXPECT_FALSE(backend.store(2, big));
}

TEST(FilesystemBackend, DuplicateRejected) {
  const fs::path dir = fs::temp_directory_path() / "nopfs_test_fsbackend3";
  FilesystemBackend backend(dir, 10.0);
  const Bytes bytes(128, 9);
  EXPECT_TRUE(backend.store(1, bytes));
  EXPECT_FALSE(backend.store(1, bytes));
}

TEST(FilesystemBackend, ConcurrentStoresRespectCapacity) {
  const fs::path dir = fs::temp_directory_path() / "nopfs_test_fsbackend4";
  FilesystemBackend backend(dir, 0.5);  // 512 KB
  const Bytes chunk(64 * 1024, 3);      // 16 chunks max but capacity holds 8
  std::atomic<int> stored{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        if (backend.store(static_cast<data::SampleId>(t * 100 + i), chunk)) ++stored;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(stored.load(), 8);
  EXPECT_LE(backend.used_mb(), 0.5 + 1e-9);
}

TEST(Backends, EmptyPayload) {
  MemoryBackend mem(1.0);
  EXPECT_TRUE(mem.store(1, {}));
  ASSERT_NE(mem.share(1), nullptr);
  EXPECT_TRUE(mem.share(1)->empty());

  const fs::path dir = fs::temp_directory_path() / "nopfs_test_fsbackend5";
  FilesystemBackend fsb(dir, 1.0);
  EXPECT_TRUE(fsb.store(1, {}));
  ASSERT_NE(fsb.share(1), nullptr);
  EXPECT_TRUE(fsb.share(1)->empty());
}

TEST(FilesystemBackend, RemovedOrTruncatedFileIsAbsent) {
  // A file that vanished or shrank behind the backend's back reads as
  // absent; it never faults the copy.
  const fs::path dir = fs::temp_directory_path() / "nopfs_test_fsbackend6";
  FilesystemBackend backend(dir, 1.0);
  const Bytes bytes(4096, 5);
  ASSERT_TRUE(backend.store(1, bytes));
  ASSERT_TRUE(backend.store(2, bytes));
  fs::remove(dir / "1.bin");
  fs::resize_file(dir / "2.bin", 100);
  EXPECT_TRUE(backend.contains(1));
  EXPECT_EQ(backend.share(1), nullptr);
  EXPECT_EQ(backend.share(2), nullptr);
}

}  // namespace
}  // namespace nopfs::core

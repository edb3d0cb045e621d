#pragma once
// Storage backends (paper Sec. 5.2.2): "Storage backends need only
// implement a generic interface, and NoPFS currently supports filesystem-
// and memory-based storage backends, which are sufficient to support most
// storage classes (including RAM, SSDs, and HDDs)."
//
// MemoryBackend holds bytes in an unordered map (RAM classes).
// FilesystemBackend persists one file per sample under a directory and
// reads via mmap, matching the paper's mmap-based filesystem prefetcher.
// Both enforce a capacity and are thread-safe.
//
// Reads hand out shared, immutable buffers (share()): a cache hit copies
// the sample only where its bytes have to move (into a staging slot, or
// onto a socket), never under the backend lock.  A shared buffer stays
// valid after erase() until its last holder drops it.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"

namespace nopfs::core {

using Bytes = std::vector<std::uint8_t>;

/// Generic storage backend interface for one storage class.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Stores a copy of `bytes` under `sample`.  Returns false if the sample
  /// is already present or capacity would be exceeded.
  virtual bool store(data::SampleId sample, std::span<const std::uint8_t> bytes) = 0;

  /// The full content of `sample`, or nullptr if absent.  The buffer is
  /// immutable and outlives erase() while the caller holds it.
  [[nodiscard]] virtual std::shared_ptr<const Bytes> share(
      data::SampleId sample) const = 0;

  [[nodiscard]] virtual bool contains(data::SampleId sample) const = 0;

  /// Removes `sample`; returns true if it was present.
  virtual bool erase(data::SampleId sample) = 0;

  [[nodiscard]] virtual double used_mb() const = 0;
  [[nodiscard]] virtual double capacity_mb() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// RAM-class backend.
class MemoryBackend final : public StorageBackend {
 public:
  explicit MemoryBackend(double capacity_mb);

  bool store(data::SampleId sample, std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::shared_ptr<const Bytes> share(data::SampleId sample) const override;
  [[nodiscard]] bool contains(data::SampleId sample) const override;
  bool erase(data::SampleId sample) override;
  [[nodiscard]] double used_mb() const override;
  [[nodiscard]] double capacity_mb() const override { return capacity_mb_; }
  [[nodiscard]] std::string name() const override { return "memory"; }

 private:
  double capacity_mb_;
  mutable std::mutex mutex_;
  std::unordered_map<data::SampleId, std::shared_ptr<const Bytes>> store_;
  double used_mb_ = 0.0;
};

/// SSD/HDD-class backend: one file per sample; share() mmaps the file and
/// copies it into a new buffer.
class FilesystemBackend final : public StorageBackend {
 public:
  /// Files live under `directory` (created if missing).  The directory is
  /// removed on destruction unless keep() is called.
  FilesystemBackend(std::filesystem::path directory, double capacity_mb);
  ~FilesystemBackend() override;

  bool store(data::SampleId sample, std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::shared_ptr<const Bytes> share(data::SampleId sample) const override;
  [[nodiscard]] bool contains(data::SampleId sample) const override;
  bool erase(data::SampleId sample) override;
  [[nodiscard]] double used_mb() const override;
  [[nodiscard]] double capacity_mb() const override { return capacity_mb_; }
  [[nodiscard]] std::string name() const override { return "filesystem"; }

  void keep() noexcept { keep_ = true; }
  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return directory_;
  }

 private:
  [[nodiscard]] std::filesystem::path path_of(data::SampleId sample) const;

  std::filesystem::path directory_;
  double capacity_mb_;
  mutable std::mutex mutex_;
  std::unordered_map<data::SampleId, std::uint64_t> sizes_bytes_;
  double used_mb_ = 0.0;
  bool keep_ = false;
};

}  // namespace nopfs::core

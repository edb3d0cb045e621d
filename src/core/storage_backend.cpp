#include "core/storage_backend.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "util/log.hpp"
#include "util/units.hpp"

namespace nopfs::core {

MemoryBackend::MemoryBackend(double capacity_mb) : capacity_mb_(capacity_mb) {}

bool MemoryBackend::store(data::SampleId sample, std::span<const std::uint8_t> bytes) {
  const double size_mb = util::bytes_to_mb(bytes.size());
  const std::scoped_lock lock(mutex_);
  if (store_.contains(sample)) return false;
  if (used_mb_ + size_mb > capacity_mb_) return false;
  store_.emplace(sample, std::make_shared<const Bytes>(bytes.begin(), bytes.end()));
  used_mb_ += size_mb;
  return true;
}

std::shared_ptr<const Bytes> MemoryBackend::share(data::SampleId sample) const {
  const std::scoped_lock lock(mutex_);
  const auto it = store_.find(sample);
  if (it == store_.end()) return nullptr;
  return it->second;
}

bool MemoryBackend::contains(data::SampleId sample) const {
  const std::scoped_lock lock(mutex_);
  return store_.contains(sample);
}

bool MemoryBackend::erase(data::SampleId sample) {
  const std::scoped_lock lock(mutex_);
  const auto it = store_.find(sample);
  if (it == store_.end()) return false;
  used_mb_ -= util::bytes_to_mb(it->second->size());
  store_.erase(it);
  return true;
}

double MemoryBackend::used_mb() const {
  const std::scoped_lock lock(mutex_);
  return used_mb_;
}

FilesystemBackend::FilesystemBackend(std::filesystem::path directory, double capacity_mb)
    : directory_(std::move(directory)), capacity_mb_(capacity_mb) {
  std::filesystem::create_directories(directory_);
}

FilesystemBackend::~FilesystemBackend() {
  if (keep_) return;
  std::error_code ec;
  std::filesystem::remove_all(directory_, ec);
  if (ec) {
    util::log_warn("FilesystemBackend: cleanup of ", directory_.string(),
                   " failed: ", ec.message());
  }
}

std::filesystem::path FilesystemBackend::path_of(data::SampleId sample) const {
  return directory_ / (std::to_string(sample) + ".bin");
}

bool FilesystemBackend::store(data::SampleId sample,
                              std::span<const std::uint8_t> bytes) {
  const double size_mb = util::bytes_to_mb(bytes.size());
  {
    const std::scoped_lock lock(mutex_);
    if (sizes_bytes_.contains(sample)) return false;
    if (used_mb_ + size_mb > capacity_mb_) return false;
    // Reserve capacity before the (slow) write so concurrent stores cannot
    // collectively overshoot.
    sizes_bytes_.emplace(sample, bytes.size());
    used_mb_ += size_mb;
  }
  const auto path = path_of(sample);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  bool ok = static_cast<bool>(out);
  if (ok) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ok = static_cast<bool>(out);
  }
  if (!ok) {
    const std::scoped_lock lock(mutex_);
    sizes_bytes_.erase(sample);
    used_mb_ -= size_mb;
    util::log_error("FilesystemBackend: failed writing ", path.string());
  }
  return ok;
}

std::shared_ptr<const Bytes> FilesystemBackend::share(data::SampleId sample) const {
  std::uint64_t size = 0;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = sizes_bytes_.find(sample);
    if (it == sizes_bytes_.end()) return nullptr;
    size = it->second;
  }
  // mmap read path, as in the paper's filesystem prefetcher.
  const auto path = path_of(sample);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return nullptr;
  // A file cut short behind our back would fault the copy below (SIGBUS).
  struct stat st {};
  if (::fstat(fd, &st) != 0 || static_cast<std::uint64_t>(st.st_size) != size) {
    ::close(fd);
    return nullptr;
  }
  auto bytes = std::make_shared<Bytes>(size);
  if (size > 0) {
    void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      ::close(fd);
      return nullptr;
    }
    std::memcpy(bytes->data(), mapped, size);
    ::munmap(mapped, size);
  }
  ::close(fd);
  return bytes;
}

bool FilesystemBackend::contains(data::SampleId sample) const {
  const std::scoped_lock lock(mutex_);
  return sizes_bytes_.contains(sample);
}

bool FilesystemBackend::erase(data::SampleId sample) {
  {
    const std::scoped_lock lock(mutex_);
    const auto it = sizes_bytes_.find(sample);
    if (it == sizes_bytes_.end()) return false;
    used_mb_ -= util::bytes_to_mb(it->second);
    sizes_bytes_.erase(it);
  }
  std::error_code ec;
  std::filesystem::remove(path_of(sample), ec);
  return true;
}

double FilesystemBackend::used_mb() const {
  const std::scoped_lock lock(mutex_);
  return used_mb_;
}

}  // namespace nopfs::core

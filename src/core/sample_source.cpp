#include "core/sample_source.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/units.hpp"

namespace nopfs::core {

SyntheticPfsSource::SyntheticPfsSource(const data::Dataset& dataset,
                                       tiers::PfsDevice* pfs)
    : dataset_(dataset), pfs_(pfs) {}

void SampleSource::read_into(int worker, data::SampleId id, std::span<std::uint8_t> out) {
  const Bytes bytes = read(worker, id);
  if (bytes.size() != out.size()) {
    throw std::runtime_error("read_into: read() returned the wrong length");
  }
  std::copy(bytes.begin(), bytes.end(), out.begin());
}

Bytes SyntheticPfsSource::read(int worker, data::SampleId id) {
  Bytes bytes(util::mb_to_bytes(dataset_.size_mb(id)));
  read_into(worker, id, bytes);
  return bytes;
}

void SyntheticPfsSource::read_into(int worker, data::SampleId id,
                                   std::span<std::uint8_t> out) {
  if (pfs_ != nullptr) pfs_->read(worker, dataset_.size_mb(id));
  data::fill_sample_content(id, out);
}

double SyntheticPfsSource::size_mb(data::SampleId id) const {
  return dataset_.size_mb(id);
}

DirectoryPfsSource::DirectoryPfsSource(const data::Dataset& dataset,
                                       const data::MaterializedDataset& files,
                                       tiers::PfsDevice* pfs)
    : dataset_(dataset), files_(files), pfs_(pfs) {}

Bytes DirectoryPfsSource::read(int worker, data::SampleId id) {
  if (pfs_ != nullptr) pfs_->read(worker, dataset_.size_mb(id));
  return files_.read(id);
}

double DirectoryPfsSource::size_mb(data::SampleId id) const {
  return dataset_.size_mb(id);
}

}  // namespace nopfs::core

#pragma once
// SampleSource: where the dataset is at rest.
//
// Per MLPerf-HPC rules (and the paper's setup), training data begins on a
// shared PFS that every worker can read.  SyntheticPfsSource emulates that:
// reads charge the attached contention-aware PfsDevice and the bytes are
// synthesized deterministically (data/materialize.hpp), so reads anywhere
// downstream remain verifiable without terabytes on disk.
// DirectoryPfsSource reads real files (integration tests, examples).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/storage_backend.hpp"
#include "data/dataset.hpp"
#include "data/materialize.hpp"
#include "tiers/device_iface.hpp"

namespace nopfs::core {

/// Read access to the dataset at rest.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Reads sample `id` on behalf of `worker` (blocking; charges PFS time
  /// when a device is attached).
  [[nodiscard]] virtual Bytes read(int worker, data::SampleId id) = 0;

  /// Reads sample `id` into `out`, which must hold exactly its
  /// util::mb_to_bytes(size_mb(id)) bytes.  The default copies read()'s
  /// result and throws std::runtime_error if its length differs; sources
  /// that can produce the bytes in place override it.
  virtual void read_into(int worker, data::SampleId id, std::span<std::uint8_t> out);

  /// Size of sample `id` in MB.
  [[nodiscard]] virtual double size_mb(data::SampleId id) const = 0;
};

/// PFS-device-backed source with deterministic synthetic content.
class SyntheticPfsSource final : public SampleSource {
 public:
  /// `pfs` may be nullptr (untimed unit tests).
  SyntheticPfsSource(const data::Dataset& dataset, tiers::PfsDevice* pfs);

  [[nodiscard]] Bytes read(int worker, data::SampleId id) override;
  /// Charges the PFS, then synthesizes the content straight into `out`.
  void read_into(int worker, data::SampleId id, std::span<std::uint8_t> out) override;
  [[nodiscard]] double size_mb(data::SampleId id) const override;

 private:
  const data::Dataset& dataset_;
  tiers::PfsDevice* pfs_;
};

/// Real-file source over a materialized dataset directory.
class DirectoryPfsSource final : public SampleSource {
 public:
  /// `pfs` may be nullptr to read at native disk speed.
  DirectoryPfsSource(const data::Dataset& dataset,
                     const data::MaterializedDataset& files, tiers::PfsDevice* pfs);

  [[nodiscard]] Bytes read(int worker, data::SampleId id) override;
  [[nodiscard]] double size_mb(data::SampleId id) const override;

 private:
  const data::Dataset& dataset_;
  const data::MaterializedDataset& files_;
  tiers::PfsDevice* pfs_;
};

}  // namespace nopfs::core

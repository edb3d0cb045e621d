// Tests for runtime fetch-source selection: local hits, watermark-gated
// remote fetches, false-positive fallback, and cache-on-miss smoothing
// (paper Secs. 5.1, 5.2.2).

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/fetch_router.hpp"
#include "data/materialize.hpp"
#include "net/sim_transport.hpp"
#include "util/units.hpp"

namespace nopfs::core {
namespace {

struct RouterFixture {
  RouterFixture() : dataset("fix", std::vector<float>(64, 0.001f)), source(dataset, nullptr) {
    // System: 2 workers, one RAM class.
    system.num_workers = 2;
    system.node.network_mbps = 1000.0;
    system.node.compute_mbps = 50.0;
    system.node.preprocess_mbps = 500.0;
    system.node.staging.prefetch_threads = 2;
    system.node.staging.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
    system.node.staging.write_mbps = system.node.staging.read_mbps;
    tiers::StorageClassParams ram;
    ram.name = "ram";
    ram.capacity_mb = 100.0;
    ram.prefetch_threads = 2;
    ram.read_mbps = util::ThroughputCurve({{0, 0}, {2, 4000}});
    ram.write_mbps = ram.read_mbps;
    system.node.classes = {ram};
  }

  /// Builds router for rank 0; `plans` must have 2 entries.  It reads the
  /// synthetic `source` unless `pfs` names another one.
  std::unique_ptr<FetchRouter> make_router(std::vector<CachePlan> plans,
                                           RouterOptions options,
                                           net::Transport* transport,
                                           SampleSource* pfs = nullptr) {
    model = std::make_unique<PerfModel>(system);
    self_plan = plans[0];
    locations = LocationIndex(plans, 0);
    readiness = RemoteReadiness(plans);
    metadata = std::make_unique<MetadataStore>(1);
    backends.clear();
    backends.push_back(std::make_unique<MemoryBackend>(100.0));
    return std::make_unique<FetchRouter>(0, *model, self_plan, locations, readiness,
                                         *metadata, backends,
                                         pfs != nullptr ? *pfs : source, transport,
                                         nullptr, options);
  }

  static CachePlan plan_with(std::initializer_list<data::SampleId> samples) {
    CachePlan plan;
    plan.per_class.resize(1);
    for (const auto sample : samples) {
      plan.per_class[0].samples.push_back(sample);
      plan.class_of[sample] = 0;
    }
    return plan;
  }

  tiers::SystemParams system;
  data::Dataset dataset;
  SyntheticPfsSource source;
  std::unique_ptr<PerfModel> model;
  CachePlan self_plan;
  LocationIndex locations;
  RemoteReadiness readiness;
  std::unique_ptr<MetadataStore> metadata;
  std::vector<std::unique_ptr<StorageBackend>> backends;
};

/// fetch_into a fresh buffer of the sample's size (prefilled with 0xee, so
/// bytes the fetch leaves unwritten show up in content checks).
Bytes fetch_bytes(FetchRouter& router, data::SampleId sample, double size_mb) {
  Bytes bytes(util::mb_to_bytes(size_mb), 0xee);
  router.fetch_into(sample, size_mb, bytes);
  return bytes;
}

TEST(RemoteReadiness, PositionAndHeuristic) {
  CachePlan peer;
  peer.per_class.resize(1);
  peer.per_class[0].samples = {10, 20, 30};
  peer.class_of = {{10, 0}, {20, 0}, {30, 0}};
  const RemoteReadiness readiness({CachePlan{}, peer});
  EXPECT_EQ(readiness.position(1, 0, 20), 1);
  EXPECT_EQ(readiness.position(1, 0, 99), -1);
  EXPECT_EQ(readiness.position(0, 0, 10), -1);
  // Heuristic: peer likely cached position 1 only once self progress > 1.
  EXPECT_FALSE(readiness.likely_cached(1, 0, 20, 0));
  EXPECT_FALSE(readiness.likely_cached(1, 0, 20, 1));
  EXPECT_TRUE(readiness.likely_cached(1, 0, 20, 2));
}

TEST(FetchRouter, PfsFallbackWhenNothingCached) {
  RouterFixture fix;
  auto router = fix.make_router({RouterFixture::plan_with({}), RouterFixture::plan_with({})},
                                RouterOptions{}, nullptr);
  const Bytes bytes = fetch_bytes(*router, 5, fix.dataset.size_mb(5));
  EXPECT_TRUE(data::verify_sample_content(5, bytes));
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
}

TEST(FetchRouter, LocalHitAfterCached) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({5}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  // First fetch: PFS + cache-on-miss into the planned class.
  (void)fetch_bytes(*router, 5, fix.dataset.size_mb(5));
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
  EXPECT_TRUE(fix.metadata->contains(5));
  // Second fetch: local.
  const Bytes bytes = fetch_bytes(*router, 5, fix.dataset.size_mb(5));
  EXPECT_TRUE(data::verify_sample_content(5, bytes));
  EXPECT_EQ(router->stats().local_fetches.load(), 1u);
}

TEST(FetchRouter, CacheOnMissDisabled) {
  RouterFixture fix;
  RouterOptions options;
  options.cache_on_miss = false;
  auto router = fix.make_router(
      {RouterFixture::plan_with({5}), RouterFixture::plan_with({})}, options, nullptr);
  (void)fetch_bytes(*router, 5, fix.dataset.size_mb(5));
  EXPECT_FALSE(fix.metadata->contains(5));
}

TEST(FetchRouter, UnplannedSampleNotCached) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({1}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  (void)fetch_bytes(*router, 9, fix.dataset.size_mb(9));
  EXPECT_FALSE(fix.metadata->contains(9));
}

TEST(FetchRouter, RemoteFetchThroughTransport) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  // Peer 1 serves sample 7.
  Bytes payload(util::mb_to_bytes(fix.dataset.size_mb(7)));
  data::fill_sample_content(7, payload);
  transports[1]->set_serve_handler(
      [payload = std::make_shared<const Bytes>(payload)](
          std::uint64_t id) -> std::shared_ptr<const Bytes> {
        if (id == 7) return payload;
        return nullptr;
      });

  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  // Watermark heuristic: peer plan has sample 7 at position 0; our class-0
  // progress must exceed 0 for the remote to count as ready.
  router->note_class_progress(0);
  const Bytes bytes = fetch_bytes(*router, 7, fix.dataset.size_mb(7));
  EXPECT_TRUE(data::verify_sample_content(7, bytes));
  EXPECT_EQ(router->stats().remote_fetches.load(), 1u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 0u);
}

TEST(FetchRouter, WatermarkGatesRemote) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  transports[1]->set_serve_handler(
      [](std::uint64_t) { return std::make_shared<const Bytes>(Bytes{1}); });
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  // No local progress yet -> heuristic says peer has not prefetched -> PFS.
  (void)fetch_bytes(*router, 7, fix.dataset.size_mb(7));
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
  EXPECT_EQ(router->stats().remote_fetches.load(), 0u);
}

TEST(FetchRouter, RemoteMissFallsBackToPfs) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  // Peer claims nothing despite the plan (prefetcher hasn't fetched yet):
  // the heuristic's false positive.
  transports[1]->set_serve_handler([](std::uint64_t) { return nullptr; });
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, RouterOptions{},
      transports[0].get());
  router->note_class_progress(0);
  const Bytes bytes = fetch_bytes(*router, 7, fix.dataset.size_mb(7));
  EXPECT_TRUE(data::verify_sample_content(7, bytes));
  EXPECT_EQ(router->stats().remote_misses.load(), 1u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
}

TEST(FetchRouter, RemoteDisabledByOption) {
  RouterFixture fix;
  auto transports = net::make_sim_transports(2);
  transports[1]->set_serve_handler(
      [](std::uint64_t) { return std::make_shared<const Bytes>(Bytes{1}); });
  RouterOptions options;
  options.use_remote = false;
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({7})}, options,
      transports[0].get());
  router->note_class_progress(0);
  (void)fetch_bytes(*router, 7, fix.dataset.size_mb(7));
  EXPECT_EQ(router->stats().remote_fetches.load(), 0u);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 1u);
}

TEST(FetchRouter, LoadLocalServesOnlyCached) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({3}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  EXPECT_EQ(router->load_local(3), nullptr);
  (void)fetch_bytes(*router, 3, fix.dataset.size_mb(3));  // caches it
  const auto bytes = router->load_local(3);
  ASSERT_NE(bytes, nullptr);
  EXPECT_TRUE(data::verify_sample_content(3, *bytes));
  // The serve path hands out the cached buffer itself, not a copy.
  EXPECT_EQ(bytes, fix.backends[0]->share(3));
}

TEST(FetchRouter, ListedSampleItsBackendLostThrowsInsteadOfSpinning) {
  // The metadata lists sample 5 as cached, but its file was deleted behind
  // the backend's back: no source can fill the claim (the sample counts as
  // cached) and nobody else is fetching it, so waiting cannot help.
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({5}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  const auto dir = std::filesystem::temp_directory_path() / "nopfs_test_router_lost";
  auto filesystem = std::make_unique<FilesystemBackend>(dir, 100.0);
  const FilesystemBackend& backend = *filesystem;
  fix.backends[0] = std::move(filesystem);
  const double mb = fix.dataset.size_mb(5);
  (void)fetch_bytes(*router, 5, mb);  // PFS read, cached on the way through
  ASSERT_TRUE(fix.metadata->contains(5));
  std::filesystem::remove(backend.directory() / "5.bin");
  try {
    (void)fetch_bytes(*router, 5, mb);
    FAIL() << "fetch_into returned for a sample no source can produce";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("sample 5 is listed in class 0"),
              std::string::npos)
        << error.what();
  }
}

/// Plain copy of FetchStats counters, for comparing deltas.
struct StatsSnapshot {
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  std::uint64_t pfs = 0;
  std::uint64_t remote_misses = 0;
  double local_mb = 0.0;
  double remote_mb = 0.0;
  double pfs_mb = 0.0;
};

/// The counters of `stats` minus `since`.
StatsSnapshot delta(const FetchStats& stats, const StatsSnapshot& since = {}) {
  StatsSnapshot d;
  d.local = stats.local_fetches.load() - since.local;
  d.remote = stats.remote_fetches.load() - since.remote;
  d.pfs = stats.pfs_fetches.load() - since.pfs;
  d.remote_misses = stats.remote_misses.load() - since.remote_misses;
  d.local_mb = stats.local_mb.load() - since.local_mb;
  d.remote_mb = stats.remote_mb.load() - since.remote_mb;
  d.pfs_mb = stats.pfs_mb.load() - since.pfs_mb;
  return d;
}

enum class FetchPath { kLocalHit, kPfs, kRemoteHit, kShortRemote, kLongRemote, kClaim };

struct PathRun {
  double mb = 0.0;
  Bytes bytes;
  StatsSnapshot delta;
  bool cached = false;
};

/// Fetches sample 7 down `path` on a fresh router and reports the bytes,
/// the stats delta of that one call, and whether the sample ended up in
/// the local cache.
PathRun run_path(FetchPath path) {
  constexpr data::SampleId kId = 7;
  RouterFixture fix;
  const double mb = fix.dataset.size_mb(kId);
  const std::size_t size = util::mb_to_bytes(mb);
  std::size_t served = size;
  if (path == FetchPath::kShortRemote) served = size - 1;
  if (path == FetchPath::kLongRemote) served = size + 1;
  Bytes payload(served);
  data::fill_sample_content(kId, payload);
  auto transports = net::make_sim_transports(2);
  transports[1]->set_serve_handler(
      [payload = std::make_shared<const Bytes>(payload)](
          std::uint64_t id) -> std::shared_ptr<const Bytes> {
        if (id == kId) return payload;
        return nullptr;
      });
  const bool self_plans = path == FetchPath::kLocalHit || path == FetchPath::kClaim;
  const bool peer_plans = path == FetchPath::kRemoteHit ||
                          path == FetchPath::kShortRemote ||
                          path == FetchPath::kLongRemote;
  const CachePlan listed = RouterFixture::plan_with({kId});
  const CachePlan none = RouterFixture::plan_with({});
  auto router = fix.make_router({self_plans ? listed : none, peer_plans ? listed : none},
                                RouterOptions{}, transports[0].get());
  router->note_class_progress(0);  // the peer counts as ready
  if (path == FetchPath::kLocalHit) (void)fetch_bytes(*router, kId, mb);  // warm the cache

  const StatsSnapshot before = delta(router->stats());
  PathRun run;
  run.mb = mb;
  run.bytes = fetch_bytes(*router, kId, mb);
  run.delta = delta(router->stats(), before);
  run.cached = fix.metadata->contains(kId);
  return run;
}

TEST(FetchRouter, FetchIntoRoutesAndCountsEveryPath) {
  for (int p = 0; p <= static_cast<int>(FetchPath::kClaim); ++p) {
    const auto path = static_cast<FetchPath>(p);
    SCOPED_TRACE(p);
    const PathRun run = run_path(path);
    EXPECT_TRUE(data::verify_sample_content(7, run.bytes));

    const StatsSnapshot& d = run.delta;
    EXPECT_EQ(d.local + d.remote + d.pfs, 1u);
    EXPECT_DOUBLE_EQ(d.local_mb + d.remote_mb + d.pfs_mb, run.mb);
    switch (path) {
      case FetchPath::kLocalHit:
        EXPECT_EQ(d.local, 1u);
        EXPECT_TRUE(run.cached);
        break;
      case FetchPath::kPfs:
        EXPECT_EQ(d.pfs, 1u);
        EXPECT_FALSE(run.cached);
        break;
      case FetchPath::kRemoteHit:
        EXPECT_EQ(d.remote, 1u);
        EXPECT_EQ(d.remote_misses, 0u);
        EXPECT_FALSE(run.cached);
        break;
      case FetchPath::kShortRemote:
      case FetchPath::kLongRemote:
        // A payload of the wrong length is a miss, never a partial copy.
        EXPECT_EQ(d.remote_misses, 1u);
        EXPECT_EQ(d.pfs, 1u);
        break;
      case FetchPath::kClaim:
        EXPECT_EQ(d.pfs, 1u);
        EXPECT_TRUE(run.cached);
        break;
    }
  }
}

TEST(FetchRouter, FetchIntoRejectsMisSizedBuffer) {
  RouterFixture fix;
  const CachePlan none = RouterFixture::plan_with({});
  auto router = fix.make_router({none, none}, RouterOptions{}, nullptr);
  const double mb = fix.dataset.size_mb(5);
  Bytes small(util::mb_to_bytes(mb) - 1);
  EXPECT_THROW(router->fetch_into(5, mb, small), std::invalid_argument);
  EXPECT_EQ(router->stats().pfs_fetches.load(), 0u);
}

TEST(SampleSource, ReadIntoMatchesRead) {
  RouterFixture fix;
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "nopfs_test_read_into";
  const data::MaterializedDataset files(fix.dataset, root);
  DirectoryPfsSource directory(fix.dataset, files, nullptr);
  SampleSource* const sources[] = {&fix.source, &directory};
  for (SampleSource* source : sources) {
    for (data::SampleId k = 0; k < fix.dataset.num_samples(); k += 9) {
      const Bytes read = source->read(0, k);
      Bytes into(util::mb_to_bytes(source->size_mb(k)), 0xee);
      source->read_into(0, k, into);
      EXPECT_EQ(read, into) << "sample " << k;
    }
  }
  // The default read_into never copies a payload of the wrong length.
  Bytes wrong(util::mb_to_bytes(fix.dataset.size_mb(3)) + 1);
  EXPECT_THROW(directory.read_into(0, 3, wrong), std::runtime_error);
}

TEST(FetchRouter, SourceErrorReleasesTheClaim) {
  RouterFixture fix;
  const data::MaterializedDataset files(
      fix.dataset, std::filesystem::temp_directory_path() / "nopfs_test_router_truncated");
  const double mb = fix.dataset.size_mb(5);
  std::filesystem::resize_file(files.path_of(5), util::mb_to_bytes(mb) - 1);
  DirectoryPfsSource directory(fix.dataset, files, nullptr);
  auto router = fix.make_router({RouterFixture::plan_with({5}), RouterFixture::plan_with({})},
                                RouterOptions{}, nullptr, &directory);
  // The claim path reads the short file and throws; the claim is released,
  // so later fetches fail the same way instead of waiting for it forever.
  EXPECT_THROW((void)fetch_bytes(*router, 5, mb), std::runtime_error);
  EXPECT_THROW((void)router->prefetch_planned(5, mb), std::runtime_error);
  EXPECT_THROW((void)fetch_bytes(*router, 5, mb), std::runtime_error);
  EXPECT_FALSE(fix.metadata->contains(5));
  EXPECT_EQ(router->stats().pfs_fetches.load(), 0u);
  // Other samples are unaffected.
  EXPECT_TRUE(data::verify_sample_content(6, fetch_bytes(*router, 6, fix.dataset.size_mb(6))));
}

TEST(FetchRouter, ProgressCounters) {
  RouterFixture fix;
  auto router = fix.make_router(
      {RouterFixture::plan_with({}), RouterFixture::plan_with({})}, RouterOptions{},
      nullptr);
  EXPECT_EQ(router->class_progress(0), 0u);
  router->note_class_progress(0);
  router->note_class_progress(0);
  EXPECT_EQ(router->class_progress(0), 2u);
}

}  // namespace
}  // namespace nopfs::core

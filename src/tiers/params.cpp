#include "tiers/params.hpp"

#include "util/units.hpp"

namespace nopfs::tiers {
namespace presets {

namespace {

using util::kGB;
using Curve = util::ThroughputCurve;

/// Memory-like device: throughput scales ~linearly with reader threads.
Curve linear_curve(int threads, double agg_mbps) {
  return Curve({{0.0, 0.0}, {static_cast<double>(threads), agg_mbps}});
}

/// Lassen (Sierra-class CORAL) GPFS large-transfer aggregate bandwidth:
/// ~1.3-1.5 GB/s per client, mildly sublinear toward the ~1.3 TB/s design
/// point.  Small-file behaviour comes from the metadata-op rate (below),
/// calibrated so the model reproduces the paper's crossovers: PyTorch
/// compute-bound through 128 GPUs on ImageNet-1k, ~5.4x NoPFS speedup at
/// 1024 GPUs, and ~2.1x on CosmoFlow's 16.8 MB samples.
Curve lassen_pfs_curve() {
  return Curve({{1, 1'500},
                {8, 11'600},
                {64, 85'000},
                {256, 330'000},
                {1024, 1'300'000}});
}

/// Piz Daint Lustre (Sonexion): ~80 GB/s aggregate bandwidth, op rate
/// calibrated to the paper's 2.2x NoPFS speedup at 256 GPUs.
Curve daint_pfs_curve() {
  return Curve({{1, 1'000},
                {8, 7'200},
                {32, 26'000},
                {128, 62'000},
                {256, 80'000}});
}

StagingParams staging_5gb(int threads, double agg_read_mbps) {
  StagingParams staging;
  staging.capacity_mb = 5.0 * kGB;
  staging.prefetch_threads = threads;
  staging.read_mbps = linear_curve(threads, agg_read_mbps);
  staging.write_mbps = linear_curve(threads, agg_read_mbps);
  return staging;
}

StorageClassParams ram_class(double capacity_mb, int threads, double agg_mbps) {
  StorageClassParams ram;
  ram.name = "ram";
  ram.capacity_mb = capacity_mb;
  ram.prefetch_threads = threads;
  ram.read_mbps = linear_curve(threads, agg_mbps);
  ram.write_mbps = linear_curve(threads, agg_mbps);
  return ram;
}

StorageClassParams ssd_class(double capacity_mb, int threads, double agg_mbps) {
  StorageClassParams ssd;
  ssd.name = "ssd";
  ssd.capacity_mb = capacity_mb;
  ssd.prefetch_threads = threads;
  // SSDs saturate: near-linear up to the configured thread count, then flat.
  ssd.read_mbps = Curve({{0.0, 0.0},
                         {static_cast<double>(threads), agg_mbps},
                         {static_cast<double>(threads) * 4.0, agg_mbps * 1.15}});
  ssd.write_mbps = Curve({{0.0, 0.0},
                          {static_cast<double>(threads), agg_mbps * 0.6},
                          {static_cast<double>(threads) * 4.0, agg_mbps * 0.7}});
  return ssd;
}

}  // namespace

SystemParams sim_cluster(int num_workers) {
  SystemParams sys;
  sys.name = "sim_cluster";
  sys.num_workers = num_workers;
  // Paper Sec. 6.1: r0(8)=111 GB/s, r1(4)=85 GB/s, r2(2)=4 GB/s.
  sys.node.staging = staging_5gb(/*threads=*/8, /*agg=*/111.0 * kGB);
  sys.node.classes.push_back(ram_class(120.0 * kGB, 4, 85.0 * kGB));
  sys.node.classes.push_back(ssd_class(900.0 * kGB, 2, 4.0 * kGB));
  sys.node.network_mbps = 24'000.0;  // b_c = 24 GB/s
  sys.node.compute_mbps = 64.0;      // c
  sys.node.preprocess_mbps = 200.0;  // beta
  // Effective aggregate throughput for *per-sample random small reads*
  // (open + seek + ~0.1 MB read), calibrated so the model reproduces the
  // Fig. 8 policy ratios the paper reports.  The raw IOR-style numbers in
  // Sec. 6.1 (t(4)=1540 MB/s etc.) describe large-transfer bandwidth; under
  // them a 4-worker cluster with c=64 MB/s is compute-bound for every
  // policy, which contradicts the paper's own Fig. 8 — see DESIGN.md Sec. 3.
  sys.pfs.agg_read_mbps = Curve({{1, 120}, {2, 180}, {4, 240}, {8, 280}});
  return sys;
}

SystemParams lassen(int num_workers) {
  SystemParams sys;
  sys.name = "lassen";
  sys.num_workers = num_workers;
  // Sec. 7: per rank (4 ranks/node) 5 GiB staging w/ 8 threads, 25 GiB RAM
  // w/ 4 threads, 300 GiB SSD w/ 2 threads.
  sys.node.staging = staging_5gb(8, 111.0 * kGB);
  sys.node.classes.push_back(ram_class(25.0 * kGB, 4, 85.0 * kGB));
  // 1.6 TB node-local NVMe shared by 4 ranks -> ~1.5 GB/s per rank.
  sys.node.classes.push_back(ssd_class(300.0 * kGB, 2, 1'500.0));
  // ~25 GB/s fat-tree injection per node shared by 4 ranks.
  sys.node.network_mbps = 6'250.0;
  // ResNet-50 on V100 (FP32, batch 120): ~410 samples/s * 0.1077 MB.
  sys.node.compute_mbps = 44.0;
  sys.node.preprocess_mbps = 600.0;
  sys.pfs.agg_read_mbps = lassen_pfs_curve();
  sys.pfs.op_rate_per_s = 80'000.0;  // aggregate metadata ops/s
  return sys;
}

SystemParams piz_daint(int num_workers) {
  SystemParams sys;
  sys.name = "piz_daint";
  sys.num_workers = num_workers;
  // Sec. 7: per node 5 GiB staging w/ 4 threads, 40 GiB RAM w/ 2 threads,
  // no node-local SSD (hardware independence matters here).
  sys.node.staging = staging_5gb(4, 60.0 * kGB);
  sys.node.classes.push_back(ram_class(40.0 * kGB, 2, 40.0 * kGB));
  // Cray Aries dragonfly: ~10 GB/s injection bandwidth per node.
  sys.node.network_mbps = 10'240.0;
  // ResNet-50 on P100 (batch 64): ~250 samples/s * 0.1077 MB.
  sys.node.compute_mbps = 27.0;
  sys.node.preprocess_mbps = 500.0;
  sys.pfs.agg_read_mbps = daint_pfs_curve();
  sys.pfs.op_rate_per_s = 30'000.0;  // aggregate metadata ops/s
  return sys;
}

}  // namespace presets
}  // namespace nopfs::tiers

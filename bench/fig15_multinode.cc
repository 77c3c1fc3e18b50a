// Figure 15: multi-node design — x compute nodes and x memory nodes scale
// together (xCxM), lambda = 8, data grows with the cluster; dLSM vs
// Sherman vs Nova-LSM. Multi-memory-node rows also report the per-node
// READ-verb distribution and its max/mean imbalance ratio.
//
// --placement_ab runs the placement A/B instead: a Zipfian-0.99 read
// phase on 4C4M with the heat rebalancer off vs on (imbalance ratio must
// drop), then kUniformReps interleaved uniform pairs off vs on (p50 must
// not regress). --stats_json writes one record per leg
// (BENCH_placement.json).
//
// Usage: fig15_multinode [--base=N] [--placement_ab] [--zipfian=T]
//                        [--stats_json=PATH]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

// Uniform static/rebalance pairs in the placement A/B. One pair's p50
// delta is noise of either sign (+-20% on a loaded host), so the guard
// compares medians and calls a regression resolved only when the ranges
// do not overlap.
constexpr int kUniformReps = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string NodeDistribution(const ClusterBenchResult& r) {
  std::string out = "[";
  for (size_t i = 0; i < r.node_read_verbs.size(); i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(r.node_read_verbs[i]));
    out.append(buf);
  }
  out.append("]");
  return out;
}

// One leg of the placement A/B; returns the result and logs a record.
ClusterBenchResult PlacementLeg(uint64_t base, double theta, bool rebalance,
                                StatsJsonWriter* json, const char* phase) {
  ClusterBenchConfig config;
  config.system = SystemKind::kDLsm;
  config.compute_nodes = 4;
  config.memory_nodes = 4;
  config.shards_per_compute = 8;
  config.threads_per_compute = 8;
  config.num_keys = base * 4;
  // Smaller tables than the default scale-down: the hot shard then spans
  // ~20 tables, giving the rebalancer migratable units to spread.
  config.memtable_size = 1 << 20;
  config.sstable_size = 1 << 20;
  config.zipfian_theta = theta;
  config.placement_rebalance = rebalance;
  // The scaled-down read phase lasts tens of virtual milliseconds; a 2 ms
  // pass period gives the rebalancer several rounds within it.
  config.placement_rebalance_interval_ns = 2'000'000;
  // First pass settles the layout (heat accrues, tables migrate); the
  // measured second pass sees the rebalanced placement. The static leg
  // runs the same two passes, so both legs measure a warm second pass.
  config.read_passes = 2;
  config.record_latency = true;
  ClusterBenchResult r = RunClusterBench(config);
  if (json != nullptr && json->enabled()) {
    BenchConfig meta;
    meta.system = config.system;
    meta.num_keys = config.num_keys;
    meta.zipfian_theta = theta;
    PhaseResult pr;
    pr.ops = config.num_keys;
    pr.ops_per_sec = r.read_ops_per_sec;
    pr.elapsed_s = r.read_ops_per_sec > 0
                       ? static_cast<double>(config.num_keys) /
                             r.read_ops_per_sec
                       : 0;
    pr.stats = r.stats;
    pr.latency_us = r.read_latency_us;
    json->Add("fig15_placement_ab", SystemName(config.system),
              config.compute_nodes * config.threads_per_compute, phase, meta,
              pr);
  }
  return r;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"base", "placement_ab", "stats_json", "zipfian"});
  uint64_t base = flags.GetInt("base", 50000);
  double theta = flags.GetDouble("zipfian", 0.99);
  StatsJsonWriter json(flags.GetString("stats_json", ""));

  if (flags.GetBool("placement_ab", false)) {
    std::printf("\n=== Placement A/B: 4C4M, lambda=8, heat rebalancer ===\n");
    std::printf("%-22s %12s %10s %10s %10s\n", "leg", "read", "imbalance",
                "migrated", "p50(us)");
    auto row = [&](const char* leg, const ClusterBenchResult& r) {
      std::printf("%-22s %12s %9.2fx %10llu %10.1f\n", leg,
                  FormatThroughput(r.read_ops_per_sec).c_str(),
                  r.read_imbalance,
                  static_cast<unsigned long long>(r.stats.tables_migrated),
                  r.read_p50_us);
      std::printf("  per-node read verbs %s\n", NodeDistribution(r).c_str());
      std::fflush(stdout);
    };
    ClusterBenchResult zoff =
        PlacementLeg(base, theta, false, &json, "zipf_static");
    row("zipf static", zoff);
    ClusterBenchResult zon =
        PlacementLeg(base, theta, true, &json, "zipf_rebalance");
    row("zipf rebalance", zon);
    std::vector<double> static_p50, rebalance_p50;
    for (int rep = 0; rep < kUniformReps; rep++) {
      ClusterBenchResult uoff =
          PlacementLeg(base, 0.0, false, &json, "uniform_static");
      row("uniform static", uoff);
      ClusterBenchResult uon =
          PlacementLeg(base, 0.0, true, &json, "uniform_rebalance");
      row("uniform rebalance", uon);
      static_p50.push_back(uoff.read_p50_us);
      rebalance_p50.push_back(uon.read_p50_us);
    }
    double cut = zon.read_imbalance > 0
                     ? zoff.read_imbalance / zon.read_imbalance
                     : 0;
    double med_off = Median(static_p50), med_on = Median(rebalance_p50);
    double p50_delta =
        med_off > 0 ? (med_on - med_off) / med_off * 100.0 : 0;
    // Every rebalance run slower than every static run.
    bool separated = *std::min_element(rebalance_p50.begin(),
                                       rebalance_p50.end()) >
                     *std::max_element(static_p50.begin(), static_p50.end());
    std::printf("imbalance cut %.2fx  uniform p50 median %.1f -> %.1f us "
                "(%+.2f%%, %d pairs, ranges %s)\n",
                cut, med_off, med_on, p50_delta, kUniformReps,
                separated ? "separated" : "overlap");
    if (!json.Write()) {
      std::fprintf(stderr, "warning: could not write stats json\n");
      return 1;
    }
    // CI guard thresholds: the rebalancer must halve the skew and must
    // not tax the balanced workload — a regression counts only when the
    // median moves > 2% and no rebalance run overlaps the static range.
    bool ok = true;
    if (cut < 2.0) {
      std::fprintf(stderr, "FAIL: imbalance cut %.2fx < 2x\n", cut);
      ok = false;
    }
    if (p50_delta > 2.0 && separated) {
      std::fprintf(stderr,
                   "FAIL: uniform p50 regression %+.2f%% > 2%% with every "
                   "rebalance run slower than every static run\n",
                   p50_delta);
      ok = false;
    }
    return ok ? 0 : 1;
  }

  std::printf("\n=== Figure 15: xCxM scaling, lambda=8 ===\n");
  std::printf("%-10s %8s %10s %16s %16s %10s\n", "system", "nodes", "keys",
              "write", "read", "imbalance");
  for (SystemKind system :
       {SystemKind::kDLsm, SystemKind::kNovaLsm, SystemKind::kSherman}) {
    for (int x : {1, 2, 4, 8}) {
      ClusterBenchConfig config;
      config.system = system;
      config.compute_nodes = x;
      config.memory_nodes = x;
      config.shards_per_compute = 8;
      config.threads_per_compute = 8;
      config.num_keys = base * x;
      ClusterBenchResult r = RunClusterBench(config);
      char imb[24] = "-";
      if (r.read_imbalance > 0) {
        std::snprintf(imb, sizeof(imb), "%.2fx", r.read_imbalance);
      }
      std::printf("%-10s %dC%dM %12llu %16s %16s %10s\n", SystemName(system),
                  x, x, static_cast<unsigned long long>(config.num_keys),
                  FormatThroughput(r.fill_ops_per_sec).c_str(),
                  FormatThroughput(r.read_ops_per_sec).c_str(), imb);
      if (r.node_read_verbs.size() > 1) {
        std::printf("  per-node read verbs %s\n",
                    NodeDistribution(r).c_str());
      }
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

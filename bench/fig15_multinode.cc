// Figure 15: multi-node design — x compute nodes and x memory nodes scale
// together (xCxM), lambda = 8, data grows with the cluster; dLSM vs
// Sherman vs Nova-LSM. Multi-memory-node rows also report the per-node
// READ-verb distribution and its max/mean imbalance ratio.
//
// --placement_ab runs the placement A/B instead: a Zipfian-0.99 read
// phase on 4C4M with the heat rebalancer off vs on (imbalance ratio must
// drop), then kUniformReps interleaved uniform pairs off vs on (p50 must
// not regress). --stats_json writes two records per leg, its fill phase
// ("<leg>_fill") and its measured read pass (BENCH_placement.json).
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

std::string NodeDistribution(const std::vector<uint64_t>& reads) {
  std::string out = "[";
  for (size_t i = 0; i < reads.size(); i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(reads[i]));
    out.append(buf);
  }
  out.append("]");
  return out;
}

// max/mean of the per-node READ verbs: 1.0 = perfectly balanced, 0 = no
// READs.
double Imbalance(const std::vector<uint64_t>& reads) {
  uint64_t sum = 0, mx = 0;
  for (uint64_t r : reads) {
    sum += r;
    mx = std::max(mx, r);
  }
  return sum > 0 ? static_cast<double>(mx) * reads.size() / sum : 0;
}

// A placement A/B leg's measured read pass.
struct Leg {
  PhaseResult read;
  std::vector<uint64_t> node_reads;
};

// One leg of the placement A/B; returns the result and logs a record.
Leg PlacementLeg(uint64_t base, double theta, bool rebalance,
                 StatsJsonWriter* json, const char* phase) {
  BenchConfig config = MultiNodeConfig(SystemKind::kDLsm, 4, 4, base * 4);
  // Smaller tables than the default scale-down: the hot shard then spans
  // ~20 tables, giving the rebalancer migratable units to spread.
  config.memtable_size = 1 << 20;
  config.sstable_size = 1 << 20;
  config.zipfian_theta = theta;
  config.placement_rebalance = rebalance;
  // The scaled-down read phase lasts tens of virtual milliseconds; a 2 ms
  // pass period gives the rebalancer several rounds within it.
  config.placement_rebalance_interval_ns = 2'000'000;
  config.record_latency = true;
  // First pass settles the layout (heat accrues, tables migrate); the
  // measured second pass sees the rebalanced placement. The static leg
  // runs the same two passes, so both legs measure a warm second pass.
  auto r = RunBench(config,
                    {Phase::kFillRandom, Phase::kReadRandom,
                     Phase::kReadRandom});
  const int threads = config.compute_nodes * config.threads;
  json->Add("fig15_placement_ab", SystemName(config.system), threads,
            std::string(phase) + "_fill", config, r[0]);
  json->Add("fig15_placement_ab", SystemName(config.system), threads, phase,
            config, r[2]);
  return {r[2], NodeReadDeltas(r[1], r[2])};
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
    auto row = [&](const char* leg, const Leg& r) {
      std::printf("%-22s %12s %9.2fx %10llu %10.1f\n", leg,
                  FormatThroughput(r.read.ops_per_sec).c_str(),
                  Imbalance(r.node_reads),
                  static_cast<unsigned long long>(r.read.stats.tables_migrated),
                  r.read.latency_us.Median());
      std::printf("  per-node read verbs %s\n",
                  NodeDistribution(r.node_reads).c_str());
      std::fflush(stdout);
    };
    Leg zoff = PlacementLeg(base, theta, false, &json, "zipf_static");
    row("zipf static", zoff);
    Leg zon = PlacementLeg(base, theta, true, &json, "zipf_rebalance");
    row("zipf rebalance", zon);
    std::vector<double> static_p50, rebalance_p50;
    for (int rep = 0; rep < kUniformReps; rep++) {
      Leg uoff = PlacementLeg(base, 0.0, false, &json, "uniform_static");
      row("uniform static", uoff);
      Leg uon = PlacementLeg(base, 0.0, true, &json, "uniform_rebalance");
      row("uniform rebalance", uon);
      static_p50.push_back(uoff.read.latency_us.Median());
      rebalance_p50.push_back(uon.read.latency_us.Median());
    }
    double zon_imbalance = Imbalance(zon.node_reads);
    double cut = zon_imbalance > 0
                     ? Imbalance(zoff.node_reads) / zon_imbalance
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
      BenchConfig config = MultiNodeConfig(system, x, x, base * x);
      auto r = RunBench(config, {Phase::kFillRandom, Phase::kReadRandom});
      std::vector<uint64_t> node_reads = NodeReadDeltas(r[0], r[1]);
      char imb[24] = "-";
      if (Imbalance(node_reads) > 0) {
        std::snprintf(imb, sizeof(imb), "%.2fx", Imbalance(node_reads));
      }
      std::printf("%-10s %dC%dM %12llu %16s %16s %10s\n", SystemName(system),
                  x, x, static_cast<unsigned long long>(config.num_keys),
                  FormatThroughput(r[0].ops_per_sec).c_str(),
                  FormatThroughput(r[1].ops_per_sec).c_str(), imb);
      if (node_reads.size() > 1) {
        std::printf("  per-node read verbs %s\n",
                    NodeDistribution(node_reads).c_str());
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

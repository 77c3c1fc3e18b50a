// Figure 15: multi-node design — x compute nodes and x memory nodes scale
// together (xCxM), lambda = 8, data grows with the cluster; dLSM vs
// Sherman vs Nova-LSM. Multi-memory-node rows also report the per-node
// READ-verb distribution and its max/mean imbalance ratio.
//
// --placement_ab runs the placement A/B guard instead: Zipfian-0.99 and
// uniform read phases on 4C4M with the heat rebalancer off vs on, each leg
// repeated and interleaved (RunAbGuard). The zipfian imbalance ratio must
// drop >= 2x and the uniform p50 must not regress. --stats_json writes two
// records per leg run, its fill phase ("<leg>_fill") and its measured read
// pass (BENCH_placement.json).
//
// Usage: fig15_multinode [--base=N] [--placement_ab] [--zipfian=T]
//                        [--stats_json=PATH]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

std::string NodeDistribution(
    const std::vector<DbStats::NodeIoStats>& nodes) {
  std::string out = "[";
  for (size_t i = 0; i < nodes.size(); i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : " ",
                  static_cast<unsigned long long>(nodes[i].read_verbs));
    out.append(buf);
  }
  out.append("]");
  return out;
}

// max/mean of the per-node READ verbs: 1.0 = perfectly balanced. NaN with
// no READs, so a leg that read nothing fails the placement guard.
double Imbalance(const std::vector<DbStats::NodeIoStats>& nodes) {
  uint64_t sum = 0, mx = 0;
  for (const DbStats::NodeIoStats& n : nodes) {
    sum += n.read_verbs;
    mx = std::max(mx, n.read_verbs);
  }
  return sum > 0 ? static_cast<double>(mx) * nodes.size() / sum : std::nan("");
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"base", "placement_ab", "stats_json", "zipfian"});
  uint64_t base = flags.GetInt("base", 50000);
  double theta = flags.GetDouble("zipfian", 0.99);

  if (flags.GetBool("placement_ab", false)) {
    StatsJsonWriter json(flags.GetString("stats_json", ""));
    auto leg = [&](const char* name, double zipf, bool rebalance) {
      BenchConfig config = MultiNodeConfig(SystemKind::kDLsm, 4, 4, base * 4);
      // Smaller tables than the default scale-down: the hot shard then
      // spans ~20 tables, giving the rebalancer migratable units to spread.
      config.memtable_size = 1 << 20;
      config.sstable_size = 1 << 20;
      config.zipfian_theta = zipf;
      config.placement_rebalance = rebalance;
      // The scaled-down read phase lasts tens of virtual milliseconds; a
      // 2 ms pass period gives the rebalancer several rounds within it.
      config.placement_rebalance_interval_ns = 2'000'000;
      config.record_latency = true;
      // The first read pass settles the layout (heat accrues, tables
      // migrate); the measured second pass sees the rebalanced placement.
      // Static legs run the same two passes.
      return BenchLeg(name, config,
                      {Phase::kFillRandom, Phase::kReadRandom,
                       Phase::kReadRandom},
                      "fig15_placement_ab", &json);
    };
    const std::vector<AbMetric> metrics = {
        {"read ops/s", true, 0,
         [](const PhaseResult& r) { return r.ops_per_sec; }},
        {"imbalance", false, 2,
         [](const PhaseResult& r) { return Imbalance(r.stats.per_node); }},
        {"migrated", false, 0,
         [](const PhaseResult& r) {
           return static_cast<double>(r.stats.tables_migrated);
         }},
        {"op p50 us", false, 2,
         [](const PhaseResult& r) { return r.latency_us.Median(); }},
    };
    std::printf("\n=== Placement A/B: 4C4M, lambda=8, heat rebalancer ===\n");
    // The rebalancer must halve the zipfian skew and must not tax the
    // balanced workload: one uniform pair's p50 delta is noise of either
    // sign (+-20% on a loaded host), so only a > 2% median regression with
    // separated ranges fails.
    return RunAbGuard(
        {leg("zipf_static", theta, false), leg("zipf_rebalance", theta, true),
         leg("uniform_static", 0.0, false),
         leg("uniform_rebalance", 0.0, true)},
        metrics,
        {{AbCheckKind::kThreshold, "imbalance", "zipf_rebalance",
          "zipf_static", 2.0},
         {AbCheckKind::kNotWorse, "op p50 us", "uniform_rebalance",
          "uniform_static", 0.02}},
        &json);
  }

  std::printf("\n=== Figure 15: xCxM scaling, lambda=8 ===\n");
  std::printf("%-10s %8s %10s %16s %16s %10s\n", "system", "nodes", "keys",
              "write", "read", "imbalance");
  for (SystemKind system :
       {SystemKind::kDLsm, SystemKind::kNovaLsm, SystemKind::kSherman}) {
    for (int x : {1, 2, 4, 8}) {
      BenchConfig config = MultiNodeConfig(system, x, x, base * x);
      auto r = RunBench(config, {Phase::kFillRandom, Phase::kReadRandom});
      std::vector<DbStats::NodeIoStats> nodes = PhaseDelta(r, 1).stats.per_node;
      char imb[24] = "-";
      if (Imbalance(nodes) > 0) {
        std::snprintf(imb, sizeof(imb), "%.2fx", Imbalance(nodes));
      }
      std::printf("%-10s %dC%dM %12llu %16s %16s %10s\n", SystemName(system),
                  x, x, static_cast<unsigned long long>(config.num_keys),
                  FormatThroughput(r[0].ops_per_sec).c_str(),
                  FormatThroughput(r[1].ops_per_sec).c_str(), imb);
      if (nodes.size() > 1) {
        std::printf("  per-node read verbs %s\n",
                    NodeDistribution(nodes).c_str());
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

// Figure 12: the impact of near-data compaction — randomfill (normal mode)
// while sweeping the memory node's compaction cores, with different
// front-end writer counts, against compaction on the compute node. Bars
// are annotated with the memory node's CPU utilization, as in the paper.
//
// Usage: fig12_compaction [--keys=N] [--writers=1,4,12] [--cores=1,2,4,8,12]
//                         [--stats_json=FILE]

#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

std::vector<int> ParseList(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"async_write", "budget", "cores", "fault_rate", "fault_seed",
               "keys", "rnr_rate", "stats_json", "verb_stats", "writers"});
  uint64_t keys = flags.GetInt("keys", 150000);
  std::vector<int> writers = ParseList(flags.GetString("writers", "1,4,12"));
  std::vector<int> cores = ParseList(flags.GetString("cores", "1,2,4,8,12"));
  bool async_write = flags.GetBool("async_write", true);
  uint64_t budget = flags.GetInt("budget", 64);
  bool verb_stats = flags.GetBool("verb_stats", false);
  // Deterministic fault injection; --verb_stats then shows per-verb error
  // counts, QP reconnects and retry/timeout totals.
  double fault_rate = flags.GetDouble("fault_rate", 0);
  double rnr_rate = flags.GetDouble("rnr_rate", 0);
  uint64_t fault_seed = flags.GetInt("fault_seed", 1);
  // --stats_json=FILE: machine-readable records (one per cell).
  StatsJsonWriter stats_json(flags.GetString("stats_json", ""));

  std::printf("\n=== Figure 12: near-data compaction, randomfill normal "
              "mode, %llu keys, async_write=%s budget=%llu ===\n",
              static_cast<unsigned long long>(keys),
              async_write ? "on" : "off",
              static_cast<unsigned long long>(budget));
  std::printf("(cells: write throughput @ memory-node CPU utilization)\n");
  std::printf("%-10s", "writers");
  for (int c : cores) std::printf("   %8d-core", c);
  std::printf("        compute-side\n");

  for (int w : writers) {
    std::printf("%-10d", w);
    std::fflush(stdout);
    std::string verbs;
    uint64_t rpc_peak = 0;
    for (int c : cores) {
      BenchConfig config;
      config.threads = w;
      config.num_keys = keys;
      config.memory_cores = c;
      config.compaction_workers = c;
      config.async_write = async_write;
      config.compaction_verb_budget = budget;
      config.memtable_size = 1 << 20;
      config.sstable_size = 1 << 20;
      config.fault_seed = fault_seed;
      config.wr_error_rate = fault_rate;
      config.rnr_delay_rate = rnr_rate;
      config.record_latency = stats_json.enabled();
      auto r = RunBench(config, {Phase::kFillRandom});
      std::printf(" %9s@%3.0f%%",
                  FormatThroughput(r[0].ops_per_sec).c_str(),
                  r[0].memory_cpu_util * 100);
      std::fflush(stdout);
      stats_json.Add("fig12", "dLSM-" + std::to_string(c) + "core", w,
                     "fillrandom", config, r[0]);
      verbs = VerbStatsSummary(r[0].stats);
      rpc_peak = r[0].stats.compaction_rpc_inflight_peak;
    }
    // The last group of bars: compaction executed on the compute node.
    BenchConfig config;
    config.threads = w;
    config.num_keys = keys;
    config.placement = CompactionPlacement::kComputeSide;
    config.async_write = async_write;
    config.memtable_size = 1 << 20;
    config.sstable_size = 1 << 20;
    config.fault_seed = fault_seed;
    config.wr_error_rate = fault_rate;
    config.rnr_delay_rate = rnr_rate;
    config.record_latency = stats_json.enabled();
    auto r = RunBench(config, {Phase::kFillRandom});
    std::printf("   %16s\n", FormatThroughput(r[0].ops_per_sec).c_str());
    std::fflush(stdout);
    stats_json.Add("fig12", "dLSM-compute-side", w, "fillrandom", config,
                   r[0]);
    // Telemetry from the widest-core near-data cell of this row.
    if (verb_stats && !verbs.empty()) {
      std::printf("  [%s | rpc inflight peak %llu]\n", verbs.c_str(),
                  static_cast<unsigned long long>(rpc_peak));
    }
  }
  if (!stats_json.Write()) {
    std::fprintf(stderr, "warning: could not write --stats_json file\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

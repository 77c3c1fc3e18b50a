// Figure 7: random-write throughput vs. front-end threads, all systems.
//   (a) normal mode   — level0_stop_writes_trigger = 36 (write stalls).
//   (b) bulkload mode — trigger = infinity (pure in-memory write path).
//
// Usage: fig7_write [--keys=N] [--threads=1,2,4,8,16] [--mode=normal|bulkload|both]

#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

std::vector<int> ParseThreads(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

void RunMode(bool bulkload, uint64_t keys, const std::vector<int>& threads,
             const std::string& only, bool async_write, bool verb_stats,
             StatsJsonWriter* stats_json) {
  std::vector<SystemKind> systems = {
      SystemKind::kDLsm,       SystemKind::kRocks8K, SystemKind::kRocks2K,
      SystemKind::kMemoryRocks, SystemKind::kNovaLsm,
  };
  if (!bulkload) {
    systems.push_back(SystemKind::kSherman);  // N/A in bulkload (paper).
  }
  if (!only.empty()) {
    std::vector<SystemKind> filtered;
    for (SystemKind sk : systems) {
      if (std::string(SystemName(sk)).find(only) != std::string::npos) {
        filtered.push_back(sk);
      }
    }
    systems = filtered;
  }

  std::printf("\n=== Figure 7(%s): randomfill, %s mode, %llu keys, "
              "async_write=%s ===\n",
              bulkload ? "b" : "a", bulkload ? "bulkload" : "normal",
              static_cast<unsigned long long>(keys),
              async_write ? "on" : "off");
  std::printf("%-22s", "system");
  for (int t : threads) std::printf("%12d-thr", t);
  std::printf("\n");

  for (SystemKind system : systems) {
    std::printf("%-22s", SystemName(system));
    std::fflush(stdout);
    std::string verbs;
    uint64_t rpc_peak = 0;
    double stall_ms = 0;
    for (int t : threads) {
      BenchConfig config;
      config.system = system;
      config.threads = t;
      config.num_keys = keys;
      config.bulkload = bulkload;
      config.async_write = async_write;
      // 1 MB MemTables/SSTables (paper's 64 MB scaled with the dataset):
      // normal mode must feel flush and L0-compaction pressure.
      config.memtable_size = 1 << 20;
      config.sstable_size = 1 << 20;
      config.record_latency = stats_json->enabled();
      auto r = RunBench(config, {Phase::kFillRandom});
      std::printf("%16s", FormatThroughput(r[0].ops_per_sec).c_str());
      std::fflush(stdout);
      stats_json->Add(bulkload ? "fig7b" : "fig7a", SystemName(system), t,
                      "fillrandom", config, r[0]);
      verbs = VerbStatsSummary(r[0].stats);
      rpc_peak = r[0].stats.compaction_rpc_inflight_peak;
      stall_ms = static_cast<double>(r[0].stats.stall_ns) / 1e6;
    }
    std::printf("\n");
    // Per-verb wire telemetry for the last (widest) thread count.
    if (verb_stats && !verbs.empty()) {
      std::printf("  [%s | rpc inflight peak %llu | stall %.1f ms]\n",
                  verbs.c_str(), static_cast<unsigned long long>(rpc_peak),
                  stall_ms);
    }
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"async_write", "keys", "mode", "only", "stats_json", "threads",
               "verb_stats"});
  uint64_t keys = flags.GetInt("keys", 100000);
  std::vector<int> threads =
      ParseThreads(flags.GetString("threads", "1,2,4,8,16"));
  std::string mode = flags.GetString("mode", "both");
  std::string only = flags.GetString("only", "");
  bool async_write = flags.GetBool("async_write", true);
  bool verb_stats = flags.GetBool("verb_stats", false);
  // --stats_json=FILE: machine-readable records (one per cell) with
  // latency percentiles and the full counter/verb dump.
  StatsJsonWriter stats_json(flags.GetString("stats_json", ""));
  if (mode == "normal" || mode == "both") {
    RunMode(false, keys, threads, only, async_write, verb_stats, &stats_json);
  }
  if (mode == "bulkload" || mode == "both") {
    RunMode(true, keys, threads, only, async_write, verb_stats, &stats_json);
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

// Figure 10: mixed read/write throughput at varying read ratios, with
// dLSM-lambda sharding (Sec. VII) against the baselines.
//
// Usage: fig10_mixed [--keys=N] [--threads=8] [--ratios=0,5,50,95,100]
//                    [--zipfian=THETA]

#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

struct Entry {
  SystemKind system;
  int shards;
  const char* label;
};

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"keys", "ratios", "threads", "zipfian"});
  uint64_t keys = flags.GetInt("keys", 100000);
  int threads = static_cast<int>(flags.GetInt("threads", 8));
  std::vector<int> ratios;
  {
    std::stringstream ss(flags.GetString("ratios", "0,5,50,95,100"));
    std::string tok;
    while (std::getline(ss, tok, ',')) ratios.push_back(std::stoi(tok));
  }

  std::vector<Entry> entries = {
      {SystemKind::kDLsm, 1, "dLSM-1"},
      {SystemKind::kDLsm, 2, "dLSM-2"},
      {SystemKind::kDLsm, 8, "dLSM-8"},
      {SystemKind::kRocks8K, 1, "RocksDB-RDMA(8KB)"},
      {SystemKind::kMemoryRocks, 1, "Memory-RocksDB-RDMA"},
      {SystemKind::kNovaLsm, 1, "Nova-LSM"},
      {SystemKind::kSherman, 1, "Sherman"},
  };

  std::printf(
      "\n=== Figure 10: randomreadrandomwrite, %llu keys, %d threads ===\n",
      static_cast<unsigned long long>(keys), threads);
  std::printf("%-22s", "system");
  for (int r : ratios) std::printf("%11d%%rd", r);
  std::printf("\n");

  for (const Entry& e : entries) {
    std::printf("%-22s", e.label);
    std::fflush(stdout);
    for (int ratio : ratios) {
      BenchConfig config;
      config.system = e.system;
      config.shards = e.shards;
      config.threads = threads;
      config.num_keys = keys;
      config.read_ratio = ratio / 100.0;
      // Small MemTables keep L0 churning during the mixed phase — the
      // regime where sub-range parallelism pays (Sec. VII).
      config.memtable_size = 1 << 20;
      config.sstable_size = 1 << 20;
      config.zipfian_theta = flags.GetDouble("zipfian", 0);
      config.mixed_ops = keys;
      auto r = RunBench(config, {Phase::kReadWriteMixed});
      std::printf("%15s", FormatThroughput(r[0].ops_per_sec).c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

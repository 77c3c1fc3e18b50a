// Figure 9: write and read throughput as the data size grows within one
// memory node, plus the remote-memory space usage of each system.
//
// Usage: fig9_datasizes [--base=N] [--steps=4] [--threads=8]

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"base", "steps", "threads"});
  uint64_t base = flags.GetInt("base", 50000);
  int steps = static_cast<int>(flags.GetInt("steps", 4));
  int threads = static_cast<int>(flags.GetInt("threads", 8));

  std::vector<SystemKind> systems = {
      SystemKind::kDLsm, SystemKind::kRocks8K, SystemKind::kMemoryRocks,
      SystemKind::kNovaLsm, SystemKind::kSherman,
  };

  std::printf("\n=== Figure 9: varied data sizes (%d threads) ===\n",
              threads);
  for (SystemKind system : systems) {
    std::printf("\n%s\n", SystemName(system));
    std::printf("%14s %16s %16s\n", "keys", "write", "read");
    uint64_t keys = base;
    for (int s = 0; s < steps; s++, keys *= 2) {
      BenchConfig config;
      config.system = system;
      config.threads = threads;
      config.num_keys = keys;
      config.memtable_size = 1 << 20;
      config.sstable_size = 1 << 20;
      auto r = RunBench(config, {Phase::kFillRandom, Phase::kReadRandom});
      std::printf("%14llu %16s %16s\n",
                  static_cast<unsigned long long>(keys),
                  FormatThroughput(r[0].ops_per_sec).c_str(),
                  FormatThroughput(r[1].ops_per_sec).c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

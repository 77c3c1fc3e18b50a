// Figure 13: the byte-addressable SSTable ablation — dLSM vs dLSM-Block
// (8 KB blocks) on randomfill and randomread.
//
// Usage: fig13_byteaddr [--keys=N] [--threads=8]

#include <cstdio>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"keys", "threads"});
  uint64_t keys = flags.GetInt("keys", 100000);
  int threads = static_cast<int>(flags.GetInt("threads", 8));

  std::printf("\n=== Figure 13: byte-addressable SSTable ablation, "
              "%llu keys, %d threads ===\n",
              static_cast<unsigned long long>(keys), threads);
  std::printf("%-14s %16s %16s %16s\n", "system", "write", "read",
              "read wire MB");
  for (SystemKind system : {SystemKind::kDLsm, SystemKind::kDLsmBlock}) {
    BenchConfig config;
    config.system = system;
    config.threads = threads;
    config.num_keys = keys;
    config.memtable_size = 1 << 20;
    config.sstable_size = 1 << 20;
    auto r = RunBench(config, {Phase::kFillRandom, Phase::kReadRandom});
    std::printf("%-14s %16s %16s %16.1f\n", SystemName(system),
                FormatThroughput(r[0].ops_per_sec).c_str(),
                FormatThroughput(r[1].ops_per_sec).c_str(),
                r[1].wire_bytes / 1e6);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

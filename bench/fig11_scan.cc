// Figure 11: readseq — full-table scan throughput. All LSM systems enable
// chunk prefetching; Sherman walks 1 KB leaves. Nova-LSM is omitted, as in
// the paper ("due to a bug on the range index for Nova-LSM").
//
// Usage: fig11_scan [--keys=N]

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"keys", "verb_stats"});
  uint64_t keys = flags.GetInt("keys", 100000);

  std::vector<SystemKind> systems = {
      SystemKind::kDLsm,        SystemKind::kRocks8K,
      SystemKind::kRocks2K,     SystemKind::kMemoryRocks,
      SystemKind::kSherman,
  };

  std::printf("\n=== Figure 11: readseq full scan, %llu keys ===\n",
              static_cast<unsigned long long>(keys));
  std::printf("%-22s %16s %14s %14s\n", "system", "scan", "entries",
              "wire MB");
  bool verb_stats = flags.GetBool("verb_stats", false);
  for (SystemKind system : systems) {
    BenchConfig config;
    config.system = system;
    config.num_keys = keys;
    auto r = RunBench(config, {Phase::kReadSeq});
    std::printf("%-22s %16s %14llu %14.1f\n", SystemName(system),
                FormatThroughput(r[0].ops_per_sec).c_str(),
                static_cast<unsigned long long>(r[0].ops),
                r[0].wire_bytes / 1e6);
    std::string verbs = VerbStatsSummary(r[0].stats);
    if (verb_stats && !verbs.empty()) std::printf("  [%s]\n", verbs.c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

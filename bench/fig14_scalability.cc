// Figure 14: scalability.
//   (a) 1 compute node, memory nodes 1..16, data grows with the nodes
//       (paper: 50 M -> 800 M keys; scaled here), plus the single-server
//       reference (the dotted line).
//   (b) 1 memory node, compute nodes 1..8, fixed data size.
//
// Usage: fig14_scalability [--sweep=memory|compute|both] [--base=N]

#include <cstdio>
#include <utility>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

// Fill then read; returns {write, read} ops/s.
std::pair<double, double> FillRead(const BenchConfig& config) {
  auto r = RunBench(config, {Phase::kFillRandom, Phase::kReadRandom});
  return {r[0].ops_per_sec, r[1].ops_per_sec};
}

void SweepMemory(uint64_t base_keys) {
  std::printf("\n--- Fig 14(a): 1 compute node, scale out memory nodes ---\n");
  std::printf("%8s %10s %16s %16s %16s %16s\n", "m-nodes", "keys",
              "write", "read", "1-server write", "1-server read");
  for (int m : {1, 2, 4, 8, 16}) {
    BenchConfig config =
        MultiNodeConfig(SystemKind::kDLsm, 1, m, base_keys * m);
    config.shards = 16;  // Enough shards to spread over 16 m.
    auto [write, read] = FillRead(config);

    // Dotted line: the same data held in a single memory node.
    BenchConfig single = config;
    single.memory_nodes = 1;
    auto [single_write, single_read] = FillRead(single);

    std::printf("%8d %10llu %16s %16s %16s %16s\n", m,
                static_cast<unsigned long long>(config.num_keys),
                FormatThroughput(write).c_str(), FormatThroughput(read).c_str(),
                FormatThroughput(single_write).c_str(),
                FormatThroughput(single_read).c_str());
    std::fflush(stdout);
  }
}

void SweepCompute(uint64_t base_keys) {
  std::printf("\n--- Fig 14(b): 1 memory node, scale out compute nodes ---\n");
  std::printf("%8s %16s %16s\n", "c-nodes", "write", "read");
  for (int c : {1, 2, 4, 8}) {
    auto [write, read] =
        FillRead(MultiNodeConfig(SystemKind::kDLsm, c, 1, base_keys));
    std::printf("%8d %16s %16s\n", c, FormatThroughput(write).c_str(),
                FormatThroughput(read).c_str());
    std::fflush(stdout);
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"base", "sweep"});
  uint64_t base = flags.GetInt("base", 50000);
  std::string sweep = flags.GetString("sweep", "both");
  std::printf("\n=== Figure 14: dLSM scalability (CloudLab-style nodes) ===\n");
  if (sweep == "memory" || sweep == "both") SweepMemory(base);
  if (sweep == "compute" || sweep == "both") SweepCompute(base);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

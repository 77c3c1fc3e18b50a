// Figure 14: scalability.
//   (a) 1 compute node, memory nodes 1..16, data grows with the nodes
//       (paper: 50 M -> 800 M keys; scaled here), plus the single-server
//       reference (the dotted line).
//   (b) 1 memory node, compute nodes 1..8, fixed data size.
//
// Usage: fig14_scalability [--sweep=memory|compute|both] [--base=N]

#include <cstdio>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

void SweepMemory(uint64_t base_keys) {
  std::printf("\n--- Fig 14(a): 1 compute node, scale out memory nodes ---\n");
  std::printf("%8s %10s %16s %16s %16s %16s\n", "m-nodes", "keys",
              "write", "read", "1-server write", "1-server read");
  for (int m : {1, 2, 4, 8, 16}) {
    ClusterBenchConfig config;
    config.compute_nodes = 1;
    config.memory_nodes = m;
    config.shards_per_compute = 16;  // Enough shards to spread over 16 m.
    config.threads_per_compute = 8;
    config.num_keys = base_keys * m;
    ClusterBenchResult r = RunClusterBench(config);

    // Dotted line: the same data held in a single memory node.
    ClusterBenchConfig single = config;
    single.memory_nodes = 1;
    ClusterBenchResult s = RunClusterBench(single);

    std::printf("%8d %10llu %16s %16s %16s %16s\n", m,
                static_cast<unsigned long long>(config.num_keys),
                FormatThroughput(r.fill_ops_per_sec).c_str(),
                FormatThroughput(r.read_ops_per_sec).c_str(),
                FormatThroughput(s.fill_ops_per_sec).c_str(),
                FormatThroughput(s.read_ops_per_sec).c_str());
    std::fflush(stdout);
  }
}

void SweepCompute(uint64_t base_keys) {
  std::printf("\n--- Fig 14(b): 1 memory node, scale out compute nodes ---\n");
  std::printf("%8s %16s %16s\n", "c-nodes", "write", "read");
  for (int c : {1, 2, 4, 8}) {
    ClusterBenchConfig config;
    config.compute_nodes = c;
    config.memory_nodes = 1;
    config.shards_per_compute = 8;
    config.threads_per_compute = 8;
    config.num_keys = base_keys;
    ClusterBenchResult r = RunClusterBench(config);
    std::printf("%8d %16s %16s\n", c,
                FormatThroughput(r.fill_ops_per_sec).c_str(),
                FormatThroughput(r.read_ops_per_sec).c_str());
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

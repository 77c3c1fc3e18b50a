// Multi-node deployment (paper Sec. IX, Fig. 5): 2 compute nodes x 2
// memory nodes, lambda = 4 shards per compute node, shards assigned
// round-robin to memory nodes. Client threads run on the compute node that
// owns their keys.
//
// Build & run:  ./build/examples/multi_node

#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/shard.h"
#include "src/sim/sim_env.h"
#include "src/util/random.h"

namespace {

std::string Key(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

}  // namespace

int main() {
  using namespace dlsm;

  constexpr uint64_t kKeys = 40000;
  SimEnv env;

  env.Run(0, [&] {
    ClusterTopology topology;
    topology.compute_nodes = 2;
    topology.memory_nodes = 2;
    topology.compaction_workers_per_memory = 4;

    Options options;
    options.env = &env;
    // Per compute node; its lambda = 4 shards split these (1 MB MemTables
    // and SSTables, a 512 MB flush region each).
    options.shards = 4;
    options.memtable_size = 4 << 20;
    options.sstable_size = 4 << 20;
    options.flush_region_size = 2ull << 30;

    int total_shards = topology.compute_nodes * options.shards;
    std::unique_ptr<Cluster> cluster;
    Status s = Cluster::Create(
        &env, options, topology,
        ShardedDB::UniformDecimalBoundaries(total_shards, 16), &cluster);
    DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());

    std::printf("cluster: %d compute x %d memory, lambda=%d (%d shards)\n",
                topology.compute_nodes, topology.memory_nodes,
                options.shards, total_shards);

    // Writers per compute node, each writing keys its node owns.
    Barrier done(&env, topology.compute_nodes + 1);
    std::vector<ThreadHandle> hs;
    for (int c = 0; c < topology.compute_nodes; c++) {
      uint64_t lo = kKeys * c / topology.compute_nodes;
      uint64_t hi = kKeys * (c + 1) / topology.compute_nodes;
      hs.push_back(env.StartThread(
          cluster->compute_node(c)->env_node(), "loader", [&, c, lo, hi] {
            Random rnd(c);
            std::string value(400, 'v');
            for (uint64_t k = lo; k < hi; k++) {
              DLSM_CHECK(cluster->Put(Key(k), value).ok());
              if ((k & 63) == 0) env.MaybeYield();
            }
            done.Arrive();
          }));
    }
    done.Arrive();
    for (ThreadHandle h : hs) env.Join(h);

    DLSM_CHECK(cluster->Flush().ok());
    DLSM_CHECK(cluster->WaitForBackgroundIdle().ok());

    // Cross-cluster reads routed by key.
    Random rnd(99);
    int found = 0;
    for (int i = 0; i < 1000; i++) {
      std::string value;
      if (cluster->Get(Key(rnd.Uniform(kKeys)), &value).ok()) found++;
    }
    std::printf("read back 1000 random keys: %d found\n", found);

    // Show the shard map.
    for (int shard = 0; shard < total_shards; shard++) {
      std::printf("  shard %d: compute-%d -> memory-%d, L0 files: %d\n",
                  shard, cluster->ComputeOfShard(shard),
                  shard % topology.memory_nodes,
                  cluster->shard_db(shard)->NumFilesAtLevel(0));
    }
    std::printf("virtual time: %.2f ms\n", env.NowNanos() / 1e6);
    DLSM_CHECK(cluster->Close().ok());
  });
  return 0;
}

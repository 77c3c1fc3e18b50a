// Tests for the multi-compute / multi-memory deployment (paper Sec. IX).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/core/cluster.h"
#include "src/core/shard.h"
#include "src/sim/sim_env.h"
#include "src/util/random.h"

namespace dlsm {
namespace {

std::string UKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

void RunClusterTest(int computes, int memories, int lambda,
                    const std::function<void(Cluster*, Env*)>& body) {
  SimEnv env;
  env.Run(0, [&] {
    ClusterTopology topology;
    topology.compute_nodes = computes;
    topology.memory_nodes = memories;
    topology.compaction_workers_per_memory = 2;
    topology.memory_dram = 4ull << 30;

    // Per compute node: each of its lambda shards gets 256 KB MemTables
    // and SSTables and a 128 MB flush region.
    Options options;
    options.env = &env;
    options.shards = lambda;
    options.memtable_size = (256 << 10) * lambda;
    options.estimated_entry_size = 128;
    options.sstable_size = (256 << 10) * lambda;
    options.flush_region_size = (128ull << 20) * lambda;
    options.flush_threads = 2;
    options.compaction_scheduler_threads = 1;

    int total = computes * lambda;
    std::unique_ptr<Cluster> cluster;
    Status s = Cluster::Create(
        &env, options, topology,
        ShardedDB::UniformDecimalBoundaries(total, 16), &cluster);
    ASSERT_TRUE(s.ok()) << s.ToString();
    body(cluster.get(), &env);
    ASSERT_TRUE(cluster->Close().ok());
  });
}

TEST(ClusterTest, RoutesKeysToCorrectShards) {
  RunClusterTest(2, 2, 4, [](Cluster* cluster, Env*) {
    EXPECT_EQ(8, cluster->num_shards());
    // Keys spread across the decimal space land in increasing shards.
    int prev = -1;
    for (int i = 0; i < 8; i++) {
      uint64_t k = i * 1200000000000000ull + 1;
      int shard = cluster->ShardForKey(UKey(k));
      EXPECT_GE(shard, prev);
      prev = shard;
    }
    // Shard ownership follows Fig. 5: shard s on compute s/lambda.
    EXPECT_EQ(0, cluster->ComputeOfShard(0));
    EXPECT_EQ(0, cluster->ComputeOfShard(3));
    EXPECT_EQ(1, cluster->ComputeOfShard(4));
    EXPECT_EQ(1, cluster->ComputeOfShard(7));
  });
}

TEST(ClusterTest, WritesAndReadsAcrossAllShards) {
  RunClusterTest(2, 2, 2, [](Cluster* cluster, Env*) {
    const uint64_t kKeys = 3000;
    const uint64_t kStride = 3000000000000ull;
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          cluster->Put(UKey(i * kStride), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(cluster->Flush().ok());
    ASSERT_TRUE(cluster->WaitForBackgroundIdle().ok());
    for (uint64_t i = 0; i < kKeys; i += 7) {
      std::string value;
      ASSERT_TRUE(cluster->Get(UKey(i * kStride), &value).ok())
          << "key " << i;
      EXPECT_EQ("v" + std::to_string(i), value);
    }
    // Every shard must have received some data.
    for (int s = 0; s < cluster->num_shards(); s++) {
      DbStats stats = cluster->shard_db(s)->GetStats();
      EXPECT_GT(stats.writes, 0u) << "shard " << s << " got no writes";
    }
  });
}

TEST(ClusterTest, ConcurrentClientsOnTheirOwnComputeNodes) {
  RunClusterTest(2, 1, 2, [](Cluster* cluster, Env* env) {
    constexpr uint64_t kPerNode = 2000;
    std::atomic<int> failures{0};
    Barrier done(env, 3);
    for (int c = 0; c < 2; c++) {
      uint64_t lo = c * 5000000000000000ull;
      env->StartThread(cluster->compute_node(c)->env_node(), "client",
                       [&, c, lo] {
          Random rnd(c);
          for (uint64_t i = 0; i < kPerNode; i++) {
            uint64_t k = lo + i * 1000000000ull;
            if (!cluster->Put(UKey(k), "x").ok()) failures++;
          }
          done.Arrive();
        });
    }
    done.Arrive();
    EXPECT_EQ(0, failures.load());
    ASSERT_TRUE(cluster->Flush().ok());
    ASSERT_TRUE(cluster->WaitForBackgroundIdle().ok());
    std::string value;
    EXPECT_TRUE(cluster->Get(UKey(0), &value).ok());
    EXPECT_TRUE(
        cluster->Get(UKey(5000000000000000ull + 1000000000ull), &value).ok());
  });
}

TEST(ClusterTest, MultiGetFansOutToOwningShards) {
  RunClusterTest(2, 2, 2, [](Cluster* cluster, Env*) {
    const uint64_t kKeys = 2000;
    const uint64_t kStride = 4500000000000ull;  // Spans all four shards.
    for (uint64_t i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          cluster->Put(UKey(i * kStride), "v" + std::to_string(i)).ok());
    }
    for (uint64_t i = 0; i < kKeys; i += 5) {
      ASSERT_TRUE(cluster
                      ->shard_db(cluster->ShardForKey(UKey(i * kStride)))
                      ->Delete(WriteOptions(), UKey(i * kStride))
                      .ok());
    }
    ASSERT_TRUE(cluster->Flush().ok());
    ASSERT_TRUE(cluster->WaitForBackgroundIdle().ok());

    // Shard-interleaved batch with absent keys mixed in; answers must
    // match per-key Gets routed shard by shard.
    std::vector<std::string> keys;
    for (int i = static_cast<int>(kKeys) + 30; i >= 0; i -= 3) {
      keys.push_back(UKey(static_cast<uint64_t>(i) * kStride));
    }
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::vector<std::string> values;
    std::vector<Status> statuses;
    cluster->MultiGet(ReadOptions(), slices, &values, &statuses);
    ASSERT_EQ(keys.size(), values.size());
    for (size_t i = 0; i < keys.size(); i++) {
      std::string serial_value;
      Status serial = cluster->Get(keys[i], &serial_value);
      EXPECT_EQ(serial.ok(), statuses[i].ok()) << "key " << keys[i];
      EXPECT_EQ(serial.IsNotFound(), statuses[i].IsNotFound())
          << "key " << keys[i];
      if (serial.ok()) {
        EXPECT_EQ(serial_value, values[i]) << "key " << keys[i];
      }
    }
  });
}

TEST(ClusterTest, SingleNodeDegenerateTopologyWorks) {
  RunClusterTest(1, 1, 1, [](Cluster* cluster, Env*) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(cluster->Put(UKey(i), "v").ok());
    }
    std::string value;
    ASSERT_TRUE(cluster->Get(UKey(250), &value).ok());
    EXPECT_EQ("v", value);
  });
}

}  // namespace
}  // namespace dlsm

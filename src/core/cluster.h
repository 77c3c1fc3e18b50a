// Multi-compute / multi-memory deployment (paper Sec. IX, Fig. 5).
//
// c compute nodes each run one dLSM-lambda engine (a ShardedDB over
// Options::shards range shards, Sec. VII) on top of all m memory nodes.
// Every shard is a complete dLSM instance whose MemTables live on its
// compute node and whose SSTables are placed across the memory nodes;
// single-shard accesses need no cross-node synchronization.

#ifndef DLSM_CORE_CLUSTER_H_
#define DLSM_CORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/core/memory_node_service.h"
#include "src/rdma/fabric.h"

namespace dlsm {

struct ClusterTopology {
  ClusterTopology() {}
  int compute_nodes = 1;
  int memory_nodes = 1;
  int compute_cores = 24;
  int memory_cores = 4;
  int compaction_workers_per_memory = 12;
  size_t compute_dram = 4ull << 30;
  size_t memory_dram = 16ull << 30;
};

/// Owns the whole deployment: fabric, nodes, memory-node services and one
/// engine per compute node, plus key routing.
class Cluster {
 public:
  /// Builds the deployment and opens compute node c's engine through
  /// ShardedDB::Open over every memory node, its lambda = options.shards
  /// shards seeded at placement shard c * lambda. options describes one
  /// compute node: its shards split the MemTable, SSTable, scheduler,
  /// subcompaction and flush-region budgets. boundaries partition the
  /// global key space into compute_nodes * lambda ranges (size = #shards
  /// - 1); compute c owns ranges [c * lambda, (c + 1) * lambda).
  static Status Create(Env* env, const Options& options,
                       const ClusterTopology& topology,
                       std::vector<std::string> boundaries,
                       std::unique_ptr<Cluster>* out);

  ~Cluster();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardForKey(const Slice& key) const;
  /// One shard's engine (a DLsmDB).
  DB* shard_db(int shard) { return shards_[shard]; }
  /// The compute node that owns a shard's MemTables.
  int ComputeOfShard(int shard) const { return shard / lambda_; }
  /// Compute node c's engine: its lambda shards behind one DB.
  DB* compute_db(int c) { return engines_[c].get(); }
  int num_compute_nodes() const { return static_cast<int>(computes_.size()); }
  rdma::Node* compute_node(int i) { return computes_[i]; }
  rdma::Fabric* fabric() { return fabric_.get(); }
  MemoryNodeService* memory_service(int i) { return memories_[i].get(); }
  int num_memory_nodes() const { return static_cast<int>(memories_.size()); }

  /// Convenience: routes a Put/Get to the owning shard.
  Status Put(const Slice& key, const Slice& value) {
    return shards_[ShardForKey(key)]->Put(WriteOptions(), key, value);
  }
  Status Get(const Slice& key, std::string* value) {
    return shards_[ShardForKey(key)]->Get(ReadOptions(), key, value);
  }
  /// Batched point lookup across the whole deployment: keys fan out to
  /// their owning shards and each shard batches its doorbell waves on its
  /// own compute-to-memory link.
  void MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses);

  Status Flush();
  Status WaitForBackgroundIdle();
  /// Closes every engine, then stops the memory services; returns the
  /// first engine's error.
  Status Close();

 private:
  Cluster() = default;

  int lambda_ = 1;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::vector<rdma::Node*> computes_;
  std::vector<std::unique_ptr<MemoryNodeService>> memories_;
  std::vector<std::string> boundaries_;
  std::vector<std::unique_ptr<DB>> engines_;  // One per compute node.
  std::vector<DB*> shards_;                   // Global shard order.
  bool closed_ = false;
};

}  // namespace dlsm

#endif  // DLSM_CORE_CLUSTER_H_

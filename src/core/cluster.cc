#include "src/core/cluster.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dlsm {

Status Cluster::Create(Env* env, const Options& options,
                       const ClusterTopology& topology,
                       std::vector<std::string> boundaries,
                       std::unique_ptr<Cluster>* out) {
  int total_shards = topology.compute_nodes * topology.shards_per_compute;
  if (static_cast<int>(boundaries.size()) != total_shards - 1) {
    return Status::InvalidArgument("boundaries must have #shards-1 entries");
  }
  if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
    return Status::InvalidArgument("boundaries must be sorted");
  }

  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->topology_ = topology;
  cluster->boundaries_ = std::move(boundaries);
  cluster->fabric_ = std::make_unique<rdma::Fabric>(env);

  for (int i = 0; i < topology.compute_nodes; i++) {
    cluster->computes_.push_back(cluster->fabric_->AddNode(
        "compute-" + std::to_string(i), topology.compute_cores,
        topology.compute_dram));
    cluster->flush_pools_.push_back(std::make_unique<ThreadPool>(
        env, cluster->computes_.back()->env_node(), options.flush_threads,
        "flush-c" + std::to_string(i)));
  }
  for (int i = 0; i < topology.memory_nodes; i++) {
    rdma::Node* node = cluster->fabric_->AddNode(
        "memory-" + std::to_string(i), topology.memory_cores,
        topology.memory_dram);
    cluster->memories_.push_back(std::make_unique<MemoryNodeService>(
        cluster->fabric_.get(), node,
        topology.compaction_workers_per_memory));
    cluster->memories_.back()->Start();
  }

  Options shard_options = options;
  shard_options.shards = 1;
  shard_options.env = env;

  // Tables, not shards, are the unit of memory-node placement: every
  // shard sees every memory node and routes each new SSTable by
  // Options::placement_policy, seeded with the global shard index. The
  // default round-robin policy degenerates to the fixed shard->memory
  // assignment of Fig. 5 (shard s's tables all land on memory s%m).
  // Wiring is all-pairs: one RPC client per (compute, memory) pair,
  // shared by that compute node's shards.
  for (int s = 0; s < total_shards; s++) {
    int c = s / topology.shards_per_compute;
    DbDeps deps;
    deps.fabric = cluster->fabric_.get();
    deps.compute = cluster->computes_[c];
    deps.shared_flush_pool = cluster->flush_pools_[c].get();
    for (int m = 0; m < topology.memory_nodes; m++) {
      auto key = std::make_pair(c, m);
      if (cluster->rpcs_.find(key) == cluster->rpcs_.end()) {
        cluster->rpcs_[key] = std::make_unique<remote::RpcClient>(
            cluster->fabric_.get(), cluster->computes_[c],
            cluster->memories_[m]->rpc_server());
      }
      deps.memories.push_back(cluster->memories_[m].get());
      deps.shared_rpcs.push_back(cluster->rpcs_[key].get());
    }
    deps.placement_shard = s;
    DB* db = nullptr;
    DLSM_RETURN_NOT_OK(DLsmDB::Open(shard_options, deps, &db));
    cluster->shards_.emplace_back(db);
  }

  *out = std::move(cluster);
  return Status::OK();
}

Cluster::~Cluster() { Close(); }

int Cluster::ShardForKey(const Slice& key) const {
  auto it = std::upper_bound(
      boundaries_.begin(), boundaries_.end(), key,
      [](const Slice& k, const std::string& b) { return k.compare(b) < 0; });
  return static_cast<int>(it - boundaries_.begin());
}

void Cluster::MultiGet(const ReadOptions& options,
                       std::span<const Slice> keys,
                       std::vector<std::string>* values,
                       std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status::OK());
  std::vector<std::vector<Slice>> shard_keys(shards_.size());
  std::vector<std::vector<size_t>> shard_idx(shards_.size());
  for (size_t i = 0; i < keys.size(); i++) {
    int s = ShardForKey(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_idx[s].push_back(i);
  }
  std::vector<std::string> vals;
  std::vector<Status> stats;
  for (size_t s = 0; s < shards_.size(); s++) {
    if (shard_keys[s].empty()) continue;
    shards_[s]->MultiGet(options, shard_keys[s], &vals, &stats);
    for (size_t j = 0; j < shard_idx[s].size(); j++) {
      (*values)[shard_idx[s][j]] = std::move(vals[j]);
      (*statuses)[shard_idx[s][j]] = std::move(stats[j]);
    }
  }
}

Status Cluster::Flush() {
  for (auto& shard : shards_) {
    DLSM_RETURN_NOT_OK(shard->Flush());
  }
  return Status::OK();
}

Status Cluster::WaitForBackgroundIdle() {
  for (auto& shard : shards_) {
    DLSM_RETURN_NOT_OK(shard->WaitForBackgroundIdle());
  }
  return Status::OK();
}

Status Cluster::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // Best-effort teardown: an early return on the first failing shard used
  // to leave the remaining shards' coordinator threads and every memory
  // service running with closed_ already set — a second Close() was then
  // a silent no-op and the deployment leaked live threads. Remember the
  // first error, still stop every shard and service.
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->Close();
    if (first.ok() && !s.ok()) first = s;
  }
  shards_.clear();
  flush_pools_.clear();
  rpcs_.clear();
  for (auto& m : memories_) m->Stop();
  memories_.clear();
  return first;
}

}  // namespace dlsm

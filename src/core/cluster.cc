#include "src/core/cluster.h"

#include <algorithm>

#include "src/core/shard.h"

namespace dlsm {

Status Cluster::Create(Env* env, const Options& options,
                       const ClusterTopology& topology,
                       std::vector<std::string> boundaries,
                       std::unique_ptr<Cluster>* out) {
  const int lambda = options.shards;
  const int total_shards = topology.compute_nodes * lambda;
  if (static_cast<int>(boundaries.size()) != total_shards - 1) {
    return Status::InvalidArgument("boundaries must have #shards-1 entries");
  }
  if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
    return Status::InvalidArgument("boundaries must be sorted");
  }

  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->lambda_ = lambda;
  cluster->boundaries_ = std::move(boundaries);
  cluster->fabric_ = std::make_unique<rdma::Fabric>(env);

  for (int i = 0; i < topology.compute_nodes; i++) {
    cluster->computes_.push_back(cluster->fabric_->AddNode(
        "compute-" + std::to_string(i), topology.compute_cores,
        topology.compute_dram));
  }
  DbDeps deps;
  deps.fabric = cluster->fabric_.get();
  for (int i = 0; i < topology.memory_nodes; i++) {
    rdma::Node* node = cluster->fabric_->AddNode(
        "memory-" + std::to_string(i), topology.memory_cores,
        topology.memory_dram);
    cluster->memories_.push_back(std::make_unique<MemoryNodeService>(
        cluster->fabric_.get(), node,
        topology.compaction_workers_per_memory));
    cluster->memories_.back()->Start();
    deps.memories.push_back(cluster->memories_.back().get());
  }

  Options engine_options = options;
  engine_options.env = env;

  // Tables, not shards, are the unit of memory-node placement: every
  // shard sees every memory node and routes each new SSTable by
  // Options::placement_policy, seeded with the global shard index. The
  // default round-robin policy degenerates to the fixed shard->memory
  // assignment of Fig. 5 (shard s's tables all land on memory s%m).
  const std::vector<std::string>& all = cluster->boundaries_;
  for (int c = 0; c < topology.compute_nodes; c++) {
    deps.compute = cluster->computes_[c];
    deps.placement_shard = c * lambda;
    DB* db = nullptr;
    DLSM_RETURN_NOT_OK(ShardedDB::Open(
        engine_options, deps,
        std::vector<std::string>(all.begin() + c * lambda,
                                 all.begin() + c * lambda + lambda - 1),
        &db));
    cluster->engines_.emplace_back(db);
    for (int i = 0; i < lambda; i++) {
      cluster->shards_.push_back(
          lambda == 1 ? db : static_cast<ShardedDB*>(db)->shard(i));
    }
  }

  *out = std::move(cluster);
  return Status::OK();
}

Cluster::~Cluster() { Close(); }

int Cluster::ShardForKey(const Slice& key) const {
  return RangeOfKey(boundaries_, key);
}

void Cluster::MultiGet(const ReadOptions& options,
                       std::span<const Slice> keys,
                       std::vector<std::string>* values,
                       std::vector<Status>* statuses) {
  RangeMultiGet(
      boundaries_, [this](int s) { return shards_[s]; }, options, keys,
      values, statuses);
}

Status Cluster::Flush() {
  for (auto& engine : engines_) DLSM_RETURN_NOT_OK(engine->Flush());
  return Status::OK();
}

Status Cluster::WaitForBackgroundIdle() {
  for (auto& engine : engines_) {
    DLSM_RETURN_NOT_OK(engine->WaitForBackgroundIdle());
  }
  return Status::OK();
}

Status Cluster::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // Best-effort teardown: one engine's error must not leave the others'
  // threads or the memory services running.
  Status first;
  for (auto& engine : engines_) {
    Status s = engine->Close();
    if (first.ok() && !s.ok()) first = s;
  }
  shards_.clear();
  engines_.clear();
  for (auto& m : memories_) m->Stop();
  memories_.clear();
  return first;
}

}  // namespace dlsm

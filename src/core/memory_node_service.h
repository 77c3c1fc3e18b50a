// The memory node's resident service (paper Secs. V, X-D).
//
// A weak-CPU memory node runs one of these: an RPC server whose worker
// pool executes near-data compactions out of the node's own DRAM, plus the
// memory-side allocator for compaction outputs, flush-region provisioning
// for compute nodes, and the free-batch garbage collection endpoint.

#ifndef DLSM_CORE_MEMORY_NODE_SERVICE_H_
#define DLSM_CORE_MEMORY_NODE_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/dbformat.h"
#include "src/remote/remote_alloc.h"
#include "src/remote/rpc.h"

namespace dlsm {

/// Hosts the memory node's side of dLSM. One per memory node; shared by
/// all shards/DBs whose data lives there.
class MemoryNodeService {
 public:
  /// compaction_workers bounds parallel near-data compactions; it should
  /// not exceed the node's core budget (Fig. 12 sweeps this).
  MemoryNodeService(rdma::Fabric* fabric, rdma::Node* node,
                    int compaction_workers);
  ~MemoryNodeService();

  MemoryNodeService(const MemoryNodeService&) = delete;
  MemoryNodeService& operator=(const MemoryNodeService&) = delete;

  void Start();
  void Stop();

  rdma::Node* node() const { return node_; }
  remote::RpcServer* rpc_server() { return server_.get(); }

  /// Virtual ns of worker busy time (compactions executed), for Fig. 12's
  /// CPU-utilization annotations.
  uint64_t worker_busy_ns() const { return server_->worker_busy_ns(); }
  int compaction_workers() const { return workers_; }

  /// Verb-layer telemetry of the server's reply path (the argument READs
  /// and reply WRITEs it posts to clients), aggregated across channels.
  rdma::RdmaVerbStats reply_verb_stats() const {
    return server_->reply_verb_stats();
  }

  /// Local (same-process) access for tests: the allocator serving
  /// compaction outputs of the given chunk size.
  remote::SlabAllocator* compaction_allocator(size_t chunk_size);

 private:
  void Handle(uint8_t type, const Slice& args, std::string* reply);
  void HandleAllocFlushRegion(const Slice& args, std::string* reply);
  void HandleFreeBatch(const Slice& args, std::string* reply);
  void HandleCompaction(const Slice& args, std::string* reply);
  void HandleReadBlock(const Slice& args, std::string* reply);
  void HandleStats(std::string* reply);

  rdma::Fabric* fabric_;
  rdma::Node* node_;
  int workers_;
  std::unique_ptr<remote::RpcServer> server_;
  InternalKeyComparator icmp_;

  std::mutex alloc_mu_;
  // Compaction-output slabs, one list per chunk size; grown on demand.
  std::map<size_t, std::vector<std::unique_ptr<remote::SlabAllocator>>>
      compaction_allocs_;
};

}  // namespace dlsm

#endif  // DLSM_CORE_MEMORY_NODE_SERVICE_H_

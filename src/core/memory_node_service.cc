#include "src/core/memory_node_service.h"

#include "src/core/compaction.h"
#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/trace.h"

namespace dlsm {

namespace {
constexpr size_t kChunksPerRegion = 64;
}  // namespace

MemoryNodeService::MemoryNodeService(rdma::Fabric* fabric, rdma::Node* node,
                                     int compaction_workers)
    : fabric_(fabric),
      node_(node),
      workers_(compaction_workers) {
  server_ = std::make_unique<remote::RpcServer>(fabric_, node_, workers_);
  server_->set_handler(
      [this](uint8_t type, const Slice& args, std::string* reply) {
        Handle(type, args, reply);
      });
}

MemoryNodeService::~MemoryNodeService() { Stop(); }

void MemoryNodeService::Start() { server_->Start(); }

void MemoryNodeService::Stop() { server_->Stop(); }

remote::SlabAllocator* MemoryNodeService::compaction_allocator(
    size_t chunk_size) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto& list = compaction_allocs_[chunk_size];
  for (auto& a : list) {
    if (a->allocated_chunks() < a->capacity_chunks()) return a.get();
  }
  // Grow: carve a fresh region out of this node's DRAM and register it so
  // compute nodes can read the tables it will hold.
  size_t region = chunk_size * kChunksPerRegion;
  char* base = node_->AllocDram(region);
  DLSM_CHECK_MSG(base != nullptr, "memory node DRAM exhausted");
  rdma::MemoryRegion mr = fabric_->RegisterMemory(node_, base, region);
  list.push_back(
      std::make_unique<remote::SlabAllocator>(mr, chunk_size, node_->id()));
  return list.back().get();
}

void MemoryNodeService::Handle(uint8_t type, const Slice& args,
                               std::string* reply) {
  switch (type) {
    case remote::RpcType::kAllocFlushRegion:
      HandleAllocFlushRegion(args, reply);
      break;
    case remote::RpcType::kFreeBatch:
      HandleFreeBatch(args, reply);
      break;
    case remote::RpcType::kCompaction:
      HandleCompaction(args, reply);
      break;
    case remote::RpcType::kStats:
      HandleStats(reply);
      break;
    case remote::RpcType::kReadBlock:
      HandleReadBlock(args, reply);
      break;
    default:
      // Unknown type: an empty reply, which every caller rejects.
      break;
  }
}

void MemoryNodeService::HandleAllocFlushRegion(const Slice& args,
                                               std::string* reply) {
  // args: fixed64 region_size. Hands the compute node a registered region
  // it will manage itself (paper Sec. V-A: "one region is controlled ...
  // by the compute node for regular MemTable flushing").
  // A request too short to name a size gets the out-of-memory reply.
  uint64_t size = args.size() >= 8 ? DecodeFixed64(args.data()) : 0;
  char* base = args.size() >= 8 ? node_->AllocDram(size) : nullptr;
  if (base == nullptr) {
    PutFixed64(reply, 0);  // Out of memory signalled by addr == 0.
    PutFixed32(reply, 0);
    return;
  }
  rdma::MemoryRegion mr = fabric_->RegisterMemory(node_, base, size);
  PutFixed64(reply, mr.addr);
  PutFixed32(reply, mr.rkey);
}

void MemoryNodeService::HandleFreeBatch(const Slice& args,
                                        std::string* reply) {
  std::vector<uint64_t> addrs;
  // An undecodable batch frees nothing (reply freed = 0).
  if (!remote::DecodeFreeBatch(args, &addrs).ok()) addrs.clear();
  uint32_t freed = 0;
  for (uint64_t addr : addrs) {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    for (auto& [chunk_size, list] : compaction_allocs_) {
      bool done = false;
      for (auto& a : list) {
        if (a->FreeByAddr(addr).ok()) {
          freed++;
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
  PutFixed32(reply, freed);
}

void MemoryNodeService::HandleCompaction(const Slice& args,
                                         std::string* reply) {
  // Nested inside the server's generic rpc_handle span: the near-data
  // merge itself, on the memory node's worker track.
  trace::TraceSpan span("exec_compaction", "compaction");
  // Reply: u8 ok | payload (result or error text). A malformed task is an
  // error reply, never an abort of the memory node.
  auto fail = [reply](const std::string& why) {
    reply->push_back(0);
    reply->append(why);
  };
  CompactionTask task;
  if (!CompactionTask::Deserialize(args, &task)) {
    return fail("malformed compaction task");
  }
  span.arg("inputs", task.inputs.size());
  if (task.output_chunk_size < task.target_file_size) {
    return fail("output_chunk_size below target_file_size");
  }

  auto alloc_chunk = [this, &task]() {
    return compaction_allocator(task.output_chunk_size)->Allocate();
  };
  auto free_chunk = [this, &task](const remote::RemoteChunk& c) {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    for (auto& a : compaction_allocs_[task.output_chunk_size]) {
      if (a->FreeByAddr(c.addr).ok()) return;
    }
  };

  CompactionResult result;
  Status s = ExecuteCompactionTask(fabric_->env(), task, icmp_, alloc_chunk,
                                   free_chunk, node_->id(), &result);
  if (!s.ok()) return fail(s.ToString());
  reply->push_back(1);
  result.AppendTo(reply);
}

void MemoryNodeService::HandleReadBlock(const Slice& args,
                                        std::string* reply) {
  // args: fixed64 addr | fixed64 len. The server-side copy out of "tmpfs"
  // is the real cost Nova-LSM-style reads pay on the weak memory node.
  // A short request or a span outside node DRAM gets an empty reply,
  // which the reader turns into IOError.
  if (args.size() < 16) return;
  uint64_t addr = DecodeFixed64(args.data());
  uint64_t len = DecodeFixed64(args.data() + 8);
  auto base = reinterpret_cast<uint64_t>(node_->dram_base());
  uint64_t size = node_->dram_size();
  if (addr < base || len > size || addr - base > size - len) return;
  reply->append(reinterpret_cast<const char*>(addr), len);
}

void MemoryNodeService::HandleStats(std::string* reply) {
  PutFixed64(reply, server_->worker_busy_ns());
  PutFixed32(reply, static_cast<uint32_t>(workers_));
}

}  // namespace dlsm

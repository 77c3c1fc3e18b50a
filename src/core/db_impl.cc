#include "src/core/db_impl.h"

#include <algorithm>
#include <memory_resource>
#include <optional>
#include <utility>

#include "src/core/db_iter.h"
#include "src/core/merger.h"
#include "src/core/table_reader.h"
#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/trace.h"

namespace dlsm {

namespace {

constexpr int kGcBatchSize = 32;

// Staging buffers per flush pipeline before the writer must recycle one.
constexpr int kFlushBuffersPerPipeline = 4;

// Waits out every pipeline of one flush or compute-side compaction job (the
// durability barrier before install); the first failure wins.
Status DrainPipelines(std::vector<std::unique_ptr<FlushPipeline>>* pipelines) {
  Status first;
  for (auto& p : *pipelines) {
    if (p == nullptr) continue;
    Status s = p->Drain();
    if (first.ok()) first = s;
  }
  return first;
}

// Max/mean per-node READ-verb imbalance over the last rebalance interval
// that triggers a migration round.
constexpr double kRebalanceThreshold = 1.5;

class SnapshotImpl : public Snapshot {
 public:
  explicit SnapshotImpl(uint64_t seq) : seq_(seq) {}
  uint64_t sequence() const override { return seq_; }

 private:
  uint64_t seq_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Status DLsmDB::Open(const Options& options, const DbDeps& deps, DB** dbptr) {
  *dbptr = nullptr;
  if (options.env == nullptr || deps.fabric == nullptr ||
      deps.compute == nullptr ||
      (deps.memory == nullptr && deps.memories.empty())) {
    return Status::InvalidArgument("missing env/fabric/node wiring");
  }
  for (MemoryNodeService* m : deps.memories) {
    if (m == nullptr) {
      return Status::InvalidArgument("null memory node in deps.memories");
    }
  }
  if (!deps.shared_rpcs.empty() &&
      deps.shared_rpcs.size() != deps.memories.size()) {
    return Status::InvalidArgument(
        "deps.shared_rpcs must parallel deps.memories");
  }
  auto db = std::unique_ptr<DLsmDB>(new DLsmDB(options, deps));
  DLSM_RETURN_NOT_OK(db->Init());
  *dbptr = db.release();
  return Status::OK();
}

DLsmDB::DLsmDB(const Options& options, const DbDeps& deps)
    : options_(options),
      deps_(deps),
      env_(options.env),
      bloom_(options.bloom_bits_per_key),
      staging_(deps.compute, options.flush_buffer_size),
      mig_mu_(options.env),
      mig_cv_(options.env, &mig_mu_),
      telem_mu_(options.env),
      telem_cv_(options.env, &telem_mu_),
      mem_mu_(options.env),
      backpressure_cv_(options.env, &mem_mu_),
      comp_mu_(options.env),
      comp_cv_(options.env, &comp_mu_),
      snap_mu_(options.env) {}

uint64_t DLsmDB::SeqRange() const {
  if (options_.memtable_seq_range != 0) return options_.memtable_seq_range;
  uint64_t derived = options_.memtable_size / options_.estimated_entry_size;
  return derived < 1024 ? 1024 : derived;
}

Status DLsmDB::Init() {
  // Normalize the one-node and many-node deps forms into nodes_: slot i of
  // this vector is what FileMetaData::memory_node indexes.
  std::vector<MemoryNodeService*> services = deps_.memories;
  if (services.empty()) services.push_back(deps_.memory);
  std::vector<remote::RpcClient*> shared(services.size(), nullptr);
  if (!deps_.shared_rpcs.empty()) {
    shared = deps_.shared_rpcs;
  } else if (deps_.shared_rpc != nullptr) {
    shared[0] = deps_.shared_rpc;
  }

  placement_ = NewPlacementPolicy(options_);
  home_ = services.size() > 1
              ? static_cast<size_t>(deps_.placement_shard) % services.size()
              : 0;
  // Per-table chunk: sstable_size plus headroom for the serialized index
  // and bloom filter.
  slab_size_ = options_.sstable_size + options_.sstable_size / 2;

  if (options_.block_cache_size > 0) {
    block_cache_ = std::make_unique<BlockCache>(options_.block_cache_size,
                                                options_.cache_shards,
                                                /*admission=*/true);
  }

  nodes_.resize(services.size());
  read_paths_.resize(services.size());
  gc_batches_.resize(services.size());
  for (size_t i = 0; i < services.size(); i++) {
    MemoryNodeState& n = nodes_[i];
    n.service = services[i];
    n.mgr = std::make_unique<rdma::RdmaManager>(deps_.fabric, deps_.compute,
                                                n.service->node());
    if (shared[i] != nullptr) {
      n.rpc = shared[i];
    } else {
      n.owned_rpc = std::make_unique<remote::RpcClient>(
          deps_.fabric, deps_.compute, n.service->rpc_server());
      n.rpc = n.owned_rpc.get();
    }
    if (options_.rpc_timeout_ns > 0) {
      // Shared clients get the same policy from every shard (same Options),
      // so the redundant installs are harmless.
      remote::RpcPolicy policy;
      policy.timeout_ns = options_.rpc_timeout_ns;
      policy.max_retries = options_.rpc_max_retries;
      policy.retry_backoff_ns = options_.rpc_retry_backoff_ns;
      n.rpc->set_policy(policy);
    }

    // Growable per-node arena (paper Sec. V-A): each grow call acquires a
    // compute-controlled region from that node via the general-purpose
    // RPC. Regions beyond the first are provisioned lazily, when
    // placement first routes a table (or growth) there.
    remote::RpcClient* rpc = n.rpc;
    const uint32_t fabric_id = n.service->node()->id();
    n.arena = std::make_unique<remote::RemoteArena>(
        slab_size_, deps_.compute->id(), options_.flush_region_size,
        [rpc, fabric_id](size_t bytes, rdma::MemoryRegion* region) -> Status {
          std::string args, reply;
          PutFixed64(&args, bytes);
          DLSM_RETURN_NOT_OK(
              rpc->Call(remote::RpcType::kAllocFlushRegion, args, &reply));
          if (reply.size() < 12) {
            return Status::Corruption("bad alloc-region reply");
          }
          region->addr = DecodeFixed64(reply.data());
          region->rkey = DecodeFixed32(reply.data() + 8);
          region->length = bytes;
          region->node_id = fabric_id;
          return Status::OK();  // addr == 0: node out of memory (no grow).
        });

    RemoteReadPath& rp = read_paths_[i];
    rp.mgr = n.mgr.get();
    rp.rpc = options_.reads_via_rpc ? n.rpc : nullptr;
    rp.extra_copy = options_.extra_io_copy;
    rp.uncached_index = !options_.cache_index_blocks;
    rp.max_retries = options_.rdma_max_retries;
    rp.retry_backoff_ns = options_.rdma_retry_backoff_ns;
    rp.retry_counter = &stat_read_retries_;
    if (block_cache_ != nullptr) {
      rp.cache = block_cache_.get();
      rp.cache_scans = options_.cache_scans;
    }
  }
  router_ = ReadRouter{read_paths_.data(), read_paths_.size()};
  mgr_ = nodes_[home_].mgr.get();
  rpc_ = nodes_[home_].rpc;

  // Seed the home node's arena eagerly so Open fails fast (and loudly)
  // when the memory node cannot provision even one flush region.
  {
    std::string args, reply;
    PutFixed64(&args, options_.flush_region_size);
    DLSM_RETURN_NOT_OK(
        rpc_->Call(remote::RpcType::kAllocFlushRegion, args, &reply));
    if (reply.size() < 12) return Status::Corruption("bad alloc-region reply");
    uint64_t region_addr = DecodeFixed64(reply.data());
    if (region_addr == 0) {
      return Status::OutOfMemory("memory node cannot provision flush region");
    }
    rdma::MemoryRegion region;
    region.addr = region_addr;
    region.rkey = DecodeFixed32(reply.data() + 8);
    region.length = options_.flush_region_size;
    region.node_id = nodes_[home_].service->node()->id();
    nodes_[home_].arena->AddRegion(region);
  }

  if (block_cache_ != nullptr) {
    // Fail closed across memory-node faults: while any of our memory
    // nodes is crashed the cache refuses to serve (and drops its
    // contents), so a cached read can never succeed where the fabric
    // read would fail. Refcounted: the cache comes back online only when
    // every crashed node has restarted.
    std::vector<rdma::Node*> memory_nodes;
    for (const MemoryNodeState& n : nodes_) {
      memory_nodes.push_back(n.service->node());
    }
    crash_listener_id_ = deps_.fabric->AddCrashListener(
        [this, memory_nodes](rdma::Node* node, bool crashed) {
          for (rdma::Node* m : memory_nodes) {
            if (node != m) continue;
            int before = crashed_memory_nodes_.fetch_add(crashed ? 1 : -1,
                                                         std::memory_order_acq_rel);
            block_cache_->set_offline(crashed ? true : before > 1);
            break;
          }
        });
  }

  if (options_.write_path == WritePath::kWriterQueue) {
    write_mu_ = std::make_unique<Mutex>(env_);
  }

  versions_ = std::make_unique<VersionSet>(&icmp_, &options_);

  if (deps_.shared_flush_pool != nullptr) {
    flush_pool_ = deps_.shared_flush_pool;
  } else {
    owned_flush_pool_ = std::make_unique<ThreadPool>(
        env_, deps_.compute->env_node(), options_.flush_threads, "flush");
    flush_pool_ = owned_flush_pool_.get();
  }

  // Initial MemTable covering the first sequence range.
  MemTable* mem;
  if (options_.switch_policy == MemTableSwitchPolicy::kSeqRange) {
    mem = new MemTable(icmp_, 1, 1 + SeqRange());
  } else {
    mem = new MemTable(icmp_, 0, kMaxSequenceNumber);
  }
  mem->Ref();
  {
    MutexLock l(&mem_mu_);
    PublishLocked(mem);
    mem_.store(mem, std::memory_order_release);
  }

  for (int i = 0; i < options_.compaction_scheduler_threads; i++) {
    coordinators_.push_back(env_->StartThread(
        deps_.compute->env_node(), "compaction-coordinator",
        [this] { CompactionCoordinatorLoop(); }));
  }

  if (options_.placement_rebalance && nodes_.size() > 1) {
    migrator_ = env_->StartThread(deps_.compute->env_node(), "rebalancer",
                                  [this] { RebalanceLoop(); });
    has_migrator_ = true;
  }

  SetupTelemetry();
  return Status::OK();
}

DLsmDB::~DLsmDB() { Close(); }

// ---------------------------------------------------------------------------
// Write path (Sec. IV)
// ---------------------------------------------------------------------------

Status DLsmDB::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DLsmDB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DLsmDB::Write(const WriteOptions& options, WriteBatch* batch) {
  (void)options;
  trace::TraceOp span("Write", "db");
  span.arg("entries", WriteBatchInternal::Count(batch));
  DLSM_RETURN_NOT_OK(BgError());
  if (options_.write_path == WritePath::kWriterQueue) {
    return WriteQueued(batch);
  }
  return WriteAtSequence(batch, /*seq_base=*/0,
                         WriteBatchInternal::Count(batch));
}

Status DLsmDB::WriteAtSequence(WriteBatch* batch, SequenceNumber seq_base,
                               uint32_t n, bool* reallocated) {
  if (reallocated != nullptr) *reallocated = false;
  if (n == 0) return Status::OK();
  for (;;) {
    MemTable* cur = mem_.load(std::memory_order_acquire);
    cur->BeginWrite();
    if (cur->immutable()) {
      // Lost a switch race; the new table is (or is about to be) current.
      cur->EndWrite();
      env_->MaybeYield();
      continue;
    }
    if (seq_base == 0) {
      // Atomic sequence allocation — the only synchronization on the hot
      // path (Fig. 3). BeginWrite precedes allocation, which guarantees a
      // flusher can never seal this table between our range check and our
      // insert (see HandleSwitch).
      seq_base = sequence_.fetch_add(n, std::memory_order_acq_rel) + 1;
    }
    if (cur->AcceptsSequence(seq_base)) {
      Status s = WriteBatchInternal::InsertInto(batch, seq_base, cur);
      cur->EndWrite();
      stat_writes_.fetch_add(n, std::memory_order_relaxed);
      if (options_.switch_policy == MemTableSwitchPolicy::kDoubleCheckedSize &&
          cur->ApproximateMemoryUsage() >= options_.memtable_size) {
        // Naive policy: double-checked locking on the size limit.
        MutexLock l(&mem_mu_);
        if (mem_.load(std::memory_order_acquire) == cur &&
            cur->ApproximateMemoryUsage() >= options_.memtable_size) {
          SwitchMemTableLocked();
        }
      }
      return s;
    }
    cur->EndWrite();
    if (seq_base >= cur->seq_limit()) {
      DLSM_RETURN_NOT_OK(HandleSwitch(seq_base));
      // Retry; the new current table's range covers seq_base (unless
      // further switches raced past it, handled below).
    } else {
      // Our sequence landed behind the current table's range because other
      // writers pushed multiple switches (or a Flush burned the range)
      // while we were descheduled. Discard it (gaps are harmless) and draw
      // a fresh one on the next pass — this keeps "newer version in newer
      // table" absolute.
      seq_base = 0;
      if (reallocated != nullptr) *reallocated = true;
    }
  }
}

/// A parked writer in the RocksDB-style queue.
struct DLsmDB::QueuedWriter {
  QueuedWriter(Env* env, Mutex* mu) : cv(env, mu) {}
  WriteBatch* batch = nullptr;
  bool done = false;
  Status status;
  CondVar cv;
};

Status DLsmDB::WriteQueued(WriteBatch* batch) {
  QueuedWriter w(env_, write_mu_.get());
  w.batch = batch;

  write_mu_->Lock();
  write_queue_.push_back(&w);
  while (!w.done && &w != write_queue_.front()) {
    w.cv.Wait();
  }
  if (w.done) {
    write_mu_->Unlock();
    return w.status;
  }

  // Queue head: commit a group (RocksDB group commit). The group is built
  // under the mutex; the inserts run outside it, then the group is retired.
  std::vector<QueuedWriter*> group;
  size_t group_bytes = 0;
  for (QueuedWriter* qw : write_queue_) {
    group.push_back(qw);
    group_bytes += qw->batch->ApproximateSize();
    if (group_bytes > (1 << 20)) break;
  }
  write_mu_->Unlock();

  // Group sequence batching: one fetch-add covers the whole group, then
  // each batch routes at its own sub-base. Queue order fixes the sub-bases,
  // so commit order matches arrival order.
  uint64_t total = 0;
  for (QueuedWriter* qw : group) {
    total += WriteBatchInternal::Count(qw->batch);
  }
  SequenceNumber base =
      total > 0 ? sequence_.fetch_add(total, std::memory_order_acq_rel) + 1
                : 0;
  for (QueuedWriter* qw : group) {
    uint32_t n = WriteBatchInternal::Count(qw->batch);
    bool reallocated = false;
    qw->status = WriteAtSequence(qw->batch, base, n, &reallocated);
    // A reallocation jumped past the rest of the window; if later members
    // kept their (now lower) sub-bases, a later write could commit below
    // an earlier one and lose last-writer-wins within the group. The rest
    // of the group draws fresh bases instead.
    if (reallocated) {
      base = 0;
    } else if (base != 0) {
      base += n;
    }
  }

  write_mu_->Lock();
  for (QueuedWriter* qw : group) {
    DLSM_CHECK(write_queue_.front() == qw);
    write_queue_.pop_front();
    if (qw != &w) {
      qw->done = true;
      qw->cv.Signal();
    }
  }
  if (!write_queue_.empty()) {
    write_queue_.front()->cv.Signal();  // Promote the next leader.
  }
  write_mu_->Unlock();
  return w.status;
}

Status DLsmDB::HandleSwitch(SequenceNumber seq) {
  MutexLock l(&mem_mu_);
  MemTable* cur = mem_.load(std::memory_order_acquire);
  while (seq >= cur->seq_limit() && !shutdown_.load()) {
    // Backpressure before installing a new table: too many immutables
    // (flushing can't keep up) or L0 at the stop trigger (compaction
    // can't keep up) — the paper's write stalls. Stall time is charged as
    // the union of the concurrent writers' intervals (state under
    // mem_mu_): the first writer to park opens the interval, the last to
    // leave closes it. Per-writer timing would add the same wall-clock
    // window once per stalled writer, overstating stall_ns past elapsed
    // time.
    bool stalled = false;
    while (!shutdown_.load() &&
           !has_bg_error_.load(std::memory_order_acquire) &&
           (static_cast<int>(imms_.size()) >= options_.max_immutables ||
            versions_->NeedsStall())) {
      if (!stalled) {
        stalled = true;
        if (stalled_writers_++ == 0) stall_since_ = env_->NowNanos();
      }
      backpressure_cv_.TimedWait(2'000'000);  // 2 ms, re-check triggers.
    }
    if (stalled && --stalled_writers_ == 0) {
      uint64_t stall_end = env_->NowNanos();
      stat_stall_ns_.fetch_add(stall_end - stall_since_,
                               std::memory_order_relaxed);
      // One span per union interval (the last leaving writer closes it),
      // matching how stall_ns is charged.
      trace::Tracer::EmitComplete("write_stall", "db", stall_since_,
                                  stall_end - stall_since_);
    }
    // Fail closed instead of stalling forever on background work that can
    // no longer make progress.
    DLSM_RETURN_NOT_OK(BgError());
    cur = mem_.load(std::memory_order_acquire);
    if (seq < cur->seq_limit()) break;  // Another writer switched for us.
    SwitchMemTableLocked();
    cur = mem_.load(std::memory_order_acquire);
  }
  return Status::OK();
}

void DLsmDB::SwitchMemTableLocked() {
  MemTable* old = mem_.load(std::memory_order_acquire);
  SequenceNumber base, limit;
  if (options_.switch_policy == MemTableSwitchPolicy::kSeqRange) {
    base = old->seq_limit();
    limit = base + SeqRange();
  } else {
    base = 0;
    limit = kMaxSequenceNumber;
  }
  MemTable* next = new MemTable(icmp_, base, limit);
  next->Ref();
  old->MarkImmutable();
  imms_.push_back(old);  // Transfers our reference.
  // Publish before writers can reach `next`: a Put acknowledged from it
  // must be in the ReadState of every reader pinned after the ack.
  PublishLocked(next);
  mem_.store(next, std::memory_order_release);
  ScheduleFlushLocked(old);
}

void DLsmDB::PublishLocked(MemTable* cur) {
  auto state = std::make_shared<ReadState>();
  state->mems.reserve(1 + imms_.size());
  state->mems.push_back(cur);
  for (auto it = imms_.rbegin(); it != imms_.rend(); ++it) {
    state->mems.push_back(*it);
  }
  for (MemTable* m : state->mems) m->Ref();
  state->version = versions_->current();
  std::shared_ptr<const ReadState> old;  // Released after the unlock.
  std::lock_guard<std::mutex> lock(read_mu_);
  old = std::exchange(read_state_, std::move(state));
}

Status DLsmDB::InstallLocked(const VersionEdit& edit) {
  Status s = versions_->Apply(edit);
  if (s.ok()) PublishLocked(mem_.load(std::memory_order_acquire));
  return s;
}

std::shared_ptr<const DLsmDB::ReadState> DLsmDB::Pin() const {
  std::lock_guard<std::mutex> lock(read_mu_);
  return read_state_;
}

void DLsmDB::ScheduleFlushLocked(MemTable* mem) {
  pending_flushes_++;
  // A table's age is the order it was sealed in. Its sequence base is not
  // that under kDoubleCheckedSize, where every table's base is 0.
  uint64_t l0_order = ++sealed_tables_;
  flush_pool_->Submit([this, mem, l0_order] { FlushJob(mem, l0_order); });
}

// ---------------------------------------------------------------------------
// Flush (Sec. X-C)
// ---------------------------------------------------------------------------

void DLsmDB::FlushJob(MemTable* mem, uint64_t l0_order) {
  trace::TraceSpan span("flush", "flush");
  span.arg("entries", mem->num_entries());
  telemetry::WatchdogScope wd(watchdog_.get(), "flush");
  // Wait out in-flight writers still inserting into this table.
  while (mem->active_writers() > 0) {
    env_->YieldToOthers();
  }

  Status s;
  std::vector<CompactionOutput> outputs;
  if (mem->num_entries() > 0) {
    // Async transport: all of this job's output WRITEs to one node ride one
    // FlushPipeline (NewOutputSink) — each sink's tail buffers are adopted
    // as deferred handles at Finish() instead of being waited per table,
    // and the whole wave drains once below, before install (the durability
    // barrier: a table becomes visible only after its bytes are on the
    // memory node).
    //
    // Transient faults re-run the whole job: a failed wave leaves no record
    // of which bytes landed, so the failed attempt's chunks are recycled
    // and the still-pinned MemTable is rebuilt into fresh ones. Only after
    // flush_max_retries re-runs does the DB fail closed (SetBgError) — the
    // table is then never installed, so readers see the error, not a hole.
    const int max_attempts = 1 + std::max(0, options_.flush_max_retries);
    std::vector<remote::RemoteChunk> attempt_chunks;
    auto recycle_attempt = [this, &attempt_chunks] {
      for (const remote::RemoteChunk& c : attempt_chunks) {
        nodes_[SlotForNode(c.home_node)].arena->Free(c);
      }
      attempt_chunks.clear();
    };
    for (int attempt = 0; attempt < max_attempts; attempt++) {
      if (attempt > 0) {
        stat_flush_retries_.fetch_add(1, std::memory_order_relaxed);
        trace::Tracer::EmitInstant("flush_retry", "flush", "attempt",
                                   static_cast<uint64_t>(attempt));
        recycle_attempt();
        outputs.clear();
        RecoverAllVqs();
        int shift = attempt - 1 < 6 ? attempt - 1 : 6;
        env_->SleepNanos(options_.rdma_retry_backoff_ns << shift);
      }
      // One pipeline per memory node touched by this job: a table's WRITE
      // wave rides its destination node's connection; all waves drain
      // below before install (the durability barrier).
      std::vector<std::unique_ptr<FlushPipeline>> pipelines(nodes_.size());
      auto new_output = [this, &pipelines, &attempt_chunks](
                            const Slice& first_key, remote::RemoteChunk* chunk,
                            std::unique_ptr<TableSink>* sink) -> Status {
        const size_t slot = static_cast<size_t>(PlaceTable(0, first_key));
        MemoryNodeState& node = nodes_[slot];
        remote::RemoteChunk c = node.arena->Allocate();
        for (int tries = 0; !c.valid() && tries < 10000; tries++) {
          // Flush region exhausted and the node refused to grow: give GC
          // and compaction a chance to recycle chunks.
          DrainGc();
          env_->SleepNanos(1'000'000);
          c = node.arena->Allocate();
        }
        if (!c.valid()) {
          return Status::OutOfMemory("flush region exhausted");
        }
        *chunk = c;
        attempt_chunks.push_back(c);
        *sink = NewOutputSink(slot, c, &pipelines);
        return Status::OK();
      };

      s = MergeAndBuild(env_, mem->NewIterator(), bloom_, OldestSnapshot(),
                        /*drop_tombstones=*/false, options_.sstable_size,
                        options_.table_format, options_.block_size,
                        new_output, &outputs);
      if (s.ok()) s = DrainPipelines(&pipelines);
      if (s.ok() || !s.IsIOError()) break;
    }
    if (!s.ok()) {
      recycle_attempt();
      outputs.clear();
      SetBgError(s);
    }
  }

  VersionEdit edit;
  for (CompactionOutput& out : outputs) {
    edit.AddFile(0, InstallOutput(std::move(out), l0_order));
  }
  // GC's remote frees go out while this job still counts as pending, so a
  // caller that saw the DB idle (Flush, WaitForBackgroundIdle) sees no
  // late kFreeBatch RPC from it.
  DrainGc();
  {
    // Flushes BUILD in parallel but INSTALL in MemTable age order: if a
    // newer table's tombstone reached L0 (and possibly a bottommost
    // compaction) while an older table holding a shadowed value were
    // still unflushed, the deleted value would resurrect once that older
    // table landed. imms_ is oldest-first; install only at its head. The
    // flush pool is FIFO over switch order, so the head's job is always
    // already running — no deadlock.
    trace::TraceSpan install_wait("flush_install_wait", "flush");
    MutexLock l(&mem_mu_);
    while (!(imms_.front() == mem)) {
      backpressure_cv_.Wait();
    }
    install_wait.End();
    // One publish swaps `mem` for its L0 files.
    imms_.pop_front();
    DLSM_CHECK(InstallLocked(edit).ok());
    if (!outputs.empty()) stat_flushes_.fetch_add(1, std::memory_order_relaxed);
    pending_flushes_--;
    backpressure_cv_.SignalAll();
  }
  mem->Unref();
  {
    MutexLock l(&comp_mu_);
    comp_cv_.SignalAll();  // L0 may now warrant compaction.
  }
}

std::unique_ptr<TableSink> DLsmDB::NewOutputSink(
    size_t slot, const remote::RemoteChunk& chunk,
    std::vector<std::unique_ptr<FlushPipeline>>* pipelines) {
  rdma::RdmaManager* mgr = nodes_[slot].mgr.get();
  std::unique_ptr<TableSink> sink;
  if (options_.async_write) {
    std::unique_ptr<FlushPipeline>& p = (*pipelines)[slot];
    if (p == nullptr) p = std::make_unique<FlushPipeline>(mgr, &staging_);
    sink = std::make_unique<AsyncRemoteSink>(
        mgr, chunk, &staging_, kFlushBuffersPerPipeline, p.get());
  } else {
    // Synchronous transport: one blocking WRITE per flush buffer.
    sink = std::make_unique<AsyncRemoteSink>(mgr, chunk, &staging_,
                                             /*buffer_count=*/1);
  }
  if (options_.extra_io_copy) {
    sink = std::make_unique<CopySink>(std::move(sink));
  }
  return sink;
}

// ---------------------------------------------------------------------------
// Reads (Secs. III, VI)
// ---------------------------------------------------------------------------

Status DLsmDB::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  trace::TraceOp span("Get", "db");
  Status s;
  ProbeKeys(options, std::span<const Slice>(&key, 1), value, &s);
  return s;
}

void DLsmDB::MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                      std::vector<std::string>* values,
                      std::vector<Status>* statuses) {
  trace::TraceOp span("MultiGet", "db");
  span.arg("keys", keys.size());
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status());
  if (keys.empty()) return;
  ProbeKeys(options, keys, values->data(), statuses->data());
}

void DLsmDB::ProbeKeys(const ReadOptions& options, std::span<const Slice> keys,
                       std::string* values, Status* statuses) {
  const size_t n = keys.size();
  Status bg = BgError();
  if (!bg.ok()) {
    std::fill_n(statuses, n, bg);
    return;
  }
  stat_reads_.fetch_add(n, std::memory_order_relaxed);
  // Pin, then the sequence (see Pin).
  const std::shared_ptr<const ReadState> pinned = Pin();
  const SequenceNumber snapshot =
      options.snapshot_sequence != ~0ull
          ? options.snapshot_sequence
          : sequence_.load(std::memory_order_acquire);

  // A Get (n = 1) keeps its key state, wave slots and probe buffers in
  // this stack buffer; only large batches and large records spill to the
  // heap.
  alignas(std::max_align_t) char stack[4096];
  std::pmr::monotonic_buffer_resource arena(stack, sizeof(stack));
  // Allocator-aware, so `state` hands its arena to each key's order too.
  struct KeyState {
    using allocator_type = std::pmr::polymorphic_allocator<>;
    explicit KeyState(const allocator_type& alloc) : order(alloc) {}
    std::optional<LookupKey> lkey;
    uint32_t bloom_hash = 0;  // KeyHash of the user key, once per lookup.
    std::pmr::vector<const FileMetaData*> order;  // Probe order: newest first.
    size_t num_l0 = 0;
    size_t cursor = 0;  // Next candidate in order.
    bool resolved = false;
  };
  std::pmr::vector<KeyState> state(n, &arena);
  size_t unresolved = n;
  auto resolve = [&](size_t k, Status s) {
    statuses[k] = std::move(s);
    state[k].resolved = true;
    unresolved--;
  };

  trace::TraceSpan mem_span("mem_probe", "db");
  for (size_t k = 0; k < n; k++) {
    state[k].lkey.emplace(keys[k], snapshot);
    for (MemTable* m : pinned->mems) {
      Status s;
      if (m->Get(*state[k].lkey, &values[k], &s)) {
        resolve(k, std::move(s));
        break;
      }
    }
  }
  mem_span.End();
  if (unresolved == 0) return;

  // SSTables, pinned by the version reference. Bloom and index filtering
  // is local; only may-match probes cost a remote read.
  size_t max_wave = 0;
  for (size_t k = 0; k < n; k++) {
    if (state[k].resolved) continue;
    pinned->version->CollectSearchOrder(keys[k], &state[k].order,
                                        &state[k].num_l0);
    state[k].bloom_hash = BloomFilterPolicy::KeyHash(keys[k]);
    max_wave += std::max<size_t>(state[k].num_l0, 1);
  }
  const bool async =
      options.async_reads && SupportsAsyncProbe(read_paths_[0]);
  // One may-match table probe of a wave. Its bytes come from the block
  // cache, from the READ posted into `read` (async transport), or from a
  // blocking RemoteReadPath::Read at drain (sync transport).
  struct WaveSlot {
    WaveSlot(size_t k, TableProbe&& p) : key(k), probe(std::move(p)) {}
    size_t key;           // Index into the caller's batch.
    TableProbe probe;
    bool cached = false;  // Served by the block cache; no verb posted.
    rdma::WrHandle read;  // Async transport: the posted READ.
    Status status;        // Outcome of the read once the wave drained.
  };
  // Posted READs land in slot buffers, so the slots must never move: a
  // wave holds at most max(L0 candidates, 1) slots per key.
  std::pmr::vector<WaveSlot> wave(&arena);
  wave.reserve(max_wave);

  // Waves: each round, every unresolved key posts its next probes. An
  // async-transport key posts its may-match L0 files up to the first
  // definitive probe, or one candidate of its next deeper level; a
  // sync-transport key posts one probe. Completions are harvested per key
  // in age order, so the newest table wins.
  while (unresolved > 0) {
    trace::TraceSpan wave_span("level_wave", "db");
    wave_span.arg("unresolved", unresolved);
    wave.clear();
    bool misses = false;
    for (size_t k = 0; k < n; k++) {
      KeyState& ks = state[k];
      if (ks.resolved) continue;
      size_t posted = 0;
      while (ks.cursor < ks.order.size()) {
        const bool in_l0 = ks.cursor < ks.num_l0;
        if (posted > 0 && !in_l0) break;  // This key's L0 results pending.
        const FileMetaData* f = ks.order[ks.cursor++];
        const RemoteReadPath& path = router_.route(*f);
        TableProbe probe;
        bool bloom_skip = false;
        Status s = TableProbePrepare(bloom_, *f, *ks.lkey, ks.bloom_hash,
                                     &arena, &probe, &bloom_skip);
        if (bloom_skip) {
          stat_bloom_useful_.fetch_add(1, std::memory_order_relaxed);
        } else if (s.ok() && path.uncached_index) {
          // Ports without a compute-side index cache fetch the index
          // before every bloom-passing probe, whether or not data follows.
          f->heat.fetch_add(1, std::memory_order_relaxed);
          s = FetchIndexBlock(path, *f);
        }
        if (!s.ok()) {
          resolve(k, std::move(s));
          break;
        }
        if (!probe.need_read) continue;  // Not in this table; no wire cost.
        WaveSlot& slot = wave.emplace_back(k, std::move(probe));
        TableProbe& p = slot.probe;
        // A cache hit joins the wave as a pre-completed slot, so it still
        // resolves at its age-order position during harvest.
        slot.cached = block_cache_ != nullptr &&
                      block_cache_->Lookup(f->number, p.read_off,
                                           p.buf.data(), p.buf.size());
        if (!slot.cached) {
          misses = true;
          f->heat.fetch_add(1, std::memory_order_relaxed);
          if (async) {
            slot.read = path.mgr->ThreadVq()->Read(
                p.buf.data(), f->chunk.addr + p.read_off, f->chunk.rkey,
                p.buf.size());
          }
        }
        posted++;
        if (!async || p.definitive || !in_l0) break;
      }
      if (!ks.resolved && posted == 0) {
        resolve(k, Status::NotFound(Slice()));  // Exhausted without a hit.
      }
    }

    // Drain: wait for the posted READs, or issue the sync transport's
    // reads. On a cache-backed engine this wire time is miss-fill time.
    std::optional<trace::TraceSpan> fill_span;
    if (misses && block_cache_ != nullptr) {
      fill_span.emplace("cache_miss_fill", "db");
    }
    for (WaveSlot& slot : wave) {
      if (slot.cached) continue;
      const FileMetaData* f = slot.probe.file;
      TableProbe& p = slot.probe;
      slot.status = async ? slot.read.Wait()
                          : router_.route(*f).Read(
                                p.buf.data(), f->chunk.addr + p.read_off,
                                f->chunk.rkey, p.buf.size());
    }
    fill_span.reset();

    // Harvest in post order: per key, newest table first.
    for (WaveSlot& slot : wave) {
      const size_t k = slot.key;
      if (state[k].resolved) continue;  // A newer probe decided this key.
      const FileMetaData* f = slot.probe.file;
      const RemoteReadPath& path = router_.route(*f);
      TableProbe& p = slot.probe;
      Status s = std::move(slot.status);
      if (async && s.IsIOError() && path.max_retries > 0) {
        // This READ died with its QP. Recover the node's connection (a
        // no-op if a sibling slot already did) and re-read the slot
        // through Read, whose MgrRead retry policy decides the outcome.
        stat_read_retries_.fetch_add(1, std::memory_order_relaxed);
        trace::Tracer::EmitInstant("read_retry", "db", "file", f->number);
        path.mgr->ThreadVq()->Recover();
        s = path.Read(p.buf.data(), f->chunk.addr + p.read_off,
                      f->chunk.rkey, p.buf.size());
      }
      TableLookupResult lookup = TableLookupResult::kNotPresent;
      if (s.ok()) {
        if (!slot.cached && block_cache_ != nullptr) {
          block_cache_->Insert(f->number, p.read_off, p.buf.data(),
                               p.buf.size());
        }
        s = TableProbeFinish(icmp_, *state[k].lkey, &p, &lookup, &values[k]);
      }
      if (!s.ok()) {
        resolve(k, std::move(s));
      } else if (lookup == TableLookupResult::kFound) {
        resolve(k, Status::OK());
      } else if (lookup == TableLookupResult::kDeleted) {
        resolve(k, Status::NotFound(Slice()));
      }
      // kNotPresent: the key stays unresolved for the next wave.
    }
  }
}

Iterator* DLsmDB::NewIterator(const ReadOptions& options) {
  trace::TraceSpan span("NewIterator", "db");
  Status bg = BgError();
  if (!bg.ok()) return NewErrorIterator(bg);
  // Pin, then the sequence (see Pin).
  std::shared_ptr<const ReadState> pinned = Pin();
  SequenceNumber snapshot = options.snapshot_sequence != ~0ull
                                ? options.snapshot_sequence
                                : sequence_.load(std::memory_order_acquire);

  std::vector<Iterator*> children;
  for (MemTable* m : pinned->mems) children.push_back(m->NewIterator());
  pinned->version->AddIterators(router_, icmp_, options_.scan_prefetch_size,
                                &children);

  Iterator* merged = NewMergingIterator(&icmp_, children.data(),
                                        static_cast<int>(children.size()));
  auto cleanup = [pinned = std::move(pinned)]() mutable { pinned.reset(); };
  return NewDBIterator(merged, snapshot, std::move(cleanup));
}

const Snapshot* DLsmDB::GetSnapshot() {
  MutexLock l(&snap_mu_);
  uint64_t seq = sequence_.load(std::memory_order_acquire);
  snapshots_.insert(seq);
  return new SnapshotImpl(seq);
}

void DLsmDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  {
    MutexLock l(&snap_mu_);
    auto it = snapshots_.find(snapshot->sequence());
    DLSM_CHECK(it != snapshots_.end());
    snapshots_.erase(it);
  }
  delete snapshot;
}

SequenceNumber DLsmDB::OldestSnapshot() {
  MutexLock l(&snap_mu_);
  if (snapshots_.empty()) {
    return sequence_.load(std::memory_order_acquire);
  }
  return *snapshots_.begin();
}

// ---------------------------------------------------------------------------
// Compaction (Sec. V)
// ---------------------------------------------------------------------------

void DLsmDB::CompactionCoordinatorLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    {
      MutexLock l(&comp_mu_);
      while (!shutdown_.load() && !versions_->NeedsCompaction()) {
        comp_cv_.TimedWait(5'000'000);  // 5 ms.
      }
    }
    if (shutdown_.load()) break;
    if (has_bg_error_.load(std::memory_order_acquire)) {
      // Fail-closed: stop churning picks that can no longer install.
      env_->SleepNanos(1'000'000);
      continue;
    }

    CompactionPick pick = versions_->PickCompaction();
    if (!pick.valid()) {
      env_->SleepNanos(1'000'000);
      continue;
    }
    {
      MutexLock l(&comp_mu_);
      running_compactions_++;
    }
    Status s = RunCompaction(pick);
    for (int attempt = 0;
         !s.ok() && s.IsIOError() && attempt < options_.rdma_max_retries &&
         !shutdown_.load(std::memory_order_acquire);
         attempt++) {
      // Transient fault somewhere in the compaction wave (RPC timeout,
      // flushed READ/WRITE): recover this coordinator's QPs and re-run the
      // pick from scratch — nothing was installed, inputs are still live.
      RecoverAllVqs();
      env_->SleepNanos(options_.rdma_retry_backoff_ns
                       << (attempt < 6 ? attempt : 6));
      s = RunCompaction(pick);
    }
    if (!s.ok()) {
      // Retries exhausted or a non-transient failure: fail closed rather
      // than abort. The LSM shape stops improving but no version ever
      // references bytes that failed to land.
      SetBgError(s);
    }
    versions_->ReleaseCompaction(pick);
    {
      // L0 shrank: stalled writers may proceed.
      MutexLock l(&mem_mu_);
      backpressure_cv_.SignalAll();
    }
    // Before the compaction stops counting as running: idle implies
    // drained (see FlushJob).
    DrainGc();
    {
      MutexLock l(&comp_mu_);
      running_compactions_--;
      comp_cv_.SignalAll();
    }
  }
}

Status DLsmDB::RunCompaction(const CompactionPick& pick) {
  trace::TraceSpan span("compaction", "compaction");
  span.arg("level", static_cast<uint64_t>(pick.level));
  span.arg("input_bytes", pick.InputBytes());
  telemetry::WatchdogScope wd(watchdog_.get(), "compaction");
  // Near-data compaction merges in one memory node's DRAM, so it applies
  // only when every input lives on the same node; a pick whose inputs
  // placement spread across nodes falls back to the compute-side merge
  // (which reads from and writes to any mix of nodes).
  bool one_node = true;
  uint32_t input_slot = 0;
  bool first_input = true;
  for (int which = 0; which < 2 && one_node; which++) {
    for (const FileRef& f : pick.inputs[which]) {
      if (first_input) {
        input_slot = f->memory_node;
        first_input = false;
      } else if (f->memory_node != input_slot) {
        one_node = false;
        break;
      }
    }
  }
  std::vector<CompactionOutput> outputs;
  Status s =
      options_.compaction_placement == CompactionPlacement::kNearData &&
              one_node
          ? RunNearDataCompaction(
                pick, input_slot < nodes_.size() ? input_slot : 0, &outputs)
          : RunComputeSideCompaction(pick, &outputs);
  if (!s.ok()) {
    // A failed compaction installs nothing: recycle whatever outputs did
    // complete (compute-side builds, successful near-data siblings) so a
    // retry of the same pick starts from clean chunks.
    for (const CompactionOutput& out : outputs) FileGone(out.chunk);
    return s;
  }

  VersionEdit edit;
  for (int which = 0; which < 2; which++) {
    for (const FileRef& f : pick.inputs[which]) {
      edit.DeleteFile(pick.level + which, f->number);
    }
  }
  for (CompactionOutput& out : outputs) {
    stat_comp_out_.fetch_add(out.data_len, std::memory_order_relaxed);
    edit.AddFile(pick.level + 1, InstallOutput(std::move(out), 0));
  }
  {
    MutexLock l(&mem_mu_);
    DLSM_CHECK(InstallLocked(edit).ok());
  }
  // Version-install invalidation: the inputs left the live set, so drop
  // their cached bytes now rather than waiting for the last reader to
  // release them (file numbers are never reused, so this is hygiene — a
  // stale entry could never alias a new table — but it frees budget and
  // keeps the cache honest about the installed version). Readers that
  // still pin the old version re-fetch over the fabric.
  if (block_cache_ != nullptr) {
    for (int which = 0; which < 2; which++) {
      for (const FileRef& f : pick.inputs[which]) {
        block_cache_->InvalidateTable(f->number);
      }
    }
  }
  stat_compactions_.fetch_add(1, std::memory_order_relaxed);
  stat_comp_in_.fetch_add(pick.InputBytes(), std::memory_order_relaxed);
  return Status::OK();
}

CompactionInput DLsmDB::MakeInput(const FileRef& f, const Slice* lo,
                                  const Slice* hi) const {
  CompactionInput in;
  in.addr = f->chunk.addr;
  if (options_.table_format == TableFormat::kBlock) {
    in.format = 2;
    in.start_off = 0;
    in.end_off = f->data_len;
    in.index_blob = f->index->blob();
    return in;
  }
  in.format = 1;
  auto offset_of = [&](const Slice& user_key) -> uint64_t {
    InternalKey ik(user_key, kMaxSequenceNumber, kValueTypeForSeek);
    size_t pos = f->index->Find(ik.Encode());
    if (pos >= f->index->num_entries()) return f->data_len;
    return f->index->entry(pos).offset;
  };
  in.start_off = lo != nullptr ? offset_of(*lo) : 0;
  in.end_off = hi != nullptr ? offset_of(*hi) : f->data_len;
  return in;
}

Status DLsmDB::IssueCompactionRpc(remote::RpcClient* rpc,
                                  const CompactionTask& task,
                                  CompactionResult* result) {
  NoteCompactionRpcIssued();
  telemetry::WatchdogScope wd(watchdog_.get(), "compaction_rpc");
  std::string reply;
  Status s = rpc->CallAsync(remote::RpcType::kCompaction, task.Serialize())
                 .Wait(&reply);
  if (s.ok()) s = ParseCompactionReply(reply, result);
  stat_comp_rpc_inflight_.fetch_sub(1, std::memory_order_relaxed);
  return s;
}

void DLsmDB::NoteCompactionRpcIssued() {
  uint64_t cur =
      stat_comp_rpc_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = stat_comp_rpc_peak_.load(std::memory_order_relaxed);
  while (cur > peak && !stat_comp_rpc_peak_.compare_exchange_weak(
                           peak, cur, std::memory_order_relaxed)) {
  }
}

Status DLsmDB::RunNearDataCompaction(const CompactionPick& pick, size_t slot,
                                     std::vector<CompactionOutput>* outputs) {
  rdma::RdmaManager* mgr = nodes_[slot].mgr.get();
  remote::RpcClient* rpc = nodes_[slot].rpc;
  const uint64_t slab = slab_size_;
  auto make_task = [&](std::vector<CompactionInput> inputs) {
    CompactionTask task;
    task.inputs = std::move(inputs);
    task.smallest_snapshot = OldestSnapshot();
    task.drop_tombstones = pick.bottommost;
    task.target_file_size = options_.sstable_size;
    task.output_chunk_size = slab;
    task.output_format =
        options_.table_format == TableFormat::kByteAddressable ? 1 : 2;
    task.block_size = static_cast<uint32_t>(options_.block_size);
    task.bloom_bits_per_key =
        static_cast<uint32_t>(options_.bloom_bits_per_key);
    return task;
  };

  // Sub-compaction partitioning (Sec. V-A: "divide a large compaction task
  // into multiple parallel sub-compaction tasks"): only L0 compactions of
  // byte-addressable tables are split — the per-record index lets the
  // compute node hand each worker an exact byte slice of every L0 file.
  std::vector<std::string> bounds;
  if (pick.level == 0 && options_.max_subcompactions > 1 &&
      options_.table_format == TableFormat::kByteAddressable) {
    const auto& l1 = pick.inputs[1];
    if (l1.size() >= 2) {
      size_t k = std::min<size_t>(options_.max_subcompactions, l1.size());
      // Boundaries at (a subset of) L1 file smallest keys: every L1 file
      // then belongs to exactly one range.
      for (size_t i = 1; i < k; i++) {
        size_t idx = i * l1.size() / k;
        if (idx == 0) continue;
        bounds.push_back(
            ExtractUserKey(l1[idx]->smallest.Encode()).ToString());
      }
    } else if (l1.empty() && !pick.inputs[0].empty()) {
      // No L1 yet: carve boundaries from the largest L0 file's index.
      const FileRef* biggest = &pick.inputs[0][0];
      for (const FileRef& f : pick.inputs[0]) {
        if (f->num_entries > (*biggest)->num_entries) biggest = &f;
      }
      const TableIndex& index = *(*biggest)->index;
      size_t k = std::min<size_t>(options_.max_subcompactions, 4);
      for (size_t i = 1; i < k && index.num_entries() > k; i++) {
        size_t pos = i * index.num_entries() / k;
        bounds.push_back(index.user_key(pos).ToString());
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  }

  std::vector<CompactionTask> tasks;
  if (bounds.empty()) {
    std::vector<CompactionInput> inputs;
    for (int which = 0; which < 2; which++) {
      for (const FileRef& f : pick.inputs[which]) {
        CompactionInput in = MakeInput(f, nullptr, nullptr);
        if (in.start_off < in.end_off) inputs.push_back(std::move(in));
      }
    }
    tasks.push_back(make_task(std::move(inputs)));
  } else {
    size_t ranges = bounds.size() + 1;
    for (size_t r = 0; r < ranges; r++) {
      const std::string* lo = r == 0 ? nullptr : &bounds[r - 1];
      const std::string* hi = r == ranges - 1 ? nullptr : &bounds[r];
      std::vector<CompactionInput> inputs;
      for (const FileRef& f : pick.inputs[0]) {
        Slice lo_s, hi_s;
        if (lo != nullptr) lo_s = Slice(*lo);
        if (hi != nullptr) hi_s = Slice(*hi);
        CompactionInput in = MakeInput(f, lo ? &lo_s : nullptr,
                                       hi ? &hi_s : nullptr);
        if (in.start_off < in.end_off) inputs.push_back(std::move(in));
      }
      for (const FileRef& f : pick.inputs[1]) {
        // An L1 file belongs to range r iff its smallest key is in it.
        Slice s = ExtractUserKey(f->smallest.Encode());
        bool ge_lo = lo == nullptr || s.compare(*lo) >= 0;
        bool lt_hi = hi == nullptr || s.compare(*hi) < 0;
        if (ge_lo && lt_hi) {
          inputs.push_back(MakeInput(f, nullptr, nullptr));
        }
      }
      if (!inputs.empty()) tasks.push_back(make_task(std::move(inputs)));
    }
  }
  if (tasks.empty()) return Status::OK();

  std::vector<CompactionResult> results(tasks.size());
  std::vector<Status> statuses(tasks.size());
  if (options_.async_write) {
    // Pipelined scheduler: this one thread keeps several memory-node
    // sub-compactions in flight through CallAsync instead of parking a
    // helper thread per RPC. The window widens only while
    //   window + outstanding one-sided verbs on this engine  <  budget
    // so compaction admission yields to foreground READ waves already on
    // the wire (budget 1 degenerates to strictly serial RPCs; 0 uncaps).
    struct InFlightRpc {
      size_t idx;
      remote::PendingCall call;
    };
    std::deque<InFlightRpc> window;
    const uint64_t budget = options_.compaction_verb_budget;
    auto wait_oldest = [&] {
      InFlightRpc f = std::move(window.front());
      window.pop_front();
      std::string reply;
      statuses[f.idx] = f.call.Wait(&reply);
      if (statuses[f.idx].ok()) {
        statuses[f.idx] = ParseCompactionReply(reply, &results[f.idx]);
      }
      stat_comp_rpc_inflight_.fetch_sub(1, std::memory_order_relaxed);
    };
    for (size_t i = 0; i < tasks.size(); i++) {
      while (!window.empty() && budget != 0 &&
             window.size() + mgr->outstanding_ops() >= budget) {
        wait_oldest();
      }
      NoteCompactionRpcIssued();
      window.push_back(InFlightRpc{
          i, rpc->CallAsync(remote::RpcType::kCompaction,
                            tasks[i].Serialize())});
    }
    while (!window.empty()) wait_oldest();
  } else {
    // Blocking scheduler (ablation): a helper thread per sub-compaction,
    // each parked on its own call's reply stamp; this thread takes the
    // first. A failed call fails the pick, as on the pipelined path.
    std::vector<ThreadHandle> helpers;
    for (size_t i = 1; i < tasks.size(); i++) {
      helpers.push_back(env_->StartThread(
          deps_.compute->env_node(), "subcompaction",
          [this, rpc, &tasks, &results, &statuses, i] {
            statuses[i] = IssueCompactionRpc(rpc, tasks[i], &results[i]);
          }));
    }
    statuses[0] = IssueCompactionRpc(rpc, tasks[0], &results[0]);
    for (ThreadHandle h : helpers) env_->Join(h);
  }

  // Surface the first failure but hand every completed sibling's outputs
  // to the caller anyway — RunCompaction recycles them on failure, so a
  // half-finished wave never leaks memory-node chunks.
  Status first;
  for (size_t i = 0; i < tasks.size(); i++) {
    if (first.ok() && !statuses[i].ok()) first = statuses[i];
    for (CompactionOutput& out : results[i].outputs) {
      outputs->push_back(std::move(out));
    }
  }
  return first;
}

Status DLsmDB::RunComputeSideCompaction(
    const CompactionPick& pick, std::vector<CompactionOutput>* outputs) {
  // The ablation path (Fig. 12 "compute"): inputs are pulled over the wire
  // and merged here; outputs are pushed back with the flush pipeline.
  std::vector<Iterator*> children;
  for (int which = 0; which < 2; which++) {
    for (const FileRef& f : pick.inputs[which]) {
      children.push_back(NewRemoteTableIterator(
          router_.route(*f), icmp_, f, options_.scan_prefetch_size));
    }
  }
  Iterator* merged = NewMergingIterator(&icmp_, children.data(),
                                        static_cast<int>(children.size()));

  // Outputs are placed per table, so each destination node gets its own
  // WRITE pipeline; all drain below before the caller installs.
  std::vector<std::unique_ptr<FlushPipeline>> pipelines(nodes_.size());
  const int out_level = pick.level + 1;
  auto new_output = [this, &pipelines, out_level](
                        const Slice& first_key, remote::RemoteChunk* chunk,
                        std::unique_ptr<TableSink>* sink) -> Status {
    const size_t slot = static_cast<size_t>(PlaceTable(out_level, first_key));
    MemoryNodeState& node = nodes_[slot];
    remote::RemoteChunk c = node.arena->Allocate();
    if (!c.valid()) {
      return Status::OutOfMemory("flush region exhausted (compaction)");
    }
    *chunk = c;
    *sink = NewOutputSink(slot, c, &pipelines);
    return Status::OK();
  };

  Status s = MergeAndBuild(env_, merged, bloom_, OldestSnapshot(),
                           pick.bottommost, options_.sstable_size,
                           options_.table_format, options_.block_size,
                           new_output, outputs);
  // Drain before the caller installs the outputs: same durability barrier
  // as FlushJob.
  if (s.ok()) s = DrainPipelines(&pipelines);
  return s;
}

// ---------------------------------------------------------------------------
// Files & GC (Sec. V-B)
// ---------------------------------------------------------------------------

FileRef DLsmDB::InstallOutput(CompactionOutput&& out, uint64_t l0_order) {
  auto file = std::make_shared<FileMetaData>();
  file->number = versions_->NewFileNumber();
  file->l0_order = l0_order;
  file->chunk = out.chunk;
  file->data_len = out.data_len;
  file->num_entries = out.num_entries;
  file->smallest = std::move(out.smallest);
  file->largest = std::move(out.largest);
  file->index = TableIndex::Parse(std::move(out.index_blob));
  DLSM_CHECK_MSG(file->index != nullptr, "unparseable table index");
  // Stamp the routing slot from where the bytes actually live, so reads
  // and near-data compactions follow the placement decision.
  file->memory_node =
      static_cast<uint32_t>(SlotForNode(out.chunk.home_node));
  uint64_t number = file->number;
  file->gc = [this, number](const remote::RemoteChunk& chunk) {
    // Last reference dropped: the table is gone for good, so its cached
    // bytes must go with it (cheap shard sweeps; never blocks).
    if (block_cache_ != nullptr) block_cache_->InvalidateTable(number);
    FileGone(chunk);
  };
  return file;
}

void DLsmDB::FileGone(const remote::RemoteChunk& chunk) {
  // Never blocks: may run while arbitrary locks are held by the releaser.
  const size_t slot = SlotForNode(chunk.home_node);
  if (chunk.owner_node == deps_.compute->id()) {
    // Compute-allocated (flush / compute-side compaction / migration):
    // recycle in the arena that controls that node's flush regions.
    nodes_[slot].arena->Free(chunk);
  } else {
    // Memory-node-allocated (near-data compaction): batch for a remote
    // free RPC to the owning node (paper: "grouped locally first and sent
    // in batch").
    std::lock_guard<std::mutex> lock(gc_mu_);
    gc_batches_[slot].push_back(chunk.addr);
  }
}

void DLsmDB::DrainGc() {
  for (size_t slot = 0; slot < nodes_.size(); slot++) {
    std::vector<uint64_t> batch;
    {
      std::lock_guard<std::mutex> lock(gc_mu_);
      if (gc_batches_[slot].size() < kGcBatchSize && !closed_) continue;
      batch.swap(gc_batches_[slot]);
    }
    if (batch.empty()) continue;
    std::string args, reply;
    remote::EncodeFreeBatch(batch, &args);
    Status s = nodes_[slot].rpc->Call(remote::RpcType::kFreeBatch, args,
                                      &reply);
    if (!s.ok()) {
      // Frees are idempotent bookkeeping: put the batch back and let a
      // later safe point retry once the fabric recovers. Never worth
      // aborting or fail-closing the DB over.
      std::lock_guard<std::mutex> lock(gc_mu_);
      gc_batches_[slot].insert(gc_batches_[slot].end(), batch.begin(),
                               batch.end());
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-memory-node placement & migration
// ---------------------------------------------------------------------------

int DLsmDB::PlaceTable(int level, const Slice& first_key) {
  const int n = static_cast<int>(nodes_.size());
  if (n <= 1) return 0;
  PlacementContext ctx;
  ctx.shard = deps_.placement_shard;
  ctx.level = level;
  ctx.table_seq = table_counter_.fetch_add(1, std::memory_order_relaxed);
  ctx.first_key = first_key;
  int slot = placement_->Place(ctx, n);
  if (slot < 0 || slot >= n) slot = static_cast<int>(home_);
  // Placement decisions are rare (one per table) but load-bearing for the
  // fig15 balance story; record each one (PR 9 backfill).
  trace::Tracer::EmitInstant("place_table", "placement", "slot",
                             static_cast<uint64_t>(slot));
  return slot;
}

size_t DLsmDB::SlotForNode(uint32_t node_id) const {
  for (size_t i = 0; i < nodes_.size(); i++) {
    if (nodes_[i].service->node()->id() == node_id) return i;
  }
  return home_;
}

void DLsmDB::RecoverAllVqs() {
  for (MemoryNodeState& n : nodes_) n.mgr->ThreadVq()->Recover();
}

void DLsmDB::RebalanceLoop() {
  // Per-node READ-verb gauges from the fabric nodes themselves: the
  // deltas between passes are each memory node's GLOBAL inbound read
  // load, across every compute node and shard — not just this engine's
  // own traffic. That distinction matters under sharding: a shard whose
  // tables all sit on one node (the round-robin layout) always sees its
  // own traffic as maximally skewed, but must not migrate anything when
  // the cluster as a whole is balanced. The hottest node sheds its
  // hottest tables toward the coldest one whenever the max/mean
  // imbalance crosses the configured threshold.
  std::vector<uint64_t> last_reads(nodes_.size(), 0);
  bool primed = false;
  while (!shutdown_.load(std::memory_order_acquire)) {
    {
      MutexLock l(&mig_mu_);
      if (!shutdown_.load(std::memory_order_acquire)) {
        mig_cv_.TimedWait(options_.placement_rebalance_interval_ns);
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    if (has_bg_error_.load(std::memory_order_acquire)) continue;

    std::vector<uint64_t> reads(nodes_.size(), 0);
    for (size_t i = 0; i < nodes_.size(); i++) {
      reads[i] = nodes_[i].service->node()->remote_read_ops();
    }
    if (!primed) {
      last_reads = reads;
      primed = true;
      continue;
    }
    uint64_t total = 0;
    uint64_t max_delta = 0;
    size_t from = 0;
    size_t to = 0;
    uint64_t min_delta = ~0ull;
    for (size_t i = 0; i < nodes_.size(); i++) {
      uint64_t d = reads[i] - last_reads[i];
      total += d;
      if (d > max_delta) {
        max_delta = d;
        from = i;
      }
      if (d < min_delta) {
        min_delta = d;
        to = i;
      }
    }
    last_reads = reads;
    if (total == 0 || from == to) continue;
    double mean = static_cast<double>(total) / nodes_.size();
    if (static_cast<double>(max_delta) <
        mean * kRebalanceThreshold) {
      continue;
    }
    MigrateRound(from, to);
  }
}

void DLsmDB::MigrateRound(size_t from, size_t to) {
  VersionRef version = versions_->current();
  struct Candidate {
    int level;
    FileRef f;
    uint64_t heat;
  };
  std::vector<Candidate> cands;
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileRef& f : version->files(level)) {
      if (f->memory_node != from) continue;
      uint64_t h = f->heat.load(std::memory_order_relaxed);
      if (h == 0) continue;  // Never read since install: not worth moving.
      cands.push_back(Candidate{level, f, h});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.heat > b.heat;
            });
  int moved = 0;
  for (const Candidate& c : cands) {
    if (moved >= options_.placement_rebalance_max_tables) break;
    if (shutdown_.load(std::memory_order_acquire)) break;
    trace::TraceSpan span("migrate_table", "migration");
    span.arg("file", c.f->number);
    Status s = MigrateOne(c.level, c.f, to);
    if (s.ok()) {
      moved++;
    } else if (s.IsIOError() || s.IsOutOfMemory()) {
      // Fabric trouble or a full destination: nothing this round can fix.
      break;
    }
    // Busy/NotFound: the table is mid-compaction or already replaced —
    // skip it and consider the next candidate.
  }
}

Status DLsmDB::MigrateOne(int level, const FileRef& f, size_t dst_slot) {
  telemetry::WatchdogScope wd(watchdog_.get(), "migration");
  remote::RemoteChunk dst = nodes_[dst_slot].arena->Allocate();
  if (!dst.valid()) {
    return Status::OutOfMemory("migration destination arena exhausted");
  }
  Status s;
  {
    // Stage: the bulk node-to-node byte copy (PR 9 backfill: the two
    // phases were previously invisible inside the parent migrate_table
    // span).
    trace::TraceSpan stage("migrate_stage", "migration");
    stage.arg("bytes", f->data_len);
    stage.arg("dst", static_cast<uint64_t>(dst_slot));
    s = CopyChunk(*f, dst_slot, dst);
  }
  if (!s.ok()) {
    nodes_[dst_slot].arena->Free(dst);
    return s;
  }
  trace::TraceSpan swap("migrate_swap", "migration");
  swap.arg("file", f->number);

  // Same-number metadata swap: identical keys/index, new chunk + routing
  // slot. Install order matters — the copy is durable (pipeline drained in
  // CopyChunk) BEFORE the version swap makes it reachable, and the cache
  // is invalidated AFTER the swap so no pre-swap fill can outlive it.
  auto moved = std::make_shared<FileMetaData>();
  moved->number = f->number;
  moved->l0_order = f->l0_order;
  moved->chunk = dst;
  moved->data_len = f->data_len;
  moved->num_entries = f->num_entries;
  moved->smallest = f->smallest;
  moved->largest = f->largest;
  moved->index = f->index;
  moved->memory_node = static_cast<uint32_t>(dst_slot);
  moved->heat.store(f->heat.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  uint64_t number = moved->number;
  moved->gc = [this, number](const remote::RemoteChunk& chunk) {
    if (block_cache_ != nullptr) block_cache_->InvalidateTable(number);
    FileGone(chunk);
  };

  VersionEdit edit;
  edit.ReplaceFile(level, std::move(moved));
  {
    MutexLock l(&mem_mu_);
    s = InstallLocked(edit);
  }
  if (!s.ok()) {
    // Busy (live compaction input) or NotFound (already left the tree):
    // the dropped replacement's gc frees the copied chunk.
    return s;
  }
  if (block_cache_ != nullptr) block_cache_->InvalidateTable(number);
  stat_tables_migrated_.fetch_add(1, std::memory_order_relaxed);
  stat_migration_bytes_.fetch_add(f->data_len, std::memory_order_relaxed);
  return Status::OK();
}

Status DLsmDB::CopyChunk(const FileMetaData& f, size_t dst_slot,
                         const remote::RemoteChunk& dst) {
  // Node-to-node copy staged through compute DRAM: retrying READs from
  // the source node, async WRITE waves to the destination. Any failure
  // (including a crashed node mid-copy) surfaces as a Status; the
  // destructors cancel whatever was still deferred.
  const RemoteReadPath& src = router_.route(f);
  rdma::RdmaManager* dst_mgr = nodes_[dst_slot].mgr.get();
  FlushPipeline pipeline(dst_mgr, &staging_);
  AsyncRemoteSink sink(dst_mgr, dst, &staging_, kFlushBuffersPerPipeline,
                       &pipeline);
  std::vector<char> buf(options_.flush_buffer_size);
  uint64_t off = 0;
  while (off < f.data_len) {
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::IOError("shutdown during migration copy");
    }
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(buf.size(), f.data_len - off));
    DLSM_RETURN_NOT_OK(
        src.MgrRead(buf.data(), f.chunk.addr + off, f.chunk.rkey, n));
    DLSM_RETURN_NOT_OK(sink.Append(buf.data(), n));
    off += n;
  }
  DLSM_RETURN_NOT_OK(sink.Finish());
  return pipeline.Drain();
}

// ---------------------------------------------------------------------------
// Fail-closed error state
// ---------------------------------------------------------------------------

void DLsmDB::SetBgError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lock(bg_error_mu_);
  if (bg_error_.ok()) {  // First failure wins; later ones are symptoms.
    bg_error_ = s;
    has_bg_error_.store(true, std::memory_order_release);
  }
}

Status DLsmDB::BgError() const {
  if (!has_bg_error_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(bg_error_mu_);
  return bg_error_;
}

// ---------------------------------------------------------------------------
// Maintenance operations
// ---------------------------------------------------------------------------

Status DLsmDB::Flush() {
  DLSM_RETURN_NOT_OK(BgError());
  {
    MutexLock l(&mem_mu_);
    MemTable* cur = mem_.load(std::memory_order_acquire);
    if (cur->num_entries() > 0) {
      if (options_.switch_policy == MemTableSwitchPolicy::kSeqRange) {
        // Burn the rest of the table's sequence range so the "immutable
        // tables never receive new sequences" invariant holds.
        uint64_t target = cur->seq_limit() - 1;
        uint64_t v = sequence_.load(std::memory_order_acquire);
        while (v < target && !sequence_.compare_exchange_weak(v, target)) {
        }
      }
      SwitchMemTableLocked();
    }
    while (pending_flushes_ > 0 || !imms_.empty()) {
      backpressure_cv_.Wait();
    }
  }
  // A flush job that exhausted its retries "completes" without installing;
  // report that instead of pretending the data is durable.
  return BgError();
}

Status DLsmDB::WaitForBackgroundIdle() {
  for (;;) {
    // With a sticky background error the LSM shape stops converging;
    // report the failure instead of polling NeedsCompaction forever.
    DLSM_RETURN_NOT_OK(BgError());
    {
      MutexLock l(&mem_mu_);
      while (pending_flushes_ > 0 || !imms_.empty()) {
        backpressure_cv_.Wait();
      }
    }
    {
      MutexLock l(&comp_mu_);
      while (running_compactions_ > 0) {
        comp_cv_.Wait();
      }
    }
    bool flush_idle;
    {
      MutexLock l(&mem_mu_);
      flush_idle = pending_flushes_ == 0 && imms_.empty();
    }
    if (flush_idle && !versions_->NeedsCompaction()) {
      bool comp_idle;
      {
        MutexLock l(&comp_mu_);
        comp_idle = running_compactions_ == 0;
      }
      if (comp_idle) return Status::OK();
    }
    env_->SleepNanos(2'000'000);
  }
}

DbStats DLsmDB::GetStats() {
  DbStats s;
  s.writes = stat_writes_.load();
  s.reads = stat_reads_.load();
  s.flushes = stat_flushes_.load();
  s.compactions = stat_compactions_.load();
  s.compaction_input_bytes = stat_comp_in_.load();
  s.compaction_output_bytes = stat_comp_out_.load();
  s.stall_ns = stat_stall_ns_.load();
  s.bloom_useful = stat_bloom_useful_.load();
  s.compaction_rpc_inflight_peak = stat_comp_rpc_peak_.load();
  s.read_retries = stat_read_retries_.load();
  s.flush_retries = stat_flush_retries_.load();
  s.tables_migrated = stat_tables_migrated_.load();
  s.migration_bytes = stat_migration_bytes_.load();
  if (watchdog_ != nullptr) s.watchdog_stalls = watchdog_->stalls();
  for (const MemoryNodeState& n : nodes_) {
    if (n.owned_rpc != nullptr) {
      // A shared client's counters are added once by the sharded wrapper.
      s.rpc_retries += n.owned_rpc->rpc_retries();
      s.rpc_timeouts += n.owned_rpc->rpc_timeouts();
    }
  }
  if (block_cache_ != nullptr) {
    CacheStats cs = block_cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_inserts = cs.inserts;
    s.cache_evictions = cs.evictions;
    s.cache_admission_rejects = cs.admission_rejects;
  }
  // Whole-engine RDMA stats are the sum over per-node connections; the
  // per-node breakdown feeds the placement-imbalance instrumentation.
  // After Close() the managers are gone and the counters read as zero.
  for (const MemoryNodeState& n : nodes_) {
    if (n.mgr == nullptr) continue;
    rdma::RdmaVerbStats vs = n.mgr->StatsSnapshot();
    s.rdma.MergeFrom(vs);
    DbStats::NodeIoStats io;
    io.read_verbs = vs.read.ops;
    io.read_bytes = vs.read.bytes;
    io.write_verbs = vs.write.ops;
    io.write_bytes = vs.write.bytes;
    s.per_node.push_back(io);
  }
  return s;
}

int DLsmDB::NumFilesAtLevel(int level) {
  VersionRef v = versions_->current();
  if (level < 0 || level >= kNumLevels) return 0;
  return v->NumFiles(level);
}

bool DLsmDB::GetProperty(const Slice& property, std::string* value) {
  if (property == Slice("dlsm.timeseries")) {
    if (series_ == nullptr) return false;  // Sampler off: name unavailable.
    *value = series_->ToJson();
    return true;
  }
  if (property == Slice("dlsm.levels")) {
    VersionRef v = versions_->current();
    std::string out;
    char buf[96];
    for (int level = 0; level < kNumLevels; level++) {
      std::snprintf(buf, sizeof(buf), "L%d: %d files, %llu bytes\n", level,
                    v->NumFiles(level),
                    static_cast<unsigned long long>(v->LevelBytes(level)));
      out.append(buf);
    }
    *value = std::move(out);
    return true;
  }
  if (property == Slice("dlsm.cache") && block_cache_ != nullptr) {
    // Engine view adds capacity/usage/offline state to the base
    // counter-only report.
    *value = block_cache_->PropertyString();
    return true;
  }
  if (property == Slice("dlsm.placement")) {
    // Engine view: policy plus the live per-node table/byte distribution
    // (the base implementation only reports the migration counters).
    std::vector<uint64_t> files(nodes_.size(), 0);
    std::vector<uint64_t> bytes(nodes_.size(), 0);
    VersionRef v = versions_->current();
    for (int level = 0; level < kNumLevels; level++) {
      for (const FileRef& f : v->files(level)) {
        size_t slot = f->memory_node < nodes_.size() ? f->memory_node : 0;
        files[slot]++;
        bytes[slot] += f->data_len;
      }
    }
    std::string out;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "policy: %s\nnodes: %zu\nrebalance: %s\n",
                  placement_->Name(), nodes_.size(),
                  has_migrator_ ? "on" : "off");
    out.append(buf);
    for (size_t i = 0; i < nodes_.size(); i++) {
      std::snprintf(buf, sizeof(buf),
                    "node%zu: %llu tables, %llu bytes%s\n", i,
                    static_cast<unsigned long long>(files[i]),
                    static_cast<unsigned long long>(bytes[i]),
                    i == home_ ? " (home)" : "");
      out.append(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "tables_migrated: %llu\nmigration_bytes: %llu\n",
                  static_cast<unsigned long long>(
                      stat_tables_migrated_.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(
                      stat_migration_bytes_.load(std::memory_order_relaxed)));
    out.append(buf);
    *value = std::move(out);
    return true;
  }
  return DB::GetProperty(property, value);
}

Status DLsmDB::Close() {
  if (closed_) return Status::OK();

  // Unhook from the fabric before any state is torn down: the listener
  // captures `this` and may fire from another thread's CrashNode call.
  if (crash_listener_id_ != 0) {
    deps_.fabric->RemoveCrashListener(crash_listener_id_);
    crash_listener_id_ = 0;
  }

  // Stop coordinators first: no new compactions (or migrations).
  shutdown_.store(true, std::memory_order_release);
  {
    MutexLock l(&comp_mu_);
    comp_cv_.SignalAll();
  }
  {
    MutexLock l(&mem_mu_);
    backpressure_cv_.SignalAll();
  }
  {
    MutexLock l(&mig_mu_);
    mig_cv_.SignalAll();
  }
  // The telemetry thread snapshots the per-node managers; it must be gone
  // before node teardown below.
  StopTelemetry();
  if (has_migrator_) {
    env_->Join(migrator_);
    has_migrator_ = false;
  }
  for (ThreadHandle h : coordinators_) env_->Join(h);
  coordinators_.clear();

  // Drain flushes.
  {
    MutexLock l(&mem_mu_);
    while (pending_flushes_ > 0) {
      backpressure_cv_.Wait();
    }
  }
  owned_flush_pool_.reset();
  flush_pool_ = nullptr;

  closed_ = true;

  // Release in-memory state; dropping the VersionSet releases every file,
  // which enqueues their chunks for GC.
  {
    MutexLock l(&mem_mu_);
    {
      std::lock_guard<std::mutex> lock(read_mu_);
      read_state_.reset();
    }
    MemTable* cur = mem_.load();
    if (cur != nullptr) cur->Unref();
    mem_.store(nullptr);
    for (MemTable* m : imms_) m->Unref();
    imms_.clear();
  }
  versions_.reset();
  DrainGc();  // Before the RPC clients die: remote frees need them.
  for (MemoryNodeState& n : nodes_) {
    n.arena.reset();
    n.owned_rpc.reset();
    n.rpc = nullptr;
    n.mgr.reset();
  }
  router_ = ReadRouter{};
  read_paths_.clear();
  mgr_ = nullptr;
  rpc_ = nullptr;
  return Status::OK();
}

}  // namespace dlsm

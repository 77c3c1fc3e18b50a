// DLsmDB: the compute-node engine (paper Secs. III–VII).

#ifndef DLSM_CORE_DB_IMPL_H_
#define DLSM_CORE_DB_IMPL_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/core/block_cache.h"
#include "src/core/compaction.h"
#include "src/core/db.h"
#include "src/core/dbformat.h"
#include "src/core/memory_node_service.h"
#include "src/core/memtable.h"
#include "src/core/placement.h"
#include "src/core/table_reader.h"
#include "src/core/version.h"
#include "src/rdma/rdma_manager.h"
#include "src/remote/remote_alloc.h"
#include "src/remote/rpc.h"
#include "src/sim/thread_pool.h"
#include "src/util/timeseries.h"
#include "src/util/watchdog.h"

namespace dlsm {

/// Wiring: which machines this DB runs across and what it may share with
/// sibling shards.
struct DbDeps {
  rdma::Fabric* fabric = nullptr;
  rdma::Node* compute = nullptr;
  /// Single-memory-node form; ignored when `memories` is non-empty.
  MemoryNodeService* memory = nullptr;
  /// Multi-node form: slot i of the engine's memory-node vector. Tables
  /// are placed across these by Options::placement_policy.
  std::vector<MemoryNodeService*> memories;
  /// Optional shared flush pool (sharded deployments); DB creates its own
  /// when null.
  ThreadPool* shared_flush_pool = nullptr;
  /// Optional shared RPC client to the (single) memory node; DB creates
  /// its own when null.
  remote::RpcClient* shared_rpc = nullptr;
  /// Multi-node form of shared_rpc, parallel to `memories`; null entries
  /// get an owned per-node client.
  std::vector<remote::RpcClient*> shared_rpcs;
};

class DLsmDB : public DB {
 public:
  /// Opens a dLSM instance; on success *dbptr owns the database.
  static Status Open(const Options& options, const DbDeps& deps, DB** dbptr);

  ~DLsmDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  void MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status Flush() override;
  Status WaitForBackgroundIdle() override;
  DbStats GetStats() override;
  int NumFilesAtLevel(int level) override;
  /// Adds per-level byte counts to "dlsm.levels" (the base implementation
  /// only sees file counts); other properties defer to DB::GetProperty.
  bool GetProperty(const Slice& property, std::string* value) override;
  Status Close() override;

 private:
  DLsmDB(const Options& options, const DbDeps& deps);

  Status Init();

  // -- Read path (Secs. III, VI) ---------------------------------------------
  /// The one point-lookup engine: Get is n = 1, MultiGet any n. Resolves
  /// keys[i] into statuses[i] (and values[i] when found) at one snapshot,
  /// probing tables in waves. A may-match probe's bytes come from the
  /// block cache, from a one-sided READ posted asynchronously (async
  /// transport: ReadOptions::async_reads on a plain one-sided read path),
  /// or from a blocking RemoteReadPath::Read (sync transport: RPC reads,
  /// staging copies, uncached indexes, async_reads off).
  void ProbeKeys(const ReadOptions& options, std::span<const Slice> keys,
                 std::string* values, Status* statuses);

  // -- Write path (Sec. IV) --------------------------------------------------
  Status WriteInternal(WriteBatch* batch);
  /// Inserts a batch of n entries at a pre-allocated sequence base (group
  /// sequence batching: the queue leader draws one window for the whole
  /// group). Routes exactly like WriteInternal: switches forward when the
  /// base is past the current table's range, reallocates a fresh base
  /// when it landed behind (stale window after a switch burst or Flush
  /// range burn) so "newer version in newer table" stays absolute.
  /// *reallocated (may be null) reports whether the pre-allocated base was
  /// abandoned — the group leader must then stop using the rest of its
  /// window, or later group members would commit below this batch.
  Status WriteAtSequence(WriteBatch* batch, SequenceNumber seq_base,
                         uint32_t n, bool* reallocated = nullptr);
  /// RocksDB-style writer queue (baseline write path): writers serialize
  /// through a mutex; the queue head commits a group at a time. Under
  /// async_write the leader batches the group's sequence allocations into
  /// one fetch-add instead of one per batch.
  Status WriteQueued(WriteBatch* batch);
  /// Installs MemTables until seq routes into the current one. Also the
  /// stall point (L0 stop trigger / immutable backlog).
  Status HandleSwitch(SequenceNumber seq);
  void SwitchMemTableLocked();  // Requires mem_mu_.

  // -- Flush (Sec. X-C) --------------------------------------------------------
  void ScheduleFlushLocked(MemTable* mem);
  void FlushJob(MemTable* mem, uint64_t l0_order);

  // -- Compaction (Sec. V) -----------------------------------------------------
  void CompactionCoordinatorLoop();
  Status RunCompaction(const CompactionPick& pick);
  /// Merges on memory node `slot` (every input of the pick lives there).
  Status RunNearDataCompaction(const CompactionPick& pick, size_t slot,
                               std::vector<CompactionOutput>* outputs);
  Status RunComputeSideCompaction(const CompactionPick& pick,
                                  std::vector<CompactionOutput>* outputs);
  Status IssueCompactionRpc(remote::RpcClient* rpc, const CompactionTask& task,
                            CompactionResult* result);
  /// Bumps the in-flight compaction-RPC gauge and folds it into the peak.
  void NoteCompactionRpcIssued();
  CompactionInput MakeInput(const FileRef& f, const Slice* lo,
                            const Slice* hi) const;

  // -- Files & GC (Sec. V-B) ---------------------------------------------------
  FileRef InstallOutput(const CompactionOutput& out, uint64_t l0_order);
  void FileGone(const remote::RemoteChunk& chunk);  // gc enqueue; non-blocking
  void DrainGc();  // Issues batched remote frees; blocking-safe points only.

  // -- Multi-memory-node placement & migration ---------------------------------
  /// Placement decision for a new table: a slot into nodes_.
  int PlaceTable(int level, const Slice& first_key);
  /// Slot whose memory node has this fabric node id (home_ if unknown).
  size_t SlotForNode(uint32_t node_id) const;
  /// Recovers every per-node connection's thread verb queue (transient
  /// fault handling on paths that may have touched several nodes).
  void RecoverAllVqs();
  /// Heat-based rebalancer (Options::placement_rebalance): periodically
  /// moves the hottest tables off the most READ-loaded node.
  void RebalanceLoop();
  void MigrateRound(size_t from, size_t to);
  Status MigrateOne(int level, const FileRef& f, size_t dst_slot);
  /// Stages the table's data region through compute DRAM onto dst via the
  /// completion-handle WRITE wave layer (durability: drained before the
  /// version swap).
  Status CopyChunk(const FileMetaData& f, size_t dst_slot,
                   const remote::RemoteChunk& dst);

  SequenceNumber OldestSnapshot();
  uint64_t SeqRange() const;

  // -- Continuous telemetry (db_telemetry.cc) ----------------------------------
  /// Builds the sample ring / watchdog per Options and starts the
  /// telemetry thread when either is enabled. Called at the end of Init().
  void SetupTelemetry();
  /// Sampler + watchdog tick loop (one background thread).
  void TelemetryLoop();
  /// Appends one row of counters/gauges to series_.
  void SampleOnce();
  /// Stops and joins the telemetry thread (idempotent; Close()).
  void StopTelemetry();

  // -- Fail-closed error state -------------------------------------------------
  /// Records the first unrecoverable background failure (flush retries
  /// exhausted, compaction aborted). The error is sticky: every subsequent
  /// user operation returns it instead of serving a view that may be
  /// missing bytes. A version is never installed over a failed wave.
  void SetBgError(const Status& s);
  /// The sticky background error, or OK. Cheap when healthy (one relaxed
  /// atomic load).
  Status BgError() const;

  // Immutable after Init().
  Options options_;
  DbDeps deps_;
  Env* env_;
  InternalKeyComparator icmp_;
  BloomFilterPolicy bloom_;

  /// Per-memory-node connection state. The vector (and the parallel
  /// read_paths_) never changes size after Init(), so borrowed pointers
  /// into it (ReadRouter, arena grow closures) stay valid for the DB's
  /// lifetime.
  struct MemoryNodeState {
    MemoryNodeService* service = nullptr;
    std::unique_ptr<rdma::RdmaManager> mgr;
    std::unique_ptr<remote::RpcClient> owned_rpc;
    remote::RpcClient* rpc = nullptr;
    /// Growable flush arena on this node (home slot seeded at Open; other
    /// slots provision lazily through the grow RPC).
    std::unique_ptr<remote::RemoteArena> arena;
  };
  std::vector<MemoryNodeState> nodes_;
  std::vector<RemoteReadPath> read_paths_;  // Parallel to nodes_.
  ReadRouter router_;
  size_t home_ = 0;  ///< placement_shard % nodes: the round-robin slot.
  // Home-slot aliases for the single-connection paths (write wiring,
  // legacy call sites); nodes_[home_] owns both.
  rdma::RdmaManager* mgr_ = nullptr;
  remote::RpcClient* rpc_ = nullptr;
  size_t slab_size_ = 0;  ///< Per-table chunk size (all arenas).

  std::unique_ptr<PlacementPolicy> placement_;
  std::atomic<uint64_t> table_counter_{0};

  // Compute-side hot-data cache (null when block_cache_size == 0).
  // Declared before read_paths_ users run; read_paths_[i].cache points
  // here.
  std::unique_ptr<BlockCache> block_cache_;
  uint64_t crash_listener_id_ = 0;  // Fabric crash-listener registration.
  std::atomic<int> crashed_memory_nodes_{0};
  std::unique_ptr<ThreadPool> owned_flush_pool_;
  ThreadPool* flush_pool_ = nullptr;
  std::unique_ptr<VersionSet> versions_;

  // Heat-based rebalancer (placement_rebalance && nodes_ > 1).
  bool has_migrator_ = false;
  ThreadHandle migrator_{};
  Mutex mig_mu_;
  CondVar mig_cv_;

  // Continuous telemetry: background sampler ring + stall watchdog, both
  // null when their Options knobs are 0. One shared thread ticks them.
  std::unique_ptr<telemetry::Series> series_;
  std::unique_ptr<telemetry::Watchdog> watchdog_;
  bool has_telemetry_thread_ = false;
  ThreadHandle telemetry_thread_{};
  Mutex telem_mu_;
  CondVar telem_cv_;
  /// Previous verb-stats snapshot, for windowed (per-sample-interval)
  /// latency percentiles via Histogram::DeltaSince. Telemetry thread only.
  rdma::RdmaVerbStats prev_verbs_;

  // Write state.
  std::atomic<uint64_t> sequence_{0};  // Last allocated sequence number.
  std::atomic<MemTable*> mem_{nullptr};
  Mutex mem_mu_;             // Guards the switch & immutable queue.
  CondVar backpressure_cv_;  // Signalled when flush/compaction frees room.
  std::deque<MemTable*> imms_;  // Oldest first; referenced.
  int pending_flushes_ = 0;     // Guarded by mem_mu_.
  // Stall-interval union (guarded by mem_mu_): concurrent stalled writers
  // share one open interval so stat_stall_ns_ measures stalled wall time,
  // not the sum over writers (which could exceed elapsed time).
  int stalled_writers_ = 0;
  uint64_t stall_since_ = 0;

  // Compaction coordination.
  std::vector<ThreadHandle> coordinators_;
  Mutex comp_mu_;
  CondVar comp_cv_;
  int running_compactions_ = 0;  // Guarded by comp_mu_.
  std::atomic<bool> shutdown_{false};

  // Writer queue (WritePath::kWriterQueue only).
  struct QueuedWriter;
  std::unique_ptr<Mutex> write_mu_;
  std::deque<QueuedWriter*> write_queue_;  // Guarded by write_mu_.

  // Snapshots.
  Mutex snap_mu_;
  std::multiset<uint64_t> snapshots_;  // Guarded by snap_mu_.

  // GC batching (remote-origin chunks), one pending batch per memory
  // node so each address is freed at the node that holds it.
  std::mutex gc_mu_;
  std::vector<std::vector<uint64_t>> gc_batches_;

  // Fail-closed state (SetBgError / BgError).
  mutable std::mutex bg_error_mu_;
  Status bg_error_;  // Guarded by bg_error_mu_.
  std::atomic<bool> has_bg_error_{false};

  // Stats.
  std::atomic<uint64_t> stat_writes_{0};
  std::atomic<uint64_t> stat_reads_{0};
  std::atomic<uint64_t> stat_flushes_{0};
  std::atomic<uint64_t> stat_compactions_{0};
  std::atomic<uint64_t> stat_comp_in_{0};
  std::atomic<uint64_t> stat_comp_out_{0};
  std::atomic<uint64_t> stat_stall_ns_{0};
  std::atomic<uint64_t> stat_bloom_useful_{0};
  std::atomic<uint64_t> stat_comp_rpc_inflight_{0};
  std::atomic<uint64_t> stat_comp_rpc_peak_{0};
  std::atomic<uint64_t> stat_read_retries_{0};
  std::atomic<uint64_t> stat_flush_retries_{0};
  std::atomic<uint64_t> stat_tables_migrated_{0};
  std::atomic<uint64_t> stat_migration_bytes_{0};

  bool closed_ = false;
};

}  // namespace dlsm

#endif  // DLSM_CORE_DB_IMPL_H_

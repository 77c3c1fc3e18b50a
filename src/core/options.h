// Configuration for dLSM databases. Defaults follow the paper's setup
// (Sec. XI-B) scaled by the bench harness where noted.

#ifndef DLSM_CORE_OPTIONS_H_
#define DLSM_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/comparator.h"
#include "src/sim/env.h"

namespace dlsm {

/// SSTable layout (paper Sec. VI / Fig. 13 ablation).
enum class TableFormat {
  /// Byte-addressable: contiguous sorted kv records + kv-granular index;
  /// point reads fetch exactly one record.
  kByteAddressable,
  /// Block-based (RocksDB-style): reads fetch whole blocks.
  kBlock,
};

/// Where compaction executes (paper Sec. V / Fig. 12 ablation).
enum class CompactionPlacement {
  /// Offloaded to the memory node via the customized RPC (near-data).
  kNearData,
  /// On the compute node: inputs pulled and outputs pushed over the wire.
  kComputeSide,
};

/// Which memory node receives each new SSTable when the deployment has
/// more than one (see src/core/placement.h). With a single memory node
/// every policy degenerates to node 0.
enum class PlacementPolicyKind {
  /// Static: every table of a shard lands on shard % nodes — exactly the
  /// pre-placement `s % memory_nodes` cluster wiring, and the equivalence
  /// baseline for the other policies.
  kRoundRobin,
  /// Per-table rotation: the shard's tables stripe across all nodes in
  /// allocation order.
  kTable,
  /// Per-level: each LSM level of a shard maps to one node, so compaction
  /// I/O for a level stays node-local.
  kLevel,
  /// Key-range: the table's first user key picks the node, either through
  /// explicit split points or a uniform prefix hash.
  kRange,
};

/// How writes reach the MemTable.
enum class WritePath {
  /// dLSM: lock-free — atomic sequence allocation + lock-free skiplist.
  kLockFree,
  /// RocksDB-style: writers queue on a mutex and a leader commits a group
  /// at a time (the software overhead of the ported baselines).
  kWriterQueue,
};

/// How a full MemTable is made immutable (paper Sec. IV ablation).
enum class MemTableSwitchPolicy {
  /// dLSM: each MemTable owns a predefined sequence-number range; the
  /// switch lock is touched once per range.
  kSeqRange,
  /// Naive double-checked locking on the size limit (the paper explains
  /// why this mis-orders racing writers; kept for the ablation bench).
  kDoubleCheckedSize,
};

struct Options {
  Options() {}

  /// Execution environment (never null when a DB is opened).
  Env* env = nullptr;

  const Comparator* comparator = BytewiseComparator();

  // -- Write path -----------------------------------------------------------

  /// MemTable byte budget. Paper default 64 MB; benches scale to 4 MB.
  size_t memtable_size = 4 << 20;

  /// Sequence numbers per MemTable under kSeqRange. 0 derives it from
  /// memtable_size / estimated_entry_size.
  uint64_t memtable_seq_range = 0;

  /// Rough per-entry footprint used to derive the sequence range.
  size_t estimated_entry_size = 448;

  MemTableSwitchPolicy switch_policy = MemTableSwitchPolicy::kSeqRange;

  WritePath write_path = WritePath::kLockFree;

  /// Asynchronous write path (mirrors ReadOptions::async_reads): flush
  /// buffers leave as handle waves drained once per job instead of per
  /// output, writer-queue groups take one sequence allocation for the
  /// whole group, and near-data compaction RPCs are pipelined through
  /// RpcClient::CallAsync. When false every flush buffer is a blocking
  /// WRITE and each compaction RPC parks its scheduler thread — the
  /// fig7/fig12 --async_write=false ablation leg.
  bool async_write = true;

  /// Verb-budget cap for the pipelined compaction scheduler: before
  /// widening its in-flight RPC window it requires (window size +
  /// outstanding verbs on this engine's connection) <= budget, so
  /// compaction waves yield to foreground read/flush traffic instead of
  /// relying on link fairness. 1 serializes sub-compaction RPCs; 0 means
  /// no cap. Only consulted when async_write is set.
  uint64_t compaction_verb_budget = 64;

  /// Maximum immutable MemTables awaiting flush (paper: 16).
  int max_immutables = 16;

  /// Background flush threads on the compute node (paper: 4).
  int flush_threads = 4;

  // -- SSTables --------------------------------------------------------------

  /// Target SSTable data size. Paper default 64 MB; benches scale to 4 MB.
  size_t sstable_size = 4 << 20;

  /// Remote slab chunk size; 0 derives sstable_size plus headroom for the
  /// serialized index and bloom filter.
  size_t sstable_slab_size = 0;

  int bloom_bits_per_key = 10;

  TableFormat table_format = TableFormat::kByteAddressable;

  /// Block size when table_format == kBlock (8 KB RocksDB default).
  size_t block_size = 8192;

  // -- Compaction ------------------------------------------------------------

  CompactionPlacement compaction_placement = CompactionPlacement::kNearData;

  /// L0 file count that triggers compaction (RocksDB default 4).
  int l0_compaction_trigger = 4;

  /// L0 file count at which writers stall (paper normal mode: 36;
  /// bulkload mode: effectively infinity).
  int l0_stop_writes_trigger = 36;

  /// Compute-side compaction coordinator threads; each drives one
  /// (sub-)compaction RPC at a time.
  int compaction_scheduler_threads = 4;

  /// Maximum parallel sub-compactions an L0 compaction splits into
  /// (paper: 12 subcompaction workers).
  int max_subcompactions = 12;

  /// Bytes allowed at L1 before compaction pressure; deeper levels grow by
  /// level_size_multiplier. 0 derives 4 * sstable_size.
  uint64_t max_bytes_for_level_base = 0;
  double level_size_multiplier = 10.0;

  int num_levels = 7;

  // -- Remote memory ----------------------------------------------------------

  /// Compute-controlled region for flushed SSTables.
  size_t flush_region_size = 1ull << 31;

  /// Memory-node-controlled region for near-data compaction outputs.
  size_t compaction_region_size = 1ull << 31;

  /// Registered flush staging buffer size (Sec. X-C pipeline).
  size_t flush_buffer_size = 256 << 10;

  /// Buffers per flush pipeline before the writer must recycle.
  int flush_buffers_per_thread = 4;

  /// Largest scan prefetch window (Sec. VI: "prefetches large chunks of
  /// key-value pairs by sequential I/O"). SeekToFirst/SeekToLast passes
  /// fetch chunks of this size; a scan positioned by Seek starts with an
  /// 8 KiB window that doubles on each sequential overrun up to this cap.
  size_t scan_prefetch_size = 2 << 20;

  // -- Fault handling ---------------------------------------------------------
  //
  // Recovery policy for injected fabric faults (rdma::FaultParams). The
  // defaults keep the fault-free fast paths bit-identical: no deadline
  // arithmetic on RPCs, and the one-sided retry loops only engage when a
  // verb actually fails.

  /// Per-attempt RPC reply deadline; 0 waits forever. Forwarded to the
  /// shared RpcClient at Open (remote::RpcPolicy::timeout_ns).
  uint64_t rpc_timeout_ns = 0;

  /// Additional RPC attempts after a transient failure (timeout, flushed
  /// send, QP error). Only honored when rpc_timeout_ns > 0.
  int rpc_max_retries = 0;

  /// Base backoff between RPC attempts; doubles per attempt.
  uint64_t rpc_retry_backoff_ns = 100 * 1000;

  /// Additional attempts for one-sided verbs on the read and flush paths
  /// (table reads, L0 probe waves, scan prefetch, flush waves). Each
  /// retry first recovers the failed QP (drain + reset + reconnect).
  int rdma_max_retries = 3;

  /// Base backoff between one-sided retries; doubles per attempt.
  uint64_t rdma_retry_backoff_ns = 50 * 1000;

  /// Times a failed flush job is re-queued before the DB fail-closes with
  /// a background error (no version is ever installed over missing bytes).
  int flush_max_retries = 3;

  // -- Baseline modeling ------------------------------------------------------

  /// Adds one staging-buffer copy on every remote table read and write,
  /// modeling the file-system layer the ported baselines go through
  /// (RDMA-FS for RocksDB-RDMA, tmpfs for Nova-LSM).
  bool extra_io_copy = false;

  /// Routes point reads through a two-sided RPC served by the memory node
  /// (Nova-LSM's longer read path) instead of a one-sided READ.
  bool reads_via_rpc = false;

  /// When false, every table probe first fetches the table's index block
  /// from remote memory (RocksDB-RDMA without compute-side index caching;
  /// the paper caches indexes only for Memory-RocksDB-RDMA and dLSM).
  bool cache_index_blocks = true;

  // -- Compute-side cache -----------------------------------------------------
  //
  // A sharded CLOCK+TinyLFU cache of remote bytes keyed by (table id,
  // offset). Hits elide the one-sided READ (or read RPC) entirely. Off by
  // default: the paper's dLSM keeps no compute-side data cache, so the
  // measured baselines stay faithful unless explicitly enabled.

  /// Total cache budget in payload bytes; 0 disables the cache.
  size_t block_cache_size = 0;

  /// Cache shard count (rounded up to a power of two).
  int cache_shards = 16;

  /// TinyLFU admission: a newcomer must beat the CLOCK victim's estimated
  /// access frequency to displace it. Disable for pure-LRU-like behavior.
  bool cache_admission = true;

  /// Let scan prefetch fills enter the cache. Off by default so one-shot
  /// sequential traffic cannot pollute the point-read hot set.
  bool cache_scans = false;

  // -- Multi-memory-node placement -------------------------------------------
  //
  // Only consulted when DbDeps supplies more than one memory service;
  // single-node deployments ignore the whole block.

  /// Which node each new SSTable is installed on.
  PlacementPolicyKind placement_policy = PlacementPolicyKind::kRoundRobin;

  /// This engine's shard ordinal, used to offset static policies so sibling
  /// shards spread instead of piling on node 0. Cluster/ShardedDB set it.
  int placement_shard = 0;

  /// Explicit user-key split points for kRange (sorted; nodes = points+1
  /// buckets truncated to the node count). Empty = uniform prefix hash.
  std::vector<std::string> placement_split_points;

  /// Heat-based rebalancer: a background pass that moves hot tables off
  /// the most READ-loaded node when the max/mean per-node READ-verb ratio
  /// exceeds the threshold. Off by default (static placement).
  bool placement_rebalance = false;

  /// Interval between rebalance passes.
  uint64_t placement_rebalance_interval_ns = 50ull * 1000 * 1000;

  /// Max/mean READ-verb imbalance (over the last interval) that triggers a
  /// migration round.
  double placement_rebalance_threshold = 1.5;

  /// Tables moved per round (bounds migration WRITE traffic).
  int placement_rebalance_max_tables = 2;

  /// Region bytes requested per arena growth RPC when a node's flush arena
  /// is exhausted; 0 grows by flush_region_size.
  size_t flush_region_growth = 0;

  // -- Continuous telemetry ---------------------------------------------------
  //
  // A background sampler snapshots the engine's counters, per-node verb
  // distribution, and windowed wire-latency percentiles into a fixed-size
  // ring of time series rows, exported via GetProperty("dlsm.timeseries").
  // Off by default so determinism/equivalence runs are unperturbed; when
  // enabled the sampler thread runs on the compute node's virtual CPU and
  // two same-seed runs at cpu_scale=0 produce byte-identical series.

  /// Sampling period; 0 disables the sampler (and the series property).
  uint64_t stats_sample_period_ms = 0;

  /// Ring capacity in samples; the oldest rows fall off (counted in the
  /// exported "dropped" field).
  size_t stats_ring_capacity = 512;

  // -- Stall watchdog ---------------------------------------------------------
  //
  // Detects work outstanding beyond a deadline — verbs stuck on the wire,
  // flushes / compactions / migrations / compaction RPCs that stopped
  // making progress — and emits ONE diagnostic dump (series tail,
  // outstanding-verb table, per-QP state) to the sink. Deadlines are
  // virtual time, so sanitizer slowdown and cpu_scale=0 cannot trip it.

  /// Deadline after which in-flight work counts as stalled; 0 disables
  /// the watchdog.
  uint64_t watchdog_deadline_ms = 0;

  /// Watchdog evaluation period; 0 derives deadline/4 (min 1 ms).
  uint64_t watchdog_poll_ms = 0;

  /// Where the one-shot diagnostic dump goes; null writes to stderr.
  std::function<void(const std::string&)> watchdog_sink;

  // -- Sharding (Sec. VII) ----------------------------------------------------

  /// Number of range shards (lambda); each shard is an independent LSM.
  int shards = 1;
};

struct ReadOptions {
  ReadOptions() {}
  /// Read at this snapshot sequence; kMaxSequenceNumber-like default means
  /// "latest". Filled by DB::GetSnapshot users.
  uint64_t snapshot_sequence = ~0ull;

  /// Selects the point-lookup transport: doorbell-batched asynchronous
  /// READs (concurrent L0 probes, MultiGet waves) when on, one blocking
  /// read per probe when off. Only honored on read paths that go through
  /// plain one-sided READs; baselines with RPC reads, staging copies or
  /// uncached indexes always probe synchronously (a transport detail, not
  /// a semantic one). Exposed mainly for the read-batching ablation bench.
  bool async_reads = true;
};

struct WriteOptions {
  WriteOptions() {}
};

}  // namespace dlsm

#endif  // DLSM_CORE_OPTIONS_H_

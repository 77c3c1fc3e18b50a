// Public dLSM database interface.

#ifndef DLSM_CORE_DB_H_
#define DLSM_CORE_DB_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/iterator.h"
#include "src/core/options.h"
#include "src/core/write_batch.h"
#include "src/rdma/verb_stats.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dlsm {

/// An immutable view of the database as of some sequence number.
class Snapshot {
 public:
  virtual ~Snapshot() = default;
  virtual uint64_t sequence() const = 0;
};

/// How a DbStats counter combines when shard or cluster views merge.
enum class MergeRule : uint8_t {
  kSum,  ///< Monotonic count: views add.
  kMax,  ///< High-water mark: views keep the largest.
};

/// Every scalar DbStats counter, declared once as X(name, rule, doc). The
/// struct fields, DbStats::MergeFrom, ToString, StatsJson and the
/// sampler's "dlsm.timeseries" columns are generated from this list, in
/// this order (StatsJson's key order). Adding a counter is one entry here
/// plus its source binding in each engine's GetStats.
#define DLSM_DB_COUNTERS(X)                                                \
  X(writes, kSum, "Write records applied (Put, Delete, batch entries).")   \
  X(reads, kSum, "Point lookups served (Get and MultiGet keys).")          \
  X(flushes, kSum, "MemTables flushed to remote SSTables.")                \
  X(compactions, kSum, "Compactions installed.")                           \
  X(compaction_input_bytes, kSum, "Table bytes read by compactions.")      \
  X(compaction_output_bytes, kSum, "Table bytes written by compactions.")  \
  X(stall_ns, kSum, "Total write-stall virtual time.")                     \
  X(bloom_useful, kSum, "Remote reads skipped by bloom filters.")          \
  X(compaction_rpc_inflight_peak, kMax,                                    \
    "Peak concurrent near-data compaction RPCs (async scheduler window); " \
    "1 when the verb budget or the blocking scheduler serializes them.")   \
  X(read_retries, kSum, "Point/scan reads re-issued after a fault.")       \
  X(flush_retries, kSum, "Flush jobs re-run before install.")              \
  X(rpc_retries, kSum, "RPC attempts re-issued after a failure.")          \
  X(rpc_timeouts, kSum, "RPC attempts that hit the reply deadline.")       \
  X(watchdog_stalls, kSum,                                                 \
    "Operations the stall watchdog found outstanding beyond their "        \
    "deadline (Options::watchdog_deadline_ms); 0 when it is off.")         \
  X(cache_hits, kSum, "Block-cache reads served without the fabric.")      \
  X(cache_misses, kSum, "Block-cache probes that went remote.")            \
  X(cache_inserts, kSum, "Fills admitted into the block cache.")           \
  X(cache_evictions, kSum, "Block-cache entries displaced by CLOCK.")      \
  X(cache_admission_rejects, kSum, "Fills the TinyLFU sketch refused.")    \
  X(tables_migrated, kSum, "Heat-rebalancer version-install swaps.")       \
  X(migration_bytes, kSum, "Table bytes copied node-to-node.")

/// Aggregate engine statistics: the DLSM_DB_COUNTERS scalars (zero when
/// their feature is off), the per-memory-node split and verb telemetry.
struct DbStats {
#define DLSM_DB_COUNTER_FIELD(name, rule, doc) uint64_t name = 0;
  DLSM_DB_COUNTERS(DLSM_DB_COUNTER_FIELD)
#undef DLSM_DB_COUNTER_FIELD

  /// Per-memory-node verb/byte distribution of this engine's traffic,
  /// indexed by memory-node slot; the imbalance input for the heat
  /// rebalancer and the fig15 per-node report. Empty on engines without
  /// memory-node placement.
  struct NodeIoStats {
    uint64_t read_verbs = 0;
    uint64_t read_bytes = 0;
    uint64_t write_verbs = 0;
    uint64_t write_bytes = 0;
  };
  std::vector<NodeIoStats> per_node;

  /// Verb-layer telemetry of this engine's compute->memory connection:
  /// per-verb-class ops/bytes and wire-latency histograms, plus
  /// outstanding-op gauges and error/reconnect counts.
  rdma::RdmaVerbStats rdma;

  /// Folds another view in: each counter by its MergeRule, per_node slot
  /// by slot (slot i is the same memory node in both views), rdma exactly.
  void MergeFrom(const DbStats& other);

  /// What accrued since `prev`, an earlier snapshot of the same view: kSum
  /// counters, per_node slots and rdma differenced (RdmaVerbStats::
  /// DeltaSince); kMax counters keep this snapshot's value.
  DbStats DeltaSince(const DbStats& prev) const;

  /// Multi-line human-readable dump: "name value" per counter, then the
  /// per-node split and the verb summary (no histograms).
  std::string ToString() const;
};

/// One DLSM_DB_COUNTERS entry, for code that walks the counters.
struct DbCounter {
  const char* name;
  MergeRule rule;
  uint64_t DbStats::*field;
};

inline constexpr DbCounter kDbCounters[] = {
#define DLSM_DB_COUNTER_ENTRY(name, rule, doc) \
  {#name, MergeRule::rule, &DbStats::name},
    DLSM_DB_COUNTERS(DLSM_DB_COUNTER_ENTRY)
#undef DLSM_DB_COUNTER_ENTRY
};

/// Machine-readable serialization of a DbStats snapshot: every counter
/// plus the full verb-class telemetry (RdmaVerbStats::ToJson, including
/// latency histogram percentiles). One JSON object, no trailing newline.
std::string StatsJson(const DbStats& stats);

/// A key-value store. Thread-safe: any number of concurrent readers and
/// writers. Iterators and snapshots must be released before Close().
class DB {
 public:
  virtual ~DB() = default;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* batch) = 0;
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: values and statuses are resized to keys.size()
  /// and (*statuses)[i] answers keys[i] exactly as Get would. Every key is
  /// read at one snapshot — options.snapshot_sequence when given, else the
  /// latest sequence at call time. The base implementation loops Get;
  /// engines override it to post one doorbell batch of remote READs per
  /// level wave and resolve per-key newest-wins locally.
  virtual void MultiGet(const ReadOptions& options,
                        std::span<const Slice> keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses);

  /// Iterator over user keys/values at the read snapshot. Caller deletes.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Forces the current MemTable out and waits until every immutable
  /// MemTable has been flushed.
  virtual Status Flush() = 0;

  /// Blocks until no flush or compaction work remains (bench warm-down;
  /// the paper's read benchmarks "start after all the background
  /// compaction tasks finish").
  virtual Status WaitForBackgroundIdle() = 0;

  virtual DbStats GetStats() = 0;

  /// Number of SSTables at the given level (diagnostics).
  virtual int NumFilesAtLevel(int level) = 0;

  /// Introspection by property name; fills *value and returns true for:
  ///   "dlsm.stats"  — human-readable counter dump
  ///   "dlsm.levels" — per-level file counts (engines that track remote
  ///                   placement also report per-level byte counts)
  ///   "dlsm.rdma"   — verb-class wire telemetry summary
  ///   "dlsm.cache"  — compute-side block cache summary (capacity, usage,
  ///                   hit rate; all-zero counters when the cache is off)
  ///   "dlsm.placement" — table placement / migration summary (policy,
  ///                   per-node distribution, migration counters; engines
  ///                   with one memory node report the degenerate layout)
  ///   "dlsm.timeseries" — continuous-telemetry sample ring as JSON
  ///                   (engines only, and only when
  ///                   Options::stats_sample_period_ms > 0; the base
  ///                   implementation returns false)
  /// Returns false (leaving *value untouched) for unknown names. The base
  /// implementation derives everything from GetStats/NumFilesAtLevel, so
  /// every engine (baselines, sharded wrappers) supports these names.
  virtual bool GetProperty(const Slice& property, std::string* value);

  /// Stops background work and releases resources. Called by the
  /// destructor if needed.
  virtual Status Close() = 0;
};

inline void DB::MultiGet(const ReadOptions& options,
                         std::span<const Slice> keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status::OK());
  ReadOptions ro = options;
  const Snapshot* snap = nullptr;
  if (ro.snapshot_sequence == ~0ull) {
    snap = GetSnapshot();
    ro.snapshot_sequence = snap->sequence();
  }
  for (size_t i = 0; i < keys.size(); i++) {
    (*statuses)[i] = Get(ro, keys[i], &(*values)[i]);
  }
  if (snap != nullptr) ReleaseSnapshot(snap);
}

}  // namespace dlsm

#endif  // DLSM_CORE_DB_H_

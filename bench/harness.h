// Benchmark harness: assembles a simulated deployment (compute node(s),
// memory node(s), 100 Gb/s fabric) for one of the seven evaluated systems
// and drives db_bench-style workloads — randomfill (normal / bulkload),
// randomread, mixed read/write, readseq — measuring throughput in virtual
// time, exactly as the paper's Figs. 7-15 do on real hardware.
//
// Default sizes are the paper's setup scaled by ~1/16 (64 MB MemTables and
// SSTables become 4 MB; 100 M keys become --keys, default 100 K) so every
// figure regenerates in seconds on one host core. EXPERIMENTS.md records
// the mapping.

#ifndef DLSM_BENCH_HARNESS_H_
#define DLSM_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/core/options.h"
#include "src/util/histogram.h"

namespace dlsm {
namespace bench {

/// The systems of Sec. XI-A.
enum class SystemKind {
  kDLsm,          ///< The paper's system.
  kDLsmBlock,     ///< dLSM with 8 KB block SSTables (Fig. 13 ablation).
  kRocks8K,       ///< RocksDB-RDMA (8 KB).
  kRocks2K,       ///< RocksDB-RDMA (2 KB).
  kMemoryRocks,   ///< Memory-RocksDB-RDMA (entry-sized blocks).
  kNovaLsm,       ///< Nova-LSM (tmpfs port, sub-ranges, remote compaction).
  kSherman,       ///< Sherman B+-tree.
};

const char* SystemName(SystemKind kind);

/// One benchmark run's knobs.
struct BenchConfig {
  BenchConfig() {}
  SystemKind system = SystemKind::kDLsm;
  int threads = 1;
  uint64_t num_keys = 100000;
  uint64_t key_range = 0;  ///< 0 = num_keys.
  size_t value_size = 400;
  int key_width = 16;
  int shards = 1;              ///< dLSM-lambda (Sec. VII).
  bool bulkload = false;       ///< No L0 stop trigger (Fig. 7b).
  double read_ratio = 1.0;     ///< For the mixed workload.
  uint64_t mixed_ops = 0;      ///< 0 = num_keys.
  int compute_cores = 24;
  int memory_cores = 4;
  int compaction_workers = 12;
  CompactionPlacement placement = CompactionPlacement::kNearData;
  /// Engine scale: MemTable/SSTable bytes (paper 64 MB, default 4 MB).
  size_t memtable_size = 4 << 20;
  size_t sstable_size = 4 << 20;
  uint64_t seed = 301;
  /// SimEnv::Options::cpu_scale: 1 folds measured host CPU into virtual
  /// time; 0 leaves only the modeled fabric, so the wire schedule depends
  /// on the workload alone (the A/B guards' exact wire checks).
  double cpu_scale = 1.0;
  /// Skewed key choice for the read / mixed phases: Zipfian theta
  /// (YCSB-style; 0.99 = heavy skew). 0 keeps the uniform default. Each
  /// worker scrambles the Zipfian rank through a 64-bit mix so the hot
  /// keys spread across the key space instead of clustering in one table.
  double zipfian_theta = 0.0;
  /// Compute-side block cache (Options passthrough). Zero size = off,
  /// matching the paper's cache-less dLSM.
  size_t block_cache_size = 0;
  int cache_shards = 16;
  bool cache_admission = true;
  /// Ablation overrides (applied after the system preset).
  bool override_switch_policy = false;
  MemTableSwitchPolicy switch_policy = MemTableSwitchPolicy::kSeqRange;
  /// Async write path (group sequence batching, deferred flush WRITEs,
  /// pipelined compaction RPCs); off = the blocking ablation legs.
  bool async_write = true;
  /// Options::compaction_verb_budget passthrough (async_write only).
  uint64_t compaction_verb_budget = 64;
  /// Deterministic fabric fault injection (rdma::FaultParams), enabled
  /// after the deployment opens. Nonzero wr_error_rate also turns on the
  /// engine's RPC retry policy so transient faults are absorbed rather
  /// than aborting the run.
  uint64_t fault_seed = 1;
  double wr_error_rate = 0.0;
  double rnr_delay_rate = 0.0;
  /// Observability. trace_out: when nonempty, tracing is enabled for this
  /// run and a Chrome trace-event JSON (Perfetto-loadable; pid = node,
  /// tid = sim thread) is written there after the run. record_latency:
  /// record per-op latency into PhaseResult::latency_us (two extra virtual
  /// clock reads per op; off by default so the measured fast path is
  /// byte-identical to earlier PRs).
  std::string trace_out;
  bool record_latency = false;
  /// Continuous telemetry (DESIGN Sec. 4.9). stats_series: when nonempty,
  /// the engine's background sampler runs at stats_sample_period_ms
  /// (virtual time) and the "dlsm.timeseries" JSON is written to this path
  /// after the run. Exemplars: when exemplar_k > 0 (and trace_out is set),
  /// only the k slowest ops per exemplar_window_ms window keep their span
  /// trees — 0 keeps every span, the pre-exemplar behaviour the CI smoke
  /// test asserts on. watchdog_deadline_ms arms the stall watchdog.
  std::string stats_series;
  uint64_t stats_sample_period_ms = 1;
  size_t exemplar_k = 0;
  uint64_t exemplar_window_ms = 10;
  uint64_t watchdog_deadline_ms = 0;
};

/// One phase's outcome.
struct PhaseResult {
  double elapsed_s = 0;   ///< Virtual seconds.
  double ops_per_sec = 0;
  uint64_t ops = 0;
  DbStats stats;          ///< DB counters at phase end.
  uint64_t wire_bytes = 0;     ///< Fabric bytes moved during the phase.
  double memory_cpu_util = 0;  ///< Memory-node worker utilization [0,1].
  int l0_files = 0;
  /// Per-op latency in microseconds, merged across worker threads.
  /// Populated only when BenchConfig::record_latency is set.
  Histogram latency_us;
};

/// Workload phases, named after their db_bench counterparts.
enum class Phase {
  kFillRandom,
  kReadRandom,
  kReadWriteMixed,
  kReadSeq,
};

/// Runs `phases` in order against a fresh deployment of config.system;
/// returns one result per phase. The fill phase always runs first
/// implicitly when not listed (read benches need data).
std::vector<PhaseResult> RunBench(const BenchConfig& config,
                                  const std::vector<Phase>& phases);

/// Formats ops/s as the paper's figures do (Kops/Mops).
std::string FormatThroughput(double ops_per_sec);

/// Compact one-line per-verb telemetry from a phase's DbStats (ops, bytes,
/// wire p50/p99, peak outstanding), for the figure binaries' --verb_stats
/// mode. Empty string when the system posted no verbs.
std::string VerbStatsSummary(const DbStats& stats);

/// Accumulates one machine-readable record per bench cell and writes them
/// as a JSON array — the --stats_json output behind the BENCH_*.json perf
/// trajectory. Each record carries the sweep coordinates (figure, system,
/// threads, phase), throughput, per-op latency percentiles (when the run
/// recorded them) and the full StatsJson counter/verb dump. The array's
/// first element is a provenance record {"meta":{...}} — git SHA and
/// build type (stamped at configure time), UTC write timestamp, and the
/// process command line (captured by the Flags constructor) — so a
/// BENCH_*.json pulled from an artifact store identifies the build that
/// produced it.
class StatsJsonWriter {
 public:
  /// An empty path disables the writer (Add/Write become no-ops).
  explicit StatsJsonWriter(const std::string& path) : path_(path) {}

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& figure, const std::string& system, int threads,
           const std::string& phase, const BenchConfig& config,
           const PhaseResult& r);

  /// Writes the accumulated array to the path. Returns false on IO error
  /// (and true, doing nothing, when disabled).
  bool Write() const;

 private:
  std::string path_;
  std::vector<std::string> records_;
};

/// Coordinated-omission-safe latency recorder for fixed-rate (closed-loop
/// with intended schedule) workloads. Op i's intended start is
/// start_ns + i * interval_ns; Record charges completion - intended start,
/// so an op delayed behind a stall also pays the queueing delay the stall
/// imposed on it — the latency a real client at that arrival rate would
/// see — instead of the stall hiding everywhere but in the one op that
/// measured it (Tene's coordinated-omission critique of db_bench-style
/// loops). Not thread-safe; use one per worker and Merge the histograms.
class IntervalRecorder {
 public:
  IntervalRecorder(uint64_t start_ns, uint64_t interval_ns)
      : start_ns_(start_ns),
        interval_ns_(interval_ns > 0 ? interval_ns : 1) {}

  uint64_t IntendedStartNs(uint64_t i) const {
    return start_ns_ + i * interval_ns_;
  }

  /// Records op i completing at completion_ns (same clock as start_ns).
  /// A completion before the intended start (the worker ran ahead of
  /// schedule) records 0 rather than wrapping.
  void Record(uint64_t i, uint64_t completion_ns) {
    uint64_t intended = IntendedStartNs(i);
    uint64_t lat = completion_ns > intended ? completion_ns - intended : 0;
    hist_.Add(static_cast<double>(lat) / 1e3);
  }

  const Histogram& latency_us() const { return hist_; }

 private:
  uint64_t start_ns_;
  uint64_t interval_ns_;
  Histogram hist_;
};

/// Multi-node deployment knobs (paper Sec. IX / Figs. 14-15).
struct ClusterBenchConfig {
  ClusterBenchConfig() {}
  SystemKind system = SystemKind::kDLsm;
  int compute_nodes = 1;
  int memory_nodes = 1;
  int shards_per_compute = 8;  ///< lambda.
  int threads_per_compute = 8;
  uint64_t num_keys = 100000;  ///< Total across the cluster.
  size_t value_size = 400;
  int key_width = 16;
  size_t memtable_size = 4 << 20;
  size_t sstable_size = 4 << 20;
  int compute_cores = 16;      ///< CloudLab c6220: 2x8 cores.
  int memory_cores = 4;
  int compaction_workers = 8;
  uint64_t seed = 301;
  /// Skewed key choice for the read phase: Zipfian theta over each
  /// compute node's key slice (0 = uniform). Unlike BenchConfig, the rank
  /// is NOT scrambled: the popular keys cluster at the bottom of each
  /// compute's range, so under static placement their shards' tables pile
  /// onto one memory node — the hotspot the heat rebalancer must fix.
  double zipfian_theta = 0.0;
  /// Table-to-memory-node placement (Options passthrough; LSM systems).
  PlacementPolicyKind placement_policy = PlacementPolicyKind::kRoundRobin;
  bool placement_rebalance = false;
  /// Rebalance pass period override; 0 keeps the Options default. The
  /// placement A/B leg drops this to ~2 ms virtual so the rebalancer gets
  /// several rounds within the scaled-down read phase.
  uint64_t placement_rebalance_interval_ns = 0;
  /// Read phase repetitions; passes before the last are warm-up (the heat
  /// rebalancer settles the layout) and only the last is measured.
  int read_passes = 1;
  /// Record per-op read latency (read_p50_us in the result).
  bool record_latency = false;
};

struct ClusterBenchResult {
  double fill_ops_per_sec = 0;
  double read_ops_per_sec = 0;
  /// Read-phase per-op latency p50 in microseconds (record_latency only).
  double read_p50_us = 0;
  Histogram read_latency_us;
  /// Read-phase READ-verb / WRITE-byte deltas per memory node, summed
  /// slot-wise across every shard (LSM systems only; empty for Sherman).
  std::vector<uint64_t> node_read_verbs;
  std::vector<uint64_t> node_write_bytes;
  /// max/mean over node_read_verbs: 1.0 = perfectly balanced, 0 = unknown.
  double read_imbalance = 0;
  uint64_t tables_migrated = 0;
  uint64_t migration_bytes = 0;
  /// Cluster-merged engine counters at end of run (LSM systems only).
  DbStats stats;
};

/// Fills then reads across the whole cluster; client threads run on their
/// keys' owning compute node, as the paper's multi-node db_bench does.
ClusterBenchResult RunClusterBench(const ClusterBenchConfig& config);

/// Tiny --key=value flag parser for the figure binaries. Each binary
/// names every flag it reads; any other argument (a typo would otherwise
/// silently run the defaults and write a wrong BENCH file) prints the
/// known flags and exits with status 2. Reading an unnamed flag is a
/// programming error and aborts.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<const char*> known);
  uint64_t GetInt(const std::string& name, uint64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  std::string GetString(const std::string& name,
                        const std::string& def) const;

 private:
  /// The value given for a known flag, or null when it was not given.
  const std::string* Find(const std::string& name) const;

  std::set<std::string> known_;
  std::map<std::string, std::string> values_;
};

}  // namespace bench
}  // namespace dlsm

#endif  // DLSM_BENCH_HARNESS_H_

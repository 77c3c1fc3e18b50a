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

/// One benchmark run's knobs. Every cell is a deployment of compute_nodes
/// x memory_nodes (the single-server figures are 1C1M); each compute node
/// runs `threads` clients over its slice of the key range.
struct BenchConfig {
  BenchConfig() {}
  SystemKind system = SystemKind::kDLsm;
  int compute_nodes = 1;
  int memory_nodes = 1;
  int threads = 1;             ///< Client threads per compute node.
  uint64_t num_keys = 100000;  ///< Total across the deployment.
  int shards = 1;              ///< dLSM-lambda per compute node (Sec. VII).
  bool bulkload = false;       ///< No L0 stop trigger (Fig. 7b).
  double read_ratio = 1.0;     ///< For the mixed workload.
  uint64_t mixed_ops = 0;      ///< 0 = num_keys.
  int compute_cores = 24;
  int memory_cores = 4;
  int compaction_workers = 12;  ///< Per memory node.
  CompactionPlacement placement = CompactionPlacement::kNearData;
  /// Engine scale: MemTable/SSTable bytes (paper 64 MB, default 4 MB) per
  /// compute node; lambda shards split them.
  size_t memtable_size = 4 << 20;
  size_t sstable_size = 4 << 20;
  /// Engine background budgets. Off (the single-server figures): the
  /// compute node's 4 compaction scheduler threads, 12 subcompactions and
  /// an 8x-dataset + 512 MB flush region are split across its shards. On
  /// (the CloudLab multi-node figures 14-15): every shard gets 2
  /// scheduler threads, 4 subcompactions and a 4x-dataset / #shards +
  /// 64 MB flush region.
  bool per_shard_budget = false;
  /// SimEnv::Options::cpu_scale: 1 folds measured host CPU into virtual
  /// time; 0 leaves only the modeled fabric, so the wire schedule depends
  /// on the workload alone (the A/B guards' exact wire checks).
  double cpu_scale = 1.0;
  /// Skewed key choice for the read / mixed phases: Zipfian theta
  /// (YCSB-style; 0.99 = heavy skew) over each compute node's key slice.
  /// 0 keeps the uniform default. With one memory node each worker
  /// scrambles the rank through a 64-bit mix so the hot keys spread
  /// across the slice instead of clustering in one table. With several,
  /// the rank is NOT scrambled: the popular keys land in the slice's first
  /// shard (strided across its range, so the heat covers many tables),
  /// whose tables all sit on one memory node under static round-robin
  /// placement — the hotspot the heat rebalancer must fix.
  double zipfian_theta = 0.0;
  /// Heat rebalancer over the round-robin table placement (Options
  /// passthrough; LSM systems).
  bool placement_rebalance = false;
  /// Rebalance pass period override; 0 keeps the Options default.
  uint64_t placement_rebalance_interval_ns = 0;
  /// Compute-side block cache (Options passthrough). Zero size = off,
  /// matching the paper's cache-less dLSM.
  size_t block_cache_size = 0;
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
/// implicitly when not listed (read benches need data). Every read phase
/// starts after a Flush and background idle. LSM systems deploy as a
/// Cluster (one engine per compute node), Sherman as one tree per compute
/// node on memory node c % memory_nodes.
std::vector<PhaseResult> RunBench(const BenchConfig& config,
                                  const std::vector<Phase>& phases);

/// A Figs. 14-15 cell: `computes` x `memories` CloudLab c6220 nodes
/// (16-core compute nodes, 8 compaction workers per memory node), lambda
/// = 8 shards and 8 client threads per compute node, per-shard budgets.
BenchConfig MultiNodeConfig(SystemKind system, int computes, int memories,
                            uint64_t num_keys);

/// Phase i of `r` on its own: r[i] with its DbStats differenced against
/// r[i - 1] (DbStats::DeltaSince); everything else keeps r[i]'s value.
/// Phase 0 is returned as is, so its counters include the implicit fill.
PhaseResult PhaseDelta(const std::vector<PhaseResult>& r, size_t i);

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

/// Repetitions of every A/B guard leg whose wire schedule depends on host
/// CPU (RunAbGuard; DESIGN Sec. 4.10).
inline constexpr int kAbReps = 5;

/// One leg of an A/B guard.
struct AbLeg {
  std::string name;
  /// Runs one repetition and returns its measured phase.
  std::function<PhaseResult()> run;
  /// The leg's SimEnv cpu_scale. At 0 the wire schedule depends on the
  /// workload alone, so the leg runs once instead of kAbReps times.
  double cpu_scale = 1.0;
};

/// A number read off each run of each leg. NaN marks a run on which the
/// metric is undefined; every check that reads such a run fails.
struct AbMetric {
  std::string name;
  bool higher_is_better = true;
  int precision = 0;  ///< Decimals printed.
  std::function<double(const PhaseResult&)> value;
};

enum class AbCheckKind {
  /// Every run of a and of b has the same value.
  kExact,
  /// b empty: a's median is no worse than `bound`. Otherwise a's
  /// improvement factor over b — median(a) / median(b), inverted for a
  /// lower-is-better metric — is at least `bound`.
  kThreshold,
  /// Every run of a is better than every run of b.
  kBetter,
  /// Fails only when a's median is worse than b's by more than `bound`
  /// (a fraction: 0.02 = 2%) and the ranges are separated (every run of a
  /// worse than every run of b).
  kNotWorse,
};

struct AbCheck {
  AbCheckKind kind;
  std::string metric;
  std::string a;  ///< The leg under test.
  std::string b;  ///< The reference leg (empty for a one-leg threshold).
  double bound = 0;
};

/// Median of the values; the mean of the middle two for an even count.
double Median(std::vector<double> v);

/// Evaluates `check` on the per-run values of `metric` on its legs
/// (`a`, `b`); returns true on pass and, when `detail` is set, describes
/// the values it compared.
bool EvaluateAbCheck(const AbCheck& check, const AbMetric& metric,
                     const std::vector<double>& a,
                     const std::vector<double>& b, std::string* detail);

/// Runs every leg kAbReps times (once at cpu_scale 0), alternating the leg
/// order between repetitions, and keeps every run. Prints one table of
/// median [min, max] and spread per leg and metric, then one verdict line
/// per check. Writes `json` when given. Returns 0 when every check passes
/// (and the JSON was written), 1 otherwise.
int RunAbGuard(const std::vector<AbLeg>& legs,
               const std::vector<AbMetric>& metrics,
               const std::vector<AbCheck>& checks,
               StatsJsonWriter* json = nullptr);

/// A RunBench-backed leg: each run deploys `config`, runs `phases` and
/// returns PhaseDelta of the last phase. It adds the last phase to *json
/// as phase `name`, and a leading kFillRandom as `name`_fill.
AbLeg BenchLeg(const std::string& name, const BenchConfig& config,
               const std::vector<Phase>& phases, const std::string& figure,
               StatsJsonWriter* json);

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

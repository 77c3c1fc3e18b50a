#include "bench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>

#include "src/baselines/presets.h"
#include "src/baselines/sherman.h"
#include "src/core/cluster.h"
#include "src/core/shard.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/trace.h"

namespace dlsm {
namespace bench {

namespace {

// Build provenance stamped into every BENCH_*.json (see StatsJsonWriter).
// The SHA and build type are configure-time values from bench/CMakeLists;
// the command line is captured by the Flags constructor, which every
// figure binary runs through before its first StatsJsonWriter.
#ifndef DLSM_GIT_SHA
#define DLSM_GIT_SHA "unknown"
#endif
#ifndef DLSM_BUILD_TYPE
#define DLSM_BUILD_TYPE "unknown"
#endif
std::string g_command_line;

// The workload shape every cell shares: decimal keys of kKeyWidth digits
// over [0, num_keys), kValueSize-byte values, client streams seeded from
// kSeed.
constexpr int kKeyWidth = 16;
constexpr size_t kValueSize = 400;
constexpr uint64_t kSeed = 301;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string MakeKey(uint64_t n, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", width,
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

std::string MakeValue(uint64_t n, size_t len, Random* rnd) {
  std::string v;
  v.reserve(len);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.",
                static_cast<unsigned long long>(n));
  v = buf;
  while (v.size() < len) {
    v.push_back(static_cast<char>('a' + rnd->Uniform(26)));
  }
  v.resize(len);
  return v;
}

// One compute node's engine Options; its lambda = options.shards range
// shards split the sizes and budgets (ShardedDB::Open).
Options MakeEngineOptions(const BenchConfig& config, Env* env) {
  Options options;
  switch (config.system) {
    case SystemKind::kDLsm:
      options = Options();
      options.env = env;
      break;
    case SystemKind::kDLsmBlock:
      options = Options();
      options.env = env;
      options.table_format = TableFormat::kBlock;
      options.block_size = 8192;
      break;
    case SystemKind::kRocks8K:
      options = baselines::RocksDbRdmaOptions(env, 8192);
      break;
    case SystemKind::kRocks2K:
      options = baselines::RocksDbRdmaOptions(env, 2048);
      break;
    case SystemKind::kMemoryRocks:
      options = baselines::MemoryRocksDbRdmaOptions(
          env, kKeyWidth + kValueSize + 32);
      break;
    case SystemKind::kNovaLsm:
      // Sub-range count follows the paper's Nova-LSM configuration (64),
      // scaled down with the data so each sub-range still flushes.
      options = baselines::NovaLsmOptions(
          env, config.num_keys >= 400000 ? 64 : 16);
      break;
    case SystemKind::kSherman:
      DLSM_CHECK_MSG(false, "Sherman does not take engine options");
  }
  options.memtable_size = config.memtable_size;
  options.sstable_size = config.sstable_size;
  options.estimated_entry_size = kKeyWidth + kValueSize + 28;
  options.l0_stop_writes_trigger = config.bulkload ? 1 << 30 : 36;
  options.max_immutables = config.bulkload ? 1 << 20 : 16;
  options.flush_threads = 4;
  // config.placement is a dLSM ablation knob (Fig. 12); the baseline
  // presets fix their own placement (the ports compact on the compute
  // node, Nova-LSM at the storage component).
  if (config.system == SystemKind::kDLsm ||
      config.system == SystemKind::kDLsmBlock) {
    options.compaction_placement = config.placement;
  }
  if (config.shards > 1) options.shards = config.shards;
  if (config.override_switch_policy) {
    options.switch_policy = config.switch_policy;
  }
  options.async_write = config.async_write;
  options.compaction_verb_budget = config.compaction_verb_budget;
  options.block_cache_size = config.block_cache_size;
  // Continuous telemetry (sampler ring + stall watchdog). The sampler is
  // keyed off the output path: no --stats_series, no background sampler
  // thread, so default runs stay byte-identical to earlier PRs.
  if (!config.stats_series.empty()) {
    options.stats_sample_period_ms = config.stats_sample_period_ms;
  }
  options.watchdog_deadline_ms = config.watchdog_deadline_ms;
  if (config.wr_error_rate > 0.0) {
    // Injected WR errors surface as fast IOErrors; a bounded RPC retry
    // policy (the one-sided paths already retry by default) keeps the
    // workload running through transient faults.
    options.rpc_timeout_ns = 20 * 1000 * 1000;
    options.rpc_max_retries = 4;
  }
  // Background budgets are per compute node (its shards split them).
  // Flush region: enough for the whole dataset plus compaction churn,
  // pinned snapshots and per-shard slab rounding.
  const uint64_t data = config.num_keys * (kKeyWidth + kValueSize + 28);
  const int lambda = options.shards;
  if (config.per_shard_budget) {
    const uint64_t total_shards =
        static_cast<uint64_t>(config.compute_nodes) * lambda;
    options.compaction_scheduler_threads = 2 * lambda;
    options.max_subcompactions = 4 * lambda;
    options.flush_region_size =
        lambda * (data * 4 / total_shards + (64ull << 20));
  } else {
    options.compaction_scheduler_threads = 4;
    options.max_subcompactions = 12;
    options.flush_region_size = data * 8 + (512ull << 20);
  }
  options.placement_rebalance = config.placement_rebalance;
  if (config.placement_rebalance_interval_ns > 0) {
    options.placement_rebalance_interval_ns =
        config.placement_rebalance_interval_ns;
  }
  return options;
}

}  // namespace

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kDLsm:
      return "dLSM";
    case SystemKind::kDLsmBlock:
      return "dLSM-Block";
    case SystemKind::kRocks8K:
      return "RocksDB-RDMA(8KB)";
    case SystemKind::kRocks2K:
      return "RocksDB-RDMA(2KB)";
    case SystemKind::kMemoryRocks:
      return "Memory-RocksDB-RDMA";
    case SystemKind::kNovaLsm:
      return "Nova-LSM";
    case SystemKind::kSherman:
      return "Sherman";
  }
  return "?";
}

std::string FormatThroughput(double ops_per_sec) {
  char buf[64];
  if (ops_per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f Mops/s", ops_per_sec / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f Kops/s", ops_per_sec / 1e3);
  }
  return buf;
}

std::string VerbStatsSummary(const DbStats& stats) {
  const rdma::RdmaVerbStats& v = stats.rdma;
  std::string out;
  char buf[128];
  for (int i = 0; i < rdma::kNumVerbClasses; i++) {
    auto c = static_cast<rdma::VerbClass>(i);
    const rdma::VerbClassStats& s = v.cls(c);
    if (s.ops == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%s %llu ops %.1f MB p50 %.1fus p99 %.1fus",
                  out.empty() ? "" : " | ", rdma::VerbClassName(c),
                  static_cast<unsigned long long>(s.ops),
                  static_cast<double>(s.bytes) / (1024.0 * 1024.0),
                  s.latency_us.Percentile(50.0), s.latency_us.Percentile(99.0));
    out += buf;
    if (s.errors > 0) {
      std::snprintf(buf, sizeof(buf), " errs %llu",
                    static_cast<unsigned long long>(s.errors));
      out += buf;
    }
  }
  if (out.empty()) return out;
  std::snprintf(buf, sizeof(buf), " | max outstanding %llu abandoned %llu",
                static_cast<unsigned long long>(v.max_outstanding),
                static_cast<unsigned long long>(v.abandoned));
  out += buf;
  // Fault/recovery telemetry; omitted on a clean run to keep the line as
  // it always was.
  if (v.reconnects + stats.read_retries + stats.flush_retries +
          stats.rpc_retries + stats.rpc_timeouts >
      0) {
    std::snprintf(buf, sizeof(buf),
                  " | reconnects %llu retries read %llu flush %llu rpc %llu "
                  "timeouts %llu",
                  static_cast<unsigned long long>(v.reconnects),
                  static_cast<unsigned long long>(stats.read_retries),
                  static_cast<unsigned long long>(stats.flush_retries),
                  static_cast<unsigned long long>(stats.rpc_retries),
                  static_cast<unsigned long long>(stats.rpc_timeouts));
    out += buf;
  }
  return out;
}

void StatsJsonWriter::Add(const std::string& figure, const std::string& system,
                          int threads, const std::string& phase,
                          const BenchConfig& config, const PhaseResult& r) {
  if (!enabled()) return;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"figure\":\"%s\",\"system\":\"%s\",\"threads\":%d,"
      "\"phase\":\"%s\",\"keys\":%llu,\"value_size\":%zu,"
      "\"ops\":%llu,\"elapsed_s\":%.6f,\"ops_per_sec\":%.1f,"
      "\"wire_bytes\":%llu,\"memory_cpu_util\":%.4f,\"l0_files\":%d,",
      figure.c_str(), system.c_str(), threads, phase.c_str(),
      static_cast<unsigned long long>(config.num_keys), kValueSize,
      static_cast<unsigned long long>(r.ops), r.elapsed_s, r.ops_per_sec,
      static_cast<unsigned long long>(r.wire_bytes), r.memory_cpu_util,
      r.l0_files);
  std::string rec = buf;
  rec.append("\"latency_us\":");
  rec.append(r.latency_us.ToJson());
  rec.append(",\"stats\":");
  rec.append(StatsJson(r.stats));
  rec.append("}");
  records_.push_back(std::move(rec));
}

bool StatsJsonWriter::Write() const {
  if (!enabled()) return true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) return false;
  // Provenance record first: which build produced these numbers. The
  // timestamp is wall-clock (the one non-virtual time in the harness —
  // it stamps the artifact, not the measurement).
  char ts[32] = "unknown";
  std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  std::string out = "[\n{\"meta\":{\"git_sha\":\"" DLSM_GIT_SHA
                    "\",\"build_type\":\"" DLSM_BUILD_TYPE "\"";
  out.append(",\"written_utc\":\"");
  out.append(ts);
  out.append("\",\"command\":\"");
  out.append(JsonEscape(g_command_line));
  out.append("\"}}");
  out.append(records_.empty() ? "\n" : ",\n");
  for (size_t i = 0; i < records_.size(); i++) {
    out.append(records_[i]);
    out.append(i + 1 < records_.size() ? ",\n" : "\n");
  }
  out.append("]\n");
  size_t n = std::fwrite(out.data(), 1, out.size(), f);
  return std::fclose(f) == 0 && n == out.size();
}

BenchConfig MultiNodeConfig(SystemKind system, int computes, int memories,
                            uint64_t num_keys) {
  BenchConfig config;
  config.system = system;
  config.compute_nodes = computes;
  config.memory_nodes = memories;
  config.num_keys = num_keys;
  config.shards = 8;
  config.threads = 8;
  config.compute_cores = 16;  // CloudLab c6220: 2x8 cores.
  config.compaction_workers = 8;
  config.per_shard_budget = true;
  return config;
}

PhaseResult PhaseDelta(const std::vector<PhaseResult>& r, size_t i) {
  PhaseResult d = r[i];
  if (i > 0) d.stats = r[i].stats.DeltaSince(r[i - 1].stats);
  return d;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

// True when some run's value is undefined (NaN): its order and median are.
bool AnyUndefined(const std::vector<double>& v) {
  return std::any_of(v.begin(), v.end(),
                     [](double x) { return std::isnan(x); });
}

// "v" when every run read the same, else "median [min, max]".
std::string FormatRuns(const std::vector<double>& v, int precision) {
  if (v.empty()) return "-";
  if (AnyUndefined(v)) return "undefined";
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[96];
  if (*lo == *hi) {
    std::snprintf(buf, sizeof(buf), "%.*f", precision, *lo);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f [%.*f, %.*f]", precision,
                  Median(v), precision, *lo, precision, *hi);
  }
  return buf;
}

}  // namespace

bool EvaluateAbCheck(const AbCheck& check, const AbMetric& metric,
                     const std::vector<double>& a,
                     const std::vector<double>& b, std::string* detail) {
  // Only a threshold may name one leg.
  const bool one_leg =
      check.kind == AbCheckKind::kThreshold && check.b.empty();
  DLSM_CHECK_MSG(!a.empty() && (one_leg || !b.empty()),
                 "A/B check over a leg without runs");
  if (AnyUndefined(a) || AnyUndefined(b)) {
    if (detail != nullptr) {
      *detail = "FAIL " + metric.name + ": undefined on a run of " + check.a +
                (b.empty() ? "" : " or " + check.b);
    }
    return false;
  }
  // The runs sorted so that later is better: worst first, best last.
  const double s = metric.higher_is_better ? 1.0 : -1.0;
  auto oriented = [s](std::vector<double> v) {
    for (double& x : v) x *= s;
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<double> oa = oriented(a), ob = oriented(b);
  bool pass = false;
  char buf[128] = "";
  switch (check.kind) {
    case AbCheckKind::kExact:
      pass = oa.front() == oa.back() && ob.front() == oa.front() &&
             ob.back() == oa.front();
      break;
    case AbCheckKind::kThreshold:
      if (check.b.empty()) {
        pass = s * Median(a) >= s * check.bound;
        std::snprintf(buf, sizeof(buf), " (bound %s %g)",
                      metric.higher_is_better ? ">=" : "<=", check.bound);
      } else {
        // 0/0 is NaN and fails; x/0 for x > 0 is an unbounded improvement.
        const double factor = std::pow(Median(a) / Median(b), s);
        pass = factor >= check.bound;
        std::snprintf(buf, sizeof(buf), ": improvement %.2fx (bound >= %gx)",
                      factor, check.bound);
      }
      break;
    case AbCheckKind::kBetter:
      pass = oa.front() > ob.back();
      break;
    case AbCheckKind::kNotWorse: {
      const double change = (Median(a) - Median(b)) / Median(b);
      const bool separated = oa.back() < ob.front();
      pass = !(-s * change > check.bound && separated);
      std::snprintf(buf, sizeof(buf),
                    ": median %+.2f%% (margin %g%%, ranges %s)",
                    100.0 * change, 100.0 * check.bound,
                    separated ? "separated" : "overlap");
      break;
    }
  }
  if (detail != nullptr) {
    static const char* const kKindNames[] = {"exact", "threshold", "better",
                                             "not worse"};
    *detail = std::string(pass ? "PASS " : "FAIL ") +
              kKindNames[static_cast<int>(check.kind)] + " " + metric.name +
              ": " + check.a + " " + FormatRuns(a, metric.precision) +
              (b.empty() ? "" : " / " + check.b + " " +
                                    FormatRuns(b, metric.precision)) +
              buf;
  }
  return pass;
}

int RunAbGuard(const std::vector<AbLeg>& legs,
               const std::vector<AbMetric>& metrics,
               const std::vector<AbCheck>& checks, StatsJsonWriter* json) {
  std::vector<std::vector<PhaseResult>> runs(legs.size());
  for (int rep = 0; rep < kAbReps; rep++) {
    for (size_t k = 0; k < legs.size(); k++) {
      const size_t l = rep % 2 == 0 ? k : legs.size() - 1 - k;
      if (legs[l].cpu_scale == 0 && rep > 0) continue;
      runs[l].push_back(legs[l].run());
    }
  }
  // Metric m's value on every run of the named leg.
  auto values = [&](const std::string& leg, const AbMetric& m) {
    std::vector<double> v;
    for (size_t l = 0; l < legs.size(); l++) {
      if (legs[l].name != leg) continue;
      for (const PhaseResult& r : runs[l]) v.push_back(m.value(r));
    }
    return v;
  };

  std::printf("%-20s %-16s %4s  %-40s %8s\n", "leg", "metric", "runs",
              "median [min, max]", "spread");
  for (const AbLeg& leg : legs) {
    for (const AbMetric& m : metrics) {
      std::vector<double> v = values(leg.name, m);
      auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      char spread[16] = "-";
      if (!AnyUndefined(v) && Median(v) != 0) {
        std::snprintf(spread, sizeof(spread), "%.1f%%",
                      100.0 * (*hi - *lo) / std::abs(Median(v)));
      }
      std::printf("%-20s %-16s %4zu  %-40s %8s\n", leg.name.c_str(),
                  m.name.c_str(), v.size(),
                  FormatRuns(v, m.precision).c_str(), spread);
    }
  }
  bool ok = true;
  for (const AbCheck& c : checks) {
    auto m = std::find_if(
        metrics.begin(), metrics.end(),
        [&](const AbMetric& x) { return x.name == c.metric; });
    DLSM_CHECK_MSG(m != metrics.end(), "A/B check names an unknown metric");
    std::string detail;
    ok &= EvaluateAbCheck(c, *m, values(c.a, *m), values(c.b, *m), &detail);
    std::printf("%s\n", detail.c_str());
  }
  std::fflush(stdout);
  if (json != nullptr && !json->Write()) {
    std::fprintf(stderr, "warning: could not write --stats_json file\n");
    return 1;
  }
  return ok ? 0 : 1;
}

AbLeg BenchLeg(const std::string& name, const BenchConfig& config,
               const std::vector<Phase>& phases, const std::string& figure,
               StatsJsonWriter* json) {
  auto run = [=] {
    std::vector<PhaseResult> r = RunBench(config, phases);
    const int threads = config.compute_nodes * config.threads;
    const char* system = SystemName(config.system);
    if (phases.size() > 1 && phases[0] == Phase::kFillRandom) {
      json->Add(figure, system, threads, name + "_fill", config, r[0]);
    }
    json->Add(figure, system, threads, name, config, r.back());
    return PhaseDelta(r, r.size() - 1);
  };
  return AbLeg{name, run, config.cpu_scale};
}

std::vector<PhaseResult> RunBench(const BenchConfig& config,
                                  const std::vector<Phase>& phases) {
  std::vector<PhaseResult> results(phases.size());

  SimEnv::Options sim_options;
  sim_options.cpu_scale = config.cpu_scale;
  SimEnv env(sim_options);
  const int computes = config.compute_nodes;
  const int memories = config.memory_nodes;
  const uint64_t entry = kKeyWidth + kValueSize + 28;

  ClusterTopology topology;
  topology.compute_nodes = computes;
  topology.memory_nodes = memories;
  topology.compute_cores = config.compute_cores;
  topology.memory_cores = config.memory_cores;
  topology.compaction_workers_per_memory = config.compaction_workers;
  // Memory nodes sized for the dataset with generous slack (MAP_NORESERVE:
  // only touched pages cost physical memory).
  topology.memory_dram =
      config.num_keys * entry * 24 / memories + (4ull << 30);

  // Tracing spans virtual time, so enabling before Run and exporting after
  // it returns captures the whole deployment deterministically.
  if (!config.trace_out.empty()) {
    trace::EnableWithEnv(&env);
    if (config.exemplar_k > 0) {
      trace::ExemplarPolicy policy;
      policy.k = config.exemplar_k;
      policy.window_ns = (config.exemplar_window_ms > 0
                              ? config.exemplar_window_ms
                              : 10) *
                         1'000'000ull;
      trace::Tracer::SetExemplarPolicy(policy);
    }
  }
  std::string series_json;

  env.Run(0, [&] {
    // The deployment: one DB per compute node; that node's clients use it.
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<rdma::Fabric> sherman_fabric;
    std::vector<std::unique_ptr<DB>> trees;
    std::vector<rdma::Node*> nodes;  // Compute nodes.
    std::vector<DB*> dbs;
    rdma::Fabric* fabric = nullptr;
    int lambda = 1;  // Shards per compute node.

    if (config.system == SystemKind::kSherman) {
      // Sherman has no shard machinery and no memory-node service: one
      // tree per compute node, on memory node c % m.
      sherman_fabric = std::make_unique<rdma::Fabric>(&env);
      fabric = sherman_fabric.get();
      std::vector<rdma::Node*> memory_nodes;
      for (int c = 0; c < computes; c++) {
        nodes.push_back(fabric->AddNode("compute-" + std::to_string(c),
                                        topology.compute_cores,
                                        topology.compute_dram));
      }
      for (int m = 0; m < memories; m++) {
        memory_nodes.push_back(fabric->AddNode("memory-" + std::to_string(m),
                                               topology.memory_cores,
                                               topology.memory_dram));
      }
      for (int c = 0; c < computes; c++) {
        baselines::ShermanOptions sherman;
        sherman.env = &env;
        sherman.leaf_region_size =
            config.num_keys * entry * 12 / computes + (512 << 20);
        DB* raw = nullptr;
        Status s = baselines::ShermanDB::Open(
            sherman, fabric, nodes[c], memory_nodes[c % memories], &raw);
        DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
        trees.emplace_back(raw);
        dbs.push_back(raw);
      }
    } else {
      Options options = MakeEngineOptions(config, &env);
      lambda = options.shards;
      // Range-aware boundaries: bench keys live in [0, num_keys), so
      // full-decimal-space boundaries would funnel them into shard 0.
      Status s = Cluster::Create(
          &env, options, topology,
          ShardedDB::RangeDecimalBoundaries(computes * options.shards,
                                            kKeyWidth, config.num_keys),
          &cluster);
      DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
      fabric = cluster->fabric();
      for (int c = 0; c < computes; c++) {
        nodes.push_back(cluster->compute_node(c));
        dbs.push_back(cluster->compute_db(c));
      }
    }

    if ((config.wr_error_rate > 0.0 || config.rnr_delay_rate > 0.0) &&
        config.system != SystemKind::kSherman) {
      // Start injection only once the deployment is up, so the schedule
      // covers the measured workload, not setup. Sherman is excluded: the
      // baseline has no retry layer, so an injected error aborts the run
      // rather than measuring anything.
      rdma::FaultParams fp;
      fp.seed = config.fault_seed;
      fp.wr_error_rate = config.wr_error_rate;
      fp.rnr_delay_rate = config.rnr_delay_rate;
      fabric->set_fault_params(fp);
    }

    // A phase runs between two marks, taken once every client has arrived
    // at its start and at its stop barrier.
    struct Mark {
      uint64_t ns, wire_bytes, memory_busy_ns;
    };
    auto mark = [&] {
      Mark m{env.NowNanos(), fabric->wire_bytes(), 0};
      for (int i = 0; cluster != nullptr && i < memories; i++) {
        m.memory_busy_ns += cluster->memory_service(i)->worker_busy_ns();
      }
      return m;
    };
    auto measure = [&](const Mark& m0, const Mark& m1, uint64_t ops) {
      PhaseResult r;
      r.ops = ops;
      r.elapsed_s = static_cast<double>(m1.ns - m0.ns) / 1e9;
      r.ops_per_sec = r.elapsed_s > 0 ? ops / r.elapsed_s : 0;
      for (DB* db : dbs) {
        r.stats.MergeFrom(db->GetStats());
        r.l0_files += db->NumFilesAtLevel(0);
      }
      r.wire_bytes = m1.wire_bytes - m0.wire_bytes;
      if (cluster != nullptr && config.memory_cores > 0 && m1.ns > m0.ns) {
        r.memory_cpu_util = std::min(
            1.0, static_cast<double>(m1.memory_busy_ns - m0.memory_busy_ns) /
                     static_cast<double>((m1.ns - m0.ns) *
                                         config.memory_cores * memories));
      }
      return r;
    };

    // One client: its compute node's DB and that node's key slice
    // [lo, hi). The uniform chooser is lo + Uniform(hi - lo).
    struct Client {
      DB* db;
      Random rnd;
      std::unique_ptr<ZipfianGenerator> zipf;  // Null when uniform.
      uint64_t lo, hi;
    };
    // Runs `total` operations: compute node c's threads split its share
    // [total * c / C, total * (c + 1) / C); op(client) performs one.
    auto run_phase = [&](uint64_t total,
                         const std::function<void(Client*)>& op) {
      const int workers = computes * config.threads;
      Barrier start(&env, workers + 1);
      Barrier stop(&env, workers + 1);
      // One latency histogram per worker, merged after Join; the gated
      // branch keeps the default fast path free of extra clock reads.
      std::vector<Histogram> lat(workers);
      std::vector<ThreadHandle> handles;
      for (int c = 0; c < computes; c++) {
        uint64_t share = total * (c + 1) / computes - total * c / computes;
        for (int t = 0; t < config.threads; t++) {
          const int w = c * config.threads + t;
          uint64_t ops = share * (t + 1) / config.threads -
                         share * t / config.threads;
          handles.push_back(env.StartThread(
              nodes[c]->env_node(), "worker", [&, c, t, w, ops] {
                Client client{dbs[c], Random(kSeed + 17 * t + 131 * c),
                              nullptr, config.num_keys * c / computes,
                              config.num_keys * (c + 1) / computes};
                // The O(slice) zeta precompute happens before the start
                // barrier, outside the measured interval.
                if (config.zipfian_theta > 0) {
                  client.zipf = std::make_unique<ZipfianGenerator>(
                      client.hi - client.lo, config.zipfian_theta,
                      kSeed + 977 * w);
                }
                start.Arrive();
                for (uint64_t i = 0; i < ops; i++) {
                  if (config.record_latency) {
                    uint64_t op0 = env.NowNanos();
                    op(&client);
                    lat[w].Add(static_cast<double>(env.NowNanos() - op0) /
                               1e3);
                  } else {
                    op(&client);
                  }
                  if ((i & 63) == 0) env.MaybeYield();
                }
                stop.Arrive();
              }));
        }
      }
      start.Arrive();
      Mark m0 = mark();
      stop.Arrive();
      Mark m1 = mark();
      for (ThreadHandle h : handles) env.Join(h);
      PhaseResult r = measure(m0, m1, total);
      for (const Histogram& h : lat) r.latency_us.Merge(h);
      return r;
    };

    // The popular ranks spread across the slice through a 64-bit mix with
    // one memory node; with several they stay in the slice's first shard,
    // strided across its range so the heat covers many tables (each a
    // migratable unit), not one.
    auto choose_key = [&](Client* c) -> uint64_t {
      if (c->zipf == nullptr) return c->lo + c->rnd.Uniform(c->hi - c->lo);
      uint64_t r = c->zipf->Next();
      if (memories == 1) return c->lo + Hash64(r) % (c->hi - c->lo);
      uint64_t hot_span = std::max<uint64_t>((c->hi - c->lo) / lambda, 1);
      return c->lo + (r < hot_span ? (r * 2654435761ull) % hot_span : r);
    };
    auto fill_op = [&](Client* c) {
      // Loads stay uniform even under --zipfian so the dataset always
      // covers the key range; skew shapes the read traffic.
      uint64_t k = c->lo + c->rnd.Uniform(c->hi - c->lo);
      Status s = c->db->Put(WriteOptions(), MakeKey(k, kKeyWidth),
                            MakeValue(k, kValueSize, &c->rnd));
      DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
    };
    auto read_op = [&](Client* c) {
      uint64_t k = choose_key(c);
      std::string value;
      Status s =
          c->db->Get(ReadOptions(), MakeKey(k, kKeyWidth), &value);
      DLSM_CHECK_MSG(s.ok() || s.IsNotFound(), s.ToString().c_str());
    };
    auto mixed_op = [&](Client* c) {
      if (c->rnd.NextDouble() < config.read_ratio) {
        read_op(c);
      } else {
        fill_op(c);
      }
    };
    // Paper: "the benchmark starts after all the background compaction
    // tasks finish."
    auto settle = [&] {
      for (DB* db : dbs) DLSM_CHECK(db->Flush().ok());
      for (DB* db : dbs) DLSM_CHECK(db->WaitForBackgroundIdle().ok());
    };

    bool filled = false;
    auto ensure_filled = [&](PhaseResult* out) {
      if (filled) return;
      PhaseResult r = run_phase(config.num_keys, fill_op);
      if (out != nullptr) *out = r;
      filled = true;
    };

    for (size_t p = 0; p < phases.size(); p++) {
      switch (phases[p]) {
        case Phase::kFillRandom:
          ensure_filled(&results[p]);
          break;
        case Phase::kReadRandom:
          ensure_filled(nullptr);
          settle();
          results[p] = run_phase(config.num_keys, read_op);
          break;
        case Phase::kReadWriteMixed: {
          ensure_filled(nullptr);
          uint64_t ops =
              config.mixed_ops != 0 ? config.mixed_ops : config.num_keys;
          results[p] = run_phase(ops, mixed_op);
          break;
        }
        case Phase::kReadSeq: {
          ensure_filled(nullptr);
          settle();
          // Whole-database scan with a single iterator per compute node,
          // in key order (readseq), split nowhere: the paper scans the
          // full database. The iterators are destroyed after the stop
          // barrier, outside the measured interval.
          Barrier b0(&env, 2), b1(&env, 2);
          uint64_t scanned = 0;
          ThreadHandle h = env.StartThread(nodes[0]->env_node(), "scanner",
                                           [&] {
              b0.Arrive();
              std::vector<std::unique_ptr<Iterator>> its;
              for (DB* db : dbs) {
                its.emplace_back(db->NewIterator(ReadOptions()));
                Iterator* it = its.back().get();
                for (it->SeekToFirst(); it->Valid(); it->Next()) {
                  scanned++;
                  if ((scanned & 255) == 0) env.MaybeYield();
                }
              }
              b1.Arrive();
            });
          b0.Arrive();
          Mark m0 = mark();
          b1.Arrive();
          Mark m1 = mark();
          env.Join(h);
          results[p] = measure(m0, m1, scanned);
          break;
        }
      }
    }

    // Read the series before Close tears the sampler down; the property
    // is engine-side, so Sherman (no GetProperty) just leaves it empty.
    // Several compute nodes export theirs side by side.
    for (size_t c = 0; !config.stats_series.empty() && c < dbs.size(); c++) {
      std::string one;
      if (!dbs[c]->GetProperty("dlsm.timeseries", &one)) {
        series_json.clear();
        break;
      }
      series_json += (c == 0 ? "" : ",") + one;
    }
    if (dbs.size() > 1 && !series_json.empty()) {
      series_json = "{\"computes\":[" + series_json + "]}";
    }
    for (auto& tree : trees) DLSM_CHECK(tree->Close().ok());
    if (cluster != nullptr) DLSM_CHECK(cluster->Close().ok());
  });

  if (!config.stats_series.empty()) {
    std::FILE* f = std::fopen(config.stats_series.c_str(), "w");
    if (f == nullptr || series_json.empty()) {
      std::fprintf(stderr, "warning: could not write series to %s\n",
                   config.stats_series.c_str());
    } else {
      std::fwrite(series_json.data(), 1, series_json.size(), f);
      std::fputc('\n', f);
    }
    if (f != nullptr) std::fclose(f);
  }

  if (!config.trace_out.empty()) {
    if (!trace::Tracer::WriteChromeTrace(config.trace_out)) {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   config.trace_out.c_str());
    }
    trace::Tracer::Disable();
  }

  return results;
}

Flags::Flags(int argc, char** argv, std::initializer_list<const char*> known)
    : known_(known.begin(), known.end()) {
  // Capture the invocation for the BENCH_*.json meta record.
  g_command_line.clear();
  for (int i = 0; i < argc; i++) {
    if (i > 0) g_command_line.push_back(' ');
    g_command_line.append(argv[i]);
  }
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    std::string name, value = "true";
    if (arg.rfind("--", 0) == 0) {
      name = arg.substr(2);
      size_t eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name.resize(eq);
      }
    }
    if (known_.count(name) == 0) {
      std::fprintf(stderr, "%s: unknown argument '%s'; flags:", argv[0],
                   arg.c_str());
      for (const std::string& k : known_) {
        std::fprintf(stderr, " --%s", k.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    values_[name] = value;
  }
}

const std::string* Flags::Find(const std::string& name) const {
  DLSM_CHECK_MSG(known_.count(name) != 0, "flag read but not declared");
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

uint64_t Flags::GetInt(const std::string& name, uint64_t def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : std::stoull(*v);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : std::stod(*v);
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1";
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : *v;
}

}  // namespace bench
}  // namespace dlsm

#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>

#include "src/baselines/presets.h"
#include "src/baselines/sherman.h"
#include "src/core/cluster.h"
#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
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
          env, config.key_width + config.value_size + 32);
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
  options.estimated_entry_size = config.key_width + config.value_size + 28;
  options.l0_stop_writes_trigger = config.bulkload ? 1 << 30 : 36;
  options.max_immutables = config.bulkload ? 1 << 20 : 16;
  options.flush_threads = 4;
  options.compaction_scheduler_threads = 4;
  options.max_subcompactions = 12;
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
  options.cache_shards = config.cache_shards;
  options.cache_admission = config.cache_admission;
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
  // Flush region: enough for the whole dataset plus compaction churn,
  // pinned snapshots and per-shard slab rounding.
  uint64_t data = config.num_keys *
                  (config.key_width + config.value_size + 28) * 8 +
                  (512ull << 20);
  options.flush_region_size = data;
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
      static_cast<unsigned long long>(config.num_keys), config.value_size,
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

std::vector<PhaseResult> RunBench(const BenchConfig& config,
                                  const std::vector<Phase>& phases) {
  std::vector<PhaseResult> results(phases.size());

  SimEnv::Options sim_options;
  sim_options.cpu_scale = config.cpu_scale;
  SimEnv env(sim_options);
  rdma::Fabric fabric(&env);
  uint64_t entry = config.key_width + config.value_size + 28;
  // Memory node sized for the dataset with generous slack (MAP_NORESERVE:
  // only touched pages cost physical memory).
  size_t mem_dram = config.num_keys * entry * 10 + (2ull << 30);
  rdma::Node* compute =
      fabric.AddNode("compute", config.compute_cores, 2ull << 30);
  rdma::Node* memory =
      fabric.AddNode("memory", config.memory_cores, mem_dram);

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
    std::unique_ptr<MemoryNodeService> service;
    std::unique_ptr<DB> db;
    DB* raw = nullptr;

    if (config.system == SystemKind::kSherman) {
      baselines::ShermanOptions sherman;
      sherman.env = &env;
      sherman.leaf_region_size = config.num_keys * entry * 12 + (512 << 20);
      Status s = baselines::ShermanDB::Open(sherman, &fabric, compute,
                                            memory, &raw);
      DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
    } else {
      service = std::make_unique<MemoryNodeService>(
          &fabric, memory, config.compaction_workers);
      service->Start();
      Options options = MakeEngineOptions(config, &env);
      DbDeps deps;
      deps.fabric = &fabric;
      deps.compute = compute;
      deps.memory = service.get();
      Status s;
      if (options.shards > 1) {
        // Range-aware boundaries: bench keys live in [0, key_range), so
        // full-decimal-space boundaries would funnel them into shard 0.
        s = ShardedDB::Open(options, deps,
                            ShardedDB::RangeDecimalBoundaries(
                                options.shards, config.key_width,
                                config.key_range != 0 ? config.key_range
                                                      : config.num_keys),
                            &raw);
      } else {
        s = DLsmDB::Open(options, deps, &raw);
      }
      DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
    }
    db.reset(raw);

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
      fabric.set_fault_params(fp);
    }

    const uint64_t key_range =
        config.key_range != 0 ? config.key_range : config.num_keys;

    // Runs `total` operations across config.threads workers;
    // op(i, rnd, zipf) performs one operation (zipf is null when
    // zipfian_theta == 0). Returns the phase measurement.
    auto run_phase =
        [&](uint64_t total,
            const std::function<void(uint64_t, Random*, ZipfianGenerator*)>&
                op) -> PhaseResult {
      Barrier start(&env, config.threads + 1);
      Barrier stop(&env, config.threads + 1);
      // One latency histogram per worker, merged after Join; the gated
      // branch keeps the default fast path free of extra clock reads.
      std::vector<Histogram> lat(config.threads);
      std::vector<ThreadHandle> workers;
      for (int t = 0; t < config.threads; t++) {
        uint64_t begin = total * t / config.threads;
        uint64_t end = total * (t + 1) / config.threads;
        workers.push_back(env.StartThread(
            compute->env_node(), "worker", [&, t, begin, end] {
              Random rnd(config.seed + 17 * t);
              // The O(key_range) zeta precompute happens before the start
              // barrier, outside the measured interval.
              std::unique_ptr<ZipfianGenerator> zipf;
              if (config.zipfian_theta > 0) {
                zipf = std::make_unique<ZipfianGenerator>(
                    key_range, config.zipfian_theta, config.seed + 977 * t);
              }
              start.Arrive();
              for (uint64_t i = begin; i < end; i++) {
                if (config.record_latency) {
                  uint64_t op0 = env.NowNanos();
                  op(i, &rnd, zipf.get());
                  lat[t].Add(static_cast<double>(env.NowNanos() - op0) / 1e3);
                } else {
                  op(i, &rnd, zipf.get());
                }
                if (((i - begin) & 63) == 0) env.MaybeYield();
              }
              stop.Arrive();
            }));
      }
      start.Arrive();
      uint64_t t0 = env.NowNanos();
      uint64_t wire0 = fabric.wire_bytes();
      uint64_t busy0 = service != nullptr ? service->worker_busy_ns() : 0;
      stop.Arrive();
      uint64_t t1 = env.NowNanos();
      for (ThreadHandle h : workers) env.Join(h);

      PhaseResult r;
      for (const Histogram& h : lat) r.latency_us.Merge(h);
      r.ops = total;
      r.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
      r.ops_per_sec = r.elapsed_s > 0 ? total / r.elapsed_s : 0;
      r.stats = db->GetStats();
      r.wire_bytes = fabric.wire_bytes() - wire0;
      if (service != nullptr && config.memory_cores > 0 && t1 > t0) {
        r.memory_cpu_util =
            static_cast<double>(service->worker_busy_ns() - busy0) /
            static_cast<double>((t1 - t0) * config.memory_cores);
        if (r.memory_cpu_util > 1.0) r.memory_cpu_util = 1.0;
      }
      r.l0_files = db->NumFilesAtLevel(0);
      return r;
    };

    // Skewed reads draw a Zipfian popularity rank and scramble it through
    // a 64-bit mix so the hot set spreads across the sorted key space
    // (otherwise every hot key lands in one SSTable).
    auto choose_key = [&](Random* rnd, ZipfianGenerator* zipf) -> uint64_t {
      if (zipf == nullptr) return rnd->Uniform(key_range);
      return Hash64(zipf->Next()) % key_range;
    };
    auto fill_op = [&](uint64_t i, Random* rnd, ZipfianGenerator*) {
      (void)i;
      // Loads stay uniform even under --zipfian so the dataset always
      // covers the key range; skew shapes the read traffic.
      uint64_t k = rnd->Uniform(key_range);
      Status s = db->Put(WriteOptions(), MakeKey(k, config.key_width),
                         MakeValue(k, config.value_size, rnd));
      DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
    };
    auto read_op = [&](uint64_t i, Random* rnd, ZipfianGenerator* zipf) {
      (void)i;
      uint64_t k = choose_key(rnd, zipf);
      std::string value;
      Status s = db->Get(ReadOptions(), MakeKey(k, config.key_width), &value);
      DLSM_CHECK_MSG(s.ok() || s.IsNotFound(), s.ToString().c_str());
    };
    auto mixed_op = [&](uint64_t i, Random* rnd, ZipfianGenerator* zipf) {
      if (rnd->NextDouble() < config.read_ratio) {
        read_op(i, rnd, zipf);
      } else {
        fill_op(i, rnd, zipf);
      }
    };

    bool filled = false;
    auto ensure_filled = [&](bool timed, PhaseResult* out) {
      if (filled) return;
      PhaseResult r = run_phase(config.num_keys, fill_op);
      if (timed && out != nullptr) *out = r;
      filled = true;
    };

    for (size_t p = 0; p < phases.size(); p++) {
      switch (phases[p]) {
        case Phase::kFillRandom:
          ensure_filled(true, &results[p]);
          break;
        case Phase::kReadRandom: {
          ensure_filled(false, nullptr);
          // Paper: "the benchmark starts after all the background
          // compaction tasks finish."
          DLSM_CHECK(db->Flush().ok());
          DLSM_CHECK(db->WaitForBackgroundIdle().ok());
          results[p] = run_phase(config.num_keys, read_op);
          break;
        }
        case Phase::kReadWriteMixed: {
          ensure_filled(false, nullptr);
          uint64_t ops =
              config.mixed_ops != 0 ? config.mixed_ops : config.num_keys;
          results[p] = run_phase(ops, mixed_op);
          break;
        }
        case Phase::kReadSeq: {
          ensure_filled(false, nullptr);
          DLSM_CHECK(db->Flush().ok());
          DLSM_CHECK(db->WaitForBackgroundIdle().ok());
          // Whole-table scan with a single iterator (readseq), split
          // nowhere: the paper scans the full database.
          Barrier b0(&env, 2), b1(&env, 2);
          uint64_t scanned = 0;
          ThreadHandle h = env.StartThread(compute->env_node(), "scanner",
                                           [&] {
              b0.Arrive();
              std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
              uint64_t count = 0;
              for (it->SeekToFirst(); it->Valid(); it->Next()) {
                count++;
                if ((count & 255) == 0) env.MaybeYield();
              }
              scanned = count;
              b1.Arrive();
            });
          b0.Arrive();
          uint64_t t0 = env.NowNanos();
          uint64_t wire0 = fabric.wire_bytes();
          b1.Arrive();
          uint64_t t1 = env.NowNanos();
          env.Join(h);
          PhaseResult r;
          r.ops = scanned;
          r.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
          r.ops_per_sec = r.elapsed_s > 0 ? scanned / r.elapsed_s : 0;
          r.stats = db->GetStats();
          r.wire_bytes = fabric.wire_bytes() - wire0;
          r.l0_files = db->NumFilesAtLevel(0);
          results[p] = r;
          break;
        }
      }
    }

    // Read the series before Close tears the sampler down; the property
    // is engine-side, so Sherman (no GetProperty) just leaves it empty.
    if (!config.stats_series.empty()) {
      db->GetProperty("dlsm.timeseries", &series_json);
    }
    DLSM_CHECK(db->Close().ok());
    db.reset();
    if (service != nullptr) service->Stop();
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

ClusterBenchResult RunClusterBench(const ClusterBenchConfig& config) {
  ClusterBenchResult result;
  SimEnv env;
  uint64_t entry = config.key_width + config.value_size + 28;
  const int total_shards = config.compute_nodes * config.shards_per_compute;
  const uint64_t key_range = config.num_keys;

  // Sherman has no shard machinery: deploy one tree per compute node,
  // each on its round-robin memory node, range-partitioned by compute.
  if (config.system == SystemKind::kSherman) {
    rdma::Fabric fabric(&env);
    std::vector<rdma::Node*> computes, memories;
    for (int i = 0; i < config.compute_nodes; i++) {
      computes.push_back(fabric.AddNode("compute-" + std::to_string(i),
                                        config.compute_cores, 2ull << 30));
    }
    for (int i = 0; i < config.memory_nodes; i++) {
      memories.push_back(fabric.AddNode(
          "memory-" + std::to_string(i), config.memory_cores,
          config.num_keys * entry * 12 / config.memory_nodes +
              (1ull << 30)));
    }
    env.Run(0, [&] {
      std::vector<std::unique_ptr<DB>> trees;
      for (int c = 0; c < config.compute_nodes; c++) {
        baselines::ShermanOptions sherman;
        sherman.env = &env;
        sherman.leaf_region_size =
            config.num_keys * entry * 12 / config.compute_nodes +
            (256ull << 20);
        DB* raw = nullptr;
        Status s = baselines::ShermanDB::Open(
            sherman, &fabric, computes[c],
            memories[c % config.memory_nodes], &raw);
        DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
        trees.emplace_back(raw);
      }
      auto run = [&](bool reads) {
        int workers_total = config.compute_nodes * config.threads_per_compute;
        Barrier start(&env, workers_total + 1), stop(&env, workers_total + 1);
        std::vector<ThreadHandle> hs;
        for (int c = 0; c < config.compute_nodes; c++) {
          uint64_t lo = key_range * c / config.compute_nodes;
          uint64_t hi = key_range * (c + 1) / config.compute_nodes;
          for (int t = 0; t < config.threads_per_compute; t++) {
            uint64_t ops = (hi - lo) / config.threads_per_compute;
            hs.push_back(env.StartThread(
                computes[c]->env_node(), "worker",
                [&, c, t, lo, hi, ops, reads] {
                  Random rnd(config.seed + c * 131 + t);
                  start.Arrive();
                  for (uint64_t i = 0; i < ops; i++) {
                    uint64_t k = lo + rnd.Uniform(hi - lo);
                    if (reads) {
                      std::string value;
                      Status s = trees[c]->Get(
                          ReadOptions(), MakeKey(k, config.key_width),
                          &value);
                      DLSM_CHECK(s.ok() || s.IsNotFound());
                    } else {
                      Random vr(k);
                      DLSM_CHECK(trees[c]
                                     ->Put(WriteOptions(),
                                           MakeKey(k, config.key_width),
                                           MakeValue(k, config.value_size,
                                                     &vr))
                                     .ok());
                    }
                    if ((i & 63) == 0) env.MaybeYield();
                  }
                  stop.Arrive();
                }));
          }
        }
        start.Arrive();
        uint64_t t0 = env.NowNanos();
        stop.Arrive();
        uint64_t t1 = env.NowNanos();
        for (ThreadHandle h : hs) env.Join(h);
        double elapsed = (t1 - t0) / 1e9;
        return elapsed > 0 ? config.num_keys / elapsed : 0.0;
      };
      result.fill_ops_per_sec = run(false);
      result.read_ops_per_sec = run(true);
      for (auto& t : trees) DLSM_CHECK(t->Close().ok());
    });
    return result;
  }

  // LSM systems: the Sec. IX deployment via Cluster.
  BenchConfig base;
  base.system = config.system;
  base.num_keys = config.num_keys;
  base.value_size = config.value_size;
  base.key_width = config.key_width;
  base.memtable_size = config.memtable_size;
  base.sstable_size = config.sstable_size;

  ClusterTopology topology;
  topology.compute_nodes = config.compute_nodes;
  topology.memory_nodes = config.memory_nodes;
  topology.shards_per_compute = config.shards_per_compute;
  topology.compute_cores = config.compute_cores;
  topology.memory_cores = config.memory_cores;
  topology.compaction_workers_per_memory = config.compaction_workers;
  topology.memory_dram =
      config.num_keys * entry * 24 / config.memory_nodes + (4ull << 30);

  env.Run(0, [&] {
    Options options = MakeEngineOptions(base, &env);
    options.shards = 1;  // Sharding is the cluster's job here.
    // Per-shard scaling, as ShardedDB does for single-node lambda.
    options.memtable_size = std::max<size_t>(
        config.memtable_size / config.shards_per_compute, 64 << 10);
    options.sstable_size = std::max<size_t>(
        config.sstable_size / config.shards_per_compute, 128 << 10);
    options.flush_region_size =
        config.num_keys * entry * 4 / total_shards + (64ull << 20);
    options.compaction_scheduler_threads = 2;
    options.max_subcompactions = 4;
    options.placement_policy = config.placement_policy;
    options.placement_rebalance = config.placement_rebalance;
    if (config.placement_rebalance_interval_ns > 0) {
      options.placement_rebalance_interval_ns =
          config.placement_rebalance_interval_ns;
    }

    std::unique_ptr<Cluster> cluster;
    Status s = Cluster::Create(
        &env, options, topology,
        ShardedDB::RangeDecimalBoundaries(total_shards, config.key_width,
                                          key_range),
        &cluster);
    DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());

    // Cluster-wide counter view: every shard sees all memory nodes, so the
    // per-node verb breakdown merges slot-wise across shards.
    auto merged_stats = [&]() {
      DbStats m;
      for (int s = 0; s < cluster->num_shards(); s++) {
        DbStats d = cluster->shard_db(s)->GetStats();
        m.writes += d.writes;
        m.reads += d.reads;
        m.flushes += d.flushes;
        m.compactions += d.compactions;
        m.compaction_input_bytes += d.compaction_input_bytes;
        m.compaction_output_bytes += d.compaction_output_bytes;
        m.stall_ns += d.stall_ns;
        m.bloom_useful += d.bloom_useful;
        m.compaction_rpc_inflight_peak = std::max(
            m.compaction_rpc_inflight_peak, d.compaction_rpc_inflight_peak);
        m.read_retries += d.read_retries;
        m.flush_retries += d.flush_retries;
        m.rpc_retries += d.rpc_retries;
        m.rpc_timeouts += d.rpc_timeouts;
        m.tables_migrated += d.tables_migrated;
        m.migration_bytes += d.migration_bytes;
        m.cache_hits += d.cache_hits;
        m.cache_misses += d.cache_misses;
        m.cache_inserts += d.cache_inserts;
        m.cache_evictions += d.cache_evictions;
        m.cache_admission_rejects += d.cache_admission_rejects;
        if (m.per_node.size() < d.per_node.size()) {
          m.per_node.resize(d.per_node.size());
        }
        for (size_t i = 0; i < d.per_node.size(); i++) {
          m.per_node[i].read_verbs += d.per_node[i].read_verbs;
          m.per_node[i].read_bytes += d.per_node[i].read_bytes;
          m.per_node[i].write_verbs += d.per_node[i].write_verbs;
          m.per_node[i].write_bytes += d.per_node[i].write_bytes;
        }
        m.rdma.MergeFrom(d.rdma);
      }
      return m;
    };

    int workers_total = config.compute_nodes * config.threads_per_compute;
    std::vector<Histogram> latencies(workers_total);
    auto run = [&](bool reads) {
      for (Histogram& h : latencies) h.Clear();
      Barrier start(&env, workers_total + 1), stop(&env, workers_total + 1);
      std::vector<ThreadHandle> hs;
      for (int c = 0; c < config.compute_nodes; c++) {
        uint64_t lo = key_range * c / config.compute_nodes;
        uint64_t hi = key_range * (c + 1) / config.compute_nodes;
        for (int t = 0; t < config.threads_per_compute; t++) {
          uint64_t ops = (hi - lo) / config.threads_per_compute;
          int w = c * config.threads_per_compute + t;
          hs.push_back(env.StartThread(
              cluster->compute_node(c)->env_node(), "worker",
              [&, c, t, w, lo, hi, ops, reads] {
                Random rnd(config.seed + c * 131 + t);
                // Skewed reads draw an UNSCRAMBLED Zipfian rank over this
                // compute's slice: the popular ranks land in the slice's
                // first shard, whose tables all sit on one memory node
                // under static round-robin. The popular ranks are strided
                // across that shard's key range so the heat covers many
                // tables (a migratable unit each), not one.
                std::unique_ptr<ZipfianGenerator> zipf;
                if (reads && config.zipfian_theta > 0) {
                  zipf = std::make_unique<ZipfianGenerator>(
                      hi - lo, config.zipfian_theta,
                      config.seed + 977 * w + 13);
                }
                uint64_t hot_span = std::max<uint64_t>(
                    (hi - lo) / config.shards_per_compute, 1);
                start.Arrive();
                for (uint64_t i = 0; i < ops; i++) {
                  uint64_t k;
                  if (zipf != nullptr) {
                    uint64_t r = zipf->Next();
                    k = r < hot_span
                            ? lo + (r * 2654435761ull) % hot_span
                            : lo + r;
                  } else {
                    k = lo + rnd.Uniform(hi - lo);
                  }
                  std::string key = MakeKey(k, config.key_width);
                  if (reads) {
                    std::string value;
                    uint64_t rt0 =
                        config.record_latency ? env.NowNanos() : 0;
                    Status st = cluster->Get(key, &value);
                    DLSM_CHECK(st.ok() || st.IsNotFound());
                    if (config.record_latency) {
                      latencies[w].Add(
                          static_cast<double>(env.NowNanos() - rt0) / 1e3);
                    }
                  } else {
                    Random vr(k);
                    DLSM_CHECK(cluster
                                   ->Put(key, MakeValue(
                                                  k, config.value_size, &vr))
                                   .ok());
                  }
                  if ((i & 63) == 0) env.MaybeYield();
                }
                stop.Arrive();
              }));
        }
      }
      start.Arrive();
      uint64_t t0 = env.NowNanos();
      stop.Arrive();
      uint64_t t1 = env.NowNanos();
      for (ThreadHandle h : hs) env.Join(h);
      double elapsed = (t1 - t0) / 1e9;
      return elapsed > 0 ? config.num_keys / elapsed : 0.0;
    };

    result.fill_ops_per_sec = run(false);
    DLSM_CHECK(cluster->Flush().ok());
    DLSM_CHECK(cluster->WaitForBackgroundIdle().ok());
    // Warm-up passes let the heat rebalancer settle the layout; only the
    // last pass is measured (and only its per-node verb delta counted).
    for (int p = 1; p < config.read_passes; p++) run(true);
    DbStats before = merged_stats();
    result.read_ops_per_sec = run(true);
    DbStats after = merged_stats();
    for (Histogram& h : latencies) result.read_latency_us.Merge(h);
    result.read_p50_us = result.read_latency_us.Median();
    result.tables_migrated = after.tables_migrated;
    result.migration_bytes = after.migration_bytes;
    result.stats = after;
    uint64_t sum = 0, mx = 0;
    for (size_t i = 0; i < after.per_node.size(); i++) {
      uint64_t b = i < before.per_node.size()
                       ? before.per_node[i].read_verbs
                       : 0;
      uint64_t bw = i < before.per_node.size()
                        ? before.per_node[i].write_bytes
                        : 0;
      uint64_t rd = after.per_node[i].read_verbs - b;
      result.node_read_verbs.push_back(rd);
      result.node_write_bytes.push_back(after.per_node[i].write_bytes - bw);
      sum += rd;
      mx = std::max(mx, rd);
    }
    if (!result.node_read_verbs.empty() && sum > 0) {
      double mean = static_cast<double>(sum) /
                    static_cast<double>(result.node_read_verbs.size());
      result.read_imbalance = static_cast<double>(mx) / mean;
    }
    DLSM_CHECK(cluster->Close().ok());
  });
  return result;
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

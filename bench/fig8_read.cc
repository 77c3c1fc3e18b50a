// Figure 8: random-read throughput vs. threads, all systems. The read
// phase starts after all background compaction finishes, as in the paper.
//
// Usage: fig8_read [--keys=N] [--threads=1,2,4,8,16] [--only=SUBSTR]
//                  [--memtable_kb=N] [--stats_json=FILE] [--trace_out=FILE]
//                  [--zipfian=THETA] [--cache_ab [--cache_mb=64]]
//                  [--stats_series=FILE [--stats_period_ms=1]]
//                  [--watchdog_ms=N] [--exemplar_k=N [--exemplar_window_ms=10]]
//                  [--telemetry_ab]

#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/harness.h"

namespace dlsm {
namespace bench {
namespace {

// The A/B guards' metrics, read off a leg's measured phase (PhaseDelta:
// the phase's own READs, cache probes and stalls).
const AbMetric kOpsPerSec{"ops/s", true, 0,
                          [](const PhaseResult& r) { return r.ops_per_sec; }};
const AbMetric kOpP50{"op p50 us", false, 2, [](const PhaseResult& r) {
                        return r.latency_us.Percentile(50.0);
                      }};
const AbMetric kOpP99{"op p99 us", false, 2, [](const PhaseResult& r) {
                        return r.latency_us.Percentile(99.0);
                      }};
const AbMetric kReadVerbs{"READ verbs", false, 0, [](const PhaseResult& r) {
                            return static_cast<double>(r.stats.rdma.read.ops);
                          }};
const AbMetric kReadBytes{"READ bytes", false, 0, [](const PhaseResult& r) {
                            return static_cast<double>(
                                r.stats.rdma.read.bytes);
                          }};
const AbMetric kWireP50{"wire p50 us", false, 3, [](const PhaseResult& r) {
                          return r.stats.rdma.read.latency_us.Percentile(50.0);
                        }};
const AbMetric kWireP99{"wire p99 us", false, 1, [](const PhaseResult& r) {
                          return r.stats.rdma.read.latency_us.Percentile(99.0);
                        }};
const AbMetric kStalls{"watchdog stalls", false, 0, [](const PhaseResult& r) {
                         return static_cast<double>(r.stats.watchdog_stalls);
                       }};
const AbMetric kHitRate{"hit rate %", true, 1, [](const PhaseResult& r) {
                          const DbStats& s = r.stats;
                          uint64_t n = s.cache_hits + s.cache_misses;
                          return n > 0 ? 100.0 * s.cache_hits / n : 0.0;
                        }};

// The cache and telemetry guards' deployment: --ab_threads clients over
// --memtable_kb tables.
BenchConfig GuardConfig(const Flags& flags, uint64_t keys) {
  BenchConfig config;
  config.threads = static_cast<int>(flags.GetInt("ab_threads", 8));
  config.num_keys = keys;
  size_t memtable_kb = flags.GetInt("memtable_kb", 1024);
  config.memtable_size = memtable_kb << 10;
  config.sstable_size = memtable_kb << 10;
  config.record_latency = true;
  return config;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"ab_threads", "budget", "cache_ab", "cache_mb", "exemplar_k",
               "exemplar_window_ms", "fault_rate", "fault_seed", "keys",
               "memtable_kb", "only", "rnr_rate", "slo_read_p99_us",
               "slo_threads", "stats_json", "stats_period_ms", "stats_series",
               "telemetry_ab", "threads", "trace_out", "verb_stats",
               "watchdog_ms", "zipfian"});
  uint64_t keys = flags.GetInt("keys", 100000);
  // --stats_json=FILE: machine-readable records (one per cell, or per
  // guard leg run).
  StatsJsonWriter stats_json(flags.GetString("stats_json", ""));
  using enum AbCheckKind;

  // --cache_ab: the compute-side block cache under zipfian reads. Each leg
  // is a fill and back-to-back read phases, measuring the second: the
  // first fills the cache and still carries WRITEs from the fill's
  // trailing background work. The wire legs run cache-off at SimEnv
  // cpu_scale = 0, where virtual time advances only through the modeled
  // fabric, so steady-state read phases 2 and 3 must post identical READs.
  // (At cpu_scale = 1 concurrent readers' READs queue on the link at times
  // set by measured host CPU, so wire p50 moves run to run.) At theta 0.99
  // the hot set fits in 64 MiB: the cache must cut steady-state READ verbs
  // >= 3x and win end to end in every run.
  if (flags.GetBool("cache_ab", false)) {
    BenchConfig off = GuardConfig(flags, keys);
    off.zipfian_theta = flags.GetDouble("zipfian", 0.99);
    BenchConfig on = off;
    on.block_cache_size = flags.GetInt("cache_mb", 64) << 20;
    BenchConfig wire = off;
    wire.cpu_scale = 0;
    const std::vector<Phase> two = {Phase::kFillRandom, Phase::kReadRandom,
                                    Phase::kReadRandom};
    std::vector<Phase> three = two;
    three.push_back(Phase::kReadRandom);
    std::printf("\n=== Cache A/B: %llu keys, %d threads, zipfian %.2f, "
                "%zu MiB cache ===\n",
                static_cast<unsigned long long>(keys), off.threads,
                off.zipfian_theta, on.block_cache_size >> 20);
    return RunAbGuard(
        {BenchLeg("cache_off", off, two, "cache_ab", &stats_json),
         BenchLeg("cache_on", on, two, "cache_ab", &stats_json),
         BenchLeg("wire_phase2", wire, two, "cache_ab", &stats_json),
         BenchLeg("wire_phase3", wire, three, "cache_ab", &stats_json)},
        {kOpsPerSec, kOpP50, kOpP99, kReadVerbs, kReadBytes, kWireP50,
         kHitRate},
        {{kExact, "READ verbs", "wire_phase2", "wire_phase3"},
         {kExact, "READ bytes", "wire_phase2", "wire_phase3"},
         {kExact, "wire p50 us", "wire_phase2", "wire_phase3"},
         {kThreshold, "READ verbs", "cache_on", "cache_off", 3.0},
         {kBetter, "ops/s", "cache_on", "cache_off"},
         {kBetter, "op p50 us", "cache_on", "cache_off"},
         {kBetter, "op p99 us", "cache_on", "cache_off"}},
        &stats_json);
  }

  // --telemetry_ab: the continuous-telemetry stack (DESIGN Sec. 4.9), a
  // 1 ms sampler plus a 50 ms stall watchdog, against telemetry never
  // configured. Neither posts verbs or sits on an op path, so at
  // cpu_scale = 0 the read phase's READs must be identical; at
  // cpu_scale = 1, where the sampler's host CPU is folded in, ops/s and op
  // p99 must not be worse. The telemetry_* legs and wire_on_whole list
  // only the read phase, so their counters include the fill: the watchdog
  // must stay silent over every whole run, at both cpu_scales.
  if (flags.GetBool("telemetry_ab", false)) {
    BenchConfig off = GuardConfig(flags, keys);
    BenchConfig on = off;
    on.stats_series = flags.GetString("stats_series", "/dev/null");
    on.stats_sample_period_ms = flags.GetInt("stats_period_ms", 1);
    on.watchdog_deadline_ms = flags.GetInt("watchdog_ms", 50);
    BenchConfig wire_off = off, wire_on = on;
    wire_off.cpu_scale = wire_on.cpu_scale = 0;
    const std::vector<Phase> read = {Phase::kReadRandom};
    const std::vector<Phase> fill_read = {Phase::kFillRandom,
                                          Phase::kReadRandom};
    std::printf("\n=== Telemetry A/B: %llu keys, %d threads, %llums sampler "
                "+ %llums watchdog ===\n",
                static_cast<unsigned long long>(keys), off.threads,
                static_cast<unsigned long long>(on.stats_sample_period_ms),
                static_cast<unsigned long long>(on.watchdog_deadline_ms));
    return RunAbGuard(
        {BenchLeg("telemetry_off", off, read, "telemetry_ab", &stats_json),
         BenchLeg("telemetry_on", on, read, "telemetry_ab", &stats_json),
         BenchLeg("wire_off", wire_off, fill_read, "telemetry_ab",
                  &stats_json),
         BenchLeg("wire_on", wire_on, fill_read, "telemetry_ab",
                  &stats_json),
         BenchLeg("wire_on_whole", wire_on, read, "telemetry_ab",
                  &stats_json)},
        {kOpsPerSec, kOpP99, kReadVerbs, kReadBytes, kWireP50, kStalls},
        {{kExact, "READ verbs", "wire_on", "wire_off"},
         {kExact, "READ bytes", "wire_on", "wire_off"},
         {kExact, "wire p50 us", "wire_on", "wire_off"},
         {kExact, "watchdog stalls", "telemetry_on", "telemetry_off"},
         {kThreshold, "watchdog stalls", "wire_on_whole", "", 0},
         {kNotWorse, "ops/s", "telemetry_on", "telemetry_off", 0.02},
         {kNotWorse, "op p99 us", "telemetry_on", "telemetry_off", 0.02}},
        &stats_json);
  }

  // --slo_read_p99_us=N: a mixed 50/50 read/write workload, so flushes and
  // near-data compactions run alongside foreground READ waves; the
  // one-sided READ p99 must stay within N. This guards the compaction verb
  // budget (--budget): an uncapped pipelined compaction scheduler could
  // queue enough verbs to blow up the foreground tail.
  double slo_us = flags.GetDouble("slo_read_p99_us", 0);
  if (slo_us > 0) {
    BenchConfig config;
    config.threads = static_cast<int>(flags.GetInt("slo_threads", 8));
    config.num_keys = keys;
    config.read_ratio = 0.5;
    config.compaction_verb_budget = flags.GetInt("budget", 64);
    config.memtable_size = 1 << 20;
    config.sstable_size = 1 << 20;
    std::printf("\n=== READ p99 SLO under concurrent compaction: %llu keys, "
                "%d threads, budget=%llu ===\n",
                static_cast<unsigned long long>(keys), config.threads,
                static_cast<unsigned long long>(
                    config.compaction_verb_budget));
    const AbMetric compactions{"compactions", true, 0,
                               [](const PhaseResult& r) {
                                 return static_cast<double>(
                                     r.stats.compactions);
                               }};
    return RunAbGuard(
        {BenchLeg("mixed", config, {Phase::kReadWriteMixed}, "read_slo",
                  &stats_json)},
        {kOpsPerSec, kReadVerbs, kWireP50, kWireP99, compactions},
        {{kThreshold, "wire p99 us", "mixed", "", slo_us}}, &stats_json);
  }

  std::vector<int> threads;
  {
    std::stringstream ss(flags.GetString("threads", "1,2,4,8,16"));
    std::string tok;
    while (std::getline(ss, tok, ',')) threads.push_back(std::stoi(tok));
  }

  std::vector<SystemKind> systems = {
      SystemKind::kDLsm,        SystemKind::kRocks8K,
      SystemKind::kRocks2K,     SystemKind::kMemoryRocks,
      SystemKind::kNovaLsm,     SystemKind::kSherman,
  };
  // --only=SUBSTR: run the matching systems only (CI smoke / tracing one
  // system without paying for the full sweep).
  std::string only = flags.GetString("only", "");
  if (!only.empty()) {
    std::vector<SystemKind> filtered;
    for (SystemKind sk : systems) {
      if (std::string(SystemName(sk)).find(only) != std::string::npos) {
        filtered.push_back(sk);
      }
    }
    systems = filtered;
  }

  std::printf("\n=== Figure 8: randomread after compaction, %llu keys ===\n",
              static_cast<unsigned long long>(keys));
  std::printf("%-22s", "system");
  for (int t : threads) std::printf("%12d-thr", t);
  std::printf("\n");

  bool verb_stats = flags.GetBool("verb_stats", false);
  // Deterministic fault injection; --verb_stats then shows per-verb error
  // counts, QP reconnects and retry/timeout totals.
  double fault_rate = flags.GetDouble("fault_rate", 0);
  double rnr_rate = flags.GetDouble("rnr_rate", 0);
  uint64_t fault_seed = flags.GetInt("fault_seed", 1);
  // --trace_out=FILE: Chrome trace JSON; every traced cell rewrites the
  // file, so the trace covers the last cell run — narrow the sweep with
  // --only/--threads to trace one deployment.
  std::string trace_out = flags.GetString("trace_out", "");
  // Continuous telemetry: --stats_series writes the engine's sampler ring
  // ("dlsm.timeseries") after the run. Like --trace_out, every cell
  // rewrites the file — narrow the sweep to series one deployment.
  // --exemplar_k keeps only the k slowest ops' span trees per window in
  // the trace; --watchdog_ms arms the stall watchdog.
  std::string stats_series = flags.GetString("stats_series", "");
  uint64_t stats_period_ms = flags.GetInt("stats_period_ms", 1);
  uint64_t watchdog_ms = flags.GetInt("watchdog_ms", 0);
  size_t exemplar_k = flags.GetInt("exemplar_k", 0);
  uint64_t exemplar_window_ms = flags.GetInt("exemplar_window_ms", 10);
  // --memtable_kb: shrink the engine scale so small smoke runs still hit
  // flush + L0 compaction (the paper's 64 MB scaled with the dataset).
  size_t memtable_kb = flags.GetInt("memtable_kb", 4096);
  for (SystemKind system : systems) {
    std::printf("%-22s", SystemName(system));
    std::fflush(stdout);
    std::string verbs;
    for (int t : threads) {
      BenchConfig config;
      config.system = system;
      config.threads = t;
      config.num_keys = keys;
      config.fault_seed = fault_seed;
      config.wr_error_rate = fault_rate;
      config.rnr_delay_rate = rnr_rate;
      config.memtable_size = memtable_kb << 10;
      config.sstable_size = memtable_kb << 10;
      config.zipfian_theta = flags.GetDouble("zipfian", 0);
      config.record_latency = stats_json.enabled();
      config.trace_out = trace_out;
      config.stats_series = stats_series;
      config.stats_sample_period_ms = stats_period_ms;
      config.watchdog_deadline_ms = watchdog_ms;
      config.exemplar_k = exemplar_k;
      config.exemplar_window_ms = exemplar_window_ms;
      auto r = RunBench(config, {Phase::kReadRandom});
      std::printf("%16s", FormatThroughput(r[0].ops_per_sec).c_str());
      std::fflush(stdout);
      stats_json.Add("fig8", SystemName(system), t, "readrandom", config,
                     r[0]);
      verbs = VerbStatsSummary(r[0].stats);
    }
    std::printf("\n");
    // Per-verb wire telemetry for the last (widest) thread count.
    if (verb_stats && !verbs.empty()) std::printf("  [%s]\n", verbs.c_str());
  }
  if (!stats_json.Write()) {
    std::fprintf(stderr, "warning: could not write --stats_json file\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

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

// SLO mode (--slo_read_p99_us=N): mixed 50/50 read/write workload on dLSM
// so flushes and near-data compactions run concurrently with foreground
// READ waves, then checks the one-sided READ p99 against the threshold.
// This is the guardrail for the compaction verb budget: an uncapped
// pipelined compaction scheduler could queue enough verbs to blow up
// foreground tail latency. Returns nonzero on violation (CI-friendly).
int RunReadSlo(uint64_t keys, int threads, double slo_us, uint64_t budget) {
  BenchConfig config;
  config.threads = threads;
  config.num_keys = keys;
  config.read_ratio = 0.5;
  config.compaction_verb_budget = budget;
  config.memtable_size = 1 << 20;
  config.sstable_size = 1 << 20;
  auto r = RunBench(config, {Phase::kReadWriteMixed});
  const auto& read = r[0].stats.rdma.cls(rdma::VerbClass::kRead);
  double p99 = read.latency_us.Percentile(99.0);
  bool ok = p99 <= slo_us;
  std::printf("\n=== READ p99 SLO under concurrent compaction: %llu keys, "
              "%d threads, budget=%llu ===\n",
              static_cast<unsigned long long>(keys), threads,
              static_cast<unsigned long long>(budget));
  std::printf("mixed %.1f Kops/s | %llu READs p50 %.1fus p99 %.1fus | "
              "compactions %llu (rpc inflight peak %llu) | SLO %.1fus: %s\n",
              r[0].ops_per_sec / 1e3,
              static_cast<unsigned long long>(read.ops),
              read.latency_us.Percentile(50.0), p99,
              static_cast<unsigned long long>(r[0].stats.compactions),
              static_cast<unsigned long long>(
                  r[0].stats.compaction_rpc_inflight_peak),
              slo_us, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// The read phase r[i]'s READ-class wire traffic. Stats are cumulative,
// so a phase is the difference from the one before it.
struct ReadWire {
  uint64_t verbs = 0;
  uint64_t bytes = 0;
  double p50_us = 0;

  bool operator==(const ReadWire&) const = default;
};

ReadWire PhaseReadWire(const std::vector<PhaseResult>& r, size_t i) {
  const rdma::VerbClassStats& cur = r[i].stats.rdma.cls(rdma::VerbClass::kRead);
  const rdma::VerbClassStats& prev =
      r[i - 1].stats.rdma.cls(rdma::VerbClass::kRead);
  return ReadWire{cur.ops - prev.ops, cur.bytes - prev.bytes,
                  cur.latency_us.DeltaSince(prev.latency_us).Percentile(50.0)};
}

// --cache_ab mode: A/B guard + speedup series for the compute-side block
// cache under a skewed read workload. Each leg is one deployment run as
// fill + identical back-to-back read phases; phase 2 is the measured
// steady state (phase 1 fills the cache, and still carries WRITEs from
// the fill's trailing background work):
//   off  — cache disabled (the no-cache configuration every earlier PR
//          measured).
//   on   — --cache_mb (default 64 MiB) with TinyLFU admission.
//   wire — cache off at SimEnv cpu_scale = 0, with a third read phase.
//          Virtual time then advances only through the modeled fabric, so
//          the wire schedule depends on the workload alone: steady-state
//          phases 2 and 3 must post the identical READs — verbs, bytes and
//          wire p50 exactly equal. (At cpu_scale = 1 concurrent readers'
//          READs queue on the link at times set by measured host CPU, so
//          wire p50 moves run to run.)
// At theta = 0.99 the hot set fits in 64 MiB, so cache-on steady-state
// READ verbs must drop >= 3x, and end to end at the default cpu_scale the
// cache must not lose: read ops/s >= cache-off, op p50 and op p99 <=
// cache-off. Returns nonzero on any guard violation (CI-friendly).
int RunCacheAb(uint64_t keys, const Flags& flags) {
  BenchConfig base;
  base.threads = static_cast<int>(flags.GetInt("ab_threads", 8));
  base.num_keys = keys;
  base.zipfian_theta = flags.GetDouble("zipfian", 0.99);
  size_t memtable_kb = flags.GetInt("memtable_kb", 1024);
  base.memtable_size = memtable_kb << 10;
  base.sstable_size = memtable_kb << 10;
  base.record_latency = true;
  StatsJsonWriter stats_json(flags.GetString("stats_json", ""));

  // Fill, then `reads` read phases; records phase 2.
  auto run = [&](size_t cache_bytes, double cpu_scale, int reads,
                 const char* label) {
    BenchConfig config = base;
    config.block_cache_size = cache_bytes;
    config.cpu_scale = cpu_scale;
    std::vector<Phase> phases(1 + reads, Phase::kReadRandom);
    phases[0] = Phase::kFillRandom;
    auto r = RunBench(config, phases);
    stats_json.Add("cache_ab", label, config.threads, "readrandom", config,
                   r[2]);
    return r;
  };

  auto wire = run(0, 0.0, 3, "dLSM cpu_scale=0");
  auto off = run(0, 1.0, 2, "dLSM");
  size_t cache_bytes = flags.GetInt("cache_mb", 64) << 20;
  auto on = run(cache_bytes, 1.0, 2, "dLSM+cache");

  const ReadWire wire2 = PhaseReadWire(wire, 2);
  const ReadWire wire3 = PhaseReadWire(wire, 3);
  uint64_t reads_off = PhaseReadWire(off, 2).verbs;
  uint64_t reads_on = PhaseReadWire(on, 2).verbs;
  // reads_on == 0 means the steady-state hot set fits entirely — an
  // infinite reduction, reported as the off count.
  double verb_ratio = static_cast<double>(reads_off) /
                      (reads_on > 0 ? reads_on : 1);
  double p50_off = off[2].latency_us.Percentile(50.0);
  double p99_off = off[2].latency_us.Percentile(99.0);
  double p50_on = on[2].latency_us.Percentile(50.0);
  double p99_on = on[2].latency_us.Percentile(99.0);
  uint64_t hits = on[2].stats.cache_hits - on[1].stats.cache_hits;
  uint64_t lookups = hits + on[2].stats.cache_misses -
                     on[1].stats.cache_misses;

  bool wire_ok = wire2 == wire3;
  bool ratio_ok = verb_ratio >= 3.0;
  bool ops_ok = on[2].ops_per_sec >= off[2].ops_per_sec;
  bool p50_ok = p50_on <= p50_off;
  bool p99_ok = p99_on <= p99_off;
  std::printf("\n=== Cache A/B: %llu keys, %d threads, zipfian %.2f, "
              "%zu MiB cache ===\n",
              static_cast<unsigned long long>(keys), base.threads,
              base.zipfian_theta, cache_bytes >> 20);
  std::printf("%14s %14s %14s %12s %12s %10s\n", "config", "read ops/s",
              "READ verbs", "op p50 us", "op p99 us", "hit rate");
  std::printf("%14s %14.0f %14llu %12.2f %12.2f %10s\n", "cache off",
              off[2].ops_per_sec, static_cast<unsigned long long>(reads_off),
              p50_off, p99_off, "-");
  std::printf("%14s %14.0f %14llu %12.2f %12.2f %9.1f%%\n", "cache on",
              on[2].ops_per_sec, static_cast<unsigned long long>(reads_on),
              p50_on, p99_on, lookups > 0 ? 100.0 * hits / lookups : 0.0);
  std::printf("wire leg (cache off, cpu_scale=0), read phase 2 vs 3: READ "
              "verbs %llu / %llu, bytes %llu / %llu, wire p50 %.3f / %.3f us "
              "(guard identical: %s)\n",
              static_cast<unsigned long long>(wire2.verbs),
              static_cast<unsigned long long>(wire3.verbs),
              static_cast<unsigned long long>(wire2.bytes),
              static_cast<unsigned long long>(wire3.bytes), wire2.p50_us,
              wire3.p50_us, wire_ok ? "PASS" : "FAIL");
  std::printf("READ verb reduction %.1fx (guard >= 3x: %s) | "
              "ops/s %.0f -> %.0f (guard no regress: %s) | "
              "p50 %.2f -> %.2f us (guard no regress: %s) | "
              "p99 %.2f -> %.2f us (guard no regress: %s)\n",
              verb_ratio, ratio_ok ? "PASS" : "FAIL", off[2].ops_per_sec,
              on[2].ops_per_sec, ops_ok ? "PASS" : "FAIL", p50_off, p50_on,
              p50_ok ? "PASS" : "FAIL", p99_off, p99_on,
              p99_ok ? "PASS" : "FAIL");
  if (!stats_json.Write()) {
    std::fprintf(stderr, "warning: could not write --stats_json file\n");
    return 1;
  }
  return wire_ok && ratio_ok && ops_ok && p50_ok && p99_ok ? 0 : 1;
}

// --telemetry_ab mode: overhead guard for the continuous-telemetry stack
// (DESIGN Sec. 4.9). Identical fill+read dLSM runs with telemetry off —
// never configured, the default every earlier PR measured — and on — 1 ms
// sampler plus a 50 ms stall watchdog. Neither posts verbs or sits on an
// op path, so the wire must not change: at SimEnv cpu_scale = 0, where the
// wire schedule depends on the workload alone, the read phase's READ
// verbs, bytes and wire p50 must be identical. A second off/on pair at the
// default cpu_scale reports the ops/s delta, which folds in the sampler
// thread's real host CPU (informational). The watchdog must stay silent
// in both on legs. Returns nonzero on violation (CI-friendly).
int RunTelemetryAb(uint64_t keys, const Flags& flags) {
  BenchConfig base;
  base.threads = static_cast<int>(flags.GetInt("ab_threads", 8));
  base.num_keys = keys;
  size_t memtable_kb = flags.GetInt("memtable_kb", 1024);
  base.memtable_size = memtable_kb << 10;
  base.sstable_size = memtable_kb << 10;

  auto run = [&](bool telemetry, double cpu_scale) {
    BenchConfig config = base;
    config.cpu_scale = cpu_scale;
    if (telemetry) {
      config.stats_series = flags.GetString("stats_series", "/dev/null");
      config.stats_sample_period_ms = flags.GetInt("stats_period_ms", 1);
      config.watchdog_deadline_ms = flags.GetInt("watchdog_ms", 50);
    }
    return RunBench(config, {Phase::kFillRandom, Phase::kReadRandom});
  };
  auto wire_off = run(false, 0.0);
  auto wire_on = run(true, 0.0);
  auto off = run(false, 1.0);
  auto on = run(true, 1.0);

  const ReadWire read_off = PhaseReadWire(wire_off, 1);
  const ReadWire read_on = PhaseReadWire(wire_on, 1);
  double ops_delta = 100.0 * (on[1].ops_per_sec - off[1].ops_per_sec) /
                     off[1].ops_per_sec;
  uint64_t stalls =
      wire_on[1].stats.watchdog_stalls + on[1].stats.watchdog_stalls;

  bool wire_ok = read_off == read_on;
  bool stalls_ok = stalls == 0;
  std::printf("\n=== Telemetry A/B: %llu keys, %d threads, 1ms sampler + "
              "50ms watchdog ===\n",
              static_cast<unsigned long long>(keys), base.threads);
  std::printf("%14s %14s %14s %14s %12s\n", "config", "ops/s cpu=1",
              "READs cpu=0", "bytes cpu=0", "p50 us cpu=0");
  std::printf("%14s %14.0f %14llu %14llu %12.3f\n", "telemetry off",
              off[1].ops_per_sec,
              static_cast<unsigned long long>(read_off.verbs),
              static_cast<unsigned long long>(read_off.bytes),
              read_off.p50_us);
  std::printf("%14s %14.0f %14llu %14llu %12.3f\n", "telemetry on",
              on[1].ops_per_sec,
              static_cast<unsigned long long>(read_on.verbs),
              static_cast<unsigned long long>(read_on.bytes), read_on.p50_us);
  std::printf("READ verbs, bytes and wire p50 at cpu_scale=0 (guard "
              "identical: %s) | watchdog stalls %llu (guard 0: %s) | "
              "ops/s delta %+.2f%% at cpu_scale=1 (host CPU folded, "
              "informational)\n",
              wire_ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(stalls),
              stalls_ok ? "PASS" : "FAIL", ops_delta);
  return wire_ok && stalls_ok ? 0 : 1;
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
  if (flags.GetBool("cache_ab", false)) return RunCacheAb(keys, flags);
  if (flags.GetBool("telemetry_ab", false)) {
    return RunTelemetryAb(keys, flags);
  }
  std::vector<int> threads;
  {
    std::stringstream ss(flags.GetString("threads", "1,2,4,8,16"));
    std::string tok;
    while (std::getline(ss, tok, ',')) threads.push_back(std::stoi(tok));
  }
  double slo_us = flags.GetDouble("slo_read_p99_us", 0);
  if (slo_us > 0) {
    return RunReadSlo(keys, static_cast<int>(flags.GetInt("slo_threads", 8)),
                      slo_us, flags.GetInt("budget", 64));
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
  // --stats_json=FILE: machine-readable records (one per cell).
  // --trace_out=FILE: Chrome trace JSON; every traced cell rewrites the
  // file, so the trace covers the last cell run — narrow the sweep with
  // --only/--threads to trace one deployment.
  StatsJsonWriter stats_json(flags.GetString("stats_json", ""));
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

// dlsm_perfbench: the repository benchmark driver.
//
// One process runs the full stack under SimEnv: the RDMA fabric model, one
// memory node running MemoryNodeService, and DLsmDB with the default dLSM
// options. kClients closed-loop client threads drive it; each sends its next
// operation only after the previous one returns. Every layer is measured
// from outside, through public calls only:
//   * virtual-time latency around DB::Get / Put / NewIterator+Seek+Next;
//   * DB::GetStats() deltas over the timed phase;
//   * Fabric::wire_bytes() and MemoryNodeService::worker_busy_ns().
// A run sets up kSetups fresh deployments and times kRoundsPerSetup rounds
// on each. With --trace=1 the last deployment adds one round with the span
// tracer on, plus benchmark-side spans around each public call, and writes
// the Chrome trace to --trace_out for perfbench/run.py to reduce to
// per-span self times.
//
// Every answer is checked: values are derived from (key, write version),
// so each Get and each scanned entry is compared byte for byte against a
// version the oracle allows. The benchmark's own per-op work (input
// generation, checking, latency bookkeeping) runs inside
// Env::UncountedBegin/UncountedEnd, so virtual time measures the engine.
//
// Usage:
//   dlsm_perfbench --workload=<read_uniform|read_zipf_cached|mixed_write>
//                  --seed=<n> --seconds=<s> --trace=<0|1>
//                  [--trace_out=<path>]       (required with --trace=1)
//
// Progress goes to stderr; the last line of stdout is one JSON object of
// raw measurements, which perfbench/run.py turns into the benchmark record.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <malloc.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/trace.h"

namespace dlsm {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr int kKeyWidth = 16;
constexpr size_t kValueSize = 400;
constexpr size_t kHeaderSize = 12;  // Key (8 B) + write version (4 B).
constexpr int kScanLen = 16;        // Entries per scan: Seek + 15 Next.
// Each run sets up kSetups fresh deployments (setup_s is their median) and
// times kRoundsPerSetup closed-loop rounds on each; end-to-end metrics are
// medians over all rounds, so neither one deployment's memory layout nor
// one slow stretch of the host decides them.
constexpr int kSetups = 3;
constexpr int kRoundsPerSetup = 4;
constexpr int kMemoryCores = 4;
constexpr uint64_t kTracedOpsPerClient = 4000;
constexpr size_t kTraceEventsPerThread = 1 << 17;

struct Workload {
  const char* name;
  uint64_t keys;          // Loaded once each, version 0, before timing.
  double zipf_theta;      // 0 = uniform key choice.
  size_t cache_bytes;     // Compute-side block cache; 0 = off.
  size_t memtable_bytes;  // Also the SSTable size.
  bool warmup_pass;       // One untimed, checked Get of every key.
  double put_share;
  double scan_share;      // The remaining share are Gets.
};

constexpr Workload kWorkloads[] = {
    // 650 K x (16 + 400) B = 258 MiB of user data, 4x the largest cache.
    {"read_uniform", 650000, 0.0, 0, 4 << 20, false, 0.0, 0.0},
    // 100 K records fit the 64 MiB cache, so the warm-up pass fills it.
    {"read_zipf_cached", 100000, 0.99, 64 << 20, 4 << 20, true, 0.0, 0.0},
    {"mixed_write", 100000, 0.0, 0, 1 << 20, false, 0.50, 0.05},
};

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Command line: every flag is --name=value, all but --trace_out required,
// anything unknown is an error.

bool ParseFlags(int argc, char** argv, Config* config, std::string* err) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *err = "malformed argument '" + arg + "' (expected --name=value)";
      return false;
    }
    std::string name = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) config->workload = &w;
      }
      if (config->workload == nullptr) {
        *err = "unknown workload '" + value + "'";
        return false;
      }
    } else if (name == "seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
      if (!have_seed) {
        *err = "bad --seed '" + value + "'";
        return false;
      }
    } else if (name == "seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && config->seconds > 0 &&
                     config->seconds <= 600;
      if (!have_seconds) {
        *err = "bad --seconds '" + value + "' (want 0 < s <= 600)";
        return false;
      }
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        *err = "bad --trace '" + value + "' (want 0 or 1)";
        return false;
      }
      config->trace = value == "1";
      have_trace = true;
    } else if (name == "trace_out") {
      config->trace_out = value;
    } else {
      *err = "unknown flag --" + name;
      return false;
    }
  }
  if (config->workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    *err = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  if (config->trace == config->trace_out.empty()) {
    *err = "--trace_out is required with --trace=1 and only then";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs and the answer oracle.

std::string MakeKey(uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", kKeyWidth,
                static_cast<unsigned long long>(k));
  return std::string(buf);
}

/// The value of key k at write version v: a header naming (k, v), then
/// bytes derived from (seed, k, v), so a reader can check it exactly.
void MakeValue(uint64_t seed, uint64_t k, uint32_t version, std::string* out) {
  out->resize(kValueSize);
  char* p = out->data();
  std::memcpy(p, &k, 8);
  std::memcpy(p + 8, &version, 4);
  uint64_t x = Hash64(seed ^ Hash64(2 * k + 1) ^ (uint64_t{version} << 40));
  for (size_t off = kHeaderSize; off < kValueSize; off += 8) {
    x = Hash64(x);
    std::memcpy(p + off, &x, std::min<size_t>(8, kValueSize - off));
  }
}

/// True when `value` is byte for byte the value of key k at a version in
/// [lo, hi].
bool ValueMatches(uint64_t seed, uint64_t k, uint32_t lo, uint32_t hi,
                  const Slice& value, std::string* scratch) {
  if (value.size() != kValueSize) return false;
  uint64_t key = 0;
  uint32_t version = 0;
  std::memcpy(&key, value.data(), 8);
  std::memcpy(&version, value.data() + 8, 4);
  if (key != k || version < lo || version > hi) return false;
  MakeValue(seed, k, version, scratch);
  return std::memcmp(scratch->data(), value.data(), kValueSize) == 0;
}

/// Per-key write versions. Only client k % kClients writes key k, so one
/// key's versions reach the engine in order: a read that starts after
/// version `completed` returned and ends before `issued` + 1 was chosen
/// must see a version in [completed, issued].
struct VersionTable {
  explicit VersionTable(uint64_t n)
      : issued(new std::atomic<uint32_t>[n]),
        completed(new std::atomic<uint32_t>[n]) {
    for (uint64_t i = 0; i < n; i++) {
      issued[i].store(0, std::memory_order_relaxed);
      completed[i].store(0, std::memory_order_relaxed);
    }
  }
  std::unique_ptr<std::atomic<uint32_t>[]> issued;
  std::unique_ptr<std::atomic<uint32_t>[]> completed;
};

// ---------------------------------------------------------------------------
// Measurement helpers.

enum Op { kGet = 0, kPut = 1, kScan = 2, kNumOps = 3 };

/// Nearest-rank percentile of samples (reordered in place); 0 when empty.
double Percentile(std::vector<uint32_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::atomic<uint64_t> ref_loop_sink{0};

/// A fixed CPU loop timed on the host clock: a host-speed diagnostic, so a
/// slow host can be told apart from a slow change.
double RefLoopMs() {
  Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull, acc = 0;
  for (int i = 0; i < 20000000; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x;
  }
  ref_loop_sink.store(acc, std::memory_order_relaxed);  // Keeps the loop.
  return Seconds(Clock::now() - t0) * 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// One timed round's outcome.
struct RoundResult {
  uint64_t ops[kNumOps] = {};
  double virtual_s = 0;
  double host_s = 0;      // Wall time.
  double host_cpu_s = 0;  // CPU time of the whole process.
  double p50_us[kNumOps] = {};
  double p99_us[kNumOps] = {};
  uint64_t total() const { return ops[kGet] + ops[kPut] + ops[kScan]; }
};

/// Timed-phase measurements, summed over a run's deployments.
struct PhaseTotals {
  std::vector<RoundResult> rounds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // DbStats deltas over the untraced rounds.
  uint64_t stall_ns = 0;
  uint64_t bloom_useful = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_admission_rejects = 0;
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  Histogram read_wire_us;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_output_bytes = 0;
  uint64_t rpc_retries = 0;
  // Fabric and memory-node deltas over the same rounds.
  uint64_t wire_bytes = 0;
  uint64_t memnode_busy_ns = 0;
  // Gauges: the last deployment's value, or the maximum over deployments.
  int l0_files = 0;
  uint64_t max_outstanding = 0;
  uint64_t rpc_inflight_peak = 0;
  // The traced round (last deployment, --trace=1 only).
  RoundResult traced;
  uint64_t dropped_spans = 0;

  void AddDelta(const DbStats& a, const DbStats& b) {
    stall_ns += b.stall_ns - a.stall_ns;
    bloom_useful += b.bloom_useful - a.bloom_useful;
    cache_hits += b.cache_hits - a.cache_hits;
    cache_misses += b.cache_misses - a.cache_misses;
    cache_evictions += b.cache_evictions - a.cache_evictions;
    cache_admission_rejects +=
        b.cache_admission_rejects - a.cache_admission_rejects;
    read_ops += b.rdma.read.ops - a.rdma.read.ops;
    read_bytes += b.rdma.read.bytes - a.rdma.read.bytes;
    write_bytes += b.rdma.write.bytes - a.rdma.write.bytes;
    read_wire_us.Merge(
        b.rdma.read.latency_us.DeltaSince(a.rdma.read.latency_us));
    flushes += b.flushes - a.flushes;
    compactions += b.compactions - a.compactions;
    compaction_output_bytes +=
        b.compaction_output_bytes - a.compaction_output_bytes;
    rpc_retries += b.rpc_retries - a.rpc_retries;
    // Both are high-water marks since Open; the timed phase cannot reset them.
    max_outstanding = std::max(max_outstanding, b.rdma.max_outstanding);
    rpc_inflight_peak =
        std::max(rpc_inflight_peak, b.compaction_rpc_inflight_peak);
  }
};

/// Everything a run reports, as (name, value) in print order.
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  void Set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

// ---------------------------------------------------------------------------
// The deployment and its clients.

class Bench {
 public:
  Bench(const Config& config, SimEnv* env, int node, DB* db)
      : config_(config),
        w_(*config.workload),
        env_(env),
        node_(node),
        db_(db),
        versions_(w_.keys) {}

  /// Loads every key once (version 0) in a seeded random order. One
  /// writer flushes a 90%-full MemTable's worth of keys at a time and waits
  /// out the compactions each flush triggers, so the LSM shape timing
  /// starts from depends on the seed alone, not on how background work
  /// happened to interleave with the load.
  void Load() {
    std::vector<uint64_t> perm(w_.keys);
    for (uint64_t i = 0; i < w_.keys; i++) perm[i] = i;
    Random rnd(config_.seed);
    for (uint64_t i = w_.keys - 1; i > 0; i--) {
      std::swap(perm[i], perm[rnd.Uniform(i + 1)]);
    }
    const uint64_t batch =
        w_.memtable_bytes * 9 / 10 / (kKeyWidth + kValueSize + 28);
    std::string value;
    for (uint64_t i = 0; i < w_.keys; i++) {
      MakeValue(config_.seed, perm[i], 0, &value);
      Status s = db_->Put(WriteOptions(), MakeKey(perm[i]), value);
      DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
      if ((i + 1) % batch == 0 || i + 1 == w_.keys) {
        DLSM_CHECK(db_->Flush().ok());
        DLSM_CHECK(db_->WaitForBackgroundIdle().ok());
      }
    }
  }

  /// One checked Get of every key, from kClients threads; fills the block
  /// cache.
  void WarmUp() {
    std::atomic<uint64_t> failed{0};
    std::vector<ThreadHandle> threads;
    for (int t = 0; t < kClients; t++) {
      threads.push_back(env_->StartThread(node_, "client", [&, t] {
        std::string value, scratch;
        uint64_t n = 0;
        for (uint64_t k = t; k < w_.keys; k += kClients, n++) {
          Status s = db_->Get(ReadOptions(), MakeKey(k), &value);
          if (!s.ok() ||
              !ValueMatches(config_.seed, k, 0, 0, value, &scratch)) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
          if ((n & 63) == 63) env_->MaybeYield();
        }
      }));
    }
    for (ThreadHandle h : threads) env_->Join(h);
    warmup_failed_ = failed.load();
  }

  /// The timed phase on this deployment: `rounds` closed-loop rounds of
  /// round_s host seconds each, then, when `traced`, one round of a fixed
  /// op count with the span tracer on. Adds to *totals.
  void Measure(const MemoryNodeService& service, rdma::Fabric* fabric,
               int rounds, double round_s, bool traced, PhaseTotals* totals) {
    std::vector<std::unique_ptr<Client>> clients;
    for (int t = 0; t < kClients; t++) {
      clients.push_back(std::make_unique<Client>(t, config_.seed, w_));
    }
    Barrier sync(env_, kClients + 1);
    const int all_rounds = rounds + (traced ? 1 : 0);
    std::vector<ThreadHandle> threads;
    for (int t = 0; t < kClients; t++) {
      Client* c = clients[t].get();
      threads.push_back(env_->StartThread(node_, "client", [&, c] {
        for (int r = 0; r < all_rounds; r++) {
          sync.Arrive();
          RunRound(c);
          sync.Arrive();
        }
      }));
    }

    // Runs one round; clients are parked at the barrier on entry and exit.
    auto round = [&](Clock::time_point deadline,
                     uint64_t op_limit) -> RoundResult {
      deadline_ = deadline;
      op_limit_ = op_limit;
      stop_.store(false);
      sync.Arrive();
      uint64_t v0 = env_->NowNanos();
      Clock::time_point h0 = Clock::now();
      double c0 = ProcessCpuSeconds();
      sync.Arrive();
      RoundResult r;
      r.virtual_s = static_cast<double>(env_->NowNanos() - v0) / 1e9;
      r.host_s = Seconds(Clock::now() - h0);
      r.host_cpu_s = ProcessCpuSeconds() - c0;
      for (int op = 0; op < kNumOps; op++) {
        std::vector<uint32_t> all;
        for (auto& c : clients) {
          all.insert(all.end(), c->latency_ns[op].begin(),
                     c->latency_ns[op].end());
          c->latency_ns[op].clear();
        }
        r.ops[op] = all.size();
        r.p50_us[op] = Percentile(&all, 50) / 1e3;
        r.p99_us[op] = Percentile(&all, 99) / 1e3;
      }
      std::fprintf(stderr,
                   "round: %llu ops, %.0f ops/s virtual, %.0f ops/s host "
                   "wall, %.0f ops/s host cpu, get p50 %.2f us p99 %.2f us\n",
                   static_cast<unsigned long long>(r.total()),
                   Ratio(r.total(), r.virtual_s), Ratio(r.total(), r.host_s),
                   Ratio(r.total(), r.host_cpu_s), r.p50_us[kGet],
                   r.p99_us[kGet]);
      return r;
    };

    const auto round_span = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(round_s));
    DbStats before = db_->GetStats();
    uint64_t wire0 = fabric->wire_bytes();
    uint64_t busy0 = service.worker_busy_ns();
    for (int r = 0; r < rounds; r++) {
      totals->rounds.push_back(round(Clock::now() + round_span, UINT64_MAX));
    }
    totals->AddDelta(before, db_->GetStats());
    totals->wire_bytes += fabric->wire_bytes() - wire0;
    totals->memnode_busy_ns += service.worker_busy_ns() - busy0;
    totals->l0_files = db_->NumFilesAtLevel(0);

    if (traced) {
      trace::EnableWithEnv(env_, kTraceEventsPerThread);
      totals->traced = round(Clock::time_point::max(), kTracedOpsPerClient);
      trace::Tracer::Disable();
      totals->dropped_spans = trace::Tracer::dropped_events();
    }
    for (ThreadHandle h : threads) env_->Join(h);
    totals->failed += warmup_failed_;
    totals->attempted += w_.warmup_pass ? w_.keys : 0;
    for (auto& c : clients) {
      totals->failed += c->failed;
      totals->attempted += c->attempted;
    }
    if (w_.put_share > 0) VerifyAll(&totals->attempted, &totals->failed);
  }

 private:
  struct Client {
    Client(int t, uint64_t seed, const Workload& w)
        : id(t), rnd(Hash64(seed * 131 + t)) {
      if (w.zipf_theta > 0) {
        zipf = std::make_unique<ZipfianGenerator>(w.keys, w.zipf_theta,
                                                  Hash64(seed * 977 + t));
      }
    }
    int id;
    Random rnd;
    std::unique_ptr<ZipfianGenerator> zipf;
    std::vector<uint32_t> latency_ns[kNumOps];  // This round's samples.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string key, value, scratch;
  };

  /// Closed loop until the round's deadline or op limit.
  void RunRound(Client* c) {
    for (uint64_t n = 0;; n++) {
      uint64_t token = env_->UncountedBegin();
      bool done = stop_.load(std::memory_order_relaxed) || n >= op_limit_ ||
                  ((n & 15) == 0 && Clock::now() >= deadline_);
      if (done) stop_.store(true, std::memory_order_relaxed);
      env_->UncountedEnd(token);
      if (done) return;
      DoOp(c);
      if ((n & 63) == 63) env_->MaybeYield();
    }
  }

  /// One operation: choose and build it off the clock, time the public
  /// call, then check the answer off the clock.
  void DoOp(Client* c) {
    trace::TraceSpan client_span("client", "bench");
    uint64_t token = env_->UncountedBegin();
    const double u = c->rnd.NextDouble();
    const Op op = u < w_.put_share                  ? kPut
                  : u < w_.put_share + w_.scan_share ? kScan
                                                     : kGet;
    uint64_t k = 0;
    uint32_t version = 0;
    uint32_t lo[kScanLen] = {};
    switch (op) {
      case kGet:
        k = c->zipf != nullptr ? Hash64(c->zipf->Next()) % w_.keys
                               : c->rnd.Uniform(w_.keys);
        lo[0] = versions_.completed[k].load(std::memory_order_acquire);
        break;
      case kPut:
        // Keys this client owns: k % kClients == id.
        k = c->id + kClients * c->rnd.Uniform(
                                   (w_.keys - c->id + kClients - 1) / kClients);
        version = versions_.issued[k].load(std::memory_order_relaxed) + 1;
        versions_.issued[k].store(version, std::memory_order_release);
        MakeValue(config_.seed, k, version, &c->value);
        break;
      case kScan:
        k = c->rnd.Uniform(w_.keys - kScanLen + 1);
        for (int i = 0; i < kScanLen; i++) {
          lo[i] = versions_.completed[k + i].load(std::memory_order_acquire);
        }
        break;
      case kNumOps:
        break;
    }
    c->key = MakeKey(k);
    env_->UncountedEnd(token);

    bool ok = true;
    const uint64_t t0 = env_->NowNanos();
    if (op == kGet) {
      trace::TraceSpan span("bench_get", "bench");
      Status s = db_->Get(ReadOptions(), c->key, &c->value);
      span.End();
      token = env_->UncountedBegin();
      ok = s.ok() && ValueMatches(config_.seed, k, lo[0], Issued(k), c->value,
                                  &c->scratch);
      env_->UncountedEnd(token);
    } else if (op == kPut) {
      trace::TraceSpan span("bench_put", "bench");
      ok = db_->Put(WriteOptions(), c->key, c->value).ok();
      span.End();
      token = env_->UncountedBegin();
      versions_.completed[k].store(version, std::memory_order_release);
      env_->UncountedEnd(token);
    } else {
      trace::TraceSpan span("bench_scan", "bench");
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      int i = 0;
      for (it->Seek(c->key); i < kScanLen && it->Valid(); it->Next(), i++) {
        token = env_->UncountedBegin();
        ok = ok && it->key() == Slice(MakeKey(k + i)) &&
             ValueMatches(config_.seed, k + i, lo[i], Issued(k + i),
                          it->value(), &c->scratch);
        env_->UncountedEnd(token);
      }
      ok = ok && i == kScanLen && it->status().ok();
      it.reset();
    }
    const uint64_t t1 = env_->NowNanos();

    token = env_->UncountedBegin();
    c->latency_ns[op].push_back(static_cast<uint32_t>(
        std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    c->attempted++;
    if (!ok) {
      if (c->failed < 5) {
        std::fprintf(stderr, "client %d: wrong answer to op %d on key %llu\n",
                     c->id, static_cast<int>(op),
                     static_cast<unsigned long long>(k));
      }
      c->failed++;
    }
    env_->UncountedEnd(token);
  }

  uint32_t Issued(uint64_t k) const {
    return versions_.issued[k].load(std::memory_order_acquire);
  }

  /// After the writers stop: one full scan must hold every key exactly
  /// once, in order, at its last written version.
  void VerifyAll(uint64_t* attempted, uint64_t* failed) {
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    std::string scratch;
    uint64_t k = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), k++) {
      uint32_t v = k < w_.keys ? Issued(k) : 0;
      (*attempted)++;
      if (k >= w_.keys || it->key() != Slice(MakeKey(k)) ||
          !ValueMatches(config_.seed, k, v, v, it->value(), &scratch)) {
        (*failed)++;
      }
      if ((k & 255) == 0) env_->MaybeYield();
    }
    if (k != w_.keys || !it->status().ok()) {
      (*attempted)++;
      (*failed)++;
    }
  }

  const Config& config_;
  const Workload& w_;
  SimEnv* env_;
  int node_;  // The compute node the clients run on.
  DB* db_;
  VersionTable versions_;
  uint64_t warmup_failed_ = 0;
  // Round control, written by the coordinator while clients are parked.
  Clock::time_point deadline_;
  uint64_t op_limit_ = 0;
  std::atomic<bool> stop_{false};
};

Options EngineOptions(const Workload& w, Env* env) {
  Options options;
  options.env = env;
  options.memtable_size = w.memtable_bytes;
  options.sstable_size = w.memtable_bytes;
  options.estimated_entry_size = kKeyWidth + kValueSize + 28;
  options.block_cache_size = w.cache_bytes;
  // Room for the dataset plus compaction churn and slab rounding.
  options.flush_region_size =
      w.keys * (kKeyWidth + kValueSize + 28) * 8 + (512ull << 20);
  return options;
}

/// Brings up one deployment, sets it up, and runs its share of the timed
/// phase into *totals. Returns the set-up time in seconds of process CPU
/// time: SimEnv runs one thread at a time, so that is the set-up work
/// itself, without the waits that other load on the host adds to wall time.
double RunDeployment(const Config& config, bool traced, PhaseTotals* totals) {
  const Workload& w = *config.workload;
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode(
      "memory", kMemoryCores,
      w.keys * (kKeyWidth + kValueSize + 28) * 10 + (2ull << 30));
  double setup_s = 0;
  env.Run(compute->env_node(), [&] {
    const double cpu0 = ProcessCpuSeconds();
    MemoryNodeService service(&fabric, memory, kMemoryCores);
    service.Start();
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    Status s = DLsmDB::Open(EngineOptions(w, &env), deps, &raw);
    DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
    std::unique_ptr<DB> db(raw);
    {
      Bench bench(config, &env, compute->env_node(), db.get());
      bench.Load();
      if (w.warmup_pass) bench.WarmUp();
      setup_s = ProcessCpuSeconds() - cpu0;
      bench.Measure(service, &fabric, kRoundsPerSetup,
                    config.seconds / (kSetups * kRoundsPerSetup), traced,
                    totals);
    }
    DLSM_CHECK(db->Close().ok());
    db.reset();
    service.Stop();
  });
  return setup_s;
}

/// Reduces the timed phase to the reported metrics: end-to-end numbers are
/// medians over all rounds, per-layer numbers are ratios of summed deltas.
void Summarize(const Config& config, const PhaseTotals& t, Report* report) {
  uint64_t ops[kNumOps] = {};
  double virtual_s = 0;
  std::vector<double> ops_per_s, host_ops_per_s, host_wall_ops_per_s;
  std::vector<double> p50[kNumOps], p99[kNumOps];
  for (const RoundResult& r : t.rounds) {
    ops_per_s.push_back(Ratio(r.total(), r.virtual_s));
    host_ops_per_s.push_back(Ratio(r.total(), r.host_cpu_s));
    host_wall_ops_per_s.push_back(Ratio(r.total(), r.host_s));
    virtual_s += r.virtual_s;
    for (int op = 0; op < kNumOps; op++) {
      ops[op] += r.ops[op];
      p50[op].push_back(r.p50_us[op]);
      p99[op].push_back(r.p99_us[op]);
    }
  }
  const uint64_t total = ops[kGet] + ops[kPut] + ops[kScan];
  const double gets = static_cast<double>(ops[kGet]);
  report->Set("ops_per_s", Median(ops_per_s));
  report->Set("host_ops_per_s", Median(host_ops_per_s));
  report->Set("host.wall_ops_per_s", Median(host_wall_ops_per_s));
  report->Set("get_p50_us", Median(p50[kGet]));
  report->Set("get_p99_us", Median(p99[kGet]));
  report->Set("put_p50_us", Median(p50[kPut]));
  report->Set("put_p99_us", Median(p99[kPut]));
  report->Set("scan_p50_us", Median(p50[kScan]));
  report->Set("get_samples", ops[kGet]);
  report->Set("put_samples", ops[kPut]);
  report->Set("scan_samples", ops[kScan]);
  report->Set("failed_op_ratio", Ratio(t.failed, t.attempted));

  const double user_bytes =
      static_cast<double>(ops[kPut]) * (kKeyWidth + kValueSize);
  report->Set("db.write_stall_ms", static_cast<double>(t.stall_ns) / 1e6);
  report->Set("db.l0_files", t.l0_files);
  report->Set("table.bloom_skips_per_get", Ratio(t.bloom_useful, gets));
  report->Set("cache.hit_ratio",
              Ratio(t.cache_hits, t.cache_hits + t.cache_misses));
  report->Set("cache.evictions", t.cache_evictions);
  report->Set("cache.admission_rejects", t.cache_admission_rejects);
  report->Set("rdma.read_verbs_per_get", Ratio(t.read_ops, gets));
  report->Set("rdma.read_bytes_per_get", Ratio(t.read_bytes, gets));
  report->Set("rdma.read_wire_p50_us", t.read_wire_us.Percentile(50));
  report->Set("rdma.read_wire_p99_us", t.read_wire_us.Percentile(99));
  report->Set("rdma.wire_bytes_per_op", Ratio(t.wire_bytes, total));
  report->Set("rdma.write_bytes_per_put", Ratio(t.write_bytes, ops[kPut]));
  report->Set("rdma.max_outstanding", t.max_outstanding);
  report->Set("flush.count", t.flushes);
  report->Set("compaction.count", t.compactions);
  // Flushed plus compaction-output bytes per user byte written.
  report->Set("compaction.write_amp",
              Ratio(t.write_bytes + t.compaction_output_bytes, user_bytes));
  report->Set("compaction.rpc_inflight_peak", t.rpc_inflight_peak);
  report->Set("memnode.cpu_util",
              Ratio(t.memnode_busy_ns, virtual_s * 1e9 * kMemoryCores));
  report->Set("rpc.retries", t.rpc_retries);
  if (config.trace) {
    const RoundResult& r = t.traced;
    report->Set("traced.ops_per_s", Ratio(r.total(), r.virtual_s));
    report->Set("traced.gets", r.ops[kGet]);
    report->Set("traced.puts", r.ops[kPut]);
    report->Set("traced.scans", r.ops[kScan]);
    report->Set("traced.dropped_spans", t.dropped_spans);
  }
}

void PrintJson(const Config& config, const PhaseTotals& totals,
               const Report& report) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.17g,"
              "\"trace\":%d,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              config.workload->name,
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0,
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));
  for (size_t i = 0; i < report.metrics.size(); i++) {
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",",
                report.metrics[i].first.c_str(), report.metrics[i].second);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace dlsm

int main(int argc, char** argv) {
  using namespace dlsm;
  Config config;
  std::string err;
  if (!ParseFlags(argc, argv, &config, &err)) {
    std::fprintf(stderr, "dlsm_perfbench: %s\n", err.c_str());
    return 2;
  }
  // Keep freed memory in the heap. With glibc's default trimming, the
  // 2 MiB scan-prefetch buffers go back to the kernel on free and fault in
  // again on every scan; that page-fault cost swings with the load of other
  // processes on the host and made mixed_write unsteady.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  PhaseTotals totals;
  double ref_before = RefLoopMs();
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    bool last = i + 1 == kSetups;
    setups.push_back(RunDeployment(config, config.trace && last, &totals));
    std::fprintf(stderr, "setup %d: %.3f s\n", i + 1, setups.back());
  }
  double ref_after = RefLoopMs();
  Report report;
  Summarize(config, totals, &report);
  report.Set("setup_s", Median(setups));
  report.Set("host.ref_loop_ms", (ref_before + ref_after) / 2);
  if (config.trace &&
      !trace::Tracer::WriteChromeTrace(config.trace_out)) {
    std::fprintf(stderr, "dlsm_perfbench: cannot write %s\n",
                 config.trace_out.c_str());
    return 1;
  }
  PrintJson(config, totals, report);
  return 0;
}

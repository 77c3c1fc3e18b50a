// Continuous telemetry (DESIGN Sec. 4.9): the Series ring and its counter
// deltas, Histogram windowing, the coordinated-omission-safe interval
// recorder, exemplar top-k retention, sampler determinism under pure
// discrete-event SimEnv, and the stall watchdog — both directions: no
// false positive under injected RNR delays (deadlines are virtual time,
// so sanitizer slowdown cannot trip them either), and exactly one dump
// naming the stuck handle when a WR genuinely never completes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/db.h"
#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/rdma/fabric.h"
#include "src/rdma/rdma_manager.h"
#include "src/sim/sim_env.h"
#include "src/util/histogram.h"
#include "src/util/timeseries.h"
#include "src/util/trace.h"
#include "src/util/watchdog.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace {

using test::SmallOptions;
using test::TestKey;
using test::TestValue;

// ---------------------------------------------------------------------------
// Series ring
// ---------------------------------------------------------------------------

telemetry::Series MakeSeries(size_t capacity) {
  std::vector<telemetry::Series::Column> cols;
  cols.push_back({"ops", telemetry::Series::Kind::kCounter});
  cols.push_back({"gauge", telemetry::Series::Kind::kGauge});
  return telemetry::Series(std::move(cols), capacity);
}

TEST(SeriesTest, CounterColumnsStorePerIntervalDeltas) {
  telemetry::Series s = MakeSeries(8);
  s.Append(1000, {100.0, 7.0});
  s.Append(2000, {150.0, 8.0});
  s.Append(3000, {150.0, 9.0});
  auto rows = s.Snapshot();
  ASSERT_EQ(rows.size(), 3u);
  // First row has no prior interval: counter records 0. Gauges pass
  // through as sampled.
  EXPECT_EQ(rows[0][0], 1000.0);
  EXPECT_EQ(rows[0][1], 0.0);
  EXPECT_EQ(rows[0][2], 7.0);
  EXPECT_EQ(rows[1][1], 50.0);
  EXPECT_EQ(rows[2][1], 0.0);
  EXPECT_EQ(rows[2][2], 9.0);
}

TEST(SeriesTest, CounterResetClampsToZero) {
  telemetry::Series s = MakeSeries(4);
  s.Append(1, {100.0, 0.0});
  s.Append(2, {40.0, 0.0});  // Raw value went backwards (process restart).
  auto rows = s.Snapshot();
  EXPECT_EQ(rows[1][1], 0.0);
}

TEST(SeriesTest, RingOverwritesOldestAndCountsDropped) {
  telemetry::Series s = MakeSeries(4);
  for (int i = 1; i <= 10; i++) {
    s.Append(i * 1000, {static_cast<double>(i * 10), 1.0});
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total_appended(), 10u);
  auto rows = s.Snapshot();
  ASSERT_EQ(rows.size(), 4u);
  // Oldest retained row is append #7; every delta stayed 10 even across
  // the wraparound (prev_raw_ is independent of the ring).
  EXPECT_EQ(rows[0][0], 7000.0);
  for (const auto& row : rows) EXPECT_EQ(row[1], 10.0);
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"dropped\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"columns\":[\"ts_ns\",\"ops\",\"gauge\"]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kinds\":[\"ts\",\"counter\",\"gauge\"]"),
            std::string::npos)
      << json;
}

TEST(SeriesTest, TailJsonReturnsNewestRows) {
  telemetry::Series s = MakeSeries(8);
  for (int i = 1; i <= 5; i++) {
    s.Append(i * 1000, {static_cast<double>(i), 0.0});
  }
  std::string tail = s.TailJson(2);
  EXPECT_EQ(tail.find("[1000"), std::string::npos) << tail;
  EXPECT_NE(tail.find("[4000"), std::string::npos) << tail;
  EXPECT_NE(tail.find("[5000"), std::string::npos) << tail;
}

// ---------------------------------------------------------------------------
// Histogram windowing + interval recorder
// ---------------------------------------------------------------------------

TEST(HistogramTest, DeltaSinceIsolatesTheWindow) {
  Histogram h;
  for (int i = 0; i < 100; i++) h.Add(10.0);
  Histogram snapshot = h;
  for (int i = 0; i < 100; i++) h.Add(1000.0);
  Histogram delta = h.DeltaSince(snapshot);
  // The cumulative histogram's median straddles both batches; the delta
  // sees only the second.
  EXPECT_LT(snapshot.Median(), 20.0);
  EXPECT_GT(delta.Median(), 500.0);
  EXPECT_GT(h.DeltaSince(h).Median(), -1.0);  // Empty delta is valid.
}

// The same samples read the same percentiles differenced or not: a delta
// against an empty histogram keeps the cumulative min/max instead of
// widening them to bucket edges, which moved a p50 from 1.694 to 1.500.
TEST(HistogramTest, DeltaAgainstEmptyMatchesUndifferenced) {
  Histogram h;
  for (int i = 0; i < 12662; i++) h.Add(1.6 + 0.1 * (i % 7) / 6.0);
  h.Add(0.9);
  h.Add(45.0);
  const Histogram delta = h.DeltaSince(Histogram());
  EXPECT_EQ(h.Min(), delta.Min());
  EXPECT_EQ(h.Max(), delta.Max());
  for (double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.Percentile(p), delta.Percentile(p)) << "p" << p;
  }
  // A later window stays inside both its buckets and the cumulative range.
  Histogram snapshot = h;
  for (int i = 0; i < 100; i++) h.Add(3.3);
  const Histogram window = h.DeltaSince(snapshot);
  EXPECT_GE(window.Min(), h.Min());
  EXPECT_LE(window.Max(), h.Max());
  EXPECT_GE(window.Median(), 3.0);  // 3.3's bucket is [3, 4).
  EXPECT_LE(window.Median(), 4.0);
}

TEST(IntervalRecorderTest, ChargesQueueingDelayToDelayedOps) {
  // 1 ms intended interval. Ops 0-9 complete on schedule with 100 us of
  // service time; op 10 stalls for 50 ms, and ops 11-19, issued
  // back-to-back after the stall, each still pay the schedule they missed.
  bench::IntervalRecorder rec(0, 1'000'000);
  for (uint64_t i = 0; i < 10; i++) {
    rec.Record(i, rec.IntendedStartNs(i) + 100'000);
  }
  uint64_t stall_done = rec.IntendedStartNs(10) + 50'000'000;
  rec.Record(10, stall_done);
  for (uint64_t i = 11; i < 20; i++) {
    stall_done += 100'000;  // Back-to-back service after the stall.
    rec.Record(i, stall_done);
  }
  const Histogram& h = rec.latency_us();
  // Half the ops sat behind the stall, so the recorded p75 is tens of
  // milliseconds — a naive per-op timer would have shown 100 us for all
  // but one op.
  EXPECT_LT(h.Median(), 50'000.0);
  EXPECT_GT(h.Percentile(75.0), 30'000.0);
  // An op that completes before its intended start records 0, not a wrap.
  bench::IntervalRecorder early(1'000'000, 1'000'000);
  early.Record(5, 0);
  EXPECT_LT(early.latency_us().Percentile(99.0), 1.0);
}

// ---------------------------------------------------------------------------
// Exemplar retention
// ---------------------------------------------------------------------------

TEST(ExemplarTest, RetainsTopKPerWindow) {
  SimEnv::Options so;
  so.cpu_scale = 0.0;
  SimEnv env(so);
  trace::EnableWithEnv(&env);
  trace::ExemplarPolicy policy;
  policy.k = 2;
  policy.window_ns = 1'000'000;
  trace::Tracer::SetExemplarPolicy(policy);

  env.Run(0, [&] {
    for (int w = 0; w < 3; w++) {
      uint64_t window_start = env.NowNanos();
      for (int i = 1; i <= 5; i++) {
        trace::TraceOp op("Get", "test");
        env.SleepNanos(i * 10'000ull);  // 10..50 us ops.
      }
      env.SleepNanos(policy.window_ns - (env.NowNanos() - window_start));
    }
  });

  auto index = trace::Tracer::ExemplarIndex();
  trace::Tracer::Disable();
  // Export order: windows ascending, duration descending within a window;
  // every window keeps at most k, and what it keeps is its slowest ops.
  ASSERT_EQ(index.size(), 6u);
  size_t i = 0;
  for (int w = 0; w < 3; w++) {
    EXPECT_GE(index[i].dur_ns, index[i + 1].dur_ns);
    EXPECT_EQ(index[i].window, index[i + 1].window);
    EXPECT_GE(index[i + 1].dur_ns, 40'000u);  // Top-2 of 10..50 us.
    if (w > 0) {
      EXPECT_GT(index[i].window, index[i - 1].window);
    }
    i += 2;
  }
}

// ---------------------------------------------------------------------------
// Engine sampler
// ---------------------------------------------------------------------------

// Runs a small workload with the 1 ms sampler on and returns the
// "dlsm.timeseries" JSON. Pure discrete-event mode: the series is a
// function of the seed alone.
std::string SampledWorkloadSeries(uint64_t seed) {
  SimEnv::Options so;
  so.cpu_scale = 0.0;
  SimEnv env(so);
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);

  std::string json;
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();
    Options options = SmallOptions(&env);
    options.stats_sample_period_ms = 1;
    options.stats_ring_capacity = 256;
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
    std::unique_ptr<DB> db(raw);

    Random rnd(seed);
    for (int i = 0; i < 6000; i++) {
      uint64_t k = rnd.Uniform(2000);
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
      // In pure discrete-event mode the memtable path costs no virtual
      // time, so the whole load can finish inside one sample period;
      // deterministic pauses spread it across several ticks.
      if (i % 1000 == 999) env.SleepNanos(600'000);
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int i = 0; i < 500; i++) {
      std::string value;
      Status s = db->Get(ReadOptions(), TestKey(rnd.Uniform(2000)), &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound());
    }
    ASSERT_TRUE(db->GetProperty("dlsm.timeseries", &json));
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
  return json;
}

TEST(SamplerTest, SeriesExportsSchemaAndSamples) {
  std::string json = SampledWorkloadSeries(301);
  EXPECT_NE(json.find("\"columns\":[\"ts_ns\",\"writes\",\"reads\""),
            std::string::npos)
      << json.substr(0, 200);
  EXPECT_NE(json.find("node0_read_verbs"), std::string::npos);
  EXPECT_NE(json.find("read_p99_us"), std::string::npos);
  EXPECT_NE(json.find("\"samples\":[["), std::string::npos)
      << "sampler produced no rows";
}

TEST(SamplerTest, SameSeedRunsAreByteIdentical) {
  std::string a = SampledWorkloadSeries(301);
  std::string b = SampledWorkloadSeries(301);
  EXPECT_EQ(a, b);
  std::string c = SampledWorkloadSeries(777);
  // Different workload, same schema: the header must match even when the
  // samples differ.
  EXPECT_EQ(c.substr(0, c.find("\"samples\"")),
            a.substr(0, a.find("\"samples\"")));
}

TEST(SamplerTest, PropertyAbsentWhenSamplerOff) {
  test::RunDbTest(nullptr, [](DB* db, Env*) {
    std::string json;
    EXPECT_FALSE(db->GetProperty("dlsm.timeseries", &json));
  });
}

TEST(SamplerTest, ShardedPropertyWrapsPerShardSeries) {
  test::RunDbTest(
      [](Options* options) {
        options->shards = 2;
        options->stats_sample_period_ms = 1;
      },
      [](DB* db, Env*) {
        ASSERT_TRUE(db->Put(WriteOptions(), TestKey(1), TestValue(1)).ok());
        std::string json;
        ASSERT_TRUE(db->GetProperty("dlsm.timeseries", &json));
        EXPECT_EQ(json.find("{\"shards\":["), 0u) << json.substr(0, 80);
      });
}

// ---------------------------------------------------------------------------
// Bench runner: one config and one worker loop for 1C1M and xCxM cells
// ---------------------------------------------------------------------------

// A tiny multi-node cell: 2 clients and lambda = 2 per compute node.
bench::BenchConfig TinyCell(int computes, int memories) {
  bench::BenchConfig config = bench::MultiNodeConfig(
      bench::SystemKind::kDLsm, computes, memories, 20000);
  config.shards = 2;
  config.threads = 2;
  config.memtable_size = 128 << 10;
  config.sstable_size = 256 << 10;
  return config;
}

TEST(BenchRunnerTest, MultiNodePhasesExportWireAndMemoryCpu) {
  using bench::Phase;
  auto r = bench::RunBench(
      TinyCell(2, 2),
      {Phase::kFillRandom, Phase::kReadRandom, Phase::kReadRandom});
  ASSERT_EQ(3u, r.size());
  for (const bench::PhaseResult& p : r) {
    EXPECT_GT(p.wire_bytes, 0u);
    EXPECT_GE(p.memory_cpu_util, 0.0);
    EXPECT_LE(p.memory_cpu_util, 1.0);
  }
  // Flushes and near-data compactions run on the memory nodes during the
  // fill; one-sided READs leave their CPUs idle.
  EXPECT_GT(r[0].memory_cpu_util, 0.0);
  for (size_t p = 1; p < r.size(); p++) {
    const DbStats d = bench::PhaseDelta(r, p).stats;
    ASSERT_EQ(2u, d.per_node.size());
    uint64_t sum = 0;
    for (const DbStats::NodeIoStats& n : d.per_node) {
      EXPECT_GT(n.read_verbs, 0u) << "phase " << p;
      sum += n.read_verbs;
    }
    EXPECT_EQ(r[p].stats.rdma.read.ops - r[p - 1].stats.rdma.read.ops, sum)
        << "phase " << p;
    EXPECT_EQ(sum, d.rdma.read.ops) << "phase " << p;
  }
}

// ---------------------------------------------------------------------------
// A/B guard verdict rules (bench::EvaluateAbCheck, bench::RunAbGuard)
// ---------------------------------------------------------------------------

const bench::AbMetric kOps{"ops/s", true, 0, nullptr};
const bench::AbMetric kP50{"p50 us", false, 2, nullptr};

bool Verdict(bench::AbCheckKind kind, const bench::AbMetric& metric,
             const std::vector<double>& a, const std::vector<double>& b,
             double bound = 0) {
  return bench::EvaluateAbCheck({kind, metric.name, "a", b.empty() ? "" : "b",
                                 bound},
                                metric, a, b, nullptr);
}

TEST(AbGuardTest, MedianOfOddAndEvenRunCounts) {
  EXPECT_EQ(3.0, bench::Median({5, 1, 3}));
  EXPECT_EQ(2.5, bench::Median({4, 1, 3, 2}));
  EXPECT_EQ(7.0, bench::Median({7}));
}

TEST(AbGuardTest, NotWorseFailsOnlyBeyondTheMarginWithSeparatedRanges) {
  using enum bench::AbCheckKind;
  const std::vector<double> ref = {99.9, 100.0, 100.1};
  // p50 (lower is better), median exactly 2% worse, ranges separated: the
  // margin's edge passes; a hair beyond it fails.
  EXPECT_TRUE(Verdict(kNotWorse, kP50, {101.9, 102.0, 102.1}, ref, 0.02));
  EXPECT_FALSE(Verdict(kNotWorse, kP50, {101.9, 102.2, 102.3}, ref, 0.02));
  // 10% worse in the median but one run inside the reference range.
  EXPECT_TRUE(Verdict(kNotWorse, kP50, {100.0, 110.0, 111.0}, ref, 0.02));
  // Direction follows the metric: lower ops/s is the worse side.
  EXPECT_FALSE(Verdict(kNotWorse, kOps, {90.0, 91.0, 92.0}, ref, 0.02));
  EXPECT_TRUE(Verdict(kNotWorse, kOps, {110.0, 111.0, 112.0}, ref, 0.02));
}

TEST(AbGuardTest, BetterNeedsEveryRunAheadOfEveryRun) {
  using enum bench::AbCheckKind;
  const std::vector<double> off = {10, 11, 12};
  EXPECT_TRUE(Verdict(kBetter, kOps, {13, 14, 15}, off));
  // One run of a at or behind one run of b fails, whatever the medians.
  EXPECT_FALSE(Verdict(kBetter, kOps, {12, 20, 30}, off));
  EXPECT_FALSE(Verdict(kBetter, kP50, {1, 2, 10.5}, off));
  EXPECT_TRUE(Verdict(kBetter, kP50, {1, 2, 9.5}, off));
}

TEST(AbGuardTest, ExactFailsOnAOneUnitDifference) {
  using enum bench::AbCheckKind;
  EXPECT_TRUE(Verdict(kExact, kOps, {13221}, {13221}));
  EXPECT_FALSE(Verdict(kExact, kOps, {13221}, {13222}));
  // Every run of both legs, not just the medians.
  EXPECT_FALSE(Verdict(kExact, kOps, {0, 0, 1, 0, 0}, {0, 0, 0, 0, 0}));
}

TEST(AbGuardTest, ThresholdBoundsAMedianOrAnImprovementFactor) {
  using enum bench::AbCheckKind;
  // One leg: the median against the bound, in the metric's direction.
  EXPECT_TRUE(Verdict(kThreshold, kP50, {90, 100, 500}, {}, 100));
  EXPECT_FALSE(Verdict(kThreshold, kP50, {90, 101, 500}, {}, 100));
  // Two legs: b / a for a lower-is-better metric; a zero a is unbounded.
  EXPECT_TRUE(Verdict(kThreshold, kP50, {1.0, 1.5}, {3.0, 3.0}, 2.0));
  EXPECT_FALSE(Verdict(kThreshold, kP50, {1.6, 1.6}, {3.0, 3.0}, 2.0));
  EXPECT_TRUE(Verdict(kThreshold, kP50, {0}, {13221}, 3.0));
  EXPECT_FALSE(Verdict(kThreshold, kP50, {0}, {0}, 3.0));
}

TEST(AbGuardTest, AnUndefinedRunFailsEveryCheck) {
  using enum bench::AbCheckKind;
  const double nan = std::nan("");
  // A zero-READ placement leg's imbalance: no longer an unbounded cut.
  EXPECT_FALSE(Verdict(kThreshold, kP50, {1.0, nan, 1.0}, {3.0, 3.0}, 2.0));
  EXPECT_FALSE(Verdict(kThreshold, kP50, {1.0}, {nan}, 2.0));
  EXPECT_FALSE(Verdict(kThreshold, kP50, {nan}, {}, 100));
  EXPECT_FALSE(Verdict(kNotWorse, kP50, {1.0, nan}, {1.0, 1.0}, 0.02));
  EXPECT_FALSE(Verdict(kBetter, kOps, {13, 14}, {nan, 11}));
  EXPECT_FALSE(Verdict(kExact, kOps, {nan}, {nan}));
}

TEST(AbGuardTest, RunnerInterleavesLegsAndFailsOnAnyFailedCheck) {
  using enum bench::AbCheckKind;
  std::string order;
  auto leg = [&](const char* name, double ops, double cpu_scale) {
    return bench::AbLeg{name,
                        [&order, name, ops] {
                          order += name;
                          bench::PhaseResult r;
                          r.ops_per_sec = ops;
                          return r;
                        },
                        cpu_scale};
  };
  const std::vector<bench::AbLeg> legs = {leg("A", 20, 1), leg("B", 10, 1),
                                          leg("W", 5, 0)};
  const std::vector<bench::AbMetric> metrics = {
      {"ops/s", true, 0,
       [](const bench::PhaseResult& r) { return r.ops_per_sec; }}};
  EXPECT_EQ(0, bench::RunAbGuard(legs, metrics,
                                 {{kBetter, "ops/s", "A", "B"},
                                  {kThreshold, "ops/s", "W", "", 5}}));
  // kAbReps repetitions, the order reversed on odd ones; the cpu_scale = 0
  // leg runs once.
  EXPECT_EQ("ABWBAABBAAB", order);
  EXPECT_EQ(1, bench::RunAbGuard(legs, metrics,
                                 {{kBetter, "ops/s", "A", "B"},
                                  {kBetter, "ops/s", "B", "A"}}));
}

TEST(BenchRunnerTest, SingleNodeSeriesKeepsTheFlatShape) {
  bench::BenchConfig config = TinyCell(1, 1);
  config.shards = 1;
  config.stats_series = ::testing::TempDir() + "bench_runner_series.json";
  bench::RunBench(config, {bench::Phase::kFillRandom});
  std::FILE* f = std::fopen(config.stats_series.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
  std::fclose(f);
  std::remove(config.stats_series.c_str());
  EXPECT_EQ(json.find("{\"columns\":[\"ts_ns\""), 0u) << json.substr(0, 80);
}

// ---------------------------------------------------------------------------
// DbStats declaration (DLSM_DB_COUNTERS): every generated site, per counter
// ---------------------------------------------------------------------------

// Every listed counter set to a distinct value: 101, 202, ... in list order.
DbStats DistinctCounters() {
  DbStats s;
  uint64_t v = 0;
  for (const DbCounter& c : kDbCounters) s.*c.field = 101 * ++v;
  return s;
}

// The JSON string array that follows "key":[ in json.
std::vector<std::string> JsonStringArray(const std::string& json,
                                         const std::string& key) {
  std::vector<std::string> out;
  size_t pos = json.find("\"" + key + "\":[");
  if (pos == std::string::npos) return out;
  pos += key.size() + 4;
  const size_t end = json.find(']', pos);
  while (pos < end) {
    size_t open = json.find('"', pos);
    if (open == std::string::npos || open > end) break;
    size_t close = json.find('"', open + 1);
    out.push_back(json.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

TEST(DbStatsTest, EveryCounterSerializesUnderItsName) {
  const DbStats s = DistinctCounters();
  const std::string json = StatsJson(s);
  const std::string text = "\n" + s.ToString();
  for (const DbCounter& c : kDbCounters) {
    const std::string v = std::to_string(s.*c.field);
    EXPECT_NE(json.find("\"" + std::string(c.name) + "\":" + v + ","),
              std::string::npos)
        << c.name;
    EXPECT_NE(text.find("\n" + std::string(c.name) + " " + v + "\n"),
              std::string::npos)
        << c.name;
  }
}

TEST(DbStatsTest, MergeFromAppliesEachCounterRule) {
  DbStats a, b;
  uint64_t i = 0;
  for (const DbCounter& c : kDbCounters) {
    // Alternate which side is larger so a max cannot pass as either input.
    i++;
    a.*c.field = i % 2 ? 1000 + i : 10 + i;
    b.*c.field = i % 2 ? 10 + i : 1000 + i;
  }
  DbStats ab = a, ba = b;
  ab.MergeFrom(b);
  ba.MergeFrom(a);
  for (const DbCounter& c : kDbCounters) {
    const uint64_t want = c.rule == MergeRule::kMax
                              ? std::max(a.*c.field, b.*c.field)
                              : a.*c.field + b.*c.field;
    EXPECT_EQ(want, ab.*c.field) << c.name;
    EXPECT_EQ(want, ba.*c.field) << c.name;
  }
}

TEST(DbStatsTest, MergeFromMergesPerNodeSlotBySlot) {
  DbStats one, three;
  one.per_node = {{1, 2, 3, 4}};
  three.per_node = {{10, 20, 30, 40}, {5, 6, 7, 8}, {9, 9, 9, 9}};
  one.rdma.posted = 3;
  three.rdma.posted = 4;
  for (bool short_first : {true, false}) {
    DbStats m = short_first ? one : three;
    m.MergeFrom(short_first ? three : one);
    ASSERT_EQ(3u, m.per_node.size());
    EXPECT_EQ(11u, m.per_node[0].read_verbs);
    EXPECT_EQ(22u, m.per_node[0].read_bytes);
    EXPECT_EQ(33u, m.per_node[0].write_verbs);
    EXPECT_EQ(44u, m.per_node[0].write_bytes);
    EXPECT_EQ(5u, m.per_node[1].read_verbs);
    EXPECT_EQ(8u, m.per_node[1].write_bytes);
    EXPECT_EQ(9u, m.per_node[2].write_verbs);
    EXPECT_EQ(7u, m.rdma.posted);
  }
}

TEST(DbStatsTest, StatsJsonMatchesGolden) {
  // A fixed, fully filled snapshot; the expected text pins the JSON
  // schema (key names and order) that the committed BENCH_*.json use.
  DbStats s = DistinctCounters();
  s.per_node = {{1, 2, 3, 4}, {5, 6, 7, 8}};
  s.rdma.read.ops = 9;
  s.rdma.read.bytes = 36864;
  s.rdma.read.errors = 1;
  s.rdma.read.latency_us.Add(1.5);
  s.rdma.read.latency_us.Add(3.0);
  s.rdma.write.ops = 4;
  s.rdma.write.bytes = 1048576;
  s.rdma.write.latency_us.Add(12.0);
  s.rdma.send.ops = 2;
  s.rdma.send.bytes = 128;
  s.rdma.atomic.ops = 1;
  s.rdma.atomic.bytes = 8;
  s.rdma.posted = 16;
  s.rdma.completed = 15;
  s.rdma.abandoned = 1;
  s.rdma.max_outstanding = 6;
  s.rdma.reconnects = 2;
  const char* golden =
    R"({"writes":101,"reads":202,"flushes":303,"compactions":404,"compact)"
    R"(ion_input_bytes":505,"compaction_output_bytes":606,"stall_ns":707,)"
    R"("bloom_useful":808,"compaction_rpc_inflight_peak":909,"read_retrie)"
    R"(s":1010,"flush_retries":1111,"rpc_retries":1212,"rpc_timeouts":131)"
    R"(3,"watchdog_stalls":1414,"cache_hits":1515,"cache_misses":1616,"ca)"
    R"(che_inserts":1717,"cache_evictions":1818,"cache_admission_rejects")"
    R"(:1919,"tables_migrated":2020,"migration_bytes":2121,"per_node":[{")"
    R"(read_verbs":1,"read_bytes":2,"write_verbs":3,"write_bytes":4},{"re)"
    R"(ad_verbs":5,"read_bytes":6,"write_verbs":7,"write_bytes":8}],"rdma)"
    R"(":{"READ":{"ops":9,"bytes":36864,"errors":1,"latency_us":{"count":)"
    R"(2,"min":1.5000,"max":3.0000,"avg":2.2500,"stddev":0.7500,"p50":2.0)"
    R"(000,"p90":3.0000,"p99":3.0000,"p999":3.0000,"buckets":[{"le":2.000)"
    R"(0,"n":1},{"le":4.0000,"n":1}]}},"WRITE":{"ops":4,"bytes":1048576,")"
    R"(errors":0,"latency_us":{"count":1,"min":12.0000,"max":12.0000,"avg)"
    R"(":12.0000,"stddev":0.0000,"p50":12.0000,"p90":12.0000,"p99":12.000)"
    R"(0,"p999":12.0000,"buckets":[{"le":14.0000,"n":1}]}},"SEND":{"ops":)"
    R"(2,"bytes":128,"errors":0,"latency_us":{"count":0,"min":0.0000,"max)"
    R"(":0.0000,"avg":0.0000,"stddev":0.0000,"p50":0.0000,"p90":0.0000,"p)"
    R"(99":0.0000,"p999":0.0000,"buckets":[]}},"ATOMIC":{"ops":1,"bytes":)"
    R"(8,"errors":0,"latency_us":{"count":0,"min":0.0000,"max":0.0000,"av)"
    R"(g":0.0000,"stddev":0.0000,"p50":0.0000,"p90":0.0000,"p99":0.0000,")"
    R"(p999":0.0000,"buckets":[]}},"posted":16,"completed":15,"abandoned")"
    R"(:1,"outstanding":0,"max_outstanding":6,"reconnects":2}})";
  EXPECT_EQ(golden, StatsJson(s));
}

TEST(DbStatsTest, SamplerExportsEveryCounterAsAColumn) {
  const std::string json = SampledWorkloadSeries(301);
  const std::vector<std::string> cols = JsonStringArray(json, "columns");
  const std::vector<std::string> kinds = JsonStringArray(json, "kinds");
  const size_t n = std::size(kDbCounters);
  ASSERT_GT(cols.size(), n) << json.substr(0, 200);
  ASSERT_EQ(cols.size(), kinds.size());
  EXPECT_EQ("ts_ns", cols[0]);
  for (size_t i = 0; i < n; i++) {
    const DbCounter& c = kDbCounters[i];
    EXPECT_EQ(c.name, cols[1 + i]);
    EXPECT_EQ(c.rule == MergeRule::kMax ? "gauge" : "counter", kinds[1 + i])
        << c.name;
  }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, NoFalsePositiveUnderRnrDelays) {
  // 200 us injected retransmission delays against a 5 ms virtual-time
  // deadline: slow, but alive — the watchdog must stay quiet. At
  // cpu_scale = 0 virtual time holds only modeled costs (the RNR delays,
  // the wire, sleeps), so a sanitizer build (CI runs asan and tsan) whose
  // measured host CPU is several times slower cannot push a flush past
  // the deadline.
  SimEnv::Options so;
  so.cpu_scale = 0.0;
  SimEnv env(so);
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);
  std::vector<std::string> dumps;

  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();
    Options options = SmallOptions(&env);
    options.watchdog_deadline_ms = 5;
    options.stats_sample_period_ms = 1;
    options.watchdog_sink = [&dumps](const std::string& d) {
      dumps.push_back(d);
    };
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
    std::unique_ptr<DB> db(raw);

    rdma::FaultParams fp;
    fp.seed = 7;
    fp.rnr_delay_rate = 0.05;
    fabric.set_fault_params(fp);

    Random rnd(7);
    for (int i = 0; i < 6000; i++) {
      uint64_t k = rnd.Uniform(2000);
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int i = 0; i < 500; i++) {
      std::string value;
      Status s = db->Get(ReadOptions(), TestKey(rnd.Uniform(2000)), &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound());
    }
    EXPECT_EQ(db->GetStats().watchdog_stalls, 0u);
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
  EXPECT_TRUE(dumps.empty()) << dumps[0];
}

TEST(WatchdogTest, StuckWrFiresExactlyOneDumpNamingTheHandle) {
  // FaultParams::stuck_wr_nth parks the first admitted WR's completion
  // unreachably far in the future — the silent-stall scenario. The probe
  // over the verb layer's outstanding mirror must catch it, the one-shot
  // dump must name the wr_id, and a second poll must stay quiet.
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 4, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 2, 1ull << 30);

  env.Run(0, [&] {
    char* remote = memory->AllocDram(1 << 20);
    rdma::MemoryRegion mr = fabric.RegisterMemory(memory, remote, 1 << 20);
    rdma::RdmaManager mgr(&fabric, compute, memory);
    std::vector<char> buf(4096);

    // A healthy verb first: the mirror must not report completed work.
    ASSERT_TRUE(mgr.Read(buf.data(), mr.addr, mr.rkey, 4096).ok());

    rdma::FaultParams fp;
    fp.stuck_wr_nth = 1;  // Next admitted post never completes.
    fabric.set_fault_params(fp);
    rdma::WrHandle stuck =
        mgr.ThreadVq()->Read(buf.data(), mr.addr, mr.rkey, 4096);
    uint64_t stuck_id = stuck.wr_id();

    std::vector<std::string> dumps;
    telemetry::Watchdog::Options wo;
    wo.clock = [&env] { return env.NowNanos(); };
    wo.deadline_ns = 1'000'000;
    wo.sink = [&dumps](const std::string& d) { dumps.push_back(d); };
    telemetry::Watchdog wd(wo);
    wd.AddProbe("outstanding_verbs",
                [&mgr](uint64_t now, uint64_t deadline_ns,
                       std::vector<telemetry::Watchdog::StuckOp>* out) {
                  std::vector<rdma::OutstandingVerb> verbs;
                  mgr.ListOutstanding(&verbs);
                  for (const rdma::OutstandingVerb& v : verbs) {
                    if (now > v.post_ns && now - v.post_ns > deadline_ns) {
                      out->push_back(telemetry::Watchdog::StuckOp{
                          "verb:READ", v.wr_id, now - v.post_ns});
                    }
                  }
                });
    wd.AddDiagnostic("qp_state", [&mgr] { return mgr.QpStateSummary(); });

    // Within the deadline: quiet.
    env.SleepNanos(500'000);
    EXPECT_FALSE(wd.Poll());
    EXPECT_EQ(wd.stalls(), 0u);

    // Past the deadline: exactly one dump, naming the stuck handle.
    env.SleepNanos(2'000'000);
    EXPECT_TRUE(wd.Poll());
    EXPECT_TRUE(wd.fired());
    EXPECT_EQ(wd.stalls(), 1u);
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_NE(dumps[0].find("kind=verb:READ"), std::string::npos) << dumps[0];
    EXPECT_NE(dumps[0].find("id=" + std::to_string(stuck_id)),
              std::string::npos)
        << dumps[0];
    EXPECT_NE(dumps[0].find("qp_state"), std::string::npos) << dumps[0];
    EXPECT_NE(dumps[0].find("in_flight=1"), std::string::npos) << dumps[0];

    // One-shot: the wedge is still there, the dump is not repeated.
    env.SleepNanos(2'000'000);
    EXPECT_FALSE(wd.Poll());
    EXPECT_EQ(dumps.size(), 1u);

    // Never Wait() on the stuck handle (virtual time would jump to the
    // parked completion); Cancel drops it and teardown sweeps the rest.
    stuck.Cancel();
  });
}

TEST(WatchdogTest, ArmedOpFiresAndProgressResetsTheClock) {
  uint64_t now = 0;
  std::vector<std::string> dumps;
  telemetry::Watchdog::Options wo;
  wo.clock = [&now] { return now; };
  wo.deadline_ns = 1000;
  wo.sink = [&dumps](const std::string& d) { dumps.push_back(d); };
  telemetry::Watchdog wd(wo);

  uint64_t token = wd.Arm("migration");
  now = 900;
  EXPECT_FALSE(wd.Poll());
  wd.Progress(token);  // Checkpoint at t=900: clock resets.
  now = 1800;
  EXPECT_FALSE(wd.Poll());
  now = 3000;
  EXPECT_TRUE(wd.Poll());
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("kind=migration"), std::string::npos) << dumps[0];
  wd.Disarm(token);
}

}  // namespace
}  // namespace dlsm

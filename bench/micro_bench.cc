// Wall-clock microbenchmarks (google-benchmark) of the data structures on
// dLSM's hot paths: skiplist insert/lookup, bloom filter build/probe,
// varint coding, CRC32C, the cached table index's key search, one table
// build (flush and compaction output), and the SimEnv baton pass that
// every simulated scheduling point pays. These are host-hardware numbers
// (not virtual time); they feed the CPU cost side of the simulation and
// catch regressions in the real code.

#include <benchmark/benchmark.h>
#include <time.h>

#include <string>
#include <vector>

#include "src/core/bloom.h"
#include "src/core/dbformat.h"
#include "src/core/memtable.h"
#include "src/core/skiplist.h"
#include "src/core/table_builder.h"
#include "src/core/table_index.h"
#include "src/core/table_sink.h"
#include "src/sim/sim_env.h"
#include "src/util/arena.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"

namespace dlsm {
namespace {

std::string BenchKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

void BM_SkipListInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Arena arena;
    struct Cmp {
      int operator()(const char* a, const char* b) const {
        return strcmp(a, b);
      }
    };
    SkipList<const char*, Cmp> list(Cmp(), &arena);
    Random rnd(301);
    std::vector<std::string> keys;
    for (int i = 0; i < state.range(0); i++) {
      keys.push_back(BenchKey(rnd.Next64()));
    }
    state.ResumeTiming();
    for (const std::string& k : keys) {
      char* mem = arena.Allocate(k.size() + 1);
      memcpy(mem, k.c_str(), k.size() + 1);
      list.Insert(mem);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkipListInsert)->Arg(1000)->Arg(10000);

void BM_MemTableAdd(benchmark::State& state) {
  InternalKeyComparator icmp;
  std::string value(400, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    MemTable* mem = new MemTable(icmp, 0, kMaxSequenceNumber);
    mem->Ref();
    Random rnd(301);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); i++) {
      mem->Add(i + 1, kTypeValue, BenchKey(rnd.Next64()), value);
    }
    state.PauseTiming();
    mem->Unref();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemTableAdd)->Arg(10000);

void BM_MemTableGet(benchmark::State& state) {
  InternalKeyComparator icmp;
  MemTable* mem = new MemTable(icmp, 0, kMaxSequenceNumber);
  mem->Ref();
  std::string value(400, 'v');
  const int kN = 100000;
  for (int i = 0; i < kN; i++) {
    mem->Add(i + 1, kTypeValue, BenchKey(i), value);
  }
  Random rnd(17);
  for (auto _ : state) {
    LookupKey lkey(BenchKey(rnd.Uniform(kN)), kMaxSequenceNumber);
    std::string out;
    Status s;
    benchmark::DoNotOptimize(mem->Get(lkey, &out, &s));
  }
  mem->Unref();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGet);

void BM_BloomCreate(benchmark::State& state) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < state.range(0); i++) keys.push_back(BenchKey(i));
  for (const auto& k : keys) slices.emplace_back(k);
  for (auto _ : state) {
    std::string filter;
    policy.CreateFilter(slices.data(), static_cast<int>(slices.size()),
                        &filter);
    benchmark::DoNotOptimize(filter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomCreate)->Arg(10000);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 10000; i++) keys.push_back(BenchKey(i));
  for (const auto& k : keys) slices.emplace_back(k);
  std::string filter;
  policy.CreateFilter(slices.data(), static_cast<int>(slices.size()),
                      &filter);
  Random rnd(7);
  for (auto _ : state) {
    std::string probe = BenchKey(rnd.Uniform(20000));
    benchmark::DoNotOptimize(policy.KeyMayMatch(probe, filter));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_VarintEncodeDecode(benchmark::State& state) {
  Random rnd(3);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; i++) values.push_back(rnd.Next64() >> (i % 64));
  for (auto _ : state) {
    std::string buf;
    for (uint64_t v : values) PutVarint64(&buf, v);
    Slice input(buf);
    uint64_t out = 0;
    while (GetVarint64(&input, &out)) {
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20);

// A per-record index of consecutive 16-digit keys from `first` (one
// perfbench read_uniform table holds 9450), 427-byte records.
std::shared_ptr<TableIndex> BenchIndex(uint64_t first, uint64_t entries) {
  TableIndex::Builder builder(TableIndex::kPerRecord);
  for (uint64_t i = 0; i < entries; i++) {
    std::string ikey;
    AppendInternalKey(&ikey, ParsedInternalKey(BenchKey(first + i), i + 1,
                                               kTypeValue));
    builder.Add(ikey, i * 427, 427);
  }
  return TableIndex::Parse(builder.Finish());
}

// One point lookup's local index search: one 9450-entry table probed at
// uniform keys, as Get does after its bloom check passes. The index stays
// in cache across lookups.
void BM_TableIndexFind(benchmark::State& state) {
  constexpr uint64_t kEntries = 9450;
  constexpr uint64_t kFirst = 271828;
  auto index = BenchIndex(kFirst, kEntries);
  Random rnd(11);
  std::vector<std::string> targets;
  for (int i = 0; i < 4096; i++) {
    LookupKey lkey(BenchKey(kFirst + rnd.Uniform(kEntries)),
                   kMaxSequenceNumber);
    targets.push_back(lkey.internal_key().ToString());
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Find(targets[next]));
    next = (next + 1) % targets.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableIndexFind);

// The same search as a Get meets it on read_uniform: 65 such tables
// (~40 MiB of indexes, past the host caches), a random table per lookup,
// and the probe's use of the result: the entry's offset, length and
// trailer, once the entry holds the lookup's user key.
void BM_TableIndexFindCold(benchmark::State& state) {
  constexpr uint64_t kTables = 65;
  constexpr uint64_t kEntries = 9450;
  constexpr uint64_t kFirst = 271828;
  std::vector<std::shared_ptr<TableIndex>> indexes;
  for (uint64_t t = 0; t < kTables; t++) {
    indexes.push_back(BenchIndex(kFirst + t * kEntries, kEntries));
  }
  Random rnd(13);
  struct Target {
    const TableIndex* index;
    std::string key;
  };
  std::vector<Target> targets;
  for (int i = 0; i < 1 << 16; i++) {
    const uint64_t t = rnd.Uniform(kTables);
    LookupKey lkey(BenchKey(kFirst + t * kEntries + rnd.Uniform(kEntries)),
                   kMaxSequenceNumber);
    targets.push_back({indexes[t].get(), lkey.internal_key().ToString()});
  }
  size_t next = 0;
  uint64_t sum = 0;
  for (auto _ : state) {
    const Target& target = targets[next];
    bool same_user_key = false;
    const size_t pos = target.index->Find(target.key, &same_user_key);
    if (same_user_key) {
      const TableIndex::Entry& e = target.index->entry(pos);
      sum += e.offset + e.length + e.trailer;
    }
    next = (next + 1) % targets.size();
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableIndexFindCold);

// One flush or compaction output as the memory node builds it: a byte
// table of 9450 consecutive 16-digit keys with 400-byte values (one
// perfbench read_uniform table, 427-byte records) serialized into local
// memory, then its index and bloom filter. Time is per table.
void BM_TableBuild(benchmark::State& state) {
  constexpr uint64_t kRecords = 9450;
  BloomFilterPolicy bloom(10);
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < kRecords; i++) {
    std::string ikey;
    AppendInternalKey(&ikey, ParsedInternalKey(BenchKey(314159 + i), i + 1,
                                               kTypeValue));
    keys.push_back(std::move(ikey));
  }
  const std::string value(400, 'v');
  std::string storage(kRecords * 427 + 4096, '\0');
  for (auto _ : state) {
    LocalMemorySink sink(storage.data(), storage.size());
    auto builder = NewByteTableBuilder(&bloom, &sink);
    for (const std::string& key : keys) {
      benchmark::DoNotOptimize(builder->Add(key, value));
    }
    TableBuildResult result;
    benchmark::DoNotOptimize(builder->Finish(&result));
    benchmark::DoNotOptimize(storage.data());
    benchmark::DoNotOptimize(result.index_blob.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_TableBuild)->Unit(benchmark::kMicrosecond);

uint64_t ProcessCpuNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// N simulated threads advance their clocks in lockstep (cpu_scale = 0, so
// ties break by thread id), so each AdvanceTo passes the baton to the next
// thread. cpu_ns_per_pass is process CPU, both sides of the hand-off, per
// pass that actually let another thread run.
void BM_SimEnvHandoff(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kSteps = 2000;
  uint64_t passes = 0;
  uint64_t cpu_ns = 0;
  SimEnv::NanosPerTick();  // The once-per-process calibration, untimed.
  for (auto _ : state) {
    SimEnv::Options options;
    options.cpu_scale = 0;
    SimEnv env(options);
    uint64_t last_runner = 0;
    uint64_t start = ProcessCpuNanos();
    env.Run(0, [&] {
      std::vector<ThreadHandle> hs;
      for (int i = 0; i < threads; i++) {
        hs.push_back(env.StartThread(0, "p", [&] {
          for (uint64_t k = 1; k <= kSteps; k++) {
            uint64_t me = env.CurrentThreadId();
            last_runner = me;
            env.AdvanceTo(k * 1000);
            if (last_runner != me) passes++;
          }
        }));
      }
      for (ThreadHandle h : hs) env.Join(h);
    });
    cpu_ns += ProcessCpuNanos() - start;
  }
  state.counters["cpu_ns_per_pass"] =
      passes > 0 ? static_cast<double>(cpu_ns) / passes : 0;
  state.counters["passes_per_run"] =
      static_cast<double>(passes) / state.iterations();
}
BENCHMARK(BM_SimEnvHandoff)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Host cost of a simulated thread reading its clock: process CPU per
// NowNanos and per UncountedBegin/End pair, the reads a benchmark client
// makes around every op.
void BM_SimEnvClockRead(benchmark::State& state) {
  constexpr int kReads = 100000;
  uint64_t now_ns = 0;
  uint64_t pair_ns = 0;
  SimEnv::NanosPerTick();  // The once-per-process calibration, untimed.
  for (auto _ : state) {
    SimEnv env;
    env.Run(0, [&] {
      uint64_t sum = 0;
      const uint64_t start = ProcessCpuNanos();
      for (int i = 0; i < kReads; i++) sum += env.NowNanos();
      const uint64_t mid = ProcessCpuNanos();
      for (int i = 0; i < kReads; i++) env.UncountedEnd(env.UncountedBegin());
      pair_ns += ProcessCpuNanos() - mid;
      now_ns += mid - start;
      benchmark::DoNotOptimize(sum);
    });
  }
  const double reads = static_cast<double>(kReads) * state.iterations();
  state.counters["cpu_ns_per_now"] = static_cast<double>(now_ns) / reads;
  state.counters["cpu_ns_per_uncounted_pair"] =
      static_cast<double>(pair_ns) / reads;
}
BENCHMARK(BM_SimEnvClockRead)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dlsm

BENCHMARK_MAIN();

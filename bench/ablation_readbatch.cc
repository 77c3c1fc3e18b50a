// Read-batching ablation: serial Get vs async-L0 Get vs MultiGet under an
// L0 backlog. Round r writes the keys with k % rounds == r — disjoint
// stripes that all span the full key range — then flushes, with compaction
// and bloom filters disabled (the bulkload trick, as Fig. 7b). Every L0
// file therefore may-matches every lookup, but each key lives in exactly
// one file, so a newest-first serial search probes half the backlog on
// average while the async wave overlaps all those round trips.
//
// Three legs per table layout:
//   serial-get   one blocking READ per probe (ReadOptions.async_reads off)
//   async-get    per-key doorbell wave over the may-match L0 files
//   multiget-B   MultiGet with batch size B: one wave per level across keys
//
// Byte-addressable tables resolve probes from the cached per-record index,
// so async-get degenerates to serial there (at most one data READ per
// lookup) while MultiGet still batches across keys; block tables must fetch
// a block per may-match file, which is where the per-key wave pays off.
//
// Each leg also reports READ verbs per lookup (GetStats deltas): every leg
// runs the same probe-wave engine, so the transport and batching may change
// throughput but not which reads go on the wire.
//
// Usage: ablation_readbatch [--keys=N] [--rounds=N] [--reads=N]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace dlsm {
namespace bench {
namespace {

constexpr int kKeyWidth = 16;
constexpr size_t kValueSize = 400;

std::string MakeKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", kKeyWidth,
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

struct LegResult {
  double ops_per_sec = 0;
  double reads_per_lookup = 0;  // READ verbs per lookup.
};

/// Runs one layout's legs in a fresh deployment; returns one result per
/// leg in the order: serial, async, multiget per batch size.
std::vector<LegResult> RunLayout(TableFormat format, uint64_t num_keys,
                                 int rounds, uint64_t read_ops,
                                 const std::vector<int>& batches,
                                 int* l0_files) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  uint64_t entry = kKeyWidth + kValueSize + 28;
  size_t mem_dram = num_keys * entry * (rounds + 2) * 4 + (2ull << 30);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, mem_dram);

  std::vector<LegResult> results;
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();

    Options options;
    options.env = &env;
    options.table_format = format;
    if (format == TableFormat::kBlock) {
      options.block_size = 2048;
      // Bloom off on the block layout: overlapping L0 files must stay
      // may-match, as for workloads whose false-positive rate or range
      // overlap defeats the filter — the case the per-key async wave is
      // for. The byte-addressable layout keeps the dLSM default; its
      // cached per-record index prunes to the one owning file either way,
      // so its lookups are a single READ and MultiGet's cross-key batching
      // is the only lever.
      options.bloom_bits_per_key = 0;
    }
    options.memtable_size = 4 << 20;
    options.sstable_size = 4 << 20;
    options.estimated_entry_size = entry;
    // Bulkload posture: flush freely, never compact, never stall — the L0
    // backlog is the point of the experiment.
    options.l0_compaction_trigger = 1 << 30;
    options.l0_stop_writes_trigger = 1 << 30;
    options.max_immutables = 1 << 20;
    options.flush_threads = 4;
    options.flush_region_size = num_keys * entry * (rounds + 2) * 2 +
                                (256ull << 20);

    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    Status s = DLsmDB::Open(options, deps, &raw);
    DLSM_CHECK_MSG(s.ok(), s.ToString().c_str());
    std::unique_ptr<DB> db(raw);

    for (int r = 0; r < rounds; r++) {
      std::string value = "r" + std::to_string(r) + ".";
      value.resize(kValueSize, 'x');
      for (uint64_t i = r; i < num_keys; i += rounds) {
        DLSM_CHECK(db->Put(WriteOptions(), MakeKey(i), value).ok());
      }
      DLSM_CHECK(db->Flush().ok());
    }
    DLSM_CHECK(db->WaitForBackgroundIdle().ok());
    *l0_files = db->NumFilesAtLevel(0);

    // Pre-generate the lookup sequence so every leg reads the same keys
    // and no key-formatting CPU is charged inside the timed region.
    std::vector<std::string> lookup_keys(read_ops);
    {
      Random rnd(17);
      for (uint64_t i = 0; i < read_ops; i++) {
        lookup_keys[i] = MakeKey(rnd.Uniform(num_keys));
      }
    }

    // One client thread on the compute node, as the paper's single-thread
    // latency experiments do.
    auto timed = [&](const std::function<void()>& body) {
      const uint64_t reads0 = db->GetStats().rdma.read.ops;
      Barrier b0(&env, 2), b1(&env, 2);
      ThreadHandle h = env.StartThread(compute->env_node(), "reader", [&] {
        b0.Arrive();
        body();
        b1.Arrive();
      });
      b0.Arrive();
      uint64_t t0 = env.NowNanos();
      b1.Arrive();
      uint64_t t1 = env.NowNanos();
      env.Join(h);
      LegResult r;
      r.ops_per_sec =
          t1 > t0 ? read_ops / (static_cast<double>(t1 - t0) / 1e9) : 0;
      r.reads_per_lookup =
          static_cast<double>(db->GetStats().rdma.read.ops - reads0) /
          read_ops;
      return r;
    };

    ReadOptions serial_opts;
    serial_opts.async_reads = false;
    results.push_back(timed([&] {
      std::string value;
      for (uint64_t i = 0; i < read_ops; i++) {
        Status st = db->Get(serial_opts, lookup_keys[i], &value);
        DLSM_CHECK(st.ok());
        if ((i & 63) == 0) env.MaybeYield();
      }
    }));

    results.push_back(timed([&] {
      std::string value;
      for (uint64_t i = 0; i < read_ops; i++) {
        Status st = db->Get(ReadOptions(), lookup_keys[i], &value);
        DLSM_CHECK(st.ok());
        if ((i & 63) == 0) env.MaybeYield();
      }
    }));

    for (int batch : batches) {
      results.push_back(timed([&] {
        std::vector<Slice> slices(batch);
        std::vector<std::string> values;
        std::vector<Status> statuses;
        for (uint64_t i = 0; i + batch <= read_ops; i += batch) {
          for (int j = 0; j < batch; j++) slices[j] = lookup_keys[i + j];
          db->MultiGet(ReadOptions(), slices, &values, &statuses);
          for (int j = 0; j < batch; j++) DLSM_CHECK(statuses[j].ok());
          env.MaybeYield();
        }
      }));
    }

    DLSM_CHECK(db->Close().ok());
    db.reset();
    service.Stop();
  });
  return results;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"keys", "reads", "rounds"});
  uint64_t keys = flags.GetInt("keys", 20000);
  int rounds = static_cast<int>(flags.GetInt("rounds", 8));
  uint64_t reads = flags.GetInt("reads", 32768);
  std::vector<int> batches = {1, 4, 16, 64};

  std::printf(
      "\n=== Read-batching ablation: %llu keys x %d rounds, %llu reads, "
      "L0 backlog ===\n",
      static_cast<unsigned long long>(keys), rounds,
      static_cast<unsigned long long>(reads));

  for (TableFormat format :
       {TableFormat::kByteAddressable, TableFormat::kBlock}) {
    const char* name =
        format == TableFormat::kByteAddressable ? "byte-addressable"
                                                : "block(2KB)";
    int l0_files = 0;
    std::vector<LegResult> r =
        RunLayout(format, keys, rounds, reads, batches, &l0_files);
    double serial = r[0].ops_per_sec;
    std::printf("\n--- layout=%s, L0 files=%d ---\n", name, l0_files);
    std::printf("%-14s %14s %10s %13s\n", "leg", "throughput",
                "vs serial", "READs/lookup");
    for (size_t i = 0; i < r.size(); i++) {
      char leg[32];
      if (i == 0) {
        std::snprintf(leg, sizeof(leg), "serial-get");
      } else if (i == 1) {
        std::snprintf(leg, sizeof(leg), "async-get");
      } else {
        std::snprintf(leg, sizeof(leg), "multiget-%d", batches[i - 2]);
      }
      std::printf("%-14s %14s %9.2fx %13.4f\n", leg,
                  FormatThroughput(r[i].ops_per_sec).c_str(),
                  r[i].ops_per_sec / serial, r[i].reads_per_lookup);
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

// Shared test harness: assembles a simulated two-node deployment (compute
// + memory, RDMA fabric, memory-node service) and runs a test body against
// an open DB inside the virtual-time environment.

#ifndef DLSM_TESTS_DLSM_TEST_UTIL_H_
#define DLSM_TESTS_DLSM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "src/core/db.h"
#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/core/shard.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"

namespace dlsm {
namespace test {

/// Options tuned small so unit tests exercise flush and compaction with a
/// few thousand keys.
inline Options SmallOptions(Env* env) {
  Options options;
  options.env = env;
  options.memtable_size = 64 << 10;
  options.estimated_entry_size = 128;
  options.sstable_size = 64 << 10;
  options.l0_compaction_trigger = 4;
  options.l0_stop_writes_trigger = 36;
  options.max_immutables = 4;
  options.flush_threads = 2;
  options.compaction_scheduler_threads = 2;
  options.max_subcompactions = 4;
  options.flush_region_size = 256 << 20;
  options.flush_buffer_size = 16 << 10;
  options.scan_prefetch_size = 64 << 10;
  return options;
}

/// Builds the deployment, opens a DB, runs body, closes everything. This
/// form also hands the body the memory-node service (e.g. to count the
/// RPCs it served).
inline void RunDbTest(
    const std::function<void(Options*)>& tune,
    const std::function<void(DB*, Env*, MemoryNodeService*)>& body) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);

  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();

    Options options = SmallOptions(&env);
    if (tune) tune(&options);

    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;

    DB* raw = nullptr;
    Status s;
    if (options.shards > 1) {
      s = ShardedDB::Open(
          options, deps,
          ShardedDB::UniformDecimalBoundaries(options.shards, 16), &raw);
    } else {
      s = DLsmDB::Open(options, deps, &raw);
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::unique_ptr<DB> db(raw);

    body(db.get(), &env, &service);

    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
}

inline void RunDbTest(const std::function<void(Options*)>& tune,
                      const std::function<void(DB*, Env*)>& body) {
  RunDbTest(tune, [&body](DB* db, Env* env, MemoryNodeService*) {
    body(db, env);
  });
}

/// Zero-padded 16-digit decimal key (the bench key format).
inline std::string TestKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

inline std::string TestValue(uint64_t n, size_t len = 64) {
  std::string v = "value-" + std::to_string(n) + "-";
  while (v.size() < len) v.push_back('x');
  v.resize(len);
  return v;
}

}  // namespace test
}  // namespace dlsm

#endif  // DLSM_TESTS_DLSM_TEST_UTIL_H_

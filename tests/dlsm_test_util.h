// Shared test harness: assembles a simulated two-node deployment (compute
// + memory, RDMA fabric, memory-node service) and runs a test body against
// an open DB inside the virtual-time environment.

#ifndef DLSM_TESTS_DLSM_TEST_UTIL_H_
#define DLSM_TESTS_DLSM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/core/shard.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/random.h"

namespace dlsm {
namespace test {

// SimEnv charges *measured* host CPU into virtual time. Sanitizer
// instrumentation inflates it 5-20x, so assertions calibrated against
// native-speed CPU (timing, in-flight counts, virtual-time scaling) only
// hold in plain builds.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

#define DLSM_SKIP_TIMING_UNDER_SANITIZERS()                               \
  do {                                                                    \
    if (::dlsm::test::kSanitizedBuild)                                    \
      GTEST_SKIP() << "timing calibration is meaningless when sanitizer " \
                      "instrumentation inflates the measured host CPU";   \
  } while (0)

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
    Status s = ShardedDB::Open(
        options, deps,
        ShardedDB::UniformDecimalBoundaries(options.shards, 16), &raw);
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

/// RunDbTest's real-time form: the same two-node deployment on StdEnv,
/// where threads are real and wire latencies are real sleeps, so waits and
/// races run under actual scheduling. Runs body on the calling thread.
inline void RunStdDbTest(
    const std::function<void(Options*)>& tune,
    const std::function<void(DB*, Env*, MemoryNodeService*)>& body) {
  Env* env = Env::Std();
  rdma::Fabric fabric(env);
  rdma::Node* compute = fabric.AddNode("compute", 0, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 0, 2ull << 30);
  MemoryNodeService service(&fabric, memory, 2);
  service.Start();

  Options options = SmallOptions(env);
  if (tune) tune(&options);
  DbDeps deps;
  deps.fabric = &fabric;
  deps.compute = compute;
  deps.memory = &service;
  DB* raw = nullptr;
  Status s = DLsmDB::Open(options, deps, &raw);
  if (s.ok()) {
    std::unique_ptr<DB> db(raw);
    body(db.get(), env, &service);
    EXPECT_TRUE(db->Close().ok());
  } else {
    ADD_FAILURE() << s.ToString();
  }
  service.Stop();
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

/// n bytes that stress bytewise order: 0x00, 0xFF, the neighbours of the
/// signed-char boundary, and two printable ones.
inline std::string EdgeBytes(Random* rnd, size_t n) {
  static const unsigned char kBytes[] = {0x00, 0x01, 'a',  'b',
                                         0x7f, 0x80, 0xfe, 0xff};
  std::string out;
  for (size_t i = 0; i < n; i++) {
    out.push_back(static_cast<char>(kBytes[rnd->Uniform(sizeof(kBytes))]));
  }
  return out;
}

/// Up to n distinct user keys in bytewise order, each `prefix` plus 0-12
/// edge bytes, so keys end before, inside and past the 8 bytes that follow
/// the prefix.
inline std::vector<std::string> RandomSortedUserKeys(
    Random* rnd, const std::string& prefix, size_t n) {
  std::set<std::string> keys;
  for (size_t i = 0; i < n; i++) {
    keys.insert(prefix + EdgeBytes(rnd, rnd->Uniform(13)));
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

/// A lookup key for a run built by RandomSortedUserKeys: one of its keys,
/// cut short, extended, with its last byte swapped, a fresh key under the
/// prefix, or an unrelated one, so lookups land below, inside and above
/// the run and between its keys.
inline std::string RandomProbeKey(Random* rnd, const std::string& prefix,
                                  const std::vector<std::string>& keys) {
  std::string k = keys.empty() ? prefix : keys[rnd->Uniform(keys.size())];
  switch (rnd->Uniform(6)) {
    case 0:
      return k;
    case 1:
      return k.substr(0, rnd->Uniform(k.size() + 1));
    case 2:
      return k + EdgeBytes(rnd, 1 + rnd->Uniform(3));
    case 3:
      if (!k.empty()) k.back() = EdgeBytes(rnd, 1)[0];
      return k;
    case 4:
      return prefix + EdgeBytes(rnd, rnd->Uniform(13));
    default:
      return EdgeBytes(rnd, rnd->Uniform(25));
  }
}

}  // namespace test
}  // namespace dlsm

#endif  // DLSM_TESTS_DLSM_TEST_UTIL_H_

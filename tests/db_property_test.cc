// Property-based sweeps (TEST_P): randomized workloads run against every
// engine configuration dimension, checked against a reference std::map
// model, with invariants on iterators and level structure.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace {

using test::RunDbTest;
using test::TestKey;
using test::TestValue;

// gtest lists a parameter that has no printer as its bytes. `name` goes
// last: a string literal's address changes with every build, so leading
// with it would change the listed test names too.
struct EngineConfig {
  TableFormat format = TableFormat::kByteAddressable;
  size_t block_size = 8192;
  CompactionPlacement placement = CompactionPlacement::kNearData;
  WritePath write_path = WritePath::kLockFree;
  MemTableSwitchPolicy switch_policy = MemTableSwitchPolicy::kSeqRange;
  int shards = 1;
  bool extra_io_copy = false;
  bool reads_via_rpc = false;
  size_t value_size = 64;
  const char* name = "";
};

// gtest prints a parameter into each test's name. Printed as raw bytes, a
// config would show its padding, which differs from build to build.
void PrintTo(const EngineConfig& config, std::ostream* os) {
  *os << config.name;
}

class EngineMatrixTest : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineMatrixTest, RandomWorkloadMatchesReferenceModel) {
  const EngineConfig& config = GetParam();
  RunDbTest(
      [&](Options* options) {
        options->table_format = config.format;
        options->block_size = config.block_size;
        options->compaction_placement = config.placement;
        options->write_path = config.write_path;
        options->switch_policy = config.switch_policy;
        options->shards = config.shards;
        options->extra_io_copy = config.extra_io_copy;
        options->reads_via_rpc = config.reads_via_rpc;
      },
      [&](DB* db, Env*) {
        std::map<std::string, std::string> model;
        Random rnd(1234);
        const int kOps = 6000;
        const int kKeySpace = 400;
        for (int op = 0; op < kOps; op++) {
          // Spread keys over the decimal space so every shard is hit.
          uint64_t k =
              rnd.Uniform(kKeySpace) * 2400000000000ull + 17;
          std::string key = TestKey(k);
          if (rnd.OneIn(5)) {
            model.erase(key);
            ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
          } else {
            std::string value = "v" + std::to_string(rnd.Next());
            value.resize(config.value_size, 'p');
            model[key] = value;
            ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
          }
          if (op == kOps / 2) {
            // Mid-workload flush to move data across the wire.
            ASSERT_TRUE(db->Flush().ok());
          }
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());

        // Invariant 1: every acknowledged write (and only those) readable.
        for (int i = 0; i < kKeySpace; i++) {
          std::string key = TestKey(
              static_cast<uint64_t>(i) * 2400000000000ull + 17);
          std::string value;
          Status s = db->Get(ReadOptions(), key, &value);
          auto it = model.find(key);
          if (it == model.end()) {
            EXPECT_TRUE(s.IsNotFound()) << config.name << " " << key;
          } else {
            ASSERT_TRUE(s.ok())
                << config.name << " " << key << ": " << s.ToString();
            EXPECT_EQ(it->second, value) << config.name << " " << key;
          }
        }

        // Invariant 2: iterator yields exactly the model, in order.
        std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
        auto expected = model.begin();
        for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
          ASSERT_NE(expected, model.end()) << "iterator has extra keys";
          EXPECT_EQ(expected->first, iter->key().ToString());
          EXPECT_EQ(expected->second, iter->value().ToString());
          ++expected;
        }
        EXPECT_EQ(expected, model.end()) << "iterator missed keys";
        ASSERT_TRUE(iter->status().ok());

        // Invariant 3: quiesced L0 is at (or below) the stop trigger.
        EXPECT_LT(db->NumFilesAtLevel(0), 36);
      });
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineMatrixTest,
    ::testing::Values(
        EngineConfig{.name = "dlsm"},
        EngineConfig{.format = TableFormat::kBlock,
                     .block_size = 4096,
                     .name = "dlsm_block"},
        EngineConfig{.format = TableFormat::kBlock,
                     .block_size = 256,
                     .name = "dlsm_tiny_blocks"},
        EngineConfig{.placement = CompactionPlacement::kComputeSide,
                     .name = "compute_compaction"},
        EngineConfig{.write_path = WritePath::kWriterQueue,
                     .switch_policy = MemTableSwitchPolicy::kDoubleCheckedSize,
                     .name = "writer_queue"},
        EngineConfig{.format = TableFormat::kBlock,
                     .placement = CompactionPlacement::kComputeSide,
                     .write_path = WritePath::kWriterQueue,
                     .switch_policy = MemTableSwitchPolicy::kDoubleCheckedSize,
                     .extra_io_copy = true,
                     .name = "rocksdb_port"},
        EngineConfig{.format = TableFormat::kBlock,
                     .write_path = WritePath::kWriterQueue,
                     .switch_policy = MemTableSwitchPolicy::kDoubleCheckedSize,
                     .shards = 4,
                     .extra_io_copy = true,
                     .reads_via_rpc = true,
                     .name = "nova_port"},
        EngineConfig{.shards = 4, .name = "sharded_4"},
        EngineConfig{.value_size = 1200, .name = "big_values"}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return std::string(info.param.name);
    });

struct ValueSizeParam {
  size_t value_size;
};

class ValueSizeSweepTest
    : public ::testing::TestWithParam<ValueSizeParam> {};

TEST_P(ValueSizeSweepTest, FillScanReadAtEveryValueSize) {
  size_t value_size = GetParam().value_size;
  RunDbTest(nullptr, [&](DB* db, Env*) {
    const int kN = 1200;
    for (int i = 0; i < kN; i++) {
      std::string value(value_size, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), value).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ASSERT_EQ(value_size, it->value().size());
      count++;
    }
    EXPECT_EQ(kN, count);
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), TestKey(kN / 2), &value).ok());
    EXPECT_EQ(value_size, value.size());
  });
}

INSTANTIATE_TEST_SUITE_P(ValueSizes, ValueSizeSweepTest,
                         ::testing::Values(ValueSizeParam{0},
                                           ValueSizeParam{1},
                                           ValueSizeParam{16},
                                           ValueSizeParam{400},
                                           ValueSizeParam{4096}),
                         [](const ::testing::TestParamInfo<ValueSizeParam>&
                                info) {
                           return "v" +
                                  std::to_string(info.param.value_size);
                         });

struct ThreadsParam {
  int threads;
};

class WriterSweepTest : public ::testing::TestWithParam<ThreadsParam> {};

TEST_P(WriterSweepTest, NoLostWritesAtAnyConcurrency) {
  int threads = GetParam().threads;
  RunDbTest(nullptr, [&](DB* db, Env* env) {
    const int kPerThread = 800;
    std::vector<ThreadHandle> hs;
    for (int t = 0; t < threads; t++) {
      hs.push_back(env->StartThread(0, "w", [&, t] {
        for (int i = 0; i < kPerThread; i++) {
          uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(k), TestKey(k)).ok());
          if ((i & 63) == 0) env->MaybeYield();
        }
      }));
    }
    for (ThreadHandle h : hs) env->Join(h);
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
    EXPECT_EQ(threads * kPerThread, count);
  });
}

INSTANTIATE_TEST_SUITE_P(Writers, WriterSweepTest,
                         ::testing::Values(ThreadsParam{1}, ThreadsParam{2},
                                           ThreadsParam{4}, ThreadsParam{8},
                                           ThreadsParam{16}),
                         [](const ::testing::TestParamInfo<ThreadsParam>&
                                info) {
                           return "t" + std::to_string(info.param.threads);
                         });

// GetProperty: the "dlsm.*" names answer on every engine (base
// implementation derives from GetStats/NumFilesAtLevel); DLsmDB's
// "dlsm.levels" override adds per-level byte counts.
TEST(GetPropertyTest, DlsmPropertiesReflectWorkload) {
  RunDbTest(nullptr, [&](DB* db, Env*) {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());

    std::string v;
    ASSERT_TRUE(db->GetProperty("dlsm.stats", &v));
    EXPECT_NE(std::string::npos, v.find("writes 3000"));
    EXPECT_NE(std::string::npos, v.find("flushes"));

    ASSERT_TRUE(db->GetProperty("dlsm.levels", &v));
    EXPECT_NE(std::string::npos, v.find("L0:"));
    EXPECT_NE(std::string::npos, v.find("L1:"));
    // The DLsmDB override reports byte counts, not just file counts.
    EXPECT_NE(std::string::npos, v.find("bytes"));

    ASSERT_TRUE(db->GetProperty("dlsm.rdma", &v));
    EXPECT_NE(std::string::npos, v.find("WRITE"));

    EXPECT_FALSE(db->GetProperty("dlsm.unknown", &v));
    EXPECT_FALSE(db->GetProperty("rocksdb.stats", &v));
  });
}

TEST(GetPropertyTest, ShardedEngineInheritsBaseProperties) {
  RunDbTest([](Options* options) { options->shards = 4; },
            [&](DB* db, Env*) {
              for (int i = 0; i < 2000; i++) {
                uint64_t k = static_cast<uint64_t>(i) * 2400000000000ull;
                ASSERT_TRUE(
                    db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
              }
              ASSERT_TRUE(db->Flush().ok());
              ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
              std::string v;
              // ShardedDB has no override: the base implementation merges
              // per-shard stats and sums file counts.
              ASSERT_TRUE(db->GetProperty("dlsm.stats", &v));
              EXPECT_NE(std::string::npos, v.find("writes 2000"));
              ASSERT_TRUE(db->GetProperty("dlsm.levels", &v));
              EXPECT_NE(std::string::npos, v.find("L0:"));
              ASSERT_TRUE(db->GetProperty("dlsm.rdma", &v));
              EXPECT_FALSE(db->GetProperty("nope", &v));
            });
}

}  // namespace
}  // namespace dlsm

// Tests for the baseline systems: the Sherman-style B+-tree and the
// RocksDB-RDMA / Nova-LSM engine presets.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>

#include "src/baselines/presets.h"
#include "src/baselines/sherman.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace baselines {
namespace {

using test::TestKey;
using test::TestValue;

void RunShermanTest(const std::function<void(DB*, Env*)>& body,
                    size_t leaf_size = 1024) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 2ull << 30);
  env.Run(0, [&] {
    ShermanOptions options;
    options.env = &env;
    options.leaf_size = leaf_size;
    options.leaf_region_size = 512ull << 20;
    DB* raw = nullptr;
    ASSERT_TRUE(
        ShermanDB::Open(options, &fabric, compute, memory, &raw).ok());
    std::unique_ptr<DB> db(raw);
    body(db.get(), &env);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(ShermanTest, PutGetRoundTrip) {
  RunShermanTest([](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "alpha", "1").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "beta", "2").ok());
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "alpha", &value).ok());
    EXPECT_EQ("1", value);
    EXPECT_TRUE(db->Get(ReadOptions(), "gamma", &value).IsNotFound());
  });
}

TEST(ShermanTest, OverwriteAndDelete) {
  RunShermanTest([](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v1").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v2").ok());
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
    EXPECT_EQ("v2", value);
    ASSERT_TRUE(db->Delete(WriteOptions(), "k").ok());
    EXPECT_TRUE(db->Get(ReadOptions(), "k", &value).IsNotFound());
  });
}

TEST(ShermanTest, SplitsPreserveAllKeys) {
  RunShermanTest([](DB* db, Env*) {
    // 64-byte values in 1 KB leaves: plenty of splits.
    const int kN = 2000;
    for (int i = 0; i < kN; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i * 7 % kN),
                          TestValue(i))
                      .ok());
    }
    auto* sherman = static_cast<ShermanDB*>(db);
    EXPECT_GT(sherman->num_leaves(), 10u);
    for (int i = 0; i < kN; i++) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok())
          << "lost key " << i;
    }
  });
}

TEST(ShermanTest, MatchesReferenceModel) {
  RunShermanTest([](DB* db, Env*) {
    std::map<std::string, std::string> model;
    Random rnd(17);
    for (int op = 0; op < 4000; op++) {
      std::string key = TestKey(rnd.Uniform(300));
      if (rnd.OneIn(4)) {
        model.erase(key);
        ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      } else {
        std::string value = TestValue(rnd.Next() % 10000);
        model[key] = value;
        ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      }
    }
    for (int i = 0; i < 300; i++) {
      std::string key = TestKey(i), value;
      Status s = db->Get(ReadOptions(), key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key;
        EXPECT_EQ(it->second, value);
      }
    }
  });
}

TEST(ShermanTest, IteratorScansLeavesInOrder) {
  RunShermanTest([](DB* db, Env*) {
    const int kN = 800;
    for (int i = kN - 1; i >= 0; i--) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ASSERT_EQ(TestKey(count), it->key().ToString());
      count++;
    }
    EXPECT_EQ(kN, count);

    it->Seek(TestKey(399));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(399), it->key().ToString());
  });
}

TEST(ShermanTest, ConcurrentWritersWithLeafLocks) {
  RunShermanTest([](DB* db, Env* env) {
    constexpr int kThreads = 6;
    constexpr int kPerThread = 250;
    std::atomic<int> failures{0};
    std::vector<ThreadHandle> hs;
    for (int t = 0; t < kThreads; t++) {
      hs.push_back(env->StartThread(0, "writer", [&, t] {
        for (int i = 0; i < kPerThread; i++) {
          uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
          if (!db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok()) {
            failures++;
          }
        }
      }));
    }
    for (ThreadHandle h : hs) env->Join(h);
    ASSERT_EQ(0, failures.load());
    for (int t = 0; t < kThreads; t++) {
      for (int i = 0; i < kPerThread; i += 7) {
        uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
        std::string value;
        ASSERT_TRUE(db->Get(ReadOptions(), TestKey(k), &value).ok())
            << "lost " << k;
        EXPECT_EQ(TestValue(k), value);
      }
    }
  });
}

TEST(ShermanTest, RejectsOversizedEntries) {
  RunShermanTest([](DB* db, Env*) {
    std::string huge(2000, 'x');
    EXPECT_TRUE(
        db->Put(WriteOptions(), "k", huge).IsInvalidArgument());
  });
}

// --- Engine presets ----------------------------------------------------------

void CheckEngineCorrect(const Options& tuned) {
  test::RunDbTest(
      [&](Options* options) {
        Env* env = options->env;
        Options base = *options;
        *options = tuned;
        options->env = env;
        // Keep the scaled-down test sizes.
        options->memtable_size = base.memtable_size;
        options->estimated_entry_size = base.estimated_entry_size;
        options->sstable_size = base.sstable_size;
        options->max_immutables = base.max_immutables;
        options->flush_threads = base.flush_threads;
        options->compaction_scheduler_threads =
            base.compaction_scheduler_threads;
        options->flush_region_size = base.flush_region_size;
        options->flush_buffer_size = base.flush_buffer_size;
        options->scan_prefetch_size = base.scan_prefetch_size;
        if (options->shards > 8) options->shards = 4;  // Test scale.
      },
      [&](DB* db, Env*) {
        ReadOptions ro;
        const int kN = 2500;
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        for (int i = 0; i < kN; i += 13) {
          std::string value;
          ASSERT_TRUE(db->Get(ro, TestKey(i), &value).ok()) << "key " << i;
          EXPECT_EQ(TestValue(i), value);
        }
        std::unique_ptr<Iterator> it(db->NewIterator(ro));
        int count = 0;
        for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
        EXPECT_EQ(kN, count);
      });
}

TEST(BaselinePresetsTest, RocksDbRdma8K) {
  CheckEngineCorrect(RocksDbRdmaOptions(nullptr, 8192));
}

TEST(BaselinePresetsTest, RocksDbRdma2K) {
  CheckEngineCorrect(RocksDbRdmaOptions(nullptr, 2048));
}

TEST(BaselinePresetsTest, MemoryRocksDbRdma) {
  CheckEngineCorrect(MemoryRocksDbRdmaOptions(nullptr, 128));
}

TEST(BaselinePresetsTest, NovaLsm) {
  CheckEngineCorrect(NovaLsmOptions(nullptr, 4));
}

TEST(BaselinePresetsTest, WriterQueueHandlesConcurrency) {
  test::RunDbTest(
      [](Options* options) {
        options->write_path = WritePath::kWriterQueue;
        options->switch_policy = MemTableSwitchPolicy::kDoubleCheckedSize;
      },
      [](DB* db, Env* env) {
        constexpr int kThreads = 8;
        constexpr int kPerThread = 400;
        std::vector<ThreadHandle> hs;
        for (int t = 0; t < kThreads; t++) {
          hs.push_back(env->StartThread(0, "writer", [&, t] {
            for (int i = 0; i < kPerThread; i++) {
              uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
              ASSERT_TRUE(
                  db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
            }
          }));
        }
        for (ThreadHandle h : hs) env->Join(h);
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        for (int t = 0; t < kThreads; t++) {
          for (int i = 0; i < kPerThread; i += 29) {
            uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
            std::string value;
            ASSERT_TRUE(db->Get(ReadOptions(), TestKey(k), &value).ok());
          }
        }
      });
}

}  // namespace
}  // namespace baselines
}  // namespace dlsm

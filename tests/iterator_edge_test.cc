// Edge-case tests: DBIter boundary behavior, merging-iterator direction
// switches, empty structures, snapshot-bounded iteration, write batches at
// the MemTable switch boundary, and SimEnv determinism properties.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/merger.h"
#include "src/sim/sim_env.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace {

using test::RunDbTest;
using test::TestKey;

TEST(IteratorEdgeTest, EmptyDatabase) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    it->SeekToFirst();
    EXPECT_FALSE(it->Valid());
    it->SeekToLast();
    EXPECT_FALSE(it->Valid());
    it->Seek("anything");
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().ok());
  });
}

TEST(IteratorEdgeTest, SingleKeyAllDirections) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "only", "value").ok());
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));

    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("only", it->key().ToString());
    it->Next();
    EXPECT_FALSE(it->Valid());

    it->SeekToLast();
    ASSERT_TRUE(it->Valid());
    it->Prev();
    EXPECT_FALSE(it->Valid());

    it->Seek("zzz");
    EXPECT_FALSE(it->Valid());
    it->Seek("a");
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ("only", it->key().ToString());
  });
}

TEST(IteratorEdgeTest, DirectionSwitchesAcrossLevels) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    // Data spread over memtable + SSTables.
    for (int i = 0; i < 800; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i * 2), "v").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    for (int i = 800; i < 1000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i * 2), "v").ok());
    }

    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    it->Seek(TestKey(1000));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(1000), it->key().ToString());
    // Forward, backward, forward again across the same point.
    it->Next();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(1002), it->key().ToString());
    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(1000), it->key().ToString());
    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(998), it->key().ToString());
    it->Next();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(1000), it->key().ToString());
  });
}

TEST(IteratorEdgeTest, PrevThroughDeletions) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), "v").ok());
    }
    // Delete a run in the middle.
    for (int i = 40; i < 60; i++) {
      ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
    }
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    it->Seek(TestKey(60));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(60), it->key().ToString());
    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(39), it->key().ToString()) << "must skip the tombstones";
  });
}

TEST(IteratorEdgeTest, SnapshotBoundedIteration) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), "old").ok());
    }
    const Snapshot* snap = db->GetSnapshot();
    for (int i = 25; i < 75; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), "new").ok());
    }
    ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(10)).ok());

    ReadOptions at_snap;
    at_snap.snapshot_sequence = snap->sequence();
    std::unique_ptr<Iterator> it(db->NewIterator(at_snap));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      EXPECT_EQ("old", it->value().ToString()) << it->key().ToString();
      count++;
    }
    EXPECT_EQ(50, count) << "snapshot sees exactly the first 50 keys";
    db->ReleaseSnapshot(snap);
  });
}

TEST(IteratorEdgeTest, OverwritesCollapseToNewestInScan) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    for (int round = 0; round < 5; round++) {
      for (int i = 0; i < 200; i++) {
        ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i),
                            "r" + std::to_string(round))
                        .ok());
      }
      if (round == 2) ASSERT_TRUE(db->Flush().ok());
    }
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      EXPECT_EQ("r4", it->value().ToString());
      count++;
    }
    EXPECT_EQ(200, count);
  });
}

TEST(MergerEdgeTest, EmptyAndSingleChildren) {
  InternalKeyComparator icmp;
  Iterator* none = NewMergingIterator(&icmp, nullptr, 0);
  none->SeekToFirst();
  EXPECT_FALSE(none->Valid());
  delete none;

  Iterator* empties[2] = {NewEmptyIterator(), NewEmptyIterator()};
  Iterator* merged = NewMergingIterator(&icmp, empties, 2);
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
  merged->Seek("x");
  EXPECT_FALSE(merged->Valid());
  delete merged;
}

TEST(WriteBatchEdgeTest, BatchSpanningMemTableSwitch) {
  // A batch larger than the remaining sequence range must commit whole.
  RunDbTest(
      [](Options* options) {
        options->memtable_seq_range = 64;  // Tiny ranges: many switches.
      },
      [](DB* db, Env*) {
        WriteBatch batch;
        for (int i = 0; i < 300; i++) {
          batch.Put(TestKey(i), "batched");
        }
        ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
        for (int i = 0; i < 300; i += 17) {
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok());
          EXPECT_EQ("batched", value);
        }
      });
}

TEST(WriteBatchEdgeTest, EmptyBatchIsANoop) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    WriteBatch batch;
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    EXPECT_EQ(0u, db->GetStats().writes);
  });
}

TEST(TinySeqRangeTest, ManySwitchesStayCorrect) {
  RunDbTest(
      [](Options* options) {
        options->memtable_seq_range = 32;  // A switch every 32 writes.
        options->max_immutables = 2;       // Heavy backpressure.
      },
      [](DB* db, Env* env) {
        constexpr int kThreads = 4;
        std::vector<ThreadHandle> hs;
        for (int t = 0; t < kThreads; t++) {
          hs.push_back(env->StartThread(0, "w", [&, t] {
            for (int i = 0; i < 500; i++) {
              uint64_t k = static_cast<uint64_t>(t) * 500 + i;
              ASSERT_TRUE(
                  db->Put(WriteOptions(), TestKey(k), TestKey(k)).ok());
            }
          }));
        }
        for (ThreadHandle h : hs) env->Join(h);
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        int count = 0;
        for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
        EXPECT_EQ(kThreads * 500, count);
        EXPECT_GT(db->GetStats().flushes, 10u);
      });
}

// --- SimEnv determinism / accounting properties ------------------------------

TEST(SimEnvPropertyTest, VirtualTimeIsLoadIndependentForSleeps) {
  // Ten threads sleeping 1 virtual ms each, concurrently, finish at ~1 ms,
  // not 10 ms: sleeping consumes no simulated CPU.
  SimEnv env;
  uint64_t elapsed = 0;
  env.Run(0, [&] {
    Barrier b0(&env, 11), b1(&env, 11);
    std::vector<ThreadHandle> hs;
    for (int i = 0; i < 10; i++) {
      hs.push_back(env.StartThread(0, "sleeper", [&] {
        b0.Arrive();
        env.SleepNanos(1'000'000);
        b1.Arrive();
      }));
    }
    b0.Arrive();
    uint64_t t0 = env.NowNanos();
    b1.Arrive();
    elapsed = env.NowNanos() - t0;
    for (ThreadHandle h : hs) env.Join(h);
  });
  EXPECT_GE(elapsed, 1'000'000u);
  EXPECT_LT(elapsed, 3'000'000u);
}

TEST(SimEnvPropertyTest, CoreSweepScalesThroughputMonotonically) {
  // A fixed CPU-bound workload on a node with k cores must take
  // monotonically less virtual time as k grows (up to the thread count).
  auto run = [&](int cores) {
    SimEnv env;
    int node = env.RegisterNode("n", cores);
    uint64_t elapsed = 0;
    env.Run(0, [&] {
      constexpr int kThreads = 8;
      Barrier b0(&env, kThreads + 1), b1(&env, kThreads + 1);
      std::vector<ThreadHandle> hs;
      for (int t = 0; t < kThreads; t++) {
        hs.push_back(env.StartThread(node, "w", [&] {
          b0.Arrive();
          volatile uint64_t sink = 0;
          for (int r = 0; r < 40; r++) {
            for (int i = 0; i < 50000; i++) sink += i;
            env.MaybeYield();
          }
          b1.Arrive();
        }));
      }
      b0.Arrive();
      uint64_t t0 = env.NowNanos();
      b1.Arrive();
      elapsed = env.NowNanos() - t0;
      for (ThreadHandle h : hs) env.Join(h);
    });
    return elapsed;
  };
  uint64_t c1 = run(1), c4 = run(4), c8 = run(8);
  EXPECT_GT(c1, c4);
  EXPECT_GT(c4, c8 * 3 / 2);
}

TEST(SimEnvPropertyTest, CausalityThroughProducerConsumerChain) {
  // A chain of handoffs must accumulate every link's virtual delay.
  SimEnv env;
  env.Run(0, [&] {
    Mutex mu(&env);
    CondVar cv(&env, &mu);
    int stage = 0;
    constexpr int kStages = 5;
    std::vector<ThreadHandle> hs;
    for (int s = 0; s < kStages; s++) {
      hs.push_back(env.StartThread(0, "stage", [&, s] {
        MutexLock l(&mu);
        while (stage != s) cv.Wait();
        env.SleepNanos(1'000'000);  // 1 ms of work per stage.
        stage++;
        cv.SignalAll();
      }));
    }
    {
      MutexLock l(&mu);
      while (stage != kStages) cv.Wait();
    }
    for (ThreadHandle h : hs) env.Join(h);
    EXPECT_GE(env.NowNanos(), kStages * 1'000'000u);
  });
}

}  // namespace
}  // namespace dlsm

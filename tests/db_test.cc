// End-to-end tests of the dLSM engine over the simulated deployment:
// write/read paths, flush, near-data compaction, snapshots, iterators,
// stalls, sharding, and the ablation configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/util/random.h"
#include "tests/alloc_counter.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace {

using test::RunDbTest;
using test::TestKey;
using test::TestValue;

TEST(DBTest, PutGetRoundTrip) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "foo", "bar").ok());
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "foo", &value).ok());
    EXPECT_EQ("bar", value);
    EXPECT_TRUE(db->Get(ReadOptions(), "missing", &value).IsNotFound());
  });
}

TEST(DBTest, OverwriteReturnsNewest) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v1").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v2").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v3").ok());
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
    EXPECT_EQ("v3", value);
  });
}

TEST(DBTest, DeleteHidesKey) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
    ASSERT_TRUE(db->Delete(WriteOptions(), "k").ok());
    std::string value;
    EXPECT_TRUE(db->Get(ReadOptions(), "k", &value).IsNotFound());
    // Re-insert after delete.
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v2").ok());
    ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
    EXPECT_EQ("v2", value);
  });
}

TEST(DBTest, WriteBatchIsAtomicallyVisible) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    WriteBatch batch;
    batch.Put("a", "1");
    batch.Put("b", "2");
    batch.Delete("a");
    batch.Put("c", "3");
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    std::string value;
    EXPECT_TRUE(db->Get(ReadOptions(), "a", &value).IsNotFound());
    ASSERT_TRUE(db->Get(ReadOptions(), "b", &value).ok());
    EXPECT_EQ("2", value);
    ASSERT_TRUE(db->Get(ReadOptions(), "c", &value).ok());
    EXPECT_EQ("3", value);
  });
}

TEST(DBTest, ReadsSpanMemTableFlushAndCompaction) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    // Enough data to force several flushes and at least one compaction.
    const int kN = 4000;
    for (int i = 0; i < kN; i++) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    EXPECT_GT(db->GetStats().flushes, 0u);

    for (int i = 0; i < kN; i += 7) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok())
          << "missing key " << i;
      EXPECT_EQ(TestValue(i), value);
    }
  });
}

TEST(DBTest, OverwritesSurviveCompaction) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    const int kN = 1500;
    for (int round = 0; round < 3; round++) {
      for (int i = 0; i < kN; i++) {
        ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i),
                            TestValue(i * 10 + round))
                        .ok());
      }
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int i = 0; i < kN; i += 11) {
      std::string value;
      ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok());
      EXPECT_EQ(TestValue(i * 10 + 2), value) << "key " << i;
    }
  });
}

TEST(DBTest, DeletesSurviveCompaction) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    const int kN = 2000;
    for (int i = 0; i < kN; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    for (int i = 0; i < kN; i += 2) {
      ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int i = 0; i < kN; i += 97) {
      std::string value;
      Status s = db->Get(ReadOptions(), TestKey(i), &value);
      if (i % 2 == 0) {
        EXPECT_TRUE(s.IsNotFound()) << "key " << i;
      } else {
        ASSERT_TRUE(s.ok()) << "key " << i;
        EXPECT_EQ(TestValue(i), value);
      }
    }
  });
}

TEST(DBTest, MatchesReferenceModelUnderRandomWorkload) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    std::map<std::string, std::string> model;
    Random rnd(301);
    for (int op = 0; op < 8000; op++) {
      std::string key = TestKey(rnd.Uniform(500));
      if (rnd.OneIn(4)) {
        model.erase(key);
        ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      } else {
        std::string value = TestValue(rnd.Next() % 100000);
        model[key] = value;
        ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      }
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int i = 0; i < 500; i++) {
      std::string key = TestKey(i);
      std::string value;
      Status s = db->Get(ReadOptions(), key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        EXPECT_EQ(it->second, value) << key;
      }
    }
  });
}

TEST(DBTest, IteratorScansInOrder) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    const int kN = 3000;
    for (int i = kN - 1; i >= 0; i--) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());

    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ASSERT_EQ(TestKey(count), it->key().ToString());
      ASSERT_EQ(TestValue(count), it->value().ToString());
      count++;
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(kN, count);
  });
}

TEST(DBTest, IteratorSeekAndPrev) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i * 2), TestValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));

    it->Seek(TestKey(100));  // Exact hit.
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(100), it->key().ToString());

    it->Seek(TestKey(101));  // Between keys: lands on 102.
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(102), it->key().ToString());

    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(100), it->key().ToString());

    it->SeekToLast();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(TestKey(1998), it->key().ToString());
  });
}

TEST(DBTest, IteratorHidesDeletions) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    for (int i = 0; i < 100; i += 3) {
      ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
    }
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      uint64_t n = std::stoull(it->key().ToString());
      EXPECT_NE(0u, n % 3) << "deleted key visible: " << n;
    }
  });
}

TEST(DBTest, SnapshotReadsSeeFrozenState) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "old").ok());
    const Snapshot* snap = db->GetSnapshot();
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "new").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "k2", "only-new").ok());

    ReadOptions at_snap;
    at_snap.snapshot_sequence = snap->sequence();
    std::string value;
    ASSERT_TRUE(db->Get(at_snap, "k", &value).ok());
    EXPECT_EQ("old", value);
    EXPECT_TRUE(db->Get(at_snap, "k2", &value).IsNotFound());

    ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
    EXPECT_EQ("new", value);
    db->ReleaseSnapshot(snap);
  });
}

TEST(DBTest, SnapshotSurvivesFlushAndCompaction) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    ASSERT_TRUE(db->Put(WriteOptions(), TestKey(42), "before").ok());
    const Snapshot* snap = db->GetSnapshot();
    for (int round = 0; round < 4; round++) {
      for (int i = 0; i < 1200; i++) {
        ASSERT_TRUE(
            db->Put(WriteOptions(), TestKey(i), TestValue(round)).ok());
      }
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());

    ReadOptions at_snap;
    at_snap.snapshot_sequence = snap->sequence();
    std::string value;
    ASSERT_TRUE(db->Get(at_snap, TestKey(42), &value).ok());
    EXPECT_EQ("before", value);
    db->ReleaseSnapshot(snap);
  });
}

TEST(DBTest, ConcurrentWritersAllLand) {
  RunDbTest(nullptr, [](DB* db, Env* env) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 600;
    std::atomic<int> failures{0};
    std::vector<ThreadHandle> hs;
    for (int t = 0; t < kThreads; t++) {
      hs.push_back(env->StartThread(0, "writer", [&, t] {
        for (int i = 0; i < kPerThread; i++) {
          uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
          if (!db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok()) {
            failures++;
          }
          if (i % 64 == 0) env->MaybeYield();
        }
      }));
    }
    for (ThreadHandle h : hs) env->Join(h);
    ASSERT_EQ(0, failures.load());

    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int t = 0; t < kThreads; t++) {
      for (int i = 0; i < kPerThread; i += 13) {
        uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
        std::string value;
        ASSERT_TRUE(db->Get(ReadOptions(), TestKey(k), &value).ok())
            << "lost write " << k;
        EXPECT_EQ(TestValue(k), value);
      }
    }
  });
}

TEST(DBTest, ConcurrentWritersOnSameKeyKeepNewestVisible) {
  // The Sec. IV correctness property: with racing writers on one key, a
  // reader must never see an older version than the newest committed one.
  RunDbTest(nullptr, [](DB* db, Env* env) {
    constexpr int kThreads = 4;
    constexpr int kRounds = 400;
    std::vector<ThreadHandle> hs;
    for (int t = 0; t < kThreads; t++) {
      hs.push_back(env->StartThread(0, "writer", [&, t] {
        for (int i = 0; i < kRounds; i++) {
          ASSERT_TRUE(db->Put(WriteOptions(), "hot-key",
                              TestValue(t * 1000 + i))
                          .ok());
          if (i % 32 == 0) env->MaybeYield();
        }
      }));
    }
    for (ThreadHandle h : hs) env->Join(h);
    // All writers done: the visible value must be SOME complete write, and
    // repeated reads must agree (no older-version flicker).
    std::string v1, v2;
    ASSERT_TRUE(db->Get(ReadOptions(), "hot-key", &v1).ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    ASSERT_TRUE(db->Get(ReadOptions(), "hot-key", &v2).ok());
    EXPECT_EQ(v1, v2) << "version went backwards across flush";
  });
}

TEST(DBTest, StallEngagesAtL0StopTrigger) {
  RunDbTest(
      [](Options* options) {
        options->l0_compaction_trigger = 2;
        options->l0_stop_writes_trigger = 4;
        options->memtable_size = 16 << 10;
      },
      [](DB* db, Env*) {
        for (int i = 0; i < 6000; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        // The trigger must have been respected after quiescing.
        EXPECT_LT(db->NumFilesAtLevel(0), 5);
        std::string value;
        ASSERT_TRUE(db->Get(ReadOptions(), TestKey(5999), &value).ok());
      });
}

TEST(DBTest, BloomFiltersSkipRemoteReads) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    // Write only even keys so odd keys are absent but inside every
    // table's key range (outside-range keys are pruned by the metadata
    // before the bloom filter is ever consulted).
    for (int i = 0; i < 3000; i += 2) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    std::string value;
    for (int i = 1; i < 1000; i += 2) {
      EXPECT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).IsNotFound());
    }
    EXPECT_GT(db->GetStats().bloom_useful, 0u);
  });
}

TEST(DBTest, ShardedDbRoutesAndReads) {
  RunDbTest(
      [](Options* options) { options->shards = 8; },
      [](DB* db, Env*) {
        const int kN = 4000;
        Random rnd(7);
        for (int i = 0; i < kN; i++) {
          uint64_t k = rnd.Next64() % 1000000000000000ull;
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(k), TestValue(k % 1000)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        Random rnd2(7);
        for (int i = 0; i < kN; i += 17) {
          // Reproduce the same key stream.
          uint64_t k = 0;
          Random r(7);
          for (int j = 0; j <= i; j++) k = r.Next64() % 1000000000000000ull;
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(k), &value).ok())
              << "key " << k;
          EXPECT_EQ(TestValue(k % 1000), value);
        }
        (void)rnd2;
      });
}

TEST(DBTest, ShardedIteratorSpansShards) {
  RunDbTest(
      [](Options* options) { options->shards = 4; },
      [](DB* db, Env*) {
        const int kN = 1000;
        for (int i = 0; i < kN; i++) {
          // Spread keys over the whole decimal space so shards all get data.
          uint64_t k = static_cast<uint64_t>(i) * 9000000000000ull;
          ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), TestValue(i)).ok());
        }
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        int count = 0;
        std::string prev;
        for (it->SeekToFirst(); it->Valid(); it->Next()) {
          std::string k = it->key().ToString();
          ASSERT_LT(prev, k);
          prev = k;
          count++;
        }
        EXPECT_EQ(kN, count);
      });
}

// --- Ablation configurations ------------------------------------------------

TEST(DBTest, BlockFormatModeIsCorrect) {
  RunDbTest(
      [](Options* options) {
        options->table_format = TableFormat::kBlock;
        options->block_size = 4096;
      },
      [](DB* db, Env*) {
        const int kN = 3000;
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        for (int i = 0; i < kN; i += 23) {
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok())
              << "key " << i;
          EXPECT_EQ(TestValue(i), value);
        }
        // Scans unwrap blocks.
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        int count = 0;
        for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
        EXPECT_EQ(kN, count);
      });
}

TEST(DBTest, ComputeSideCompactionIsCorrect) {
  RunDbTest(
      [](Options* options) {
        options->compaction_placement = CompactionPlacement::kComputeSide;
      },
      [](DB* db, Env*) {
        const int kN = 3000;
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i + 1)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        EXPECT_GT(db->GetStats().compactions, 0u);
        for (int i = 0; i < kN; i += 31) {
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok());
          EXPECT_EQ(TestValue(i + 1), value);
        }
      });
}

TEST(DBTest, DoubleCheckedSwitchPolicyIsFunctional) {
  RunDbTest(
      [](Options* options) {
        options->switch_policy = MemTableSwitchPolicy::kDoubleCheckedSize;
      },
      [](DB* db, Env*) {
        const int kN = 3000;
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        for (int i = 0; i < kN; i += 19) {
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok());
          EXPECT_EQ(TestValue(i), value);
        }
      });
}

// Under the size switch every MemTable's sequence base is 0, so L0 age
// cannot come from it. A full 1 MiB table and a newer, half-full one flush
// at once; their WRITEs share the link, so the smaller one finishes first.
// Its L0 file must still be probed first. cpu_scale 0 makes the finishing
// order the same on every run.
TEST(DBTest, DoubleCheckedSwitchProbesNewestL0First) {
  SimEnv::Options sim_options;
  sim_options.cpu_scale = 0;
  SimEnv env(sim_options);
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();
    Options options = test::SmallOptions(&env);
    options.switch_policy = MemTableSwitchPolicy::kDoubleCheckedSize;
    options.memtable_size = 1 << 20;
    options.sstable_size = 4 << 20;      // One L0 file per MemTable.
    options.l0_compaction_trigger = 64;  // No compaction merges L0.
    options.l0_stop_writes_trigger = 128;
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
    std::unique_ptr<DB> db(raw);
    // 4 KiB values: the MemTable switches after ~256 of the 384, so the
    // table holding "old" is full and the one holding "new" about half so.
    const std::string filler(4 << 10, 'f');
    ASSERT_TRUE(db->Put(WriteOptions(), "key", "old").ok());
    for (int i = 0; i < 384; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), filler).ok());
    }
    ASSERT_TRUE(db->Put(WriteOptions(), "key", "new").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_EQ(2, db->NumFilesAtLevel(0));
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), "key", &value).ok());
    EXPECT_EQ("new", value);
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
}

TEST(DBTest, StatsAreAccounted) {
  RunDbTest(nullptr, [](DB* db, Env*) {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), TestKey(1), &value).ok());
    DbStats s = db->GetStats();
    EXPECT_EQ(3000u, s.writes);
    EXPECT_GE(s.reads, 1u);
    EXPECT_GT(s.flushes, 0u);
    EXPECT_GT(s.compactions, 0u);
    EXPECT_GT(s.compaction_input_bytes, 0u);
    EXPECT_GT(s.compaction_output_bytes, 0u);
  });
}

// --- MultiGet ---------------------------------------------------------------

// Remote reads issued so far: one-sided READ verbs on the engine's
// connections, and verbs the memory node posted to serve RPCs (read RPCs
// on baselines that read via RPC).
struct WireReads {
  uint64_t read_verbs = 0;
  uint64_t rpc_verbs = 0;
};

WireReads CountWireReads(DB* db, MemoryNodeService* service) {
  return WireReads{db->GetStats().rdma.read.ops,
                   service->reply_verb_stats().posted};
}

// Runs both MultiGet and per-key Get at the same pinned snapshot and
// demands byte-identical answers: same status code per key, same value
// bytes for found keys. Callers that run no background work (and no
// cache, whose fills would let the second pass skip reads) pass the
// memory-node service: Get and MultiGet are one read engine, so the batch
// must also cost exactly the remote reads of its serial Gets.
void ExpectMultiGetMatchesSerial(DB* db, const ReadOptions& options,
                                 const std::vector<std::string>& keys,
                                 MemoryNodeService* quiet_service = nullptr) {
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  WireReads before;
  if (quiet_service != nullptr) before = CountWireReads(db, quiet_service);
  db->MultiGet(options, slices, &values, &statuses);
  WireReads batched;
  if (quiet_service != nullptr) batched = CountWireReads(db, quiet_service);
  ASSERT_EQ(keys.size(), values.size());
  ASSERT_EQ(keys.size(), statuses.size());
  for (size_t i = 0; i < keys.size(); i++) {
    std::string serial_value;
    Status serial = db->Get(options, keys[i], &serial_value);
    EXPECT_EQ(serial.ok(), statuses[i].ok()) << "key " << keys[i];
    EXPECT_EQ(serial.IsNotFound(), statuses[i].IsNotFound())
        << "key " << keys[i];
    if (serial.ok()) {
      EXPECT_EQ(serial_value, values[i]) << "key " << keys[i];
    }
  }
  if (quiet_service != nullptr) {
    WireReads serial = CountWireReads(db, quiet_service);
    EXPECT_EQ(batched.read_verbs - before.read_verbs,
              serial.read_verbs - batched.read_verbs)
        << "MultiGet and serial Gets posted different READ counts";
    EXPECT_EQ(batched.rpc_verbs - before.rpc_verbs,
              serial.rpc_verbs - batched.rpc_verbs)
        << "MultiGet and serial Gets issued different RPC counts";
  }
}

TEST(DBTest, MultiGetMatchesSerialGetsUnderConcurrentWriters) {
  RunDbTest(nullptr, [](DB* db, Env* env, MemoryNodeService* service) {
    const int kKeys = 2000;
    // Seed every key, then delete a stripe so tombstones are in play.
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    for (int i = 0; i < kKeys; i += 5) {
      ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
    }

    std::atomic<bool> stop{false};
    std::vector<ThreadHandle> hs;
    for (int t = 0; t < 3; t++) {
      hs.push_back(env->StartThread(0, "writer", [&, t] {
        Random rnd(100 + t);
        for (int i = 0; !stop.load() && i < 4000; i++) {
          uint64_t k = rnd.Next64() % kKeys;
          if (i % 7 == 0) {
            ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(k)).ok());
          } else {
            ASSERT_TRUE(
                db->Put(WriteOptions(), TestKey(k), TestValue(i)).ok());
          }
          if (i % 64 == 0) env->MaybeYield();
        }
      }));
    }

    // Compare under the writers at a pinned snapshot: the batch includes
    // present keys, deleted keys and keys that never existed.
    Random rnd(42);
    for (int round = 0; round < 10; round++) {
      std::vector<std::string> keys;
      for (int i = 0; i < 32; i++) {
        keys.push_back(TestKey(rnd.Next64() % (kKeys + 200)));
      }
      const Snapshot* snap = db->GetSnapshot();
      ReadOptions at_snap;
      at_snap.snapshot_sequence = snap->sequence();
      ExpectMultiGetMatchesSerial(db, at_snap, keys);
      db->ReleaseSnapshot(snap);
      env->MaybeYield();
    }
    stop.store(true);
    for (ThreadHandle h : hs) env->Join(h);

    // And once more over SSTables after flush + compaction settle.
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    std::vector<std::string> keys;
    for (int i = 0; i < kKeys + 100; i += 13) keys.push_back(TestKey(i));
    ExpectMultiGetMatchesSerial(db, ReadOptions(), keys, service);
  });
}

TEST(DBTest, MultiGetWithL0BacklogNewestWins) {
  // Many overlapping L0 files and no compaction to merge them: every key
  // may-match several files, so lookups must resolve newest-first. Block
  // format keeps the probes non-definitive, which drives the real
  // multi-read doorbell waves.
  RunDbTest(
      [](Options* options) {
        options->table_format = TableFormat::kBlock;
        options->block_size = 1024;
        options->memtable_size = 16 << 10;
        options->l0_compaction_trigger = 64;  // Never compacts in-test.
        options->l0_stop_writes_trigger = 128;
      },
      [](DB* db, Env*, MemoryNodeService* service) {
        const int kKeys = 300;
        for (int round = 0; round < 6; round++) {
          for (int i = 0; i < kKeys; i++) {
            if (round == 4 && i % 3 == 0) {
              ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
            } else {
              ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i),
                                  TestValue(round * 10000 + i))
                              .ok());
            }
          }
          ASSERT_TRUE(db->Flush().ok());
        }
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        ASSERT_GT(db->NumFilesAtLevel(0), 1) << "backlog did not form";

        std::vector<std::string> keys;
        for (int i = 0; i < kKeys + 50; i++) keys.push_back(TestKey(i));
        ExpectMultiGetMatchesSerial(db, ReadOptions(), keys, service);

        // Newest-wins spot check against the known write history.
        std::vector<Slice> slices(keys.begin(), keys.end());
        std::vector<std::string> values;
        std::vector<Status> statuses;
        db->MultiGet(ReadOptions(), slices, &values, &statuses);
        for (int i = 0; i < kKeys; i++) {
          // Every key was rewritten in the final round — including the
          // stripe deleted in round 4, whose tombstone an older-file-first
          // lookup would wrongly surface.
          ASSERT_TRUE(statuses[i].ok()) << "key " << i;
          EXPECT_EQ(TestValue(50000 + i), values[i]);
        }
        for (int i = kKeys; i < kKeys + 50; i++) {
          EXPECT_TRUE(statuses[i].IsNotFound()) << "key " << i;
        }
      });
}

TEST(DBTest, MultiGetSerialFallbackMatches) {
  // async_reads=false must take the sync transport and still agree.
  RunDbTest(nullptr, [](DB* db, Env*, MemoryNodeService* service) {
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    for (int i = 0; i < 1500; i += 4) {
      ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    ReadOptions no_async;
    no_async.async_reads = false;
    std::vector<std::string> keys;
    for (int i = 0; i < 1600; i += 9) keys.push_back(TestKey(i));
    ExpectMultiGetMatchesSerial(db, no_async, keys, service);
  });
}

TEST(DBTest, MultiGetAcrossShards) {
  RunDbTest(
      [](Options* options) { options->shards = 8; },
      [](DB* db, Env*, MemoryNodeService* service) {
        const int kN = 2000;
        const uint64_t kStride = 4500000000000ull;  // Spans all shards.
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i * kStride),
                              TestValue(i))
                          .ok());
        }
        for (int i = 0; i < kN; i += 6) {
          ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i * kStride)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        // Batch in shard-interleaved order so the scatter/gather really
        // reorders; include absent keys.
        std::vector<std::string> keys;
        for (int i = kN + 40; i >= 0; i -= 3) {
          keys.push_back(TestKey(i * kStride));
        }
        ExpectMultiGetMatchesSerial(db, ReadOptions(), keys, service);
      });
}

TEST(DBTest, MultiGetStdEnvMatchesSerialGets) {
  // The batched read path must also work in real time (StdEnv), where
  // completions arrive via condition variables instead of virtual time.
  test::RunStdDbTest(nullptr, [](DB* db, Env*, MemoryNodeService* service) {
    for (int i = 0; i < 1200; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
    }
    for (int i = 0; i < 1200; i += 3) {
      ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(i)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 1300; i += 7) keys.push_back(TestKey(i));
    ExpectMultiGetMatchesSerial(db, ReadOptions(), keys, service);
  });
}

// --- Async/sync read-path equivalence ---------------------------------------

// The async_reads toggle may only change how bytes move (doorbell-batched
// handle waves vs one synchronous verb at a time) — never which bytes come
// back. This sweep replays a seeded randomized workload against an
// in-memory reference model and demands byte-identical answers from Get,
// MultiGet, and scans, across both environments, both read modes, and the
// dLSM and baseline read paths.

// Seeded so every parameterization replays the identical workload; the DB
// is compared against the model, and MultiGet against serial Gets (and,
// given quiet_service, against their remote-read counts too).
void EquivalenceWorkload(DB* db, bool async_reads, int write_ops,
                         MemoryNodeService* quiet_service) {
  const uint64_t kKeySpace = 3000;
  Random rnd(42);
  std::map<std::string, std::string> model;
  for (int i = 0; i < write_ops; i++) {
    uint64_t k = rnd.Uniform(kKeySpace);
    std::string key = TestKey(k);
    if (rnd.OneIn(4)) {
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else {
      // Distinct payload per (key, op) so stale versions are detectable.
      std::string value = TestValue(k * 1000003 + i);
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    }
  }
  // Push everything through flush and compaction, then write a fresh stripe
  // so reads span memtable, L0, and compacted levels at once.
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
  for (int i = 0; i < 200; i++) {
    uint64_t k = rnd.Uniform(kKeySpace);
    std::string value = TestValue(k + 777);
    ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), value).ok());
    model[TestKey(k)] = value;
  }

  ReadOptions options;
  options.async_reads = async_reads;

  // Point lookups: every key in the space, hit or miss, byte-identical.
  for (uint64_t k = 0; k < kKeySpace; k++) {
    std::string key = TestKey(k);
    std::string value;
    Status s = db->Get(options, key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << "key " << key << ": " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << "key " << key << ": " << s.ToString();
      EXPECT_EQ(it->second, value) << "key " << key;
    }
  }

  // MultiGet: a striped batch (hits and misses mixed) vs serial Gets.
  std::vector<std::string> keys;
  for (uint64_t k = 0; k < kKeySpace + 100; k += 7) keys.push_back(TestKey(k));
  ExpectMultiGetMatchesSerial(db, options, keys, quiet_service);

  // Full forward scan: exactly the model, in order.
  std::unique_ptr<Iterator> iter(db->NewIterator(options));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(model.end(), mit) << "scan yielded extra key "
                                << iter->key().ToString();
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString()) << "key " << mit->first;
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_TRUE(mit == model.end()) << "scan stopped early at " << mit->first;

  // Bounded scans from random seek points (exercises prefetch-window
  // repositioning, which cancels dead READs on the async path).
  for (int r = 0; r < 8; r++) {
    std::string start = TestKey(rnd.Uniform(kKeySpace));
    std::unique_ptr<Iterator> bounded(db->NewIterator(options));
    auto m = model.lower_bound(start);
    bounded->Seek(start);
    for (int steps = 0; steps < 64 && bounded->Valid();
         steps++, bounded->Next(), ++m) {
      ASSERT_NE(model.end(), m);
      EXPECT_EQ(m->first, bounded->key().ToString());
      EXPECT_EQ(m->second, bounded->value().ToString());
    }
    ASSERT_TRUE(bounded->status().ok()) << bounded->status().ToString();
  }
}

// Read paths the sweep covers: dLSM's one-sided READs, and the baselines'
// read paths, which probe through the sync transport.
enum class ReadPreset {
  kDLsm,
  kNovaLsm,      // Server-mediated reads (reads_via_rpc).
  kRocksDbRdma,  // Per-probe index fetch plus the file-system staging copy.
};

void ApplyReadPreset(ReadPreset preset, Options* options) {
  switch (preset) {
    case ReadPreset::kDLsm:
      break;
    case ReadPreset::kNovaLsm:
      options->reads_via_rpc = true;
      break;
    case ReadPreset::kRocksDbRdma:
      options->cache_index_blocks = false;
      options->extra_io_copy = true;
      break;
  }
}

// Param: (use_std_env, async_reads, read preset).
class ReadPathEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, ReadPreset>> {};

TEST_P(ReadPathEquivalenceTest, RandomizedWorkloadIsByteIdentical) {
  const bool use_std_env = std::get<0>(GetParam());
  const bool async = std::get<1>(GetParam());
  const ReadPreset preset = std::get<2>(GetParam());

  if (!use_std_env) {
    RunDbTest(
        [preset](Options* options) { ApplyReadPreset(preset, options); },
        [async](DB* db, Env*, MemoryNodeService* service) {
          EquivalenceWorkload(db, async, 6000, service);
        });
    return;
  }

  // Real-time deployment: completions arrive via condition variables, so
  // the handle layer's wait paths run against actual thread scheduling.
  // Smaller workload than the SimEnv combos: wire latencies are real
  // sleeps here, and the coverage target is the StdEnv wait paths, not
  // compaction volume.
  test::RunStdDbTest(
      [preset](Options* options) { ApplyReadPreset(preset, options); },
      [async](DB* db, Env*, MemoryNodeService* service) {
        EquivalenceWorkload(db, async, 2500, service);
      });
}

INSTANTIATE_TEST_SUITE_P(
    EnvAndMode, ReadPathEquivalenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(ReadPreset::kDLsm,
                                         ReadPreset::kNovaLsm,
                                         ReadPreset::kRocksDbRdma)),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool, ReadPreset>>&
           info) {
      const ReadPreset preset = std::get<2>(info.param);
      return std::string(std::get<0>(info.param) ? "StdEnv" : "SimEnv") +
             (std::get<1>(info.param) ? "AsyncReads" : "SyncReads") +
             (preset == ReadPreset::kNovaLsm       ? "NovaLsm"
              : preset == ReadPreset::kRocksDbRdma ? "RocksDbRdma"
                                                   : "");
    });

// --- Cache equivalence ------------------------------------------------------

// The compute-side block cache may only elide fabric READs — never change
// a result. This sweep replays the read-path equivalence workload with the
// cache on (small, so eviction and admission churn) and off, across both
// environments, and demands byte-identical answers. Scan caching is
// enabled too so the prefetch-window fill path is covered.

// Param: (use_std_env, cache_on).
class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CacheEquivalenceTest, RandomizedWorkloadIsByteIdentical) {
  const bool use_std_env = std::get<0>(GetParam());
  const bool cache_on = std::get<1>(GetParam());
  auto tune = [cache_on](Options* options) {
    options->block_cache_size = cache_on ? 1 << 20 : 0;
    options->cache_shards = 4;
    options->cache_scans = cache_on;
  };

  if (!use_std_env) {
    RunDbTest(tune, [cache_on](DB* db, Env*, MemoryNodeService* service) {
      EquivalenceWorkload(db, /*async_reads=*/true, 6000,
                          cache_on ? nullptr : service);
      if (cache_on) {
        // The workload's point-read volume must actually exercise the
        // cache, or this sweep proves nothing.
        DbStats stats = db->GetStats();
        EXPECT_GT(stats.cache_hits, 0u);
        EXPECT_GT(stats.cache_inserts, 0u);
      }
    });
    return;
  }

  // Real-time deployment: cache hits race real reader/writer threads.
  test::RunStdDbTest(tune, [cache_on](DB* db, Env*,
                                      MemoryNodeService* service) {
    EquivalenceWorkload(db, /*async_reads=*/true, 2500,
                        cache_on ? nullptr : service);
  });
}

INSTANTIATE_TEST_SUITE_P(
    EnvAndCache, CacheEquivalenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "StdEnv" : "SimEnv") +
             (std::get<1>(info.param) ? "CacheOn" : "CacheOff");
    });

// Compactions rewrite cached tables into new file numbers; reads after the
// rewrite must see the new values. (File numbers are never reused, so a
// stale hit would need the old table's entries to alias the new one — this
// pins the invalidation hook that drops them anyway.)
TEST(CacheInvalidationTest, NoStaleReadsAcrossCompaction) {
  RunDbTest(
      [](Options* options) {
        options->block_cache_size = 8 << 20;
        options->cache_shards = 4;
      },
      [](DB* db, Env*) {
        const int kN = 1500;
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        // Populate the cache from the current tables.
        for (int i = 0; i < kN; i++) {
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok());
          EXPECT_EQ(TestValue(i), value);
        }
        DbStats before = db->GetStats();
        EXPECT_GT(before.cache_inserts, 0u);
        // Rewrite everything; flush + compaction replace the cached
        // tables and fire the invalidation hooks.
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(i), TestValue(i + 900000))
                  .ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        for (int i = 0; i < kN; i++) {
          std::string value;
          ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok());
          EXPECT_EQ(TestValue(i + 900000), value) << "stale read, key " << i;
        }
        // The "dlsm.cache" property is live when the cache is configured.
        std::string prop;
        ASSERT_TRUE(db->GetProperty("dlsm.cache", &prop));
        EXPECT_NE(std::string::npos, prop.find("block-cache:"));
      });
}

// Uncached-index ports (Options::cache_index_blocks = false) probe through
// the sync transport under any ReadOptions: the answers are right, and
// every bloom-passing probe costs one index READ plus one data READ.
TEST(CacheInvalidationTest, UncachedIndexProbesOnSyncTransport) {
  RunDbTest(
      [](Options* options) { options->cache_index_blocks = false; },
      [](DB* db, Env*) {
        // One flushed table holding every key: each lookup is exactly one
        // bloom-passing probe.
        const int kN = 200;
        for (int i = 0; i < kN; i++) {
          ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        ASSERT_EQ(1, db->NumFilesAtLevel(0));

        std::vector<std::string> key_storage;
        for (int i = 0; i < kN; i++) key_storage.push_back(TestKey(i));
        std::vector<Slice> keys(key_storage.begin(), key_storage.end());
        for (bool async : {true, false}) {
          ReadOptions ro;
          ro.async_reads = async;
          DbStats before = db->GetStats();
          for (int i = 0; i < kN; i++) {
            std::string value;
            ASSERT_TRUE(db->Get(ro, TestKey(i), &value).ok()) << "key " << i;
            EXPECT_EQ(TestValue(i), value);
          }
          DbStats after_gets = db->GetStats();
          EXPECT_EQ(before.bloom_useful, after_gets.bloom_useful);
          EXPECT_EQ(2u * kN, after_gets.rdma.read.ops - before.rdma.read.ops)
              << "async_reads=" << async;

          std::vector<std::string> values;
          std::vector<Status> statuses;
          db->MultiGet(ro, keys, &values, &statuses);
          for (int i = 0; i < kN; i++) {
            ASSERT_TRUE(statuses[i].ok()) << "key " << i;
            EXPECT_EQ(TestValue(i), values[i]);
          }
          EXPECT_EQ(2u * kN,
                    db->GetStats().rdma.read.ops - after_gets.rdma.read.ops)
              << "async_reads=" << async;
        }
      });
}

// --- Async/sync write-path equivalence --------------------------------------

// The async_write toggle may only change how flush bytes and compaction
// RPCs move (deferred handle waves, pipelined CallAsync) — never the
// resulting DB state. This sweep replays a seeded randomized write
// workload with flushes and compactions overlapping foreground writes and
// demands the final state be byte-identical to an in-memory model.

void WriteEquivalenceWorkload(DB* db, int write_ops, size_t value_len) {
  const uint64_t kKeySpace = 2000;
  Random rnd(97);
  std::map<std::string, std::string> model;
  auto apply = [&](int i) {
    uint64_t k = rnd.Uniform(kKeySpace);
    std::string key = TestKey(k);
    if (rnd.OneIn(5)) {
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else {
      // Distinct payload per (key, op) so a lost or stale write is
      // detectable, not just a missing key.
      std::string value = TestValue(k * 1000003 + i, value_len);
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    }
  };
  // Flush mid-stream so deferred flush waves overlap foreground writes,
  // then quiesce and lay down a fresh stripe: the final state spans
  // memtable, L0, and compacted levels at once.
  for (int i = 0; i < write_ops / 2; i++) apply(i);
  ASSERT_TRUE(db->Flush().ok());
  for (int i = write_ops / 2; i < write_ops; i++) apply(i);
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
  for (int i = 0; i < 150; i++) {
    uint64_t k = rnd.Uniform(kKeySpace);
    std::string value = TestValue(k + 31337, value_len);
    ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), value).ok());
    model[TestKey(k)] = value;
  }

  // Point lookups: every key in the space, hit or miss, byte-identical.
  for (uint64_t k = 0; k < kKeySpace; k++) {
    std::string key = TestKey(k);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << "key " << key << ": " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << "key " << key << ": " << s.ToString();
      EXPECT_EQ(it->second, value) << "key " << key;
    }
  }

  // Full forward scan: exactly the model, in order.
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(model.end(), mit) << "scan yielded extra key "
                                << iter->key().ToString();
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString()) << "key " << mit->first;
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_TRUE(mit == model.end()) << "scan stopped early at " << mit->first;
}

// Param: (use_std_env, async_write, value_len).
class WritePathEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(WritePathEquivalenceTest, RandomizedWorkloadIsByteIdentical) {
  const bool use_std_env = std::get<0>(GetParam());
  const bool async = std::get<1>(GetParam());
  const size_t value_len = static_cast<size_t>(std::get<2>(GetParam()));

  if (!use_std_env) {
    RunDbTest([async](Options* options) { options->async_write = async; },
              [value_len](DB* db, Env*) {
                WriteEquivalenceWorkload(db, 5000, value_len);
              });
    return;
  }

  // Real-time deployment: flush-wave completions and CallAsync reply
  // stamps arrive via condition variables under actual thread scheduling.
  // Smaller workload than the SimEnv combos: wire latencies are real
  // sleeps here, and the target is the StdEnv wait paths.
  test::RunStdDbTest(
      [async](Options* options) { options->async_write = async; },
      [value_len](DB* db, Env*, MemoryNodeService*) {
        WriteEquivalenceWorkload(db, 1500, value_len);
      });
}

INSTANTIATE_TEST_SUITE_P(
    EnvModeAndValueSize, WritePathEquivalenceTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(64, 1024)),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "StdEnv" : "SimEnv") +
             (std::get<1>(info.param) ? "AsyncWrite" : "SyncWrite") + "Val" +
             std::to_string(std::get<2>(info.param));
    });

// Full dump of a DB's user-visible state plus its final sequence number.
struct DbDump {
  std::vector<std::pair<std::string, std::string>> entries;
  uint64_t sequence = 0;
};

DbDump RunSeededWriteWorkload(bool async_write,
                              WritePath path = WritePath::kWriterQueue) {
  DbDump dump;
  RunDbTest(
      [async_write, path](Options* options) {
        options->async_write = async_write;
        options->write_path = path;
      },
      [&dump](DB* db, Env*) {
        Random rnd(1234);
        for (int i = 0; i < 5000; i++) {
          uint64_t k = rnd.Uniform(1200);
          if (rnd.OneIn(6)) {
            ASSERT_TRUE(db->Delete(WriteOptions(), TestKey(k)).ok());
          } else {
            ASSERT_TRUE(
                db->Put(WriteOptions(), TestKey(k), TestValue(k * 7 + i))
                    .ok());
          }
          if (i == 2500) ASSERT_TRUE(db->Flush().ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        const Snapshot* snap = db->GetSnapshot();
        dump.sequence = snap->sequence();
        db->ReleaseSnapshot(snap);
        std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
        for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
          dump.entries.emplace_back(iter->key().ToString(),
                                    iter->value().ToString());
        }
        ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
      });
  return dump;
}

TEST(DBTest, WriteModesProduceIdenticalStateAndSequences) {
  // Group sequence batching must assign exactly the sequences the
  // one-at-a-time path would: same final sequence number, same surviving
  // versions. A single-threaded writer-queue workload is deterministic, so
  // the two modes are compared dump-for-dump.
  DbDump sync_dump = RunSeededWriteWorkload(false);
  DbDump async_dump = RunSeededWriteWorkload(true);
  // The lock-free path enters the same routing loop without a group
  // window: it must land on the same sequences too.
  DbDump lock_free_dump = RunSeededWriteWorkload(true, WritePath::kLockFree);
  for (const DbDump* other : {&async_dump, &lock_free_dump}) {
    EXPECT_EQ(sync_dump.sequence, other->sequence);
    ASSERT_EQ(sync_dump.entries.size(), other->entries.size());
    for (size_t i = 0; i < sync_dump.entries.size(); i++) {
      EXPECT_EQ(sync_dump.entries[i].first, other->entries[i].first)
          << "entry " << i;
      EXPECT_EQ(sync_dump.entries[i].second, other->entries[i].second)
          << "key " << sync_dump.entries[i].first;
    }
  }
}

TEST(DBTest, FlushesReuseStagingBuffers) {
  // Compute DRAM is a bump arena that never frees, so flush sinks must
  // recycle the DB's staging buffers: once the first rounds have sized the
  // pool, further flushes must not grow compute DRAM. Both transports.
  // At cpu_scale 0 virtual time moves with the wire alone, so every round
  // overlaps its WRITEs alike and reaches the same peak of buffers in use.
  SimEnv::Options sim_options;
  sim_options.cpu_scale = 0;
  for (bool async : {true, false}) {
    SimEnv env(sim_options);
    rdma::Fabric fabric(&env);
    rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
    rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);
    env.Run(0, [&] {
      MemoryNodeService service(&fabric, memory, 4);
      service.Start();
      Options options = test::SmallOptions(&env);
      options.async_write = async;
      // Flushes only: no compaction, whose RPC windows size their own
      // buffer pools.
      options.l0_compaction_trigger = 1 << 30;
      options.l0_stop_writes_trigger = 1 << 30;
      DbDeps deps;
      deps.fabric = &fabric;
      deps.compute = compute;
      deps.memory = &service;
      DB* raw = nullptr;
      ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
      std::unique_ptr<DB> db(raw);
      std::vector<size_t> dram_used;
      for (int round = 0; round < 4; round++) {
        for (int i = 0; i < 2000; i++) {
          uint64_t k = static_cast<uint64_t>(round) * 2000 + i;
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(k), TestValue(k, 100)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        dram_used.push_back(compute->dram_used());
      }
      EXPECT_GE(db->GetStats().flushes, 8u);
      EXPECT_EQ(dram_used[1], dram_used[3])
          << (async ? "async" : "sync") << " transport: round 2 "
          << dram_used[1] << " B, round 4 " << dram_used[3] << " B";
      ASSERT_TRUE(db->Close().ok());
      db.reset();
      service.Stop();
    });
  }
}

// A Get keeps its key state, wave slots and probe buffers in its stack
// arena, and the fabric's completion queues reuse their storage: on a
// flushed tree, where every Get reads a table, a Get makes no heap
// allocation. Background work has drained before the Gets, and at
// cpu_scale 0 the count repeats run to run.
TEST(DBTest, GetsOnAFlushedTreeBarelyAllocate) {
  SimEnv::Options sim_options;
  sim_options.cpu_scale = 0;
  SimEnv env(sim_options);
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();
    Options options = test::SmallOptions(&env);
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
    std::unique_ptr<DB> db(raw);
    constexpr uint64_t kKeys = 20000;
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    int files = 0;
    for (int level = 0; level < kNumLevels; level++) {
      files += db->NumFilesAtLevel(level);
    }
    ASSERT_GT(files, 0);
    constexpr uint64_t kGets = 1000;
    std::string value;
    value.reserve(256);
    // The first Get on a thread builds that thread's verb queue.
    ASSERT_TRUE(db->Get(ReadOptions(), TestKey(kKeys - 1), &value).ok());
    uint64_t news = 0;
    for (uint64_t i = 0; i < kGets; i++) {
      const uint64_t k = i * (kKeys / kGets) + i % 7;
      const std::string key = TestKey(k);
      const uint64_t before = test::OperatorNewCount();
      const Status s = db->Get(ReadOptions(), key, &value);
      news += test::OperatorNewCount() - before;
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      ASSERT_EQ(TestValue(k), value);
    }
    EXPECT_EQ(0u, news) << news << " operator new calls over " << kGets
                        << " Gets";
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
}

TEST(DBTest, WriterQueueGroupCommitKeepsProgramOrder) {
  // Group sequence batching (one fetch-add per writer group) must keep
  // each writer's program order even when the group leader's sequence
  // window straddles a MemTable switch and later members fall back to
  // fresh allocations. Small MemTables force frequent switches.
  RunDbTest(
      [](Options* options) {
        options->write_path = WritePath::kWriterQueue;
        options->async_write = true;
        options->memtable_size = 16 << 10;
      },
      [](DB* db, Env* env) {
        constexpr int kThreads = 8;
        constexpr int kKeysPerThread = 200;
        constexpr int kRounds = 3;
        std::vector<ThreadHandle> hs;
        for (int t = 0; t < kThreads; t++) {
          hs.push_back(env->StartThread(0, "writer", [&, t] {
            for (int round = 0; round < kRounds; round++) {
              for (int i = 0; i < kKeysPerThread; i++) {
                uint64_t k = static_cast<uint64_t>(t) * kKeysPerThread + i;
                ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k),
                                    TestValue(k * 10 + round))
                                .ok());
                if (i % 32 == 0) env->MaybeYield();
              }
            }
          }));
        }
        for (ThreadHandle h : hs) env->Join(h);
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        // Key ranges are disjoint per thread, so the visible version of
        // every key must be that thread's last write — an inverted group
        // window would leave an earlier round on top.
        for (int t = 0; t < kThreads; t++) {
          for (int i = 0; i < kKeysPerThread; i++) {
            uint64_t k = static_cast<uint64_t>(t) * kKeysPerThread + i;
            std::string value;
            ASSERT_TRUE(db->Get(ReadOptions(), TestKey(k), &value).ok())
                << "lost write " << k;
            EXPECT_EQ(TestValue(k * 10 + (kRounds - 1)), value)
                << "key " << k;
          }
        }
        EXPECT_EQ(
            static_cast<uint64_t>(kThreads) * kKeysPerThread * kRounds,
            db->GetStats().writes);
      });
}

TEST(DBTest, StallAccountingNeverExceedsElapsedTime) {
  // Stalled-writer time is a union of intervals: with N writers parked on
  // the same flush/compaction backlog, stall_ns must not count the overlap
  // N times over (the old per-writer accounting could report ~N x the
  // wall-clock stall).
  RunDbTest(
      [](Options* options) {
        options->memtable_size = 16 << 10;
        options->max_immutables = 1;
        options->flush_threads = 1;
        options->l0_compaction_trigger = 2;
        options->l0_stop_writes_trigger = 3;
      },
      [](DB* db, Env* env) {
        const uint64_t start = env->NowNanos();
        constexpr int kThreads = 8;
        constexpr int kPerThread = 800;
        std::vector<ThreadHandle> hs;
        for (int t = 0; t < kThreads; t++) {
          hs.push_back(env->StartThread(0, "writer", [&, t] {
            for (int i = 0; i < kPerThread; i++) {
              uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
              ASSERT_TRUE(
                  db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
              if (i % 64 == 0) env->MaybeYield();
            }
          }));
        }
        for (ThreadHandle h : hs) env->Join(h);
        const uint64_t elapsed = env->NowNanos() - start;
        DbStats stats = db->GetStats();
        EXPECT_GT(stats.stall_ns, 0u) << "backlog never stalled a writer";
        EXPECT_LE(stats.stall_ns, elapsed)
            << "stall time double-counted across concurrent writers";
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
      });
}

TEST(DBTest, VerbBudgetOneSerializesCompactionRpcs) {
  // budget=1: the pipelined scheduler may never have a second compaction
  // RPC posted while one is outstanding. One scheduler thread so no other
  // coordinator can widen the gauge.
  RunDbTest(
      [](Options* options) {
        options->async_write = true;
        options->compaction_verb_budget = 1;
        options->compaction_scheduler_threads = 1;
        options->memtable_size = 16 << 10;
        options->sstable_size = 16 << 10;
        options->l0_compaction_trigger = 2;
      },
      [](DB* db, Env*) {
        Random rnd(11);
        for (int i = 0; i < 6000; i++) {
          uint64_t k = rnd.Uniform(4000);
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(k), TestValue(k + i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        DbStats stats = db->GetStats();
        ASSERT_GT(stats.compactions, 0u);
        EXPECT_EQ(1u, stats.compaction_rpc_inflight_peak)
            << "budget=1 must serialize sub-compaction RPCs";
      });
}

TEST(DBTest, UncappedBudgetPipelinesCompactionRpcs) {
  // budget=0 removes the cap: a multi-task sub-compaction pick must drive
  // the in-flight RPC window past one (the whole point of CallAsync).
  RunDbTest(
      [](Options* options) {
        options->async_write = true;
        options->compaction_verb_budget = 0;
        options->memtable_size = 16 << 10;
        options->sstable_size = 16 << 10;
        options->l0_compaction_trigger = 2;
      },
      [](DB* db, Env*) {
        Random rnd(12);
        for (int i = 0; i < 12000; i++) {
          uint64_t k = rnd.Uniform(8000);
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(k), TestValue(k + i)).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
        ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
        DbStats stats = db->GetStats();
        ASSERT_GT(stats.compactions, 0u);
        EXPECT_GE(stats.compaction_rpc_inflight_peak, 2u)
            << "uncapped scheduler never overlapped compaction RPCs";
      });
}

TEST(DBTest, CloseWithFlushBacklogUnderAsyncWrite) {
  // Teardown with deferred flush WRITE waves and pipelined compaction
  // RPCs still in motion: Close() must cancel cleanly — no hang, and no
  // verbs left pinned on the outstanding gauge.
  RunDbTest(
      [](Options* options) {
        options->async_write = true;
        options->memtable_size = 16 << 10;
        options->sstable_size = 16 << 10;
        options->l0_compaction_trigger = 2;
      },
      [](DB* db, Env*) {
        Random rnd(13);
        for (int i = 0; i < 6000; i++) {
          uint64_t k = rnd.Uniform(4000);
          ASSERT_TRUE(
              db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
        }
        // No Flush(), no WaitForBackgroundIdle(): close into the backlog.
        ASSERT_TRUE(db->Close().ok());
        EXPECT_EQ(0u, db->GetStats().rdma.outstanding);
      });
}

// --- Read pin --------------------------------------------------------------

// One writer cycles `keys` keys through MemTable switches, flush installs
// and compactions while three readers read keys whose Put already
// returned: Gets and scans of the last few MemTables' keys, or, with
// `multiget`, one MultiGet of every key per round. Values carry their
// write version and each key has one writer, so acked[k] is the oldest
// version a read started after it may return. A miss, or anything older,
// means the read's snapshot was taken before its pin: a flush or
// compaction that started in between dropped versions at or below a newer
// snapshot than the read's, and the read sees neither the dropped version
// nor its newer successor.
void ReadersVersusSwitchAndFlush(DB* db, Env* env, uint64_t writes,
                                 uint64_t keys = 3000, bool multiget = false) {
  const uint64_t kKeys = keys;
  constexpr uint64_t kScanWidth = 16;
  auto value_of = [](uint64_t k, uint64_t v) {
    std::string value = "k" + std::to_string(k) + "v" + std::to_string(v) + "-";
    value.resize(64, 'x');
    return value;
  };
  auto version_of = [](const std::string& value) -> uint64_t {
    size_t v = value.find('v');
    return v == std::string::npos ? 0 : std::stoull(value.substr(v + 1));
  };
  std::vector<std::atomic<uint64_t>> acked(kKeys);
  std::atomic<uint64_t> written{0};  // Puts returned, in write order.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> gets{0}, scans{0};

  ThreadHandle writer = env->StartThread(0, "writer", [&] {
    for (uint64_t i = 0; i < writes; i++) {
      const uint64_t k = i % kKeys, v = i / kKeys + 1;
      Status s = db->Put(WriteOptions(), TestKey(k), value_of(k, v));
      if (!s.ok()) {
        ADD_FAILURE() << "Put: " << s.ToString();
        break;
      }
      acked[k].store(v, std::memory_order_release);
      written.store(i + 1, std::memory_order_release);
      if (i % 64 == 0) env->MaybeYield();
    }
    // The flushes and compactions the writes set off finish before the
    // readers may stop, so the counts asserted below are settled.
    Status s = db->WaitForBackgroundIdle();
    if (!s.ok()) ADD_FAILURE() << "WaitForBackgroundIdle: " << s.ToString();
    done.store(true);
  });

  auto check_get = [&](uint64_t k) {
    const uint64_t lo = acked[k].load(std::memory_order_acquire);
    std::string value;
    Status s = db->Get(ReadOptions(), TestKey(k), &value);
    gets.fetch_add(1, std::memory_order_relaxed);
    if (!s.ok() || version_of(value) < lo) {
      ADD_FAILURE() << "Get(" << k << ") after version " << lo
                    << " was acknowledged: " << s.ToString() << " "
                    << value.substr(0, 16);
      return false;
    }
    return true;
  };
  auto check_scan = [&](uint64_t first) {
    uint64_t lo[kScanWidth], seen[kScanWidth] = {};
    for (uint64_t j = 0; j < kScanWidth; j++) {
      lo[j] = first + j < kKeys
                  ? acked[first + j].load(std::memory_order_acquire)
                  : 0;
    }
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    scans.fetch_add(1, std::memory_order_relaxed);
    const std::string end = TestKey(first + kScanWidth);
    for (it->Seek(TestKey(first)); it->Valid() && it->key().ToString() < end;
         it->Next()) {
      seen[std::stoull(it->key().ToString()) - first] =
          version_of(it->value().ToString());
    }
    for (uint64_t j = 0; j < kScanWidth; j++) {
      if (seen[j] < lo[j]) {
        ADD_FAILURE() << "scan missed key " << first + j << ": saw version "
                      << seen[j] << " after " << lo[j] << " was acknowledged; "
                      << it->status().ToString();
        return false;
      }
    }
    return true;
  };

  // Every key's floor is read before the call. A long batch probes every
  // MemTable before it reaches the tables, which widens any gap between
  // the read's snapshot and the version it probes.
  auto check_multiget = [&] {
    std::vector<std::string> names(kKeys);
    std::vector<Slice> slices(kKeys);
    std::vector<uint64_t> lo(kKeys);
    for (uint64_t k = 0; k < kKeys; k++) {
      names[k] = TestKey(k);
      slices[k] = names[k];
      lo[k] = acked[k].load(std::memory_order_acquire);
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    db->MultiGet(ReadOptions(), slices, &values, &statuses);
    gets.fetch_add(kKeys, std::memory_order_relaxed);
    for (uint64_t k = 0; k < kKeys; k++) {
      if (lo[k] == 0) continue;
      if (!statuses[k].ok() || version_of(values[k]) < lo[k]) {
        ADD_FAILURE() << "MultiGet: key " << k << " acked " << lo[k]
                      << " got " << statuses[k].ToString() << " "
                      << values[k].substr(0, 16);
        return false;
      }
    }
    return true;
  };

  // Readers stop once the writer is done and they have made the reads the
  // checks below ask for.
  auto reads_done = [&] {
    return done.load() && gets.load() > 1000u &&
           (multiget || scans.load() > 100u);
  };
  std::vector<ThreadHandle> readers;
  for (int r = 0; r < 3; r++) {
    readers.push_back(env->StartThread(0, "reader", [&, r] {
      Random rnd(7 + r);
      for (uint64_t n = 1; !reads_done(); n++) {
        if (multiget) {
          if (!check_multiget()) return;
          env->MaybeYield();
          continue;
        }
        const uint64_t w = written.load(std::memory_order_acquire);
        if (w == 0) {
          env->MaybeYield();
          continue;
        }
        // Mostly the last few MemTables' keys: those a flush hands off.
        const uint64_t k =
            (w - 1 - rnd.Uniform(std::min<uint64_t>(w, 2000))) % kKeys;
        if (!(rnd.OneIn(8) ? check_scan(k) : check_get(k))) return;
        if (n % 16 == 0) env->MaybeYield();
      }
    }));
  }
  env->Join(writer);
  for (ThreadHandle h : readers) env->Join(h);

  DbStats stats = db->GetStats();
  EXPECT_GE(stats.flushes, 10u) << "too few flush installs to race";
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(gets.load(), 1000u);
  if (!multiget) {
    EXPECT_GT(scans.load(), 100u);
  }
}

TEST(DBTest, ReadersNeverMissAcrossSwitchAndFlushSimEnv) {
  RunDbTest(nullptr, [](DB* db, Env* env) {
    ReadersVersusSwitchAndFlush(db, env, 40000);
  });
}

// Real threads: readers and the flush install genuinely overlap.
TEST(DBTest, ReadersNeverMissAcrossSwitchAndFlushStdEnv) {
  test::RunStdDbTest(nullptr, [](DB* db, Env* env, MemoryNodeService*) {
    ReadersVersusSwitchAndFlush(db, env, 20000);
  });
}

// 256 hot keys through 16 KiB MemTables and tables, compacting at two L0
// files: every MemTable holds several versions of each key, and a
// compaction installs every few flushes.
TEST(DBTest, HotKeyMultiGetsNeverMissAcrossCompactionStdEnv) {
  test::RunStdDbTest(
      [](Options* options) {
        options->memtable_size = 16 << 10;
        options->sstable_size = 16 << 10;
        options->l0_compaction_trigger = 2;
      },
      [](DB* db, Env* env, MemoryNodeService*) {
        ReadersVersusSwitchAndFlush(db, env, 60000, /*keys=*/256,
                                    /*multiget=*/true);
      });
}

TEST(DBTest, AllHitReadersScaleInVirtualTime) {
  // All-MemTable Gets are pure compute: no READ, and (with the ReadState
  // pin) no lock that orders readers in virtual time. Four readers must
  // then overlap, not queue behind one another.
  DLSM_SKIP_TIMING_UNDER_SANITIZERS();
  RunDbTest([](Options* options) { options->memtable_size = 64 << 20; },
            [](DB* db, Env* env) {
              constexpr int kKeys = 1000;
              constexpr int kGetsPerReader = 20000;
              for (int i = 0; i < kKeys; i++) {
                ASSERT_TRUE(
                    db->Put(WriteOptions(), TestKey(i), TestValue(i)).ok());
              }
              auto ops_per_s = [&](int readers) {
                const uint64_t start = env->NowNanos();
                std::vector<ThreadHandle> hs;
                for (int r = 0; r < readers; r++) {
                  hs.push_back(env->StartThread(0, "reader", [&, r] {
                    Random rnd(11 + r);
                    std::string value;
                    for (int i = 0; i < kGetsPerReader; i++) {
                      ASSERT_TRUE(db->Get(ReadOptions(),
                                          TestKey(rnd.Uniform(kKeys)), &value)
                                      .ok());
                      if (i % 1024 == 0) env->MaybeYield();
                    }
                  }));
                }
                for (ThreadHandle h : hs) env->Join(h);
                return 1e9 * readers * kGetsPerReader /
                       static_cast<double>(env->NowNanos() - start);
              };
              // Measured host CPU is noisy at this scale; the median of
              // three runs per reader count keeps a one-off fast or slow
              // run from deciding the check.
              auto median3 = [&](int readers) {
                double r[3] = {ops_per_s(readers), ops_per_s(readers),
                               ops_per_s(readers)};
                std::sort(r, r + 3);
                return r[1];
              };
              const double one = median3(1);
              const double four = median3(4);
              EXPECT_EQ(0u, db->GetStats().flushes);
              EXPECT_GE(four, 2.0 * one)
                  << "1 reader " << one << " ops/s, 4 readers " << four
                  << " ops/s";
            });
}

// --- Scan prefetch wire cost -------------------------------------------------

/// A multi-level shape for the scan wire-cost tests: 20000 sequential keys
/// compacted down, then an overwrite of every 7th key on top. *model gets
/// the expected contents.
void LoadMultiLevel(DB* db, std::map<std::string, std::string>* model) {
  const int kN = 20000;
  for (int i = 0; i < kN; i++) {
    (*model)[TestKey(i)] = TestValue(i, 100);
  }
  for (int i = 0; i < kN; i += 7) {
    (*model)[TestKey(i)] = TestValue(i + 1, 100);
  }
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), TestValue(i, 100)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
  for (int i = 0; i < kN; i += 7) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), TestKey(i), TestValue(i + 1, 100)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
  int levels_with_files = 0;
  for (int level = 0; level < 7; level++) {
    if (db->NumFilesAtLevel(level) > 0) levels_with_files++;
  }
  ASSERT_GE(levels_with_files, 2);
}

void TuneMultiLevel(Options* options) {
  options->memtable_size = 256 << 10;
  options->sstable_size = 256 << 10;
  options->l0_compaction_trigger = 3;
  options->max_bytes_for_level_base = 1 << 20;
}

/// Sum of the live tables' data_len, from the "dlsm.levels" byte column.
uint64_t LiveTableBytes(DB* db) {
  std::string levels;
  EXPECT_TRUE(db->GetProperty("dlsm.levels", &levels));
  uint64_t total = 0;
  size_t pos = 0;
  while ((pos = levels.find(" files, ", pos)) != std::string::npos) {
    pos += 8;
    total += std::stoull(levels.substr(pos));
  }
  return total;
}

TEST(DBTest, ShortScanReadsWhatItConsumes) {
  // A 16-entry Seek+Next scan needs ~2 KB of each table it touches. The
  // prefetch window after Seek starts small and ramps, and a scan that
  // crosses into a level's next file keeps ramping there, so the scan
  // reads tens of KB, not a full scan_prefetch_size chunk per table.
  RunDbTest(
      [](Options* options) {
        TuneMultiLevel(options);
        options->scan_prefetch_size = Options().scan_prefetch_size;
      },
      [](DB* db, Env*) {
        std::map<std::string, std::string> model;
        ASSERT_NO_FATAL_FAILURE(LoadMultiLevel(db, &model));
        // Starts 13 keys apart: every file boundary falls inside some scan.
        for (int first = 0; first + 16 <= 20000; first += 13) {
          const std::string start = TestKey(first);
          const uint64_t before = db->GetStats().rdma.read.bytes;
          std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
          auto want = model.lower_bound(start);
          it->Seek(start);
          for (int n = 0; n < 16; n++, ++want) {
            if (n > 0) it->Next();
            ASSERT_TRUE(it->Valid()) << it->status().ToString();
            ASSERT_EQ(want->first, it->key().ToString());
            ASSERT_EQ(want->second, it->value().ToString());
          }
          it.reset();
          EXPECT_LE(db->GetStats().rdma.read.bytes - before, 64u << 10)
              << "16-entry scan from " << start;
        }
      });
}

TEST(DBTest, FullScanReadsEachTableOnce) {
  // A SeekToFirst pass fetches full chunks and double-buffers them;
  // records (blocks) straddling two chunks are stitched from both rather
  // than re-read, so the pass reads each table's data region once.
  for (TableFormat format : {TableFormat::kByteAddressable,
                             TableFormat::kBlock}) {
    RunDbTest(
        [format](Options* options) {
          TuneMultiLevel(options);
          options->table_format = format;
          options->block_size = 4096;
          options->scan_prefetch_size = 60000;  // Not a multiple of records.
        },
        [](DB* db, Env*) {
          std::map<std::string, std::string> model;
          ASSERT_NO_FATAL_FAILURE(LoadMultiLevel(db, &model));
          const uint64_t table_bytes = LiveTableBytes(db);
          ASSERT_GT(table_bytes, 0u);
          const uint64_t before = db->GetStats().rdma.read.bytes;
          std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
          auto want = model.begin();
          for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
            ASSERT_TRUE(want != model.end());
            ASSERT_EQ(want->first, it->key().ToString());
            ASSERT_EQ(want->second, it->value().ToString());
          }
          ASSERT_TRUE(it->status().ok()) << it->status().ToString();
          EXPECT_TRUE(want == model.end());
          it.reset();
          EXPECT_LE(db->GetStats().rdma.read.bytes - before,
                    table_bytes * 105 / 100);
        });
  }
}

}  // namespace
}  // namespace dlsm

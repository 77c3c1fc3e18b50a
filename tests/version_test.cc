// Tests for copy-on-write version metadata, compaction picking, file
// pinning/GC, skiplist and memtable internals, and the DB format helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "src/core/dbformat.h"
#include "src/core/memtable.h"
#include "src/core/skiplist.h"
#include "src/core/version.h"
#include "src/core/write_batch.h"
#include "src/sim/env.h"
#include "src/util/random.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace {

std::string UKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

FileRef MakeRangeFile(uint64_t number, const std::string& lo,
                      const std::string& hi) {
  auto f = std::make_shared<FileMetaData>();
  f->number = number;
  f->l0_order = number;
  f->data_len = 1 << 20;
  f->smallest = InternalKey(lo, kMaxSequenceNumber, kTypeValue);
  f->largest = InternalKey(hi, 1, kTypeValue);
  f->chunk.addr = 0x1000 * number;
  return f;
}

FileRef MakeFile(uint64_t number, uint64_t lo, uint64_t hi,
                 uint64_t l0_order = 0, uint64_t bytes = 1 << 20,
                 std::function<void(const remote::RemoteChunk&)> gc = {}) {
  FileRef f = MakeRangeFile(number, UKey(lo), UKey(hi));
  if (l0_order != 0) f->l0_order = l0_order;
  f->data_len = bytes;
  f->gc = std::move(gc);
  return f;
}

Options SmallVersionOptions() {
  Options options;
  options.sstable_size = 1 << 20;
  options.l0_compaction_trigger = 4;
  options.l0_stop_writes_trigger = 8;
  return options;
}

TEST(DbFormatTest, InternalKeyRoundTrip) {
  std::string encoded;
  AppendInternalKey(&encoded,
                    ParsedInternalKey("user-key", 12345, kTypeValue));
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(encoded, &parsed));
  EXPECT_EQ("user-key", parsed.user_key.ToString());
  EXPECT_EQ(12345u, parsed.sequence);
  EXPECT_EQ(kTypeValue, parsed.type);
  EXPECT_EQ("user-key", ExtractUserKey(encoded).ToString());
  EXPECT_EQ(12345u, ExtractSequence(encoded));
}

TEST(DbFormatTest, InternalKeyOrdering) {
  InternalKeyComparator icmp;
  // Same user key: larger sequence sorts first.
  InternalKey a("k", 10, kTypeValue), b("k", 5, kTypeValue);
  EXPECT_LT(icmp.Compare(a.Encode(), b.Encode()), 0);
  // Different user keys: bytewise order dominates.
  InternalKey c("a", 1, kTypeValue), d("b", 100, kTypeValue);
  EXPECT_LT(icmp.Compare(c.Encode(), d.Encode()), 0);
  // Deletion sorts after value at the same (key, seq) — seek finds value.
  InternalKey e("k", 7, kTypeValue), f("k", 7, kTypeDeletion);
  EXPECT_LT(icmp.Compare(e.Encode(), f.Encode()), 0);
}

TEST(DbFormatTest, LookupKeyViews) {
  LookupKey lkey("mykey", 42);
  EXPECT_EQ("mykey", lkey.user_key().ToString());
  EXPECT_EQ(5u + 8u, lkey.internal_key().size());
  EXPECT_EQ(42u, ExtractSequence(lkey.internal_key()));
}

TEST(SkipListTest, InsertAndLookup) {
  Arena arena;
  struct Cmp {
    int operator()(const char* a, const char* b) const {
      return strcmp(a, b);
    }
  };
  SkipList<const char*, Cmp> list(Cmp(), &arena);
  std::set<std::string> keys;
  Random rnd(42);
  for (int i = 0; i < 2000; i++) {
    std::string k = UKey(rnd.Uniform(5000));
    if (keys.insert(k).second) {
      char* mem = arena.Allocate(k.size() + 1);
      memcpy(mem, k.c_str(), k.size() + 1);
      list.Insert(mem);
    }
  }
  for (const std::string& k : keys) {
    EXPECT_TRUE(list.Contains(k.c_str())) << k;
  }
  EXPECT_FALSE(list.Contains(UKey(999999).c_str()));

  // Iteration visits every key in order.
  SkipList<const char*, Cmp>::Iterator it(&list);
  auto expected = keys.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ASSERT_NE(expected, keys.end());
    EXPECT_EQ(*expected, std::string(it.key()));
    ++expected;
  }
  EXPECT_EQ(expected, keys.end());

  // Seek semantics.
  it.Seek(UKey(2500).c_str());
  auto lower = keys.lower_bound(UKey(2500));
  if (lower == keys.end()) {
    EXPECT_FALSE(it.Valid());
  } else {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(*lower, std::string(it.key()));
  }
}

TEST(SkipListTest, ConcurrentInsertersUnderRealThreads) {
  // True hardware concurrency via StdEnv threads: the lock-free insert
  // path must lose no keys.
  Arena arena;
  struct Cmp {
    int operator()(const char* a, const char* b) const {
      return strcmp(a, b);
    }
  };
  SkipList<const char*, Cmp> list(Cmp(), &arena);
  Env* env = Env::Std();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<ThreadHandle> hs;
  for (int t = 0; t < kThreads; t++) {
    hs.push_back(env->StartThread(0, "inserter", [&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string k = UKey(static_cast<uint64_t>(t) * kPerThread + i);
        char* mem = arena.Allocate(k.size() + 1);
        memcpy(mem, k.c_str(), k.size() + 1);
        list.Insert(mem);
      }
    }));
  }
  for (ThreadHandle h : hs) env->Join(h);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 97) {
      std::string k = UKey(static_cast<uint64_t>(t) * kPerThread + i);
      EXPECT_TRUE(list.Contains(k.c_str())) << k;
    }
  }
}

TEST(MemTableTest, AddGetAndSequenceVisibility) {
  InternalKeyComparator icmp;
  MemTable* mem = new MemTable(icmp, 1, 1000);
  mem->Ref();
  mem->Add(10, kTypeValue, "k", "v10");
  mem->Add(20, kTypeValue, "k", "v20");
  mem->Add(30, kTypeDeletion, "k", "");

  auto get_at = [&](SequenceNumber snap) {
    LookupKey lkey("k", snap);
    std::string value;
    Status s;
    bool hit = mem->Get(lkey, &value, &s);
    return std::make_tuple(hit, s, value);
  };

  auto [hit1, s1, v1] = get_at(15);
  EXPECT_TRUE(hit1);
  EXPECT_TRUE(s1.ok());
  EXPECT_EQ("v10", v1);

  auto [hit2, s2, v2] = get_at(25);
  EXPECT_TRUE(hit2);
  EXPECT_EQ("v20", v2);

  auto [hit3, s3, v3] = get_at(100);
  EXPECT_TRUE(hit3);
  EXPECT_TRUE(s3.IsNotFound()) << "tombstone must report NotFound";

  auto [hit4, s4, v4] = get_at(5);
  EXPECT_FALSE(hit4) << "nothing visible before the first write";
  mem->Unref();
}

TEST(MemTableTest, SequenceRangeRouting) {
  InternalKeyComparator icmp;
  MemTable* mem = new MemTable(icmp, 1000, 2000);
  mem->Ref();
  EXPECT_FALSE(mem->AcceptsSequence(999));
  EXPECT_TRUE(mem->AcceptsSequence(1000));
  EXPECT_TRUE(mem->AcceptsSequence(1999));
  EXPECT_FALSE(mem->AcceptsSequence(2000));
  mem->Unref();
}

TEST(WriteBatchTest, CountAndIterate) {
  WriteBatch batch;
  EXPECT_EQ(0u, batch.Count());
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  EXPECT_EQ(3u, batch.Count());

  struct Collector : public WriteBatch::Handler {
    std::string log;
    void Put(const Slice& key, const Slice& value) override {
      log += "P(" + key.ToString() + "," + value.ToString() + ")";
    }
    void Delete(const Slice& key) override {
      log += "D(" + key.ToString() + ")";
    }
  };
  Collector collector;
  ASSERT_TRUE(batch.Iterate(&collector).ok());
  EXPECT_EQ("P(a,1)D(b)P(c,3)", collector.log);

  batch.Clear();
  EXPECT_EQ(0u, batch.Count());
}

TEST(WriteBatchTest, InsertIntoAssignsConsecutiveSequences) {
  InternalKeyComparator icmp;
  MemTable* mem = new MemTable(icmp, 0, kMaxSequenceNumber);
  mem->Ref();
  WriteBatch batch;
  batch.Put("x", "1");
  batch.Put("x", "2");
  ASSERT_TRUE(WriteBatchInternal::InsertInto(&batch, 100, mem).ok());
  // Sequence 101 ("2") shadows 100 ("1").
  LookupKey lkey("x", 200);
  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(lkey, &value, &s));
  EXPECT_EQ("2", value);
  mem->Unref();
}

// --- Version / VersionSet ----------------------------------------------------

TEST(VersionTest, ApplyAddsAndDeletes) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);

  VersionEdit add;
  add.AddFile(0, MakeFile(1, 0, 100));
  add.AddFile(0, MakeFile(2, 50, 150));
  add.AddFile(1, MakeFile(3, 0, 50));
  vs.Apply(add);
  EXPECT_EQ(2, vs.current()->NumFiles(0));
  EXPECT_EQ(1, vs.current()->NumFiles(1));

  VersionEdit del;
  del.DeleteFile(0, 1);
  vs.Apply(del);
  EXPECT_EQ(1, vs.current()->NumFiles(0));
  EXPECT_EQ(2u, vs.current()->files(0)[0]->number);
}

// A migration's replacement swaps in for its same-numbered file, and fails
// without changing the version when the file is a compaction input or gone.
TEST(VersionTest, ApplyReplacesOnlyALiveIdleFile) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);
  VersionEdit add;
  for (uint64_t n = 1; n <= 4; n++) add.AddFile(0, MakeFile(n, 0, 100));
  add.AddFile(1, MakeFile(5, 0, 50));
  ASSERT_TRUE(vs.Apply(add).ok());

  FileRef moved = MakeFile(5, 0, 50);
  VersionEdit replace;
  replace.ReplaceFile(1, moved);
  ASSERT_TRUE(vs.Apply(replace).ok());
  ASSERT_EQ(1, vs.current()->NumFiles(1));
  EXPECT_EQ(moved, vs.current()->files(1)[0]);

  VersionEdit gone;
  gone.ReplaceFile(1, MakeFile(9, 0, 50));
  EXPECT_TRUE(vs.Apply(gone).IsNotFound());

  CompactionPick pick = vs.PickCompaction();  // L0 at the trigger: 1-5 busy.
  ASSERT_TRUE(pick.valid());
  VersionRef before = vs.current();
  VersionEdit busy;
  busy.ReplaceFile(1, MakeFile(5, 0, 50));
  EXPECT_TRUE(vs.Apply(busy).IsBusy());
  EXPECT_EQ(before, vs.current());
  vs.ReleaseCompaction(pick);
}

TEST(VersionTest, L0OrderedNewestFirstByL0Order) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);
  VersionEdit edit;
  // Out-of-order flush completion: file 5 from an older memtable.
  edit.AddFile(0, MakeFile(5, 0, 10, /*l0_order=*/100));
  edit.AddFile(0, MakeFile(6, 0, 10, /*l0_order=*/300));
  edit.AddFile(0, MakeFile(7, 0, 10, /*l0_order=*/200));
  vs.Apply(edit);
  const auto& l0 = vs.current()->files(0);
  EXPECT_EQ(300u, l0[0]->l0_order);
  EXPECT_EQ(200u, l0[1]->l0_order);
  EXPECT_EQ(100u, l0[2]->l0_order);
}

TEST(VersionTest, CollectSearchOrderPrunesByRange) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);
  VersionEdit edit;
  edit.AddFile(0, MakeFile(1, 0, 100));
  edit.AddFile(0, MakeFile(2, 200, 300));
  edit.AddFile(1, MakeFile(3, 0, 99));
  edit.AddFile(1, MakeFile(4, 100, 199));
  edit.AddFile(2, MakeFile(5, 0, 500));
  vs.Apply(edit);

  std::pmr::vector<const FileMetaData*> order;
  vs.current()->CollectSearchOrder(UKey(50), &order);
  // L0 file 1 overlaps; L1 file 3; L2 file 5. L0 file 2 and L1 file 4 do not.
  ASSERT_EQ(3u, order.size());
  EXPECT_EQ(1u, order[0]->number);
  EXPECT_EQ(3u, order[1]->number);
  EXPECT_EQ(5u, order[2]->number);

  // Reused across lookups: the vector is cleared, not appended to.
  vs.current()->CollectSearchOrder(UKey(700), &order);
  EXPECT_TRUE(order.empty());
}

// The deeper levels' file search runs over key words of each file's
// largest user key; it must pick what a linear scan of the files picks.
// Seeded random versions: keys sharing a 0-20 byte prefix, 0x00/0xFF
// bytes, overlapping L0 files, disjoint 1-3 key files on deeper levels
// with gaps between them, and lookups below, inside and above each level.
TEST(VersionTest, KeyWordSearchOrderMatchesLinearScan) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  auto covers = [](const FileRef& f, const Slice& key) {
    return f->smallest.user_key().compare(key) <= 0 &&
           f->largest.user_key().compare(key) >= 0;
  };
  Random rnd(17);
  for (int trial = 0; trial < 200; trial++) {
    VersionSet vs(&icmp, &options);
    const std::string prefix = test::EdgeBytes(&rnd, rnd.Uniform(21));
    std::vector<std::string> all_keys;
    VersionEdit edit;
    uint64_t number = 1;
    for (int level = 0; level < kNumLevels; level++) {
      std::vector<std::string> keys =
          test::RandomSortedUserKeys(&rnd, prefix, rnd.Uniform(60));
      all_keys.insert(all_keys.end(), keys.begin(), keys.end());
      if (keys.empty()) continue;
      if (level == 0) {
        for (uint64_t n = rnd.Uniform(5); n > 0; n--) {
          size_t a = rnd.Uniform(keys.size()), b = rnd.Uniform(keys.size());
          edit.AddFile(0, MakeRangeFile(number++, keys[std::min(a, b)],
                                        keys[std::max(a, b)]));
        }
        continue;
      }
      for (size_t i = 0; i < keys.size();) {
        size_t last = std::min(keys.size() - 1, i + rnd.Uniform(3));
        if (!rnd.OneIn(4)) {
          edit.AddFile(level, MakeRangeFile(number++, keys[i], keys[last]));
        }
        i = last + 1;
      }
    }
    vs.Apply(edit);
    VersionRef v = vs.current();
    std::sort(all_keys.begin(), all_keys.end());
    std::pmr::vector<const FileMetaData*> got;
    for (int probe = 0; probe < 100; probe++) {
      const std::string key = test::RandomProbeKey(&rnd, prefix, all_keys);
      std::pmr::vector<const FileMetaData*> want;
      for (const FileRef& f : v->files(0)) {
        if (covers(f, key)) want.push_back(f.get());
      }
      const size_t want_l0 = want.size();
      for (int level = 1; level < kNumLevels; level++) {
        for (const FileRef& f : v->files(level)) {
          if (f->largest.user_key().compare(key) >= 0) {
            if (covers(f, key)) want.push_back(f.get());
            break;
          }
        }
      }
      size_t got_l0 = 0;
      v->CollectSearchOrder(key, &got, &got_l0);
      ASSERT_EQ(want, got) << "trial " << trial << " probe " << probe;
      ASSERT_EQ(want_l0, got_l0);
    }
  }
}

TEST(VersionTest, PickCompactionL0TakesAllAndOverlappingL1) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);
  VersionEdit edit;
  for (int i = 1; i <= 4; i++) {
    edit.AddFile(0, MakeFile(i, i * 10, i * 10 + 50));
  }
  edit.AddFile(1, MakeFile(10, 0, 30));    // Overlaps.
  edit.AddFile(1, MakeFile(11, 500, 600)); // Does not.
  vs.Apply(edit);
  ASSERT_TRUE(vs.NeedsCompaction());

  CompactionPick pick = vs.PickCompaction();
  ASSERT_TRUE(pick.valid());
  EXPECT_EQ(0, pick.level);
  EXPECT_EQ(4u, pick.inputs[0].size());
  ASSERT_EQ(1u, pick.inputs[1].size());
  EXPECT_EQ(10u, pick.inputs[1][0]->number);
  EXPECT_TRUE(pick.bottommost) << "nothing below L1";

  // A second pick must not return overlapping work (L0 is busy).
  CompactionPick second = vs.PickCompaction();
  EXPECT_FALSE(second.valid());

  vs.ReleaseCompaction(pick);
  CompactionPick third = vs.PickCompaction();
  EXPECT_TRUE(third.valid());
  vs.ReleaseCompaction(third);
}

TEST(VersionTest, StallTriggersAtThreshold) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);
  VersionEdit edit;
  for (int i = 1; i <= options.l0_stop_writes_trigger - 1; i++) {
    edit.AddFile(0, MakeFile(i, 0, 10));
  }
  vs.Apply(edit);
  EXPECT_FALSE(vs.NeedsStall());
  VersionEdit one_more;
  one_more.AddFile(0, MakeFile(99, 0, 10));
  vs.Apply(one_more);
  EXPECT_TRUE(vs.NeedsStall());
}

TEST(VersionTest, FileGcFiresWhenLastReferenceDrops) {
  Options options = SmallVersionOptions();
  InternalKeyComparator icmp;
  std::atomic<int> gc_count{0};
  auto gc = [&](const remote::RemoteChunk&) { gc_count++; };
  {
    VersionSet vs(&icmp, &options);
    {
      // Scoped: the edit itself holds a file reference until destroyed.
      VersionEdit edit;
      edit.AddFile(0, MakeFile(1, 0, 10, 0, 1 << 20, gc));
      vs.Apply(edit);
    }

    VersionRef pinned = vs.current();  // Reader snapshot pins the file.

    VersionEdit del;
    del.DeleteFile(0, 1);
    vs.Apply(del);
    EXPECT_EQ(0, gc_count.load()) << "pinned by the reader's version";

    pinned.reset();
    EXPECT_EQ(1, gc_count.load()) << "unpinned: GC must fire";
  }
  EXPECT_EQ(1, gc_count.load());
}

TEST(VersionTest, LevelTargetsGrowGeometrically) {
  Options options = SmallVersionOptions();
  options.max_bytes_for_level_base = 10 << 20;
  options.level_size_multiplier = 10.0;
  InternalKeyComparator icmp;
  VersionSet vs(&icmp, &options);
  EXPECT_EQ(10u << 20, vs.MaxBytesForLevel(1));
  EXPECT_EQ(100u << 20, vs.MaxBytesForLevel(2));
  EXPECT_EQ(1000u << 20, vs.MaxBytesForLevel(3));
}

}  // namespace
}  // namespace dlsm

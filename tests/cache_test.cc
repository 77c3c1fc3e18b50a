// Tests for the compute-side cache: the TinyLFU frequency sketch, the
// sharded lock-free CLOCK cache, and the typed BlockCache wrapper.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/block_cache.h"
#include "src/util/cache.h"
#include "src/util/random.h"

namespace dlsm {
namespace {

// Deterministic payload for (k1, k2): hits must return exactly this.
std::string Payload(uint64_t k1, uint64_t k2, size_t len) {
  std::string p(len, '\0');
  for (size_t i = 0; i < len; i++) {
    p[i] = static_cast<char>(k1 * 31 + k2 * 7 + i);
  }
  return p;
}

// --- FrequencySketch --------------------------------------------------------

TEST(FrequencySketchTest, EstimateTracksAccessesAndSaturates) {
  FrequencySketch sketch(1024);
  EXPECT_EQ(0u, sketch.Estimate(42));
  sketch.Increment(42);
  EXPECT_GE(sketch.Estimate(42), 1u);
  for (int i = 0; i < 100; i++) sketch.Increment(42);
  EXPECT_EQ(15u, sketch.Estimate(42));  // 4-bit counters saturate.
  EXPECT_EQ(0u, sketch.Estimate(43));   // Unrelated key unaffected.
}

TEST(FrequencySketchTest, HalvingAgesCounters) {
  FrequencySketch sketch(1024);
  // 1024 counters -> one halving every 8 * 1024 recorded accesses.
  const uint64_t period = FrequencySketch::kSamplePeriodFactor * 1024;
  for (uint64_t i = 0; i < period; i++) sketch.Increment(7);
  EXPECT_EQ(1u, sketch.halvings());
  // Saturated at 15, halved once at the period boundary.
  EXPECT_EQ(7u, sketch.Estimate(7));
}

// --- ShardedClockCache ------------------------------------------------------

TEST(CacheTest, HitReturnsExactBytes) {
  ShardedClockCache cache(1 << 20, 4, true);
  std::string p = Payload(1, 100, 512);
  cache.Insert(1, 100, p.data(), p.size());
  std::string got(p.size(), '\0');
  ASSERT_TRUE(cache.Lookup(1, 100, got.data(), got.size()));
  EXPECT_EQ(p, got);
  EXPECT_FALSE(cache.Lookup(1, 101, got.data(), got.size()));
  CacheStats s = cache.stats();
  EXPECT_EQ(1u, s.hits);
  EXPECT_EQ(1u, s.inserts);
}

TEST(CacheTest, LengthMismatchIsAMiss) {
  ShardedClockCache cache(1 << 20, 1, true);
  std::string p = Payload(5, 0, 256);
  cache.Insert(5, 0, p.data(), p.size());
  std::string got(128, '\0');
  // Same key, different geometry: never serve a partial entry.
  EXPECT_FALSE(cache.Lookup(5, 0, got.data(), 128));
  got.resize(256);
  EXPECT_TRUE(cache.Lookup(5, 0, got.data(), 256));
}

TEST(CacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(8, ShardedClockCache(1 << 20, 5, true).num_shards());
  EXPECT_EQ(16, ShardedClockCache(1 << 20, 16, true).num_shards());
  EXPECT_EQ(1, ShardedClockCache(1 << 20, 0, true).num_shards());
}

TEST(CacheTest, KeysSpreadAcrossShardsAndAllHit) {
  // 64 KB over 8 shards; sequential (table, offset) keys must not pile
  // into one shard (the shard hash mixes both words), so all of a small
  // working set fits and hits.
  ShardedClockCache cache(64 << 10, 8, true);
  const size_t kLen = 128;
  for (uint64_t off = 0; off < 64; off++) {
    std::string p = Payload(9, off, kLen);
    cache.Insert(9, off, p.data(), kLen);
  }
  std::string got(kLen, '\0');
  int hits = 0;
  for (uint64_t off = 0; off < 64; off++) {
    if (cache.Lookup(9, off, got.data(), kLen)) {
      EXPECT_EQ(Payload(9, off, kLen), got);
      hits++;
    }
  }
  // 8 KB of payload against 64 KB capacity: everything fits unless the
  // shard spread is badly skewed (probe-window displacement).
  EXPECT_GE(hits, 60);
}

TEST(CacheTest, ClockEvictionBoundsUsage) {
  // One 4 KB shard (per-shard floor), admission off so every insert
  // displaces: usage must stay bounded and evictions must happen.
  ShardedClockCache cache(4096, 1, false);
  const size_t kLen = 256;
  for (uint64_t off = 0; off < 200; off++) {
    std::string p = Payload(3, off, kLen);
    cache.Insert(3, off, p.data(), kLen);
  }
  EXPECT_LE(cache.usage(), static_cast<size_t>(4096));
  CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(0u, s.admission_rejects);
}

TEST(CacheTest, AdmissionProtectsHotEntriesFromOneShotFlood) {
  ShardedClockCache cache(4096, 1, true);
  const size_t kLen = 256;
  // Hot set: fills the shard, then repeated lookups drive the sketch
  // estimates to saturation.
  std::vector<uint64_t> hot;
  for (uint64_t off = 0; off < 16; off++) {
    std::string p = Payload(1, off, kLen);
    cache.Insert(1, off, p.data(), kLen);
    hot.push_back(off);
  }
  std::string got(kLen, '\0');
  for (int round = 0; round < 20; round++) {
    for (uint64_t off : hot) cache.Lookup(1, off, got.data(), kLen);
  }
  // One-shot flood: each cold key is touched once (the miss records one
  // sketch access) and inserted once. Estimate 1 never beats the hot
  // set's 15, so the flood is refused at the CLOCK victim contest.
  for (uint64_t off = 1000; off < 1200; off++) {
    cache.Lookup(2, off, got.data(), kLen);
    std::string p = Payload(2, off, kLen);
    cache.Insert(2, off, p.data(), kLen);
  }
  CacheStats s = cache.stats();
  EXPECT_GT(s.admission_rejects, 100u);
  int hot_hits = 0;
  for (uint64_t off : hot) {
    if (cache.Lookup(1, off, got.data(), kLen)) hot_hits++;
  }
  EXPECT_GE(hot_hits, 14);  // The hot set survived the flood.
}

TEST(CacheTest, BypassAdmissionDisplacesRegardless) {
  ShardedClockCache cache(4096, 1, true);
  const size_t kLen = 256;
  std::string got(kLen, '\0');
  for (uint64_t off = 0; off < 16; off++) {
    std::string p = Payload(1, off, kLen);
    cache.Insert(1, off, p.data(), kLen);
  }
  for (int round = 0; round < 20; round++) {
    for (uint64_t off = 0; off < 16; off++) {
      cache.Lookup(1, off, got.data(), kLen);
    }
  }
  for (uint64_t off = 1000; off < 1100; off++) {
    std::string p = Payload(2, off, kLen);
    cache.Insert(2, off, p.data(), kLen, /*bypass_admission=*/true);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(CacheTest, EraseKey1DropsOnlyThatTable) {
  ShardedClockCache cache(1 << 20, 4, true);
  const size_t kLen = 128;
  for (uint64_t off = 0; off < 32; off++) {
    std::string a = Payload(1, off, kLen), b = Payload(2, off, kLen);
    cache.Insert(1, off, a.data(), kLen);
    cache.Insert(2, off, b.data(), kLen);
  }
  EXPECT_EQ(32u, cache.EraseKey1(1));
  std::string got(kLen, '\0');
  for (uint64_t off = 0; off < 32; off++) {
    EXPECT_FALSE(cache.Lookup(1, off, got.data(), kLen));
    EXPECT_TRUE(cache.Lookup(2, off, got.data(), kLen));
  }
}

// Invalidation skips shards that hold nothing; it must still find every
// entry of the table wherever it lives, and only those.
TEST(CacheTest, EraseKey1WithEmptyShardsDropsExactlyThatTable) {
  ShardedClockCache cache(1 << 20, 16, true);
  const size_t kLen = 100;
  EXPECT_EQ(0u, cache.EraseKey1(1));  // Every shard empty.
  // Few entries over 16 shards, so most shards stay empty.
  for (uint64_t off = 0; off < 3; off++) {
    std::string a = Payload(1, off, kLen), b = Payload(2, off, kLen + 1);
    cache.Insert(1, off, a.data(), kLen);
    cache.Insert(2, off, b.data(), kLen + 1);
  }
  ASSERT_EQ(3 * (2 * kLen + 1), cache.usage());
  EXPECT_EQ(0u, cache.EraseKey1(3));  // No such table.
  EXPECT_EQ(3u, cache.EraseKey1(1));
  EXPECT_EQ(3 * (kLen + 1), cache.usage());
  std::string got(kLen + 1, '\0');
  for (uint64_t off = 0; off < 3; off++) {
    EXPECT_FALSE(cache.Lookup(1, off, got.data(), kLen));
    ASSERT_TRUE(cache.Lookup(2, off, got.data(), kLen + 1));
    EXPECT_EQ(Payload(2, off, kLen + 1), got);
  }
  EXPECT_EQ(0u, cache.EraseKey1(1));  // Already gone.
}

TEST(CacheTest, ClearEmptiesEverything) {
  ShardedClockCache cache(1 << 20, 4, true);
  const size_t kLen = 128;
  for (uint64_t off = 0; off < 32; off++) {
    std::string p = Payload(1, off, kLen);
    cache.Insert(1, off, p.data(), kLen);
  }
  EXPECT_GT(cache.usage(), 0u);
  cache.Clear();
  EXPECT_EQ(0u, cache.usage());
  std::string got(kLen, '\0');
  EXPECT_FALSE(cache.Lookup(1, 0, got.data(), kLen));
}

TEST(CacheTest, OversizeEntriesAreNeverAdmitted) {
  // Per-shard budget is 4096; anything over a quarter of that is refused
  // outright so one giant entry cannot monopolize a shard.
  ShardedClockCache cache(4096, 1, false);
  std::string big = Payload(1, 0, 2048);
  cache.Insert(1, 0, big.data(), big.size());
  EXPECT_EQ(0u, cache.usage());
  std::string got(big.size(), '\0');
  EXPECT_FALSE(cache.Lookup(1, 0, got.data(), big.size()));
}

TEST(CacheTest, ConcurrentReadersAndWritersStayCoherent) {
  // Hammer one small cache from mixed reader/writer threads; every hit
  // must return the exact expected payload (the refcount pin makes the
  // copy safe against concurrent eviction). Run under tsan in CI.
  ShardedClockCache cache(64 << 10, 4, true);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  constexpr size_t kLen = 64;
  constexpr uint64_t kKeys = 512;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rnd(1000 + t);
      std::string got(kLen, '\0');
      for (int i = 0; i < kOpsPerThread; i++) {
        uint64_t k1 = rnd.Uniform(4);
        uint64_t k2 = rnd.Uniform(kKeys);
        if (t % 2 == 0) {
          std::string p = Payload(k1, k2, kLen);
          cache.Insert(k1, k2, p.data(), kLen);
        } else if (cache.Lookup(k1, k2, got.data(), kLen) &&
                   got != Payload(k1, k2, kLen)) {
          bad++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, bad.load());
  EXPECT_LE(cache.usage(), cache.capacity());
}

// --- BlockCache -------------------------------------------------------------

TEST(BlockCacheTest, OfflineFailsClosedAndDropsContents) {
  BlockCache cache(1 << 20, 2, true);
  std::string p = Payload(1, 0, 256);
  cache.Insert(1, 0, p.data(), p.size());
  std::string got(p.size(), '\0');
  ASSERT_TRUE(cache.Lookup(1, 0, got.data(), got.size()));

  cache.set_offline(true);
  EXPECT_TRUE(cache.offline());
  // Offline: lookups miss, inserts drop.
  EXPECT_FALSE(cache.Lookup(1, 0, got.data(), got.size()));
  cache.Insert(1, 1, p.data(), p.size());

  // Back online (memory node restarted): nothing cached before or during
  // the fault may be served.
  cache.set_offline(false);
  EXPECT_FALSE(cache.Lookup(1, 0, got.data(), got.size()));
  EXPECT_FALSE(cache.Lookup(1, 1, got.data(), got.size()));
  EXPECT_EQ(0u, cache.usage());
}

TEST(BlockCacheTest, InvalidateTableDropsEntries) {
  BlockCache cache(1 << 20, 2, true);
  std::string p = Payload(7, 0, 256);
  cache.Insert(7, 0, p.data(), p.size());
  cache.Insert(7, 256, p.data(), p.size());
  cache.Insert(8, 0, p.data(), p.size());
  EXPECT_EQ(2u, cache.InvalidateTable(7));
  std::string got(p.size(), '\0');
  EXPECT_FALSE(cache.Lookup(7, 0, got.data(), got.size()));
  EXPECT_TRUE(cache.Lookup(8, 0, got.data(), got.size()));
}

TEST(BlockCacheTest, PropertyStringReportsCounters) {
  BlockCache cache(1 << 20, 2, true);
  std::string p = Payload(1, 0, 256);
  cache.Insert(1, 0, p.data(), p.size());
  std::string got(p.size(), '\0');
  cache.Lookup(1, 0, got.data(), got.size());
  cache.Lookup(1, 999, got.data(), got.size());
  std::string prop = cache.PropertyString();
  EXPECT_NE(std::string::npos, prop.find("hits=1"));
  EXPECT_NE(std::string::npos, prop.find("misses=1"));
  EXPECT_NE(std::string::npos, prop.find("inserts=1"));
  cache.set_offline(true);
  EXPECT_NE(std::string::npos, cache.PropertyString().find("offline"));
}

}  // namespace
}  // namespace dlsm

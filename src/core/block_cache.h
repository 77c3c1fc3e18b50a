// Compute-side hot-data cache: the typed view over ShardedClockCache
// used by the read paths. Entries are keyed by (table id, byte offset)
// and hold the exact bytes a one-sided READ of that (offset, length)
// would return — a hit elides the fabric round trip entirely.
//
// Correctness model: SSTable chunks are immutable and file numbers from
// VersionSet::NewFileNumber() are never reused, so a (table, offset, len)
// key can never alias different bytes. Invalidation (on table deletion
// after compaction, and on memory-node crash) is therefore hygiene plus
// fail-closed crash semantics rather than a coherence requirement.
//
// Fail-closed: while the memory node is crashed the cache refuses to
// serve (offline flag, contents dropped), so a cached read can never
// succeed where the equivalent fabric read would have failed — keeping
// the fault-sweep "byte-identical or fail-closed" contract intact.

#ifndef DLSM_CORE_BLOCK_CACHE_H_
#define DLSM_CORE_BLOCK_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/cache.h"

namespace dlsm {

class BlockCache {
 public:
  /// capacity_bytes: payload budget (Options::block_cache_size).
  /// num_shards: rounded up to a power of two (Options::cache_shards).
  /// admission: enable the TinyLFU sketch (always on in the engine; tests
  /// build caches without it).
  BlockCache(size_t capacity_bytes, int num_shards, bool admission)
      : cache_(capacity_bytes, num_shards, admission) {}

  /// Returns true and fills dst[0..len) on hit. Always a miss while
  /// offline (memory node crashed).
  bool Lookup(uint64_t table, uint64_t offset, char* dst, size_t len) {
    if (offline_.load(std::memory_order_acquire)) return false;
    return cache_.Lookup(table, offset, dst, len);
  }

  /// Inserts bytes just read from the fabric. Dropped while offline.
  /// bypass_admission: skip the TinyLFU contest (point-read harvest
  /// inserts when the caller wants unconditional caching).
  void Insert(uint64_t table, uint64_t offset, const char* src, size_t len,
              bool bypass_admission = false) {
    if (offline_.load(std::memory_order_acquire)) return;
    cache_.Insert(table, offset, src, len, bypass_admission);
  }

  /// Drops all entries of one table (called when the table's remote
  /// chunk is freed after a compaction install).
  size_t InvalidateTable(uint64_t table) { return cache_.EraseKey1(table); }

  void Clear() { cache_.Clear(); }

  /// Crash/restart hook: going offline also drops the contents, so a
  /// restart never serves bytes cached before the fault.
  void set_offline(bool offline) {
    offline_.store(offline, std::memory_order_release);
    if (offline) cache_.Clear();
  }
  bool offline() const { return offline_.load(std::memory_order_acquire); }

  CacheStats stats() const { return cache_.stats(); }
  size_t usage() const { return cache_.usage(); }
  size_t capacity() const { return cache_.capacity(); }

  /// Human-readable summary backing the "dlsm.cache" property.
  std::string PropertyString() const;

 private:
  ShardedClockCache cache_;
  std::atomic<bool> offline_{false};
};

}  // namespace dlsm

#endif  // DLSM_CORE_BLOCK_CACHE_H_

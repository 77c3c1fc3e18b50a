#include "src/util/cache.h"

#include <cstring>
#include <mutex>

#include "src/util/hash.h"

namespace dlsm {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// One hash drives everything: shard choice (top bits), the 8-bit slot
/// tag (next byte down), and the home slot (low bits). Mixing both key
/// words through splitmix64 keeps sequential (table, offset) pairs from
/// clustering in one shard.
uint64_t KeyHash(uint64_t k1, uint64_t k2) {
  return Hash64(k1 * 0x9E3779B97F4A7C15ull ^ Hash64(k2));
}

}  // namespace

// ---------------------------------------------------------------------------
// FrequencySketch

FrequencySketch::FrequencySketch(size_t num_counters) {
  size_t n = RoundUpPow2(num_counters < 1024 ? 1024 : num_counters);
  mask_ = n - 1;
  // Two counters per byte; value-initialized atomics start at zero.
  table_ = std::vector<std::atomic<uint8_t>>(n / 2);
  sample_period_ = kSamplePeriodFactor * n;
}

size_t FrequencySketch::RowIndex(uint64_t hash, int row) const {
  // Derive kRows independent indexes from one 64-bit hash by remixing
  // with a per-row odd constant.
  uint64_t h = Hash64(hash + 0x9E3779B97F4A7C15ull * (row + 1));
  return static_cast<size_t>(h) & mask_;
}

void FrequencySketch::Increment(uint64_t hash) {
  for (int row = 0; row < kRows; ++row) {
    size_t idx = RowIndex(hash, row);
    std::atomic<uint8_t>& cell = table_[idx >> 1];
    uint8_t shift = (idx & 1) ? 4 : 0;
    uint8_t cur = cell.load(std::memory_order_relaxed);
    while (true) {
      uint8_t nibble = (cur >> shift) & 0x0F;
      if (nibble == 0x0F) break;  // Saturated.
      uint8_t next = static_cast<uint8_t>(
          (cur & ~(0x0F << shift)) | ((nibble + 1) << shift));
      if (cell.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
        break;
      }
    }
  }
  if ((ops_.fetch_add(1, std::memory_order_relaxed) + 1) % sample_period_ ==
      0) {
    Age();
  }
}

uint32_t FrequencySketch::Estimate(uint64_t hash) const {
  uint32_t est = 0x0F;
  for (int row = 0; row < kRows; ++row) {
    size_t idx = RowIndex(hash, row);
    uint8_t cell = table_[idx >> 1].load(std::memory_order_relaxed);
    uint8_t nibble = (idx & 1) ? (cell >> 4) : (cell & 0x0F);
    if (nibble < est) est = nibble;
  }
  return est;
}

void FrequencySketch::Age() {
  // Halve both nibbles of every byte. (b >> 1) & 0x77 clears the bit
  // that would otherwise leak from the high nibble into the low one.
  for (auto& cell : table_) {
    uint8_t cur = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(
        cur, static_cast<uint8_t>((cur >> 1) & 0x77),
        std::memory_order_relaxed)) {
    }
  }
  halvings_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ShardedClockCache

namespace {

// Slot state word layout. Readers only touch `state`, `k1/k2/len` (after
// acquiring a reference) and the payload; all other mutation happens
// under the shard mutex with refs held at zero.
constexpr uint64_t kReady = 1ull << 63;    // Slot holds a valid entry.
constexpr uint64_t kClaimed = 1ull << 62;  // Writer is mutating the slot.
constexpr uint64_t kClock = 1ull << 61;    // CLOCK reference bit.
constexpr uint64_t kTagShift = 48;         // 8-bit key-hash tag.
constexpr uint64_t kTagMask = 0xFFull << kTagShift;
constexpr uint64_t kRefMask = 0xFFFFFFFFull;  // Reader refcount.

constexpr size_t kAvgEntryBytes = 128;  // Sizing heuristic for slot count.
constexpr int kProbeWindow = 16;        // Open-addressing probe length.

}  // namespace

struct ShardedClockCache::Shard {
  struct Slot {
    std::atomic<uint64_t> state{0};
    uint64_t k1 = 0;
    uint64_t k2 = 0;
    std::unique_ptr<char[]> data;
    size_t len = 0;
  };

  explicit Shard(size_t capacity_bytes)
      : capacity(capacity_bytes),
        slots(RoundUpPow2(capacity_bytes / kAvgEntryBytes < 64
                              ? 64
                              : capacity_bytes / kAvgEntryBytes)) {}

  size_t SlotMask() const { return slots.size() - 1; }

  const size_t capacity;
  std::mutex mu;             // Serializes writers (insert/evict/erase).
  size_t usage = 0;          // Payload bytes resident (under mu).
  size_t clock_hand = 0;     // CLOCK sweep position (under mu).
  std::vector<Slot> slots;

  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> admission_rejects{0};

  // Frees a slot the caller has already claimed (refs == 0, kClaimed
  // set). Must hold mu.
  void FreeClaimed(Slot& slot) {
    usage -= slot.len;
    slot.data.reset();
    slot.len = 0;
    slot.k1 = slot.k2 = 0;
    slot.state.store(0, std::memory_order_release);
  }

  // Tries to transition a ready, unreferenced slot to kClaimed so the
  // writer may mutate it. Fails if readers hold references or the slot
  // changed. Must hold mu.
  bool TryClaim(Slot& slot) {
    uint64_t cur = slot.state.load(std::memory_order_acquire);
    for (int spin = 0; spin < 1024; ++spin) {
      if (!(cur & kReady) || (cur & kClaimed)) return false;
      if ((cur & kRefMask) != 0) {
        // A reader holds the slot; re-read — reads are short (memcpy).
        cur = slot.state.load(std::memory_order_acquire);
        continue;
      }
      if (slot.state.compare_exchange_weak(cur, cur | kClaimed,
                                           std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }
};

ShardedClockCache::ShardedClockCache(size_t capacity_bytes, int num_shards,
                                     bool admission)
    : capacity_(capacity_bytes),
      admission_(admission),
      sketch_(capacity_bytes / kAvgEntryBytes) {
  size_t n = RoundUpPow2(num_shards < 1 ? 1 : num_shards);
  size_t per_shard = capacity_bytes / n;
  if (per_shard < 4096) per_shard = 4096;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

ShardedClockCache::~ShardedClockCache() = default;

bool ShardedClockCache::Lookup(uint64_t k1, uint64_t k2, char* dst,
                               size_t len) {
  uint64_t hash = KeyHash(k1, k2);
  if (admission_) sketch_.Increment(hash);
  Shard& shard = *shards_[(hash >> 56) & (shards_.size() - 1)];
  uint64_t tag = (hash >> kTagShift) & 0xFF;
  size_t home = static_cast<size_t>(hash) & shard.SlotMask();

  for (int probe = 0; probe < kProbeWindow; ++probe) {
    Shard::Slot& slot = shard.slots[(home + probe) & shard.SlotMask()];
    uint64_t cur = slot.state.load(std::memory_order_acquire);
    if (!(cur & kReady) || (cur & kClaimed) ||
        ((cur >> kTagShift) & 0xFF) != tag) {
      continue;
    }
    // Tag matches: pin the slot with a reference so writers cannot
    // reclaim it mid-copy, then verify the full key.
    if (!slot.state.compare_exchange_strong(cur, cur + 1,
                                            std::memory_order_acquire)) {
      continue;  // Slot changed under us; treat as miss for this probe.
    }
    bool hit = slot.k1 == k1 && slot.k2 == k2 && slot.len == len;
    if (hit) {
      std::memcpy(dst, slot.data.get(), len);
      slot.state.fetch_or(kClock, std::memory_order_relaxed);
    }
    slot.state.fetch_sub(1, std::memory_order_release);
    if (hit) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ShardedClockCache::Insert(uint64_t k1, uint64_t k2, const char* src,
                               size_t len, bool bypass_admission) {
  uint64_t hash = KeyHash(k1, k2);
  Shard& shard = *shards_[(hash >> 56) & (shards_.size() - 1)];
  if (len == 0 || len > shard.capacity / 4) return;  // Oversize guard.
  uint64_t tag = (hash >> kTagShift) & 0xFF;
  size_t home = static_cast<size_t>(hash) & shard.SlotMask();

  std::lock_guard<std::mutex> lock(shard.mu);

  // Duplicate check. Ready-slot keys are stable under the shard mutex
  // (only writers, which we exclude, mutate them), so plain reads are
  // safe here.
  int empty_probe = -1;
  for (int probe = 0; probe < kProbeWindow; ++probe) {
    Shard::Slot& slot = shard.slots[(home + probe) & shard.SlotMask()];
    uint64_t cur = slot.state.load(std::memory_order_acquire);
    if (!(cur & kReady)) {
      if (empty_probe < 0 && !(cur & kClaimed)) empty_probe = probe;
      continue;
    }
    if (slot.k1 == k1 && slot.k2 == k2) {
      slot.state.fetch_or(kClock, std::memory_order_relaxed);
      return;  // Present: refresh recency, keep existing payload.
    }
  }

  // Admission: the newcomer must beat a CLOCK victim's estimated
  // frequency to displace it. Bypass for freshly-read entries the caller
  // knows are hot (e.g. harvest inserts with admission disabled) and
  // when there is spare capacity anyway.
  auto admit_over = [&](uint64_t victim_hash) {
    if (!admission_ || bypass_admission) return true;
    return sketch_.Estimate(hash) > sketch_.Estimate(victim_hash);
  };

  // Make byte room via CLOCK sweep.
  size_t swept = 0;
  const size_t max_sweep = shard.slots.size() * 2;
  while (shard.usage + len > shard.capacity && swept < max_sweep) {
    Shard::Slot& victim = shard.slots[shard.clock_hand];
    shard.clock_hand = (shard.clock_hand + 1) & shard.SlotMask();
    ++swept;
    uint64_t cur = victim.state.load(std::memory_order_acquire);
    if (!(cur & kReady) || (cur & kClaimed)) continue;
    if (cur & kClock) {
      victim.state.fetch_and(~kClock, std::memory_order_relaxed);
      continue;
    }
    if (!admit_over(KeyHash(victim.k1, victim.k2))) {
      shard.admission_rejects.fetch_add(1, std::memory_order_relaxed);
      return;  // Victim is hotter than the newcomer; drop the insert.
    }
    if (shard.TryClaim(victim)) {
      shard.FreeClaimed(victim);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (shard.usage + len > shard.capacity) return;  // Everything pinned.

  // Find a slot in the probe window: prefer an empty one, else evict the
  // window entry (subject to the same admission contest).
  Shard::Slot* target = nullptr;
  if (empty_probe >= 0) {
    Shard::Slot& slot =
        shard.slots[(home + empty_probe) & shard.SlotMask()];
    if (!(slot.state.load(std::memory_order_acquire) & (kReady | kClaimed))) {
      target = &slot;
    }
  }
  if (target == nullptr) {
    for (int probe = 0; probe < kProbeWindow && target == nullptr; ++probe) {
      Shard::Slot& slot = shard.slots[(home + probe) & shard.SlotMask()];
      uint64_t cur = slot.state.load(std::memory_order_acquire);
      if (!(cur & kReady)) {
        if (!(cur & kClaimed)) target = &slot;
        continue;
      }
      if (!admit_over(KeyHash(slot.k1, slot.k2))) continue;
      if (shard.TryClaim(slot)) {
        shard.FreeClaimed(slot);
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
        target = &slot;
      }
    }
  }
  if (target == nullptr) {
    shard.admission_rejects.fetch_add(1, std::memory_order_relaxed);
    return;  // Whole window hotter or pinned.
  }

  target->state.store(kClaimed, std::memory_order_release);
  target->k1 = k1;
  target->k2 = k2;
  target->data = std::make_unique<char[]>(len);
  std::memcpy(target->data.get(), src, len);
  target->len = len;
  shard.usage += len;
  target->state.store(kReady | kClock | (tag << kTagShift),
                      std::memory_order_release);
  shard.inserts.fetch_add(1, std::memory_order_relaxed);
}

size_t ShardedClockCache::EraseKey1(uint64_t k1) {
  size_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    // Entries are never empty, so a shard with no bytes holds none: skip
    // its slot walk (an empty cache is the common case at table deletion
    // while a dataset loads).
    if (shard.usage == 0) continue;
    for (auto& slot : shard.slots) {
      uint64_t cur = slot.state.load(std::memory_order_acquire);
      if (!(cur & kReady)) continue;
      if (slot.k1 != k1) continue;
      if (shard.TryClaim(slot)) {
        shard.FreeClaimed(slot);
        ++dropped;
      }
    }
  }
  return dropped;
}

void ShardedClockCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& slot : shard.slots) {
      uint64_t cur = slot.state.load(std::memory_order_acquire);
      if (!(cur & kReady)) continue;
      if (shard.TryClaim(slot)) shard.FreeClaimed(slot);
    }
  }
}

CacheStats ShardedClockCache::stats() const {
  CacheStats s;
  for (const auto& shard : shards_) {
    s.hits += shard->hits.load(std::memory_order_relaxed);
    s.misses += shard->misses.load(std::memory_order_relaxed);
    s.inserts += shard->inserts.load(std::memory_order_relaxed);
    s.evictions += shard->evictions.load(std::memory_order_relaxed);
    s.admission_rejects +=
        shard->admission_rejects.load(std::memory_order_relaxed);
  }
  return s;
}

size_t ShardedClockCache::usage() const {
  size_t u = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    u += shard->usage;
  }
  return u;
}

}  // namespace dlsm

#include "src/core/bloom.h"

#include <cstdint>
#include <vector>

#include "src/util/hash.h"
#include "src/util/logging.h"

namespace dlsm {

uint32_t BloomFilterPolicy::KeyHash(const Slice& key) {
  return Hash(key.data(), key.size(), 0xbc9f1d34);
}

BloomFilterPolicy::BloomFilterPolicy(int bits_per_key)
    : bits_per_key_(bits_per_key) {
  // k = bits_per_key * ln(2), rounded; clamp to a sane range.
  k_ = static_cast<int>(bits_per_key * 0.69);
  if (k_ < 1) k_ = 1;
  if (k_ > 30) k_ = 30;
}

void BloomFilterPolicy::CreateFilterFromHashes(const uint32_t* hashes,
                                               size_t n,
                                               std::string* dst) const {
  size_t bits = n * bits_per_key_;
  if (bits < 64) bits = 64;
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;
  // Bit positions are taken modulo bits in 32-bit arithmetic, here and in
  // HashMayMatch: a filter stays under 512 MiB.
  DLSM_CHECK(bits <= UINT32_MAX);
  const uint32_t nbits = static_cast<uint32_t>(bits);

  const size_t init_size = dst->size();
  dst->resize(init_size + bytes, 0);
  dst->push_back(static_cast<char>(k_));  // Probe count in the last byte.
  char* array = &(*dst)[init_size];
  for (size_t i = 0; i < n; i++) {
    // Double hashing: h, h+delta, h+2*delta, ...
    uint32_t h = hashes[i];
    const uint32_t delta = (h >> 17) | (h << 15);
    for (int j = 0; j < k_; j++) {
      const uint32_t bitpos = h % nbits;
      array[bitpos / 8] |= (1 << (bitpos % 8));
      h += delta;
    }
  }
}

void BloomFilterPolicy::CreateFilter(const Slice* keys, int n,
                                     std::string* dst) const {
  std::vector<uint32_t> hashes(n);
  for (int i = 0; i < n; i++) hashes[i] = KeyHash(keys[i]);
  CreateFilterFromHashes(hashes.data(), hashes.size(), dst);
}

bool BloomFilterPolicy::HashMayMatch(uint32_t hash,
                                     const Slice& filter) const {
  const size_t len = filter.size();
  if (len < 2) return false;

  const char* array = filter.data();
  const int k = array[len - 1];
  if (k > 30 || len - 1 > UINT32_MAX / 8) {
    // Reserved for future encodings, or larger than any filter built:
    // treat as a match.
    return true;
  }
  const uint32_t bits = static_cast<uint32_t>(len - 1) * 8;

  uint32_t h = hash;
  const uint32_t delta = (h >> 17) | (h << 15);
  for (int j = 0; j < k; j++) {
    const uint32_t bitpos = h % bits;
    if ((array[bitpos / 8] & (1 << (bitpos % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

}  // namespace dlsm

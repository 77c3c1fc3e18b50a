// Bloom filter (double-hashing scheme, as in LevelDB's built-in policy).
// Each SSTable carries one filter over its user keys; the compute node
// caches filters locally to skip remote reads (paper Secs. II-C, VI).

#ifndef DLSM_CORE_BLOOM_H_
#define DLSM_CORE_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/slice.h"

namespace dlsm {

/// Builds and probes bloom filters with a configurable bits-per-key budget.
class BloomFilterPolicy {
 public:
  explicit BloomFilterPolicy(int bits_per_key);

  /// The hash a filter keeps of a key. Table builders keep one per record
  /// and build the filter from them at Finish.
  static uint32_t KeyHash(const Slice& key);

  /// Appends a filter over the keys whose KeyHash values are
  /// hashes[0..n) to *dst.
  void CreateFilterFromHashes(const uint32_t* hashes, size_t n,
                              std::string* dst) const;

  /// Appends a filter over keys[0..n) to *dst.
  void CreateFilter(const Slice* keys, int n, std::string* dst) const;

  /// Returns false only if key is definitely not in the filter.
  bool KeyMayMatch(const Slice& key, const Slice& filter) const {
    return HashMayMatch(KeyHash(key), filter);
  }

  /// KeyMayMatch for the key whose KeyHash is hash, so a lookup probing
  /// several tables hashes its key once.
  bool HashMayMatch(uint32_t hash, const Slice& filter) const;

  int bits_per_key() const { return bits_per_key_; }

 private:
  int bits_per_key_;
  int k_;  // Number of probes.
};

}  // namespace dlsm

#endif  // DLSM_CORE_BLOOM_H_

// Fixed-width search words over a sorted run of user keys.
//
// Every key of a run sorted in bytewise order shares the prefix common to
// its first and last key. The next 8 bytes of each key, read as a
// big-endian integer and zero-padded when the key ends sooner, keep that
// order: no key gets a larger word than a later key. So a binary search
// over one contiguous array of words narrows a lookup to the keys whose
// word equals the target's — usually one key, or the versions of one user
// key — without decoding a single key. Only inside that run must a caller
// compare full keys. The table index and each level's file list
// (Version::CollectSearchOrder) search this way on the compute node.

#ifndef DLSM_CORE_KEY_WORDS_H_
#define DLSM_CORE_KEY_WORDS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/slice.h"

namespace dlsm {

/// One search word per key of a bytewise-sorted run, plus the run's prefix.
class KeyWords {
 public:
  void Reserve(size_t n) { words_.reserve(n); }

  /// Appends the run's next key; keys come in bytewise order. Words are
  /// read at the prefix known so far and corrected by Finish, so a reader
  /// builds the words in the same pass that decodes its keys.
  void Add(const Slice& user_key);

  /// Completes the run. Call once, after the last Add, before searching.
  void Finish();

  /// [lo, hi): the keys whose word equals user_key's. Every key before lo
  /// is below user_key and every key from hi on is above it.
  std::pair<size_t, size_t> EqualRange(const Slice& user_key) const;

  /// After Finish: the length of the prefix every key shares. Keys in one
  /// EqualRange agree on their first prefix_size() + 8 bytes, zero-padded.
  size_t prefix_size() const { return prefix_.size(); }

 private:
  // Until Finish, the first key whole; prefix_len_ is how much of it every
  // key added so far shares.
  std::string prefix_;
  size_t prefix_len_ = 0;
  std::vector<uint64_t> words_;
  // (first key, prefix length its words were read at), one per shrink of
  // the running prefix; Finish re-reads the words at the final length.
  std::vector<std::pair<size_t, size_t>> segments_;
};

}  // namespace dlsm

#endif  // DLSM_CORE_KEY_WORDS_H_

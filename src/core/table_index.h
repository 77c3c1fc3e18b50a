// SSTable index + bloom filter, cached on the compute node (paper Sec. VI).
//
// Byte-addressable format: one index entry per key-value record — (internal
// key, record offset, record length) — so a point read fetches exactly one
// record from remote memory.
//
// Block format: one index entry per block — (last internal key in block,
// block offset, block length) — so a point read fetches a whole block, as
// RocksDB does on block devices.
//
// The serialized form is what near-data compaction ships back in its RPC
// reply ("the memory node sends the metadata of the new SSTables").

#ifndef DLSM_CORE_TABLE_INDEX_H_
#define DLSM_CORE_TABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bloom.h"
#include "src/core/dbformat.h"
#include "src/core/key_words.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dlsm {

/// Parsed, binary-searchable SSTable index plus bloom filter.
class TableIndex {
 public:
  enum Kind : uint8_t {
    kPerRecord = 1,  // Byte-addressable layout.
    kPerBlock = 2,   // Block layout.
  };

  /// One entry, decoded once by Parse into a fixed-width array so a lookup
  /// reads no varint. The key stays in the blob; key(i) points at it.
  struct Entry {
    uint64_t offset;        ///< Byte offset inside the table's data region.
    uint64_t trailer;       ///< The key's (sequence << 8 | type) trailer.
    uint32_t length;        ///< Record length or block length.
    uint32_t key_start;     ///< Where the internal key starts in blob().
    uint32_t user_key_len;  ///< The key's length less its 8-byte trailer.
  };

  /// Parses a serialized index blob; returns nullptr on corruption.
  static std::shared_ptr<TableIndex> Parse(std::string blob);

  Kind kind() const { return kind_; }
  size_t num_entries() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  /// Internal key (per-record) or block's last key, inside blob().
  Slice key(size_t i) const {
    return Slice(blob_.data() + entries_[i].key_start,
                 entries_[i].user_key_len + 8);
  }
  Slice user_key(size_t i) const {
    return Slice(blob_.data() + entries_[i].key_start,
                 entries_[i].user_key_len);
  }

  /// Returns the position of the first entry whose internal key is >=
  /// target (per-record), or the first block that could contain target
  /// (per-block). num_entries() if past the end. User keys must be in
  /// bytewise order. If same_user_key is set, *same_user_key tells whether
  /// that entry's user key equals target's. The entries' key words narrow
  /// the search; inside a run of equal words, lengths and trailers decide
  /// unless both keys run past the word, and only then is the blob read.
  size_t Find(const Slice& target, bool* same_user_key = nullptr) const;

  /// Bloom probe of a user key by its BloomFilterPolicy::KeyHash. Returns
  /// true if the table has no filter.
  bool HashMayMatch(const BloomFilterPolicy& policy, uint32_t hash) const;

  /// The serialized form (for RPC shipping and accounting).
  const std::string& blob() const { return blob_; }

  /// Builder-side serialization, straight into the blob it returns.
  class Builder {
   public:
    explicit Builder(Kind kind);

    /// Records must be appended in key order.
    void Add(const Slice& key, uint64_t offset, uint32_t length);

    /// Appends the bloom filter bytes and returns the serialized blob; the
    /// builder is spent.
    std::string Finish(const Slice& filter = Slice());

   private:
    Kind kind_;
    std::string blob_;  // A header gap, then the entries.
    uint32_t count_ = 0;
  };

 private:
  TableIndex() = default;

  Kind kind_ = kPerRecord;
  std::string blob_;
  std::vector<Entry> entries_;
  KeyWords words_;  // One per entry, of its user key.
  Slice filter_;    // Points into blob_.
};

}  // namespace dlsm

#endif  // DLSM_CORE_TABLE_INDEX_H_

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

  struct Entry {
    Slice key;        ///< Internal key (per-record) or block's last key.
    uint64_t offset;  ///< Byte offset inside the table's data region.
    uint32_t length;  ///< Record length or block length.
  };

  /// Parses a serialized index blob; returns nullptr on corruption.
  static std::shared_ptr<TableIndex> Parse(std::string blob);

  Kind kind() const { return kind_; }
  size_t num_entries() const { return starts_.size(); }
  Entry entry(size_t i) const;

  /// Returns the position of the first entry whose key is >= target
  /// (per-record), or the first block that could contain target
  /// (per-block). num_entries() if past the end. Searches the entries' key
  /// words first, so user keys must be in bytewise order; cmp orders only
  /// the entries that share target's word.
  size_t Find(const InternalKeyComparator& cmp, const Slice& target) const;

  /// Bloom probe over the user key. Returns true if absent filters.
  bool KeyMayMatch(const BloomFilterPolicy& policy,
                   const Slice& user_key) const;

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

  Slice key(size_t i) const;

  Kind kind_ = kPerRecord;
  std::string blob_;
  std::vector<uint32_t> starts_;  // Offset of each entry within blob_.
  KeyWords words_;                // One per entry, of its user key.
  Slice filter_;                  // Points into blob_.
};

}  // namespace dlsm

#endif  // DLSM_CORE_TABLE_INDEX_H_

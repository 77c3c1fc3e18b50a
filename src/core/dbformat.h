// Internal key format: user_key + 8-byte trailer packing (sequence << 8 |
// value type), ordered by (user key ascending, sequence descending) so the
// newest version of a key sorts first, as in LevelDB/RocksDB.

#ifndef DLSM_CORE_DBFORMAT_H_
#define DLSM_CORE_DBFORMAT_H_

#include <cstdint>
#include <string>

#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/slice.h"

namespace dlsm {

using SequenceNumber = uint64_t;

/// Largest representable sequence number (56 bits, as the trailer packs the
/// type into the low byte).
constexpr SequenceNumber kMaxSequenceNumber = ((0x1ull << 56) - 1);

enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
};

/// Passed to seeks so that deletions at the same (key, seq) sort after
/// values would — kValueTypeForSeek must be the highest-numbered type.
constexpr ValueType kValueTypeForSeek = kTypeValue;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | t;
}

/// A parsed internal key.
struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = kTypeValue;

  ParsedInternalKey() = default;
  ParsedInternalKey(const Slice& u, SequenceNumber seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}
};

/// Appends the serialization of key to *result.
void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

/// Parses an internal key; returns false on malformed input.
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

/// Returns the user key portion of an internal key.
inline Slice ExtractUserKey(const Slice& internal_key) {
  DLSM_CHECK(internal_key.size() >= 8);
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline uint64_t ExtractTrailer(const Slice& internal_key) {
  DLSM_CHECK(internal_key.size() >= 8);
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8);
}

inline SequenceNumber ExtractSequence(const Slice& internal_key) {
  return ExtractTrailer(internal_key) >> 8;
}

/// Orders internal keys by (user key asc, sequence desc, type desc). User
/// keys sort bytewise: the memory node's near-data compaction and the
/// compute-side key-word searches rely on that order.
class InternalKeyComparator {
 public:
  int Compare(const Slice& a, const Slice& b) const {
    int r = ExtractUserKey(a).compare(ExtractUserKey(b));
    if (r == 0) {
      const uint64_t anum = ExtractTrailer(a);
      const uint64_t bnum = ExtractTrailer(b);
      if (anum > bnum) {
        r = -1;
      } else if (anum < bnum) {
        r = +1;
      }
    }
    return r;
  }
};

/// An owned internal key.
class InternalKey {
 public:
  InternalKey() = default;
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  void DecodeFrom(const Slice& s) { rep_.assign(s.data(), s.size()); }
  Slice Encode() const { return rep_; }
  Slice user_key() const { return ExtractUserKey(rep_); }
  bool empty() const { return rep_.empty(); }
  void Clear() { rep_.clear(); }

 private:
  std::string rep_;
};

/// The key layout a MemTable lookup uses: length-prefixed internal key.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence);
  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;
  ~LookupKey();

  /// Key formatted for MemTable seeks (varint length + internal key).
  Slice memtable_key() const { return Slice(start_, end_ - start_); }
  /// The internal key.
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }
  /// The user key.
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // Avoids allocation for short keys.
};

}  // namespace dlsm

#endif  // DLSM_CORE_DBFORMAT_H_

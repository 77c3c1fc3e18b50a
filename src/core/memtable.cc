#include "src/core/memtable.h"

#include "src/util/coding.h"

namespace dlsm {

namespace {

// Entry layout in the skiplist (as in LevelDB):
//   varint32 internal_key_len
//   char     internal_key[internal_key_len]   (user key + 8-byte trailer)
//   varint32 value_len
//   char     value[value_len]
Slice GetLengthPrefixedSliceAt(const char* data) {
  uint32_t len;
  const char* p = data;
  p = GetVarint32Ptr(p, p + 5, &len);
  return Slice(p, len);
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* aptr,
                                        const char* bptr) const {
  Slice a = GetLengthPrefixedSliceAt(aptr);
  Slice b = GetLengthPrefixedSliceAt(bptr);
  return comparator.Compare(a, b);
}

MemTable::MemTable(const InternalKeyComparator& comparator,
                   SequenceNumber seq_base, SequenceNumber seq_limit)
    : comparator_(comparator),
      seq_base_(seq_base),
      seq_limit_(seq_limit),
      table_(comparator_, &arena_) {}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  const size_t key_size = key.size();
  const size_t val_size = value.size();
  const size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  memcpy(p, value.data(), val_size);
  DLSM_CHECK(p + val_size == buf + encoded_len);
  table_.Insert(buf);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s) {
  Slice memkey = key.memtable_key();
  Table::Iterator iter(&table_);
  iter.Seek(memkey.data());
  if (iter.Valid()) {
    // Check that the entry belongs to the same user key; the trailer in the
    // lookup key makes Seek land at the newest visible version.
    const char* entry = iter.key();
    uint32_t key_length;
    const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
    if (Slice(key_ptr, key_length - 8) == key.user_key()) {
      const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
      switch (static_cast<ValueType>(tag & 0xff)) {
        case kTypeValue: {
          Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
          value->assign(v.data(), v.size());
          *s = Status::OK();
          return true;
        }
        case kTypeDeletion:
          *s = Status::NotFound(Slice());
          return true;
      }
    }
  }
  return false;
}

/// Iterator over a MemTable's skiplist. Keeps no reference itself; the
/// creator is responsible for pinning the MemTable.
class MemTableIterator : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override {
    tmp_.clear();
    PutVarint32(&tmp_, static_cast<uint32_t>(k.size()));
    tmp_.append(k.data(), k.size());
    iter_.Seek(tmp_.data());
  }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override {
    return GetLengthPrefixedSliceAt(iter_.key());
  }
  Slice value() const override {
    Slice key_slice = GetLengthPrefixedSliceAt(iter_.key());
    return GetLengthPrefixedSliceAt(key_slice.data() + key_slice.size());
  }
  Status status() const override { return Status::OK(); }

 private:
  static Slice GetLengthPrefixedSliceAt(const char* data) {
    uint32_t len;
    const char* p = data;
    p = GetVarint32Ptr(p, p + 5, &len);
    return Slice(p, len);
  }

  MemTable::Table::Iterator iter_;
  std::string tmp_;  // For passing to Seek.
};

Iterator* MemTable::NewIterator() { return new MemTableIterator(&table_); }

}  // namespace dlsm

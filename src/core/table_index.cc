#include "src/core/table_index.h"

#include <cstring>

#include "src/util/coding.h"

namespace dlsm {

// Serialized layout:
//   u8 kind
//   varint32 count
//   count * [ varint32 key_len | key | varint64 offset | varint32 length ]
//   varint32 filter_len | filter bytes

namespace {
// Room for the kind byte and the longest count varint.
constexpr size_t kHeaderGap = 1 + 5;
}  // namespace

TableIndex::Builder::Builder(Kind kind) : kind_(kind), blob_(kHeaderGap, 0) {}

void TableIndex::Builder::Add(const Slice& key, uint64_t offset,
                              uint32_t length) {
  PutVarint32(&blob_, static_cast<uint32_t>(key.size()));
  blob_.append(key.data(), key.size());
  char buf[10 + 5];
  char* p = EncodeVarint64(buf, offset);
  p = EncodeVarint32(p, length);
  blob_.append(buf, p - buf);
  count_++;
}

std::string TableIndex::Builder::Finish(const Slice& filter) {
  PutVarint32(&blob_, static_cast<uint32_t>(filter.size()));
  blob_.append(filter.data(), filter.size());
  // The count is known only now: write the header right before the
  // entries and drop the part of the gap it does not fill.
  char count[5];
  const size_t count_len = EncodeVarint32(count, count_) - count;
  const size_t start = kHeaderGap - 1 - count_len;
  blob_[start] = static_cast<char>(kind_);
  std::memcpy(&blob_[start + 1], count, count_len);
  blob_.erase(0, start);
  return std::move(blob_);
}

std::shared_ptr<TableIndex> TableIndex::Parse(std::string blob) {
  auto index = std::shared_ptr<TableIndex>(new TableIndex());
  index->blob_ = std::move(blob);
  const std::string& b = index->blob_;
  Slice input(b);
  if (input.size() < 2) return nullptr;
  uint8_t kind = static_cast<uint8_t>(input[0]);
  if (kind != kPerRecord && kind != kPerBlock) return nullptr;
  index->kind_ = static_cast<Kind>(kind);
  input.remove_prefix(1);
  uint32_t count;
  if (!GetVarint32(&input, &count)) return nullptr;
  index->starts_.reserve(count);
  index->words_.Reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    index->starts_.push_back(
        static_cast<uint32_t>(input.data() - b.data()));
    uint32_t key_len;
    if (!GetVarint32(&input, &key_len) || input.size() < key_len ||
        key_len < 8) {
      return nullptr;
    }
    index->words_.Add(ExtractUserKey(Slice(input.data(), key_len)));
    input.remove_prefix(key_len);
    uint64_t offset;
    uint32_t length;
    if (!GetVarint64(&input, &offset) || !GetVarint32(&input, &length)) {
      return nullptr;
    }
  }
  uint32_t filter_len;
  if (!GetVarint32(&input, &filter_len) || input.size() < filter_len) {
    return nullptr;
  }
  index->words_.Finish();
  index->filter_ = Slice(input.data(), filter_len);
  return index;
}

TableIndex::Entry TableIndex::entry(size_t i) const {
  Entry e;
  e.key = key(i);
  const char* p = e.key.data() + e.key.size();
  const char* limit = blob_.data() + blob_.size();
  p = GetVarint64Ptr(p, limit, &e.offset);
  GetVarint32Ptr(p, limit, &e.length);
  return e;
}

Slice TableIndex::key(size_t i) const {
  const char* p = blob_.data() + starts_[i];
  uint32_t key_len;
  p = GetVarint32Ptr(p, blob_.data() + blob_.size(), &key_len);
  return Slice(p, key_len);
}

size_t TableIndex::Find(const InternalKeyComparator& cmp,
                        const Slice& target) const {
  // The first entry with key >= target. For per-block indexes the entry
  // key is the block's *last* key, so this lands on the first block that
  // could contain the target — the same invariant. Entries before lo have
  // smaller user keys and entries from hi on larger ones, so only the run
  // sharing target's key word needs whole internal keys compared.
  auto [lo, hi] = words_.EqualRange(ExtractUserKey(target));
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (cmp.Compare(key(mid), target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool TableIndex::KeyMayMatch(const BloomFilterPolicy& policy,
                             const Slice& user_key) const {
  if (filter_.empty()) return true;
  return policy.KeyMayMatch(user_key, filter_);
}

}  // namespace dlsm

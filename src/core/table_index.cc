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
  // An entry takes at least 11 bytes (three varints and a trailer), so a
  // count the blob cannot hold is corruption, not a reservation to make.
  if (!GetVarint32(&input, &count) || count > input.size() / 11) {
    return nullptr;
  }
  index->entries_.reserve(count);
  index->words_.Reserve(count);
  const char* p = input.data();
  const char* const limit = p + input.size();
  for (uint32_t i = 0; i < count; i++) {
    uint32_t key_len;
    p = GetVarint32Ptr(p, limit, &key_len);
    if (p == nullptr || static_cast<size_t>(limit - p) < key_len ||
        key_len < 8) {
      return nullptr;
    }
    const Slice key(p, key_len);
    const uint32_t key_start = static_cast<uint32_t>(p - b.data());
    index->words_.Add(ExtractUserKey(key));
    p += key_len;
    uint64_t offset;
    uint32_t length;
    p = GetVarint64Ptr(p, limit, &offset);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &length);
    if (p == nullptr) return nullptr;
    index->entries_.push_back(
        Entry{offset, ExtractTrailer(key), length, key_start, key_len - 8});
  }
  input = Slice(p, limit - p);
  uint32_t filter_len;
  if (!GetVarint32(&input, &filter_len) || input.size() < filter_len) {
    return nullptr;
  }
  index->words_.Finish();
  index->filter_ = Slice(input.data(), filter_len);
  return index;
}

size_t TableIndex::Find(const Slice& target, bool* same_user_key) const {
  // The first entry with key >= target. For per-block indexes the entry
  // key is the block's *last* key, so this lands on the first block that
  // could contain the target — the same invariant. Entries before lo have
  // smaller user keys and entries from run_end on larger ones.
  const Slice user_key = ExtractUserKey(target);
  const uint64_t trailer = ExtractTrailer(target);
  auto [lo, run_end] = words_.EqualRange(user_key);
  // Inside the run every user key agrees with target's on its first
  // `covered` bytes, a key that ends sooner reading as zero-padded. So
  // when either key ends within them, it is a prefix of the other and the
  // lengths order the two; only keys that both run past need their tails
  // compared, from the blob.
  const size_t covered = words_.prefix_size() + 8;
  auto compare_user_keys = [&](const Entry& e) {
    if (e.user_key_len <= covered || user_key.size() <= covered) {
      return (e.user_key_len > user_key.size()) -
             (e.user_key_len < user_key.size());
    }
    return Slice(blob_.data() + e.key_start + covered,
                 e.user_key_len - covered)
        .compare(Slice(user_key.data() + covered, user_key.size() - covered));
  };
  // Internal-key order: user key ascending, then trailer descending.
  size_t hi = run_end;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const Entry& e = entries_[mid];
    const int c = compare_user_keys(e);
    if (c < 0 || (c == 0 && e.trailer > trailer)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (same_user_key != nullptr) {
    *same_user_key = lo < run_end && compare_user_keys(entries_[lo]) == 0;
  }
  return lo;
}

bool TableIndex::HashMayMatch(const BloomFilterPolicy& policy,
                              uint32_t hash) const {
  if (filter_.empty()) return true;
  return policy.HashMayMatch(hash, filter_);
}

}  // namespace dlsm

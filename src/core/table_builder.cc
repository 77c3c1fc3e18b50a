#include "src/core/table_builder.h"

#include <algorithm>
#include <vector>

#include "src/util/coding.h"
#include "src/util/logging.h"

namespace dlsm {

namespace {

/// What both layouts keep of every key: the first and last internal key,
/// and one bloom hash per user key, from which Finish builds the filter.
class KeyLog {
 public:
  void Add(const Slice& internal_key) {
    if (hashes_.empty()) smallest_.DecodeFrom(internal_key);
    largest_.DecodeFrom(internal_key);
    hashes_.push_back(
        BloomFilterPolicy::KeyHash(ExtractUserKey(internal_key)));
  }

  uint64_t size() const { return hashes_.size(); }

  /// Fills *result from the finished sink and index.
  void Finish(const BloomFilterPolicy& bloom, const TableSink& sink,
              TableIndex::Builder* index, TableBuildResult* result) {
    std::string filter;
    bloom.CreateFilterFromHashes(hashes_.data(), hashes_.size(), &filter);
    result->num_entries = hashes_.size();
    result->data_len = sink.bytes_written();
    result->smallest = std::move(smallest_);
    result->largest = std::move(largest_);
    result->index_blob = index->Finish(filter);
  }

 private:
  std::vector<uint32_t> hashes_;
  InternalKey smallest_, largest_;
};

// ---------------------------------------------------------------------------
// Byte-addressable builder
// ---------------------------------------------------------------------------

// Record layout in the data region:
//   varint32 internal_key_len | internal key | varint32 value_len | value

class ByteTableBuilder : public TableBuilder {
 public:
  ByteTableBuilder(const BloomFilterPolicy* bloom, TableSink* sink)
      : bloom_(bloom), sink_(sink), index_(TableIndex::kPerRecord) {}

  Status Add(const Slice& internal_key, const Slice& value) override {
    const uint64_t offset = sink_->bytes_written();
    // Everything before the value goes out in one append.
    head_.clear();
    PutVarint32(&head_, static_cast<uint32_t>(internal_key.size()));
    head_.append(internal_key.data(), internal_key.size());
    PutVarint32(&head_, static_cast<uint32_t>(value.size()));
    DLSM_RETURN_NOT_OK(sink_->Append(head_.data(), head_.size()));
    DLSM_RETURN_NOT_OK(sink_->Append(value.data(), value.size()));
    index_.Add(internal_key, offset,
               static_cast<uint32_t>(head_.size() + value.size()));
    keys_.Add(internal_key);
    return Status::OK();
  }

  Status Finish(TableBuildResult* result) override {
    DLSM_RETURN_NOT_OK(sink_->Finish());
    keys_.Finish(*bloom_, *sink_, &index_, result);
    return Status::OK();
  }

  uint64_t EstimatedSize() const override { return sink_->bytes_written(); }
  uint64_t NumEntries() const override { return keys_.size(); }

 private:
  const BloomFilterPolicy* bloom_;
  TableSink* sink_;
  TableIndex::Builder index_;
  KeyLog keys_;
  std::string head_;  // The record being appended, up to its value.
};

// ---------------------------------------------------------------------------
// Block builder (LevelDB-style prefix compression with restart points)
// ---------------------------------------------------------------------------

constexpr int kRestartInterval = 16;

/// Packs entries into one block:
///   entries: varint32 shared | varint32 non_shared | varint32 value_len |
///            key_delta | value
///   trailer: u32 restarts[] | u32 num_restarts
class BlockBuilder {
 public:
  BlockBuilder() { Reset(); }

  void Reset() {
    buffer_.clear();
    restarts_.clear();
    restarts_.push_back(0);
    counter_ = 0;
    last_key_.clear();
  }

  void Add(const Slice& key, const Slice& value) {
    size_t shared = 0;
    if (counter_ < kRestartInterval) {
      const size_t min_length = std::min(last_key_.size(), key.size());
      while (shared < min_length && last_key_[shared] == key[shared]) {
        shared++;
      }
    } else {
      restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
      counter_ = 0;
    }
    const size_t non_shared = key.size() - shared;
    PutVarint32(&buffer_, static_cast<uint32_t>(shared));
    PutVarint32(&buffer_, static_cast<uint32_t>(non_shared));
    PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
    buffer_.append(key.data() + shared, non_shared);
    buffer_.append(value.data(), value.size());
    last_key_.resize(shared);
    last_key_.append(key.data() + shared, non_shared);
    counter_++;
  }

  /// Appends the restart trailer and returns the block contents.
  Slice Finish() {
    for (uint32_t r : restarts_) {
      PutFixed32(&buffer_, r);
    }
    PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
    return Slice(buffer_);
  }

  size_t CurrentSizeEstimate() const {
    return buffer_.size() + restarts_.size() * 4 + 4;
  }

  bool empty() const { return buffer_.empty(); }
  const std::string& last_key() const { return last_key_; }

 private:
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_;
  std::string last_key_;
};

class BlockTableBuilder : public TableBuilder {
 public:
  BlockTableBuilder(const BloomFilterPolicy* bloom, TableSink* sink,
                    size_t block_size)
      : bloom_(bloom),
        sink_(sink),
        block_size_(block_size),
        index_(TableIndex::kPerBlock) {}

  Status Add(const Slice& internal_key, const Slice& value) override {
    block_.Add(internal_key, value);
    keys_.Add(internal_key);
    if (block_.CurrentSizeEstimate() >= block_size_) {
      DLSM_RETURN_NOT_OK(EmitBlock());
    }
    return Status::OK();
  }

  Status Finish(TableBuildResult* result) override {
    if (!block_.empty()) {
      DLSM_RETURN_NOT_OK(EmitBlock());
    }
    DLSM_RETURN_NOT_OK(sink_->Finish());
    keys_.Finish(*bloom_, *sink_, &index_, result);
    return Status::OK();
  }

  uint64_t EstimatedSize() const override {
    return sink_->bytes_written() + block_.CurrentSizeEstimate();
  }
  uint64_t NumEntries() const override { return keys_.size(); }

 private:
  Status EmitBlock() {
    Slice contents = block_.Finish();
    uint64_t offset = sink_->bytes_written();
    // The block-wrapping copy the byte-addressable layout avoids: block
    // contents accumulate in a local buffer and are copied out whole.
    DLSM_RETURN_NOT_OK(sink_->Append(contents.data(), contents.size()));
    index_.Add(block_.last_key(), offset,
               static_cast<uint32_t>(contents.size()));
    block_.Reset();
    return Status::OK();
  }

  const BloomFilterPolicy* bloom_;
  TableSink* sink_;
  size_t block_size_;
  TableIndex::Builder index_;
  BlockBuilder block_;
  KeyLog keys_;
};

}  // namespace

std::unique_ptr<TableBuilder> NewByteTableBuilder(
    const BloomFilterPolicy* bloom, TableSink* sink) {
  return std::make_unique<ByteTableBuilder>(bloom, sink);
}

std::unique_ptr<TableBuilder> NewBlockTableBuilder(
    const BloomFilterPolicy* bloom, TableSink* sink, size_t block_size) {
  return std::make_unique<BlockTableBuilder>(bloom, sink, block_size);
}

}  // namespace dlsm

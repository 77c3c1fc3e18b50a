#include "src/core/compaction.h"

#include <algorithm>

#include "src/core/merger.h"
#include "src/core/table_reader.h"
#include "src/util/coding.h"
#include "src/util/logging.h"

namespace dlsm {

// ---------------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------------

std::string CompactionTask::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(inputs.size()));
  for (const CompactionInput& in : inputs) {
    out.push_back(static_cast<char>(in.format));
    PutFixed64(&out, in.addr);
    PutVarint64(&out, in.start_off);
    PutVarint64(&out, in.end_off);
    PutLengthPrefixedSlice(&out, in.index_blob);
  }
  PutVarint64(&out, smallest_snapshot);
  out.push_back(drop_tombstones ? 1 : 0);
  PutVarint64(&out, target_file_size);
  PutVarint64(&out, output_chunk_size);
  out.push_back(static_cast<char>(output_format));
  PutVarint32(&out, block_size);
  PutVarint32(&out, bloom_bits_per_key);
  return out;
}

bool CompactionTask::Deserialize(const Slice& in, CompactionTask* task) {
  Slice input = in;
  uint32_t n;
  if (!GetVarint32(&input, &n)) return false;
  task->inputs.clear();
  // n is untrusted: each input takes at least 12 bytes, so reserve no more
  // than the payload can hold.
  task->inputs.reserve(std::min<size_t>(n, input.size() / 12));
  for (uint32_t i = 0; i < n; i++) {
    CompactionInput ci;
    if (input.empty()) return false;
    ci.format = static_cast<uint8_t>(input[0]);
    input.remove_prefix(1);
    if (input.size() < 8) return false;
    ci.addr = DecodeFixed64(input.data());
    input.remove_prefix(8);
    Slice blob;
    if (!GetVarint64(&input, &ci.start_off) ||
        !GetVarint64(&input, &ci.end_off) ||
        !GetLengthPrefixedSlice(&input, &blob)) {
      return false;
    }
    ci.index_blob = blob.ToString();
    task->inputs.push_back(std::move(ci));
  }
  if (!GetVarint64(&input, &task->smallest_snapshot)) return false;
  if (input.size() < 1) return false;
  task->drop_tombstones = input[0] != 0;
  input.remove_prefix(1);
  if (!GetVarint64(&input, &task->target_file_size) ||
      !GetVarint64(&input, &task->output_chunk_size)) {
    return false;
  }
  if (input.size() < 1) return false;
  task->output_format = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  if (!GetVarint32(&input, &task->block_size) ||
      !GetVarint32(&input, &task->bloom_bits_per_key)) {
    return false;
  }
  return true;
}

void CompactionResult::AppendTo(std::string* out) const {
  // Sized once: the index blobs are most of the reply.
  size_t size = out->size() + 5;
  for (const CompactionOutput& o : outputs) {
    size += 28 + 2 * 10 + 3 * 5 + o.smallest.Encode().size() +
            o.largest.Encode().size() + o.index_blob.size();
  }
  out->reserve(size);
  PutVarint32(out, static_cast<uint32_t>(outputs.size()));
  for (const CompactionOutput& o : outputs) {
    PutFixed64(out, o.chunk.addr);
    PutFixed64(out, o.chunk.size);
    PutFixed32(out, o.chunk.rkey);
    PutFixed32(out, o.chunk.owner_node);
    PutFixed32(out, o.chunk.home_node);
    PutVarint64(out, o.data_len);
    PutVarint64(out, o.num_entries);
    PutLengthPrefixedSlice(out, o.smallest.Encode());
    PutLengthPrefixedSlice(out, o.largest.Encode());
    PutLengthPrefixedSlice(out, o.index_blob);
  }
}

bool CompactionResult::Deserialize(const Slice& in, CompactionResult* result) {
  Slice input = in;
  uint32_t n;
  if (!GetVarint32(&input, &n)) return false;
  result->outputs.clear();
  result->outputs.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    CompactionOutput o;
    if (input.size() < 28) return false;
    o.chunk.addr = DecodeFixed64(input.data());
    o.chunk.size = DecodeFixed64(input.data() + 8);
    o.chunk.rkey = DecodeFixed32(input.data() + 16);
    o.chunk.owner_node = DecodeFixed32(input.data() + 20);
    o.chunk.home_node = DecodeFixed32(input.data() + 24);
    input.remove_prefix(28);
    Slice smallest, largest, blob;
    if (!GetVarint64(&input, &o.data_len) ||
        !GetVarint64(&input, &o.num_entries) ||
        !GetLengthPrefixedSlice(&input, &smallest) ||
        !GetLengthPrefixedSlice(&input, &largest) ||
        !GetLengthPrefixedSlice(&input, &blob)) {
      return false;
    }
    o.smallest.DecodeFrom(smallest);
    o.largest.DecodeFrom(largest);
    o.index_blob = blob.ToString();
    result->outputs.push_back(std::move(o));
  }
  return true;
}

Status ParseCompactionReply(const std::string& reply,
                            CompactionResult* result) {
  if (reply.empty()) return Status::Corruption("empty compaction reply");
  if (reply[0] != 1) {
    return Status::IOError("near-data compaction failed",
                           Slice(reply.data() + 1, reply.size() - 1));
  }
  if (!CompactionResult::Deserialize(
          Slice(reply.data() + 1, reply.size() - 1), result)) {
    return Status::Corruption("bad compaction reply");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MergeAndBuild
// ---------------------------------------------------------------------------

Status MergeAndBuild(
    Env* env, Iterator* merged, const BloomFilterPolicy& bloom,
    uint64_t smallest_snapshot, bool drop_tombstones,
    uint64_t target_file_size, TableFormat format,
    size_t block_size,
    const std::function<Status(const Slice& first_key,
                               remote::RemoteChunk* chunk,
                               std::unique_ptr<TableSink>* sink)>& new_output,
    std::vector<CompactionOutput>* outputs) {
  std::unique_ptr<Iterator> input(merged);
  uint64_t processed = 0;

  std::unique_ptr<TableSink> sink;
  std::unique_ptr<TableBuilder> builder;
  remote::RemoteChunk chunk;

  auto open_builder = [&](const Slice& first_key) -> Status {
    DLSM_RETURN_NOT_OK(new_output(first_key, &chunk, &sink));
    builder = format == TableFormat::kByteAddressable
                  ? NewByteTableBuilder(&bloom, sink.get())
                  : NewBlockTableBuilder(&bloom, sink.get(), block_size);
    return Status::OK();
  };

  auto close_builder = [&]() -> Status {
    TableBuildResult res;
    DLSM_RETURN_NOT_OK(builder->Finish(&res));
    CompactionOutput out;
    out.chunk = chunk;
    out.data_len = res.data_len;
    out.num_entries = res.num_entries;
    out.smallest = res.smallest;
    out.largest = res.largest;
    out.index_blob = std::move(res.index_blob);
    outputs->push_back(std::move(out));
    builder.reset();
    sink.reset();
    return Status::OK();
  };

  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

  for (input->SeekToFirst(); input->Valid(); input->Next()) {
    // Scheduling point: keeps the virtual-time processor-sharing model
    // accurate through long merges.
    if (env != nullptr && (++processed & 511) == 0) {
      env->MaybeYield();
    }
    Slice key = input->key();
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      return Status::Corruption("bad internal key during compaction");
    }

    bool user_key_changed =
        !has_current_user_key || ikey.user_key != Slice(current_user_key);
    if (user_key_changed) {
      current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
      has_current_user_key = true;
      last_sequence_for_key = kMaxSequenceNumber;
    }

    bool drop = false;
    if (last_sequence_for_key <= smallest_snapshot) {
      // A newer version of this user key is visible to every snapshot;
      // this one is shadowed (RocksDB rule #1).
      drop = true;
    } else if (ikey.type == kTypeDeletion &&
               ikey.sequence <= smallest_snapshot && drop_tombstones) {
      // Tombstone at the bottommost level: nothing underneath to hide.
      drop = true;
    }
    last_sequence_for_key = ikey.sequence;
    if (drop) continue;

    // Cut the output at the size target, but only between user keys so a
    // key's version chain never spans two files.
    if (builder != nullptr && user_key_changed &&
        builder->EstimatedSize() >= target_file_size) {
      DLSM_RETURN_NOT_OK(close_builder());
    }
    if (builder == nullptr) {
      DLSM_RETURN_NOT_OK(open_builder(ikey.user_key));
    }
    DLSM_RETURN_NOT_OK(builder->Add(key, input->value()));
  }
  DLSM_RETURN_NOT_OK(input->status());
  if (builder != nullptr && builder->NumEntries() > 0) {
    DLSM_RETURN_NOT_OK(close_builder());
  } else if (builder != nullptr) {
    builder.reset();
    sink.reset();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Near-data executor (memory node)
// ---------------------------------------------------------------------------

Status ExecuteCompactionTask(
    Env* env, const CompactionTask& task, const InternalKeyComparator& icmp,
    const std::function<remote::RemoteChunk()>& alloc_chunk,
    const std::function<void(const remote::RemoteChunk&)>& free_chunk,
    uint32_t self_node_id, CompactionResult* result) {
  // Local iterators over this node's own DRAM: near-data compaction reads
  // and writes without touching the network.
  std::vector<Iterator*> children;
  children.reserve(task.inputs.size());
  for (const CompactionInput& in : task.inputs) {
    const char* base = reinterpret_cast<const char*>(in.addr);
    uint64_t len = in.end_off - in.start_off;
    if (in.format == 1) {
      children.push_back(
          NewLocalByteTableIterator(base + in.start_off, len, icmp));
    } else {
      // Block tables are always compacted whole: sub-compaction slicing is
      // a byte-addressable capability (record-aligned offsets).
      if (in.start_off != 0) {
        for (Iterator* c : children) delete c;
        return Status::InvalidArgument("block input must start at offset 0");
      }
      auto index = TableIndex::Parse(in.index_blob);
      if (index == nullptr) {
        for (Iterator* c : children) delete c;
        return Status::Corruption("bad index blob in compaction task");
      }
      children.push_back(NewLocalBlockTableIterator(
          base, in.end_off, std::move(index), icmp));
    }
  }
  Iterator* merged = NewMergingIterator(
      &icmp, children.data(), static_cast<int>(children.size()));

  BloomFilterPolicy bloom(task.bloom_bits_per_key);
  std::vector<remote::RemoteChunk> allocated;
  auto new_output = [&](const Slice&, remote::RemoteChunk* chunk,
                        std::unique_ptr<TableSink>* sink) -> Status {
    remote::RemoteChunk c = alloc_chunk();
    if (!c.valid()) {
      return Status::OutOfMemory("memory-node compaction region exhausted");
    }
    c.owner_node = self_node_id;
    c.home_node = self_node_id;
    allocated.push_back(c);
    *chunk = c;
    *sink = std::make_unique<LocalMemorySink>(
        reinterpret_cast<char*>(c.addr), c.size);
    return Status::OK();
  };

  Status s = MergeAndBuild(
      env, merged, bloom, task.smallest_snapshot, task.drop_tombstones,
      task.target_file_size,
      task.output_format == 1 ? TableFormat::kByteAddressable
                              : TableFormat::kBlock,
      task.block_size, new_output, &result->outputs);
  if (!s.ok()) {
    for (const remote::RemoteChunk& c : allocated) free_chunk(c);
    result->outputs.clear();
  }
  return s;
}

}  // namespace dlsm

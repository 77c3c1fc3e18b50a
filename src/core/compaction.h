// Compaction machinery (paper Sec. V).
//
// The compute node picks what to compact (VersionSet::PickCompaction) and
// describes the work as a CompactionTask: for every input table, the DRAM
// address of its data region plus a record-aligned [start, end) byte slice
// (computed from the locally cached index — this is how one L0 compaction
// splits into parallel sub-compactions without shipping any index data).
//
// The task executes either
//   * on the memory node (near-data): local iterators over its own DRAM,
//     outputs allocated from the memory-side region, zero wire traffic; or
//   * on the compute node (ablation): remote iterators pull inputs over
//     the wire and the async flush pipeline pushes outputs back.
//
// Both paths share MergeAndBuild: an N-way merge with RocksDB drop rules
// (shadowed versions below the oldest snapshot; tombstones at the
// bottommost level) cutting outputs at the target file size, never
// splitting a user key across outputs.

#ifndef DLSM_CORE_COMPACTION_H_
#define DLSM_CORE_COMPACTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bloom.h"
#include "src/core/dbformat.h"
#include "src/core/iterator.h"
#include "src/core/options.h"
#include "src/core/table_builder.h"
#include "src/core/table_sink.h"
#include "src/remote/remote_alloc.h"

namespace dlsm {

/// One input table slice for a compaction task.
struct CompactionInput {
  uint8_t format = 1;       ///< 1 = byte-addressable, 2 = block.
  uint64_t addr = 0;        ///< Data-region address in memory-node DRAM.
  uint64_t start_off = 0;   ///< Record-aligned slice start.
  uint64_t end_off = 0;     ///< Record-aligned slice end.
  std::string index_blob;   ///< Needed for block format only.
};

/// A serializable compaction work order.
struct CompactionTask {
  std::vector<CompactionInput> inputs;
  uint64_t smallest_snapshot = 0;
  bool drop_tombstones = false;
  uint64_t target_file_size = 0;
  /// Slab chunk size outputs are allocated in (>= target_file_size).
  uint64_t output_chunk_size = 0;
  uint8_t output_format = 1;
  uint32_t block_size = 8192;
  uint32_t bloom_bits_per_key = 10;

  std::string Serialize() const;
  static bool Deserialize(const Slice& in, CompactionTask* task);
};

/// One output table produced by a compaction (or flush).
struct CompactionOutput {
  remote::RemoteChunk chunk;
  uint64_t data_len = 0;
  uint64_t num_entries = 0;
  InternalKey smallest;
  InternalKey largest;
  std::string index_blob;
};

/// Serializable set of outputs (the near-data RPC reply).
struct CompactionResult {
  std::vector<CompactionOutput> outputs;

  /// Appends the serialized outputs to *out (the RPC reply).
  void AppendTo(std::string* out) const;
  static bool Deserialize(const Slice& in, CompactionResult* result);
};

/// Decodes a near-data compaction RPC reply ([u8 ok][result|error text])
/// into *result; shared by the blocking and pipelined schedulers.
Status ParseCompactionReply(const std::string& reply,
                            CompactionResult* result);

/// Shared merge/drop/build loop. Consumes `merged` (takes ownership).
/// new_output is called to provision each output chunk + sink; it must fill
/// both out-params. first_key is the user key the output will open with
/// (the merge iterator is positioned on it) so range-based placement can
/// pick the output's memory node. Outputs are appended to *outputs.
Status MergeAndBuild(
    Env* env, Iterator* merged, const BloomFilterPolicy& bloom,
    uint64_t smallest_snapshot, bool drop_tombstones,
    uint64_t target_file_size, TableFormat format,
    size_t block_size,
    const std::function<Status(const Slice& first_key,
                               remote::RemoteChunk* chunk,
                               std::unique_ptr<TableSink>* sink)>& new_output,
    std::vector<CompactionOutput>* outputs);

/// Near-data execution on the memory node: merges the task's input slices
/// straight out of local DRAM into chunks obtained from alloc_chunk
/// (invalid chunk = out of memory); free_chunk reclaims on failure.
Status ExecuteCompactionTask(
    Env* env, const CompactionTask& task, const InternalKeyComparator& icmp,
    const std::function<remote::RemoteChunk()>& alloc_chunk,
    const std::function<void(const remote::RemoteChunk&)>& free_chunk,
    uint32_t self_node_id, CompactionResult* result);

}  // namespace dlsm

#endif  // DLSM_CORE_COMPACTION_H_

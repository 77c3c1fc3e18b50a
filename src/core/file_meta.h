// SSTable metadata kept on the compute node (paper Sec. V-A: "dLSM
// maintains the LSM-tree metadata in the compute node").
//
// A FileMetaData pins its remote chunk: versions hold shared_ptrs to files,
// snapshots hold shared_ptrs to versions, so when the last reference to a
// file drops, its garbage-collection callback fires and the chunk is
// recycled — by the compute-side allocator if the compute node allocated
// it (flush), or batched into a remote-free RPC if the memory node did
// (near-data compaction). This is exactly the pin/unpin scheme of Sec. V-B.

#ifndef DLSM_CORE_FILE_META_H_
#define DLSM_CORE_FILE_META_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/core/dbformat.h"
#include "src/core/table_index.h"
#include "src/remote/remote_alloc.h"

namespace dlsm {

/// Per-SSTable metadata; see file header for the pinning discipline.
struct FileMetaData {
  uint64_t number = 0;           ///< Unique file id.
  /// Age rank for L0 ordering: flushes may complete out of order, so L0 is
  /// sorted by the order the source MemTables were sealed in, not by file
  /// number.
  uint64_t l0_order = 0;
  remote::RemoteChunk chunk;     ///< Where the data region lives.
  uint64_t data_len = 0;         ///< Bytes of key-value records.
  uint64_t num_entries = 0;
  InternalKey smallest;          ///< Smallest internal key.
  InternalKey largest;           ///< Largest internal key.
  std::shared_ptr<TableIndex> index;  ///< Cached locally (index + bloom).

  /// Slot into the engine's memory-node vector holding this table's bytes.
  /// Routing state lives compute-side (Outback-style), so re-placement is
  /// one metadata swap: readers route by this id, never by shard wiring.
  uint32_t memory_node = 0;

  /// Remote reads of this table (one per read a point lookup puts on the
  /// wire; cache hits and bloom skips do not count), ranking victims for
  /// the heat-based rebalancer. Relaxed: an approximate rank is all
  /// migration victim selection needs.
  mutable std::atomic<uint64_t> heat{0};

  /// Invoked once when the last reference drops; recycles chunk.
  std::function<void(const remote::RemoteChunk&)> gc;

  ~FileMetaData() {
    if (gc) gc(chunk);
  }
};

using FileRef = std::shared_ptr<FileMetaData>;

}  // namespace dlsm

#endif  // DLSM_CORE_FILE_META_H_

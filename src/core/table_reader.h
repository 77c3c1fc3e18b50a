// SSTable readers (paper Sec. VI).
//
// Point lookups consult the locally cached bloom filter and index; on a
// may-match, the byte-addressable layout issues one RDMA READ of exactly
// the record, while the block layout fetches the whole enclosing block and
// unwraps it locally (the read-amplification dLSM eliminates).
//
// Range scans prefetch contiguous chunks of the data region with
// sequential RDMA READs ("the sub-iterators prefetch the data chunks"):
// full chunks for SeekToFirst/SeekToLast passes, a window that ramps up
// from a few KB for scans positioned by Seek.
//
// Local iterators walk a table resident in the caller's own DRAM and are
// what near-data compaction uses on the memory node — no wire traffic.

#ifndef DLSM_CORE_TABLE_READER_H_
#define DLSM_CORE_TABLE_READER_H_

#include <atomic>
#include <memory>
#include <memory_resource>
#include <span>

#include "src/core/block_cache.h"
#include "src/core/bloom.h"
#include "src/core/dbformat.h"
#include "src/core/file_meta.h"
#include "src/core/iterator.h"
#include "src/rdma/rdma_manager.h"
#include "src/remote/rpc.h"

namespace dlsm {

/// How remote table bytes reach the compute node. dLSM uses one-sided
/// READs; the baseline models add a file-system staging copy (RDMA-FS /
/// tmpfs ports) and, for Nova-LSM, a server-mediated two-sided read path.
struct RemoteReadPath {
  rdma::RdmaManager* mgr = nullptr;
  /// When set, point-sized reads (<= rpc_limit) go through the memory
  /// node's kReadBlock RPC: dispatcher + server memcpy + one-sided reply.
  remote::RpcClient* rpc = nullptr;
  size_t rpc_limit = 64 << 10;
  /// Adds one staging-buffer copy per read (the FS layer of the ports).
  bool extra_copy = false;
  /// When set, table probes pay an extra remote fetch of the table's
  /// index block before touching data (no compute-side index cache). The
  /// index fetch must complete before the data read can be sized, so such
  /// a path always probes through the sync transport (SupportsAsyncProbe).
  bool uncached_index = false;

  /// Optional compute-side cache of remote bytes (may be null). Read()
  /// and MgrRead() stay cache-oblivious; consult/insert decisions live
  /// with the callers (the point-lookup waves, scan prefetch). Scan
  /// prefetch keys its entries by cache_table, the owning table's file
  /// number.
  BlockCache* cache = nullptr;
  /// Scan prefetch fills may enter the cache (Options::cache_scans).
  bool cache_scans = false;
  /// File number of the table this path instance is currently reading;
  /// threaded through by the per-table helpers. 0 = caching disabled for
  /// this read.
  uint64_t cache_table = 0;

  /// Transient-fault policy (Options::rdma_max_retries): additional
  /// attempts after an IOError, each preceded by a QP recovery (drain +
  /// reset + reconnect) and backoff. 0 fails on the first error.
  int max_retries = 0;
  uint64_t retry_backoff_ns = 50 * 1000;
  /// When set, incremented once per retry attempt (DbStats::read_retries).
  std::atomic<uint64_t>* retry_counter = nullptr;

  /// Reads [addr, addr+len) of the remote table into dst.
  Status Read(void* dst, uint64_t addr, uint32_t rkey, size_t len) const;

  /// One-sided READ with the transient-fault retry policy applied; the
  /// building block of Read and of index-block fetches.
  Status MgrRead(void* dst, uint64_t addr, uint32_t rkey, size_t len) const;
};

/// Routes reads to the right memory node's RemoteReadPath by the table's
/// FileMetaData::memory_node slot. The engine owns one RemoteReadPath per
/// node in a vector that never reallocates after Open, so the borrowed
/// pointer stays valid for the router's lifetime. A single-node engine is
/// the degenerate count == 1 router, making every route(f) the old single
/// read path.
struct ReadRouter {
  const RemoteReadPath* paths = nullptr;
  size_t count = 0;

  const RemoteReadPath& route(uint32_t memory_node) const {
    return paths[memory_node < count ? memory_node : 0];
  }
  const RemoteReadPath& route(const FileMetaData& f) const {
    return route(f.memory_node);
  }
};

/// Outcome of a single-table point lookup.
enum class TableLookupResult {
  kNotPresent,  ///< The table holds no visible version of the key.
  kFound,       ///< *value holds the newest visible value.
  kDeleted,     ///< The newest visible version is a tombstone.
};

/// True when the read path is a plain one-sided READ (no RPC detour, no
/// staging copy, no per-probe index fetch) and so its data reads may be
/// posted asynchronously in a doorbell batch. The baseline read paths
/// must keep their modeled per-read costs and stay synchronous.
bool SupportsAsyncProbe(const RemoteReadPath& read_path);

/// Models the index-block fetch a port without compute-side index caching
/// pays before every bloom-passing table probe: one remote read of an
/// index partition. The bytes land in a scratch buffer; only the cost
/// matters.
Status FetchIndexBlock(const RemoteReadPath& read_path,
                       const FileMetaData& file);

/// One table's share of a point lookup. Prepare() consults the locally
/// cached bloom filter and index; when the table needs bytes it takes buf
/// from the caller's memory resource (uninitialized) and records the read's
/// table-relative offset so the caller can read
/// [file.chunk.addr + read_off, +buf.size()) into buf. Once the read
/// completes, Finish() resolves the fetched bytes. The probed file must
/// outlive the probe (callers pin it via FileRef), and the memory resource
/// must outlive buf.
struct TableProbe {
  bool need_read = false;
  /// The per-record index matched the user key, so the posted read alone
  /// decides this lookup (found or tombstone); older tables need not be
  /// probed. Block-format probes are never definitive before the read.
  bool definitive = false;
  uint64_t read_off = 0;
  std::span<char> buf;
  // Resolution context for Finish(). A per-record read must hold the
  // lookup's user key with the index entry's trailer.
  const FileMetaData* file = nullptr;
  uint64_t index_trailer = 0;
};

/// Phase 1: local filtering; fills *probe, allocating buf from mem (never
/// deallocated: pass a monotonic resource). key_hash is
/// BloomFilterPolicy::KeyHash(lkey.user_key()), computed once per lookup.
/// Callers that model uncached indexes must call FetchIndexBlock after a
/// bloom pass, before reading data.
Status TableProbePrepare(const BloomFilterPolicy& bloom,
                         const FileMetaData& file, const LookupKey& lkey,
                         uint32_t key_hash, std::pmr::memory_resource* mem,
                         TableProbe* probe,
                         bool* skipped_by_bloom = nullptr);

/// Phase 2: resolves a probe whose read (if any) has completed into buf.
Status TableProbeFinish(const InternalKeyComparator& icmp,
                        const LookupKey& lkey, TableProbe* probe,
                        TableLookupResult* result, std::string* value);

/// Remote iterator over one SSTable; file is pinned for the iterator's
/// lifetime. prefetch_bytes caps the sequential prefetch window.
Iterator* NewRemoteTableIterator(const RemoteReadPath& read_path,
                                 const InternalKeyComparator& icmp,
                                 FileRef file, size_t prefetch_bytes);

/// Iterator over a byte-addressable data region in local memory
/// (self-delimiting records; no index required). Forward-only; Seek is a
/// linear scan ordered by the internal-key comparator.
Iterator* NewLocalByteTableIterator(const char* data, uint64_t data_len,
                                    const InternalKeyComparator& icmp);

/// Iterator over a block-format data region in local memory; needs the
/// table's index to find block extents.
Iterator* NewLocalBlockTableIterator(const char* data, uint64_t data_len,
                                     std::shared_ptr<TableIndex> index,
                                     const InternalKeyComparator& icmp);

}  // namespace dlsm

#endif  // DLSM_CORE_TABLE_READER_H_

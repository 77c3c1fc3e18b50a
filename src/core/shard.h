// Range sharding (paper Sec. VII): the key space is divided into lambda
// shards, each an independent LSM-tree with its own MemTables and L0, so
// L0 compactions parallelize and readers traverse fewer overlapping
// SSTables. Shards share the flush pool and the RPC client.

#ifndef DLSM_CORE_SHARD_H_
#define DLSM_CORE_SHARD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/core/db_impl.h"

namespace dlsm {

/// The range a key falls in: with sorted boundaries, range i covers
/// [boundaries[i-1], boundaries[i]).
int RangeOfKey(const std::vector<std::string>& boundaries, const Slice& key);

/// MultiGet over range-partitioned engines: groups the batch by
/// RangeOfKey, runs each group's MultiGet on db_of_range(range) (which
/// batches its own doorbell waves) and scatters the answers back to the
/// caller's order.
void RangeMultiGet(const std::vector<std::string>& boundaries,
                   const std::function<DB*(int)>& db_of_range,
                   const ReadOptions& options, std::span<const Slice> keys,
                   std::vector<std::string>* values,
                   std::vector<Status>* statuses);

/// A DB facade over lambda range shards on one compute node.
class ShardedDB : public DB {
 public:
  /// The one way to open a compute node's engine. boundaries must be
  /// sorted and have size options.shards - 1; shard i covers
  /// [boundaries[i-1], boundaries[i]). options.shards == 1 opens a bare
  /// DLsmDB; otherwise the shards split options' MemTable, SSTable,
  /// scheduler, subcompaction and flush-region budgets.
  static Status Open(const Options& options, const DbDeps& deps,
                     std::vector<std::string> boundaries, DB** dbptr);

  /// Evenly spaced boundaries for zero-padded decimal keys of the given
  /// width (the bench harness key format).
  static std::vector<std::string> UniformDecimalBoundaries(int shards,
                                                           int key_width);

  /// Evenly spaced boundaries for zero-padded decimal keys drawn from
  /// [0, key_range). UniformDecimalBoundaries splits the full 10^width
  /// space, which collapses to one shard when the workload's keys are
  /// small integers — use this form when the key range is known.
  static std::vector<std::string> RangeDecimalBoundaries(int shards,
                                                         int key_width,
                                                         uint64_t key_range);

  ~ShardedDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* batch) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  /// RangeMultiGet over the shards.
  void MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status Flush() override;
  Status WaitForBackgroundIdle() override;
  DbStats GetStats() override;
  int NumFilesAtLevel(int level) override;
  /// "dlsm.timeseries" answers with {"shards":[...]} — one series object
  /// per shard (each samples independently); other names defer to the
  /// base implementation over the merged stats.
  bool GetProperty(const Slice& property, std::string* value) override;
  Status Close() override;

  int ShardForKey(const Slice& key) const;
  DB* shard(int i) { return shards_[i].get(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  ShardedDB(const Options& options, std::vector<std::string> boundaries);

  Options options_;
  std::vector<std::string> boundaries_;
  std::unique_ptr<ThreadPool> flush_pool_;
  // One shared RPC client per memory node (all shards of this compute
  // node multiplex onto them); single-node deployments have exactly one.
  std::vector<std::unique_ptr<remote::RpcClient>> rpcs_;
  std::vector<std::unique_ptr<DB>> shards_;
  bool closed_ = false;
};

}  // namespace dlsm

#endif  // DLSM_CORE_SHARD_H_

// Copy-on-write LSM-tree metadata (paper Secs. III, V-A, V-B).
//
// A Version is an immutable snapshot of the tree shape: per-level lists of
// FileMetaData references. Readers pin the current Version (a shared_ptr
// copy); flush and compaction install new Versions copy-on-write. Pinned
// files are garbage-collected automatically when the last Version (or
// iterator) referencing them dies — see file_meta.h.

#ifndef DLSM_CORE_VERSION_H_
#define DLSM_CORE_VERSION_H_

#include <memory>
#include <memory_resource>
#include <mutex>
#include <set>
#include <vector>

#include "src/core/dbformat.h"
#include "src/core/file_meta.h"
#include "src/core/iterator.h"
#include "src/core/key_words.h"
#include "src/core/options.h"
#include "src/core/table_reader.h"
#include "src/rdma/rdma_manager.h"

namespace dlsm {

/// An immutable snapshot of the LSM-tree's file layout.
class Version {
 public:
  Version() : levels_(kNumLevels) {}

  const std::vector<FileRef>& files(int level) const { return levels_[level]; }
  int NumFiles(int level) const {
    return static_cast<int>(levels_[level].size());
  }
  uint64_t LevelBytes(int level) const;

  /// Files that might contain user_key, in the order a reader must probe
  /// them: L0 newest-to-oldest, then one candidate per deeper level. When
  /// num_l0 is non-null it receives how many leading entries are L0 files
  /// (the set a batched reader may probe concurrently, newest-wins).
  /// `result` is cleared and filled with borrowed pointers that stay valid
  /// for as long as the caller holds its VersionRef; it allocates from the
  /// caller's memory resource (a Get's stack arena), at most once.
  void CollectSearchOrder(const Slice& user_key,
                          std::pmr::vector<const FileMetaData*>* result,
                          size_t* num_l0 = nullptr) const;

  /// Files in `level` overlapping [smallest, largest] (user-key range).
  std::vector<FileRef> GetOverlappingInputs(int level, const Slice& smallest,
                                            const Slice& largest) const;

  /// Appends the iterators needed for a full scan of this version:
  /// per-file iterators for L0, one concatenating iterator per deeper
  /// level. Pins files via the iterators. Each table's reads route to its
  /// own memory node through the router.
  void AddIterators(const ReadRouter& router,
                    const InternalKeyComparator& icmp, size_t prefetch,
                    std::vector<Iterator*>* iters) const;

 private:
  friend class VersionSet;

  /// Fills largest_words_ from levels_. VersionSet calls it once on each
  /// Version it builds, after levels_ are final.
  void BuildSearchWords();

  std::vector<std::vector<FileRef>> levels_;
  // Levels >= 1: a key word per file of its largest user key, so a lookup
  // binary-searches one array instead of chasing each file's metadata.
  KeyWords largest_words_[kNumLevels];
};

using VersionRef = std::shared_ptr<const Version>;

/// A batch of metadata changes applied atomically.
struct VersionEdit {
  std::vector<std::pair<int, FileRef>> added;            // (level, file)
  std::vector<std::pair<int, uint64_t>> deleted;         // (level, number)
  /// Migration: swaps in for the same-numbered file (new chunk and node).
  std::vector<std::pair<int, FileRef>> replaced;         // (level, file)

  void AddFile(int level, FileRef f) { added.emplace_back(level, std::move(f)); }
  void DeleteFile(int level, uint64_t number) {
    deleted.emplace_back(level, number);
  }
  void ReplaceFile(int level, FileRef f) {
    replaced.emplace_back(level, std::move(f));
  }
};

/// A picked compaction: inputs from `level` and `level + 1`.
struct CompactionPick {
  int level = -1;
  std::vector<FileRef> inputs[2];
  bool bottommost = false;  ///< No live data below the output level.

  bool valid() const { return level >= 0; }
  uint64_t InputBytes() const {
    uint64_t total = 0;
    for (const auto& in : inputs)
      for (const FileRef& f : in) total += f->data_len;
    return total;
  }
};

/// Owns the current Version and the compaction-picking state. Thread-safe.
class VersionSet {
 public:
  VersionSet(const InternalKeyComparator* icmp, const Options* options);

  /// The current tree snapshot (pin by holding the returned reference).
  VersionRef current() const;

  /// Applies edit copy-on-write, making the result current. Fails, and
  /// changes nothing, when a replaced file is a live compaction input
  /// (Busy) or already left the version (NotFound).
  Status Apply(const VersionEdit& edit);

  uint64_t NewFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Picks a compaction if one is warranted, marking its inputs busy so
  /// concurrent coordinators never pick overlapping work. Returns an
  /// invalid pick when nothing needs compacting.
  CompactionPick PickCompaction();

  /// Releases the busy marks of a finished (or failed) compaction.
  void ReleaseCompaction(const CompactionPick& pick);

  /// True when L0 holds at least the stop-writes trigger of files.
  bool NeedsStall() const;
  /// True when some level's score is >= 1 (a compaction is warranted).
  bool NeedsCompaction() const;

  uint64_t MaxBytesForLevel(int level) const;

 private:
  CompactionPick PickCompactionLocked();

  const InternalKeyComparator* icmp_;
  const Options* options_;
  mutable std::mutex mu_;  // Guards current_ & picking state; never held
                           // across Env waits.
  VersionRef current_;
  std::atomic<uint64_t> next_file_number_{1};
  std::set<uint64_t> busy_files_;
  bool l0_compaction_running_ = false;
  std::vector<std::string> compact_pointer_;  // Round-robin cursors (L1+).
};

}  // namespace dlsm

#endif  // DLSM_CORE_VERSION_H_

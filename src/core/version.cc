#include "src/core/version.h"

#include <algorithm>

#include "src/core/table_reader.h"
#include "src/util/logging.h"

namespace dlsm {

namespace {

/// Two-level iterator over one sorted, non-overlapping level: opens one
/// table iterator at a time, advancing through the level's files.
class LevelConcatIterator : public Iterator {
 public:
  LevelConcatIterator(const ReadRouter& router,
                      const InternalKeyComparator& icmp,
                      std::vector<FileRef> files, size_t prefetch)
      : router_(router), icmp_(icmp), files_(std::move(files)),
        prefetch_(prefetch) {}

  bool Valid() const override { return table_ != nullptr && table_->Valid(); }
  Slice key() const override { return table_->key(); }
  Slice value() const override { return table_->value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    return table_ != nullptr ? table_->status() : Status::OK();
  }

  void SeekToFirst() override {
    seeked_ = false;
    index_ = 0;
    OpenCurrent();
    if (table_ != nullptr) table_->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    seeked_ = false;
    index_ = files_.empty() ? 0 : files_.size() - 1;
    OpenCurrent();
    if (table_ != nullptr) table_->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    seeked_ = true;
    // Binary search for the first file whose largest key is >= target.
    size_t lo = 0, hi = files_.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (icmp_.Compare(files_[mid]->largest.Encode(), target) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    index_ = lo;
    OpenCurrent();
    if (table_ != nullptr) table_->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    DLSM_CHECK(Valid());
    table_->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    DLSM_CHECK(Valid());
    table_->Prev();
    SkipEmptyBackward();
  }

 private:
  void OpenCurrent() {
    if (index_ >= files_.size()) {
      table_.reset();
      return;
    }
    table_.reset(NewRemoteTableIterator(router_.route(*files_[index_]), icmp_,
                                        files_[index_], prefetch_));
  }

  void SkipEmptyForward() {
    while (table_ != nullptr && !table_->Valid() &&
           index_ + 1 < files_.size()) {
      index_++;
      OpenCurrent();
      if (table_ == nullptr) continue;
      // A scan that started with Seek enters the next file the same way,
      // so its prefetch window keeps ramping from a small first window
      // instead of pulling a full chunk for the few entries it may read.
      if (seeked_) {
        table_->Seek(files_[index_]->smallest.Encode());
      } else {
        table_->SeekToFirst();
      }
    }
  }

  void SkipEmptyBackward() {
    while (table_ != nullptr && !table_->Valid() && index_ > 0) {
      index_--;
      OpenCurrent();
      if (table_ != nullptr) table_->SeekToLast();
    }
  }

  ReadRouter router_;
  InternalKeyComparator icmp_;
  std::vector<FileRef> files_;
  size_t prefetch_;
  size_t index_ = 0;
  bool seeked_ = false;  // Positioned by Seek, not by SeekToFirst/Last.
  std::unique_ptr<Iterator> table_;
  Status status_;
};

bool AfterFile(const Slice& user_key, const FileMetaData& f) {
  return user_key.compare(ExtractUserKey(f.largest.Encode())) > 0;
}

bool BeforeFile(const Slice& user_key, const FileMetaData& f) {
  return user_key.compare(ExtractUserKey(f.smallest.Encode())) < 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Version
// ---------------------------------------------------------------------------

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const FileRef& f : levels_[level]) total += f->data_len;
  return total;
}

void Version::CollectSearchOrder(const Slice& user_key,
                                 std::pmr::vector<const FileMetaData*>* result,
                                 size_t* num_l0) const {
  result->clear();
  result->reserve(levels_[0].size() + kNumLevels - 1);
  // L0 is kept newest-first; all overlapping files must be probed in order.
  for (const FileRef& f : levels_[0]) {
    if (!AfterFile(user_key, *f) && !BeforeFile(user_key, *f)) {
      result->push_back(f.get());
    }
  }
  if (num_l0 != nullptr) *num_l0 = result->size();
  // Deeper levels are sorted and disjoint: at most one candidate each.
  for (int level = 1; level < kNumLevels; level++) {
    const auto& files = levels_[level];
    if (files.empty()) continue;
    // First file whose largest user key is >= user_key; only files whose
    // largest key shares user_key's key word need their keys compared.
    auto [lo, hi] = largest_words_[level].EqualRange(user_key);
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (ExtractUserKey(files[mid]->largest.Encode()).compare(user_key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < files.size() && !BeforeFile(user_key, *files[lo])) {
      result->push_back(files[lo].get());
    }
  }
}

void Version::BuildSearchWords() {
  for (int level = 1; level < kNumLevels; level++) {
    KeyWords& words = largest_words_[level];
    words.Reserve(levels_[level].size());
    for (const FileRef& f : levels_[level]) {
      words.Add(ExtractUserKey(f->largest.Encode()));
    }
    words.Finish();
  }
}

std::vector<FileRef> Version::GetOverlappingInputs(int level,
                                                   const Slice& smallest,
                                                   const Slice& largest) const {
  std::vector<FileRef> result;
  for (const FileRef& f : levels_[level]) {
    if (ExtractUserKey(f->largest.Encode()).compare(smallest) < 0 ||
        ExtractUserKey(f->smallest.Encode()).compare(largest) > 0) {
      continue;
    }
    result.push_back(f);
  }
  return result;
}

void Version::AddIterators(const ReadRouter& router,
                           const InternalKeyComparator& icmp, size_t prefetch,
                           std::vector<Iterator*>* iters) const {
  for (const FileRef& f : levels_[0]) {
    iters->push_back(NewRemoteTableIterator(router.route(*f), icmp, f,
                                            prefetch));
  }
  for (int level = 1; level < kNumLevels; level++) {
    if (!levels_[level].empty()) {
      iters->push_back(new LevelConcatIterator(router, icmp,
                                               levels_[level], prefetch));
    }
  }
}

// ---------------------------------------------------------------------------
// VersionSet
// ---------------------------------------------------------------------------

VersionSet::VersionSet(const InternalKeyComparator* icmp,
                       const Options* options)
    : icmp_(icmp), options_(options),
      compact_pointer_(kNumLevels) {
  current_ = std::make_shared<Version>();
}

VersionRef VersionSet::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  uint64_t base = options_->max_bytes_for_level_base != 0
                      ? options_->max_bytes_for_level_base
                      : 4 * options_->sstable_size;
  double result = static_cast<double>(base);
  for (int l = 1; l < level; l++) {
    result *= options_->level_size_multiplier;
  }
  return static_cast<uint64_t>(result);
}

Status VersionSet::Apply(const VersionEdit& edit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Version>();
  // Copy-on-write: carry forward all files except the deleted ones.
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileRef& f : current_->levels_[level]) {
      bool deleted = false;
      for (const auto& [dl, dn] : edit.deleted) {
        if (dl == level && dn == f->number) {
          deleted = true;
          break;
        }
      }
      if (!deleted) next->levels_[level].push_back(f);
    }
  }
  // A busy file is a compaction input in flight: its bytes are being read
  // at the old address, so swapping its metadata now would tear the
  // compaction. The migrator just retries a different victim later.
  for (const auto& [level, r] : edit.replaced) {
    if (busy_files_.count(r->number) != 0) {
      return Status::Busy("file is a compaction input");
    }
    std::vector<FileRef>& files = next->levels_[level];
    auto it = std::find_if(files.begin(), files.end(), [&](const FileRef& f) {
      return f->number == r->number;
    });
    if (it == files.end()) return Status::NotFound("file left the version");
    *it = r;
  }
  for (const auto& [level, f] : edit.added) {
    next->levels_[level].push_back(f);
  }
  // L0: newest first, so readers probe in time order. Flushes can finish
  // out of order, so age is the order the source MemTables were sealed in.
  std::sort(next->levels_[0].begin(), next->levels_[0].end(),
            [](const FileRef& a, const FileRef& b) {
              if (a->l0_order != b->l0_order) return a->l0_order > b->l0_order;
              return a->number > b->number;
            });
  // Deeper levels: by smallest key; files are disjoint.
  for (int level = 1; level < kNumLevels; level++) {
    std::sort(next->levels_[level].begin(), next->levels_[level].end(),
              [this](const FileRef& a, const FileRef& b) {
                return icmp_->Compare(a->smallest.Encode(),
                                      b->smallest.Encode()) < 0;
              });
  }
  next->BuildSearchWords();
  current_ = std::move(next);
  return Status::OK();
}

bool VersionSet::NeedsStall() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->NumFiles(0) >= options_->l0_stop_writes_trigger;
}

bool VersionSet::NeedsCompaction() const {
  std::lock_guard<std::mutex> lock(mu_);
  const Version& v = *current_;
  if (v.NumFiles(0) >= options_->l0_compaction_trigger &&
      !l0_compaction_running_) {
    return true;
  }
  for (int level = 1; level < kNumLevels - 1; level++) {
    if (v.LevelBytes(level) > MaxBytesForLevel(level)) return true;
  }
  return false;
}

CompactionPick VersionSet::PickCompaction() {
  std::lock_guard<std::mutex> lock(mu_);
  return PickCompactionLocked();
}

CompactionPick VersionSet::PickCompactionLocked() {
  const Version& v = *current_;
  CompactionPick pick;

  // Scores, L0 by file count, deeper levels by bytes.
  double best_score = 1.0;
  int best_level = -1;
  if (!l0_compaction_running_) {
    double l0_score = static_cast<double>(v.NumFiles(0)) /
                      options_->l0_compaction_trigger;
    if (l0_score >= best_score) {
      best_score = l0_score;
      best_level = 0;
    }
  }
  for (int level = 1; level < kNumLevels - 1; level++) {
    double score = static_cast<double>(v.LevelBytes(level)) /
                   static_cast<double>(MaxBytesForLevel(level));
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  if (best_level < 0) return pick;

  auto is_busy = [this](const FileRef& f) {
    return busy_files_.count(f->number) != 0;
  };

  if (best_level == 0) {
    // All of L0 (they overlap mutually, and taking the full set preserves
    // the oldest-prefix invariant) plus the overlapping span of L1.
    std::vector<FileRef> l0 = v.files(0);
    if (l0.empty()) return pick;
    for (const FileRef& f : l0) {
      if (is_busy(f)) return pick;
    }
    std::string smallest = ExtractUserKey(l0[0]->smallest.Encode()).ToString();
    std::string largest = ExtractUserKey(l0[0]->largest.Encode()).ToString();
    for (const FileRef& f : l0) {
      Slice s = ExtractUserKey(f->smallest.Encode());
      Slice l = ExtractUserKey(f->largest.Encode());
      if (s.compare(smallest) < 0) smallest = s.ToString();
      if (l.compare(largest) > 0) largest = l.ToString();
    }
    std::vector<FileRef> l1 =
        v.GetOverlappingInputs(1, smallest, largest);
    for (const FileRef& f : l1) {
      if (is_busy(f)) return pick;
    }
    pick.level = 0;
    pick.inputs[0] = std::move(l0);
    pick.inputs[1] = std::move(l1);
    l0_compaction_running_ = true;
  } else {
    // Round-robin cursor over the level.
    const auto& files = v.files(best_level);
    FileRef chosen;
    for (const FileRef& f : files) {
      if (is_busy(f)) continue;
      if (compact_pointer_[best_level].empty() ||
          icmp_->Compare(f->largest.Encode(),
                         compact_pointer_[best_level]) > 0) {
        chosen = f;
        break;
      }
    }
    if (chosen == nullptr && !files.empty()) {
      for (const FileRef& f : files) {
        if (!is_busy(f)) {
          chosen = f;
          break;
        }
      }
    }
    if (chosen == nullptr) return pick;
    std::vector<FileRef> next_level = v.GetOverlappingInputs(
        best_level + 1, ExtractUserKey(chosen->smallest.Encode()),
        ExtractUserKey(chosen->largest.Encode()));
    for (const FileRef& f : next_level) {
      if (is_busy(f)) return pick;
    }
    compact_pointer_[best_level] = chosen->largest.Encode().ToString();
    pick.level = best_level;
    pick.inputs[0].push_back(std::move(chosen));
    pick.inputs[1] = std::move(next_level);
  }

  // Bottommost if no level below the output holds any files.
  pick.bottommost = true;
  for (int level = pick.level + 2; level < kNumLevels; level++) {
    if (v.NumFiles(level) > 0) {
      pick.bottommost = false;
      break;
    }
  }

  for (const auto& in : pick.inputs) {
    for (const FileRef& f : in) busy_files_.insert(f->number);
  }
  return pick;
}

void VersionSet::ReleaseCompaction(const CompactionPick& pick) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& in : pick.inputs) {
    for (const FileRef& f : in) busy_files_.erase(f->number);
  }
  if (pick.level == 0) {
    l0_compaction_running_ = false;
  }
}

}  // namespace dlsm

#include "src/core/shard.h"

#include <algorithm>

#include "src/core/merger.h"
#include "src/util/logging.h"

namespace dlsm {

ShardedDB::ShardedDB(const Options& options,
                     std::vector<std::string> boundaries)
    : options_(options), boundaries_(std::move(boundaries)) {}

std::vector<std::string> ShardedDB::UniformDecimalBoundaries(int shards,
                                                             int key_width) {
  std::vector<std::string> bounds;
  for (int i = 1; i < shards; i++) {
    // boundary = i / shards of the decimal key space, as a zero-padded
    // decimal string.
    double frac = static_cast<double>(i) / shards;
    uint64_t first_digits = static_cast<uint64_t>(frac * 1e9);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%09llu",
                  static_cast<unsigned long long>(first_digits));
    std::string b(buf);
    b.resize(key_width, '0');
    bounds.push_back(std::move(b));
  }
  return bounds;
}

std::vector<std::string> ShardedDB::RangeDecimalBoundaries(
    int shards, int key_width, uint64_t key_range) {
  std::vector<std::string> bounds;
  for (int i = 1; i < shards; i++) {
    uint64_t b = key_range / static_cast<uint64_t>(shards) *
                 static_cast<uint64_t>(i);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%0*llu", key_width,
                  static_cast<unsigned long long>(b));
    bounds.push_back(std::string(buf));
  }
  return bounds;
}

Status ShardedDB::Open(const Options& options, const DbDeps& deps,
                       std::vector<std::string> boundaries, DB** dbptr) {
  *dbptr = nullptr;
  if (static_cast<int>(boundaries.size()) != options.shards - 1) {
    return Status::InvalidArgument("boundaries must have shards-1 entries");
  }
  if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
    return Status::InvalidArgument("boundaries must be sorted");
  }
  // lambda = 1 needs no router, shared pool or per-shard scaling.
  if (options.shards == 1) return DLsmDB::Open(options, deps, dbptr);
  auto db =
      std::unique_ptr<ShardedDB>(new ShardedDB(options, std::move(boundaries)));

  // Shared infrastructure: one flush pool and one RPC client per memory
  // node serve all shards of this compute node.
  db->flush_pool_ = std::make_unique<ThreadPool>(
      options.env, deps.compute->env_node(), options.flush_threads, "flush");
  std::vector<MemoryNodeService*> memories = deps.memories;
  if (memories.empty()) memories.push_back(deps.memory);
  for (MemoryNodeService* m : memories) {
    if (m == nullptr) {
      return Status::InvalidArgument("null memory node in deps.memories");
    }
    // DLsmDB::Init installs Options' RPC policy on these shared clients.
    db->rpcs_.push_back(std::make_unique<remote::RpcClient>(
        deps.fabric, deps.compute, m->rpc_server()));
  }

  Options shard_options = options;
  shard_options.shards = 1;
  // Keep aggregate memory and coordinator counts comparable to lambda=1.
  shard_options.memtable_size =
      std::max<size_t>(options.memtable_size / options.shards, 64 << 10);
  shard_options.sstable_size =
      std::max<size_t>(options.sstable_size / options.shards, 128 << 10);
  shard_options.compaction_scheduler_threads = std::max(
      1, options.compaction_scheduler_threads / options.shards);
  shard_options.max_subcompactions =
      std::max(1, options.max_subcompactions / options.shards);
  shard_options.flush_region_size = options.flush_region_size / options.shards;

  DbDeps shard_deps = deps;
  shard_deps.shared_flush_pool = db->flush_pool_.get();
  shard_deps.memories = memories;
  shard_deps.shared_rpcs.clear();
  for (auto& rpc : db->rpcs_) shard_deps.shared_rpcs.push_back(rpc.get());
  shard_deps.memory = memories[0];
  shard_deps.shared_rpc = db->rpcs_[0].get();
  for (int i = 0; i < options.shards; i++) {
    // Each shard places tables independently; the shard index seeds the
    // policy so round-robin spreads shards across memory nodes.
    shard_deps.placement_shard = deps.placement_shard + i;
    DB* shard = nullptr;
    DLSM_RETURN_NOT_OK(DLsmDB::Open(shard_options, shard_deps, &shard));
    db->shards_.emplace_back(shard);
  }
  *dbptr = db.release();
  return Status::OK();
}

ShardedDB::~ShardedDB() { Close(); }

int RangeOfKey(const std::vector<std::string>& boundaries,
               const Slice& key) {
  // First boundary > key determines the range.
  auto it = std::upper_bound(
      boundaries.begin(), boundaries.end(), key,
      [](const Slice& k, const std::string& b) { return k.compare(b) < 0; });
  return static_cast<int>(it - boundaries.begin());
}

void RangeMultiGet(const std::vector<std::string>& boundaries,
                   const std::function<DB*(int)>& db_of_range,
                   const ReadOptions& options, std::span<const Slice> keys,
                   std::vector<std::string>* values,
                   std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status::OK());
  // Group the batch by owning range, preserving per-range key order.
  const size_t ranges = boundaries.size() + 1;
  std::vector<std::vector<Slice>> range_keys(ranges);
  std::vector<std::vector<size_t>> range_idx(ranges);
  for (size_t i = 0; i < keys.size(); i++) {
    int r = RangeOfKey(boundaries, keys[i]);
    range_keys[r].push_back(keys[i]);
    range_idx[r].push_back(i);
  }
  std::vector<std::string> vals;
  std::vector<Status> stats;
  for (size_t r = 0; r < ranges; r++) {
    if (range_keys[r].empty()) continue;
    db_of_range(static_cast<int>(r))
        ->MultiGet(options, range_keys[r], &vals, &stats);
    for (size_t j = 0; j < range_idx[r].size(); j++) {
      (*values)[range_idx[r][j]] = std::move(vals[j]);
      (*statuses)[range_idx[r][j]] = std::move(stats[j]);
    }
  }
}

int ShardedDB::ShardForKey(const Slice& key) const {
  return RangeOfKey(boundaries_, key);
}

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[ShardForKey(key)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[ShardForKey(key)]->Delete(options, key);
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* batch) {
  // Split the batch by shard, preserving intra-shard order.
  struct Splitter : public WriteBatch::Handler {
    ShardedDB* db;
    std::vector<WriteBatch> per_shard;
    void Put(const Slice& key, const Slice& value) override {
      per_shard[db->ShardForKey(key)].Put(key, value);
    }
    void Delete(const Slice& key) override {
      per_shard[db->ShardForKey(key)].Delete(key);
    }
  };
  Splitter splitter;
  splitter.db = this;
  splitter.per_shard.resize(shards_.size());
  DLSM_RETURN_NOT_OK(batch->Iterate(&splitter));
  for (size_t i = 0; i < shards_.size(); i++) {
    if (splitter.per_shard[i].Count() > 0) {
      DLSM_RETURN_NOT_OK(shards_[i]->Write(options, &splitter.per_shard[i]));
    }
  }
  return Status::OK();
}

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  return shards_[ShardForKey(key)]->Get(options, key, value);
}

void ShardedDB::MultiGet(const ReadOptions& options,
                         std::span<const Slice> keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  RangeMultiGet(
      boundaries_, [this](int s) { return shards_[s].get(); }, options, keys,
      values, statuses);
}

namespace {

/// Shards are disjoint, ordered ranges, so a cross-shard scan is a simple
/// concatenation of per-shard (already user-level) iterators.
class ShardConcatIterator : public Iterator {
 public:
  explicit ShardConcatIterator(std::vector<Iterator*> children)
      : children_(children.begin(), children.end()) {}

  bool Valid() const override {
    return current_ < children_.size() && children_[current_]->Valid();
  }
  Slice key() const override { return children_[current_]->key(); }
  Slice value() const override { return children_[current_]->value(); }
  Status status() const override {
    for (const auto& c : children_) {
      Status s = c->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  void SeekToFirst() override {
    for (auto& c : children_) c->SeekToFirst();
    current_ = 0;
    SkipForward();
  }
  void SeekToLast() override {
    for (auto& c : children_) c->SeekToLast();
    current_ = children_.size() - 1;
    SkipBackward();
  }
  void Seek(const Slice& target) override {
    for (auto& c : children_) c->Seek(target);
    current_ = 0;
    SkipForward();
  }
  void Next() override {
    children_[current_]->Next();
    SkipForward();
  }
  void Prev() override {
    children_[current_]->Prev();
    SkipBackward();
  }

 private:
  void SkipForward() {
    while (current_ < children_.size() && !children_[current_]->Valid()) {
      current_++;
      if (current_ < children_.size()) children_[current_]->SeekToFirst();
    }
  }
  void SkipBackward() {
    while (current_ < children_.size() && !children_[current_]->Valid()) {
      if (current_ == 0) {
        current_ = children_.size();  // Invalid.
        return;
      }
      current_--;
      children_[current_]->SeekToLast();
    }
  }

  std::vector<std::unique_ptr<Iterator>> children_;
  size_t current_ = 0;
};

/// Composite snapshot over all shards.
class ShardedSnapshot : public Snapshot {
 public:
  ShardedSnapshot(std::vector<std::pair<DB*, const Snapshot*>> snaps)
      : snaps_(std::move(snaps)) {}
  ~ShardedSnapshot() override = default;
  uint64_t sequence() const override {
    return snaps_.empty() ? 0 : snaps_[0].second->sequence();
  }
  const std::vector<std::pair<DB*, const Snapshot*>>& snaps() const {
    return snaps_;
  }

 private:
  std::vector<std::pair<DB*, const Snapshot*>> snaps_;
};

}  // namespace

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (auto& shard : shards_) {
    children.push_back(shard->NewIterator(options));
  }
  return new ShardConcatIterator(std::move(children));
}

const Snapshot* ShardedDB::GetSnapshot() {
  std::vector<std::pair<DB*, const Snapshot*>> snaps;
  snaps.reserve(shards_.size());
  for (auto& shard : shards_) {
    snaps.emplace_back(shard.get(), shard->GetSnapshot());
  }
  return new ShardedSnapshot(std::move(snaps));
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  const auto* s = static_cast<const ShardedSnapshot*>(snapshot);
  for (const auto& [db, snap] : s->snaps()) {
    db->ReleaseSnapshot(snap);
  }
  delete s;
}

Status ShardedDB::Flush() {
  for (auto& shard : shards_) {
    DLSM_RETURN_NOT_OK(shard->Flush());
  }
  return Status::OK();
}

Status ShardedDB::WaitForBackgroundIdle() {
  for (auto& shard : shards_) {
    DLSM_RETURN_NOT_OK(shard->WaitForBackgroundIdle());
  }
  return Status::OK();
}

DbStats ShardedDB::GetStats() {
  DbStats total;
  // Per-shard rpc_* counters are zero here: shards share this wrapper's
  // clients, whose counters are folded in once below.
  for (auto& shard : shards_) total.MergeFrom(shard->GetStats());
  for (auto& rpc : rpcs_) {
    total.rpc_retries += rpc->rpc_retries();
    total.rpc_timeouts += rpc->rpc_timeouts();
  }
  return total;
}

int ShardedDB::NumFilesAtLevel(int level) {
  int total = 0;
  for (auto& shard : shards_) total += shard->NumFilesAtLevel(level);
  return total;
}

bool ShardedDB::GetProperty(const Slice& property, std::string* value) {
  if (property == Slice("dlsm.timeseries")) {
    // Each shard samples its own series; export them side by side rather
    // than pretending the rows line up for a merge.
    std::string out = "{\"shards\":[";
    bool any = false;
    for (size_t i = 0; i < shards_.size(); i++) {
      std::string one;
      if (!shards_[i]->GetProperty(property, &one)) return false;
      if (i > 0) out.append(",");
      out.append(one);
      any = true;
    }
    if (!any) return false;
    out.append("]}");
    *value = std::move(out);
    return true;
  }
  return DB::GetProperty(property, value);
}

Status ShardedDB::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // Best-effort: a shard failing to close (a fail-closed background
  // error, say) must not leave its siblings' threads running against
  // infrastructure this wrapper is about to tear down. Remember the first
  // error, still close everything.
  Status first;
  for (auto& shard : shards_) {
    Status s = shard->Close();
    if (first.ok() && !s.ok()) first = s;
  }
  shards_.clear();
  flush_pool_.reset();
  rpcs_.clear();
  return first;
}

}  // namespace dlsm

#include "src/core/table_reader.h"

#include <string>
#include <vector>

#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/thread_slots.h"
#include "src/util/trace.h"

namespace dlsm {

Status FetchIndexBlock(const RemoteReadPath& rp, const FileMetaData& file) {
  // One index partition per probe (RocksDB's two-level index keeps
  // partitions around 4 KB), not the whole per-table index.
  size_t len = file.index != nullptr ? file.index->blob().size() : 4096;
  if (len > 4096) len = 4096;
  if (len > file.data_len) len = file.data_len;
  if (len == 0) return Status::OK();
  static ThreadLocal<std::string> thread_scratch;
  std::string& scratch = thread_scratch.Get();
  scratch.resize(len);
  return rp.MgrRead(scratch.data(), file.chunk.addr, file.chunk.rkey, len);
}

Status RemoteReadPath::MgrRead(void* dst, uint64_t addr, uint32_t rkey,
                               size_t len) const {
  Status s = mgr->Read(dst, addr, rkey, len);
  for (int attempt = 0; !s.ok() && s.IsIOError() && attempt < max_retries;
       attempt++) {
    if (retry_counter != nullptr) {
      retry_counter->fetch_add(1, std::memory_order_relaxed);
    }
    // Recover the errored QP before re-posting. While the memory node is
    // down this fails and the re-read flush-fails immediately; the loop
    // still backs off so exhaustion takes ~max_retries * backoff.
    mgr->ThreadVq()->Recover();
    mgr->env()->SleepNanos(retry_backoff_ns << (attempt < 6 ? attempt : 6));
    s = mgr->Read(dst, addr, rkey, len);
  }
  return s;
}

Status RemoteReadPath::Read(void* dst, uint64_t addr, uint32_t rkey,
                            size_t len) const {
  if (rpc != nullptr && len <= rpc_limit) {
    // Nova-LSM-style server-mediated read: the request crosses the wire,
    // a memory-node worker copies the bytes out of its DRAM (tmpfs), and
    // the reply comes back with a one-sided write.
    std::string args, reply;
    PutFixed64(&args, addr);
    PutFixed64(&args, len);
    DLSM_RETURN_NOT_OK(rpc->Call(remote::RpcType::kReadBlock, args, &reply));
    if (reply.size() != len) {
      return Status::IOError("short server-mediated read");
    }
    memcpy(dst, reply.data(), len);
    return Status::OK();
  }
  if (!extra_copy) {
    return MgrRead(dst, addr, rkey, len);
  }
  // File-system staging copy: the RDMA lands in an FS buffer and is then
  // copied to the caller (the cost the byte-addressable design removes).
  // Per thread, and live across the READ's wait.
  static ThreadLocal<std::string> thread_staging;
  std::string& staging = thread_staging.Get();
  staging.resize(len);
  DLSM_RETURN_NOT_OK(MgrRead(staging.data(), addr, rkey, len));
  memcpy(dst, staging.data(), len);
  return Status::OK();
}

bool SupportsAsyncProbe(const RemoteReadPath& read_path) {
  return read_path.rpc == nullptr && !read_path.extra_copy &&
         !read_path.uncached_index;
}

namespace {

// ---------------------------------------------------------------------------
// Record parsing (byte-addressable layout)
// ---------------------------------------------------------------------------

/// Parses one record at p; returns a pointer past it, or nullptr on
/// corruption. *key/*value point into the input buffer.
const char* ParseRecord(const char* p, const char* limit, Slice* key,
                        Slice* value) {
  uint32_t klen;
  p = GetVarint32Ptr(p, limit, &klen);
  if (p == nullptr || p + klen > limit) return nullptr;
  *key = Slice(p, klen);
  p += klen;
  uint32_t vlen;
  p = GetVarint32Ptr(p, limit, &vlen);
  if (p == nullptr || p + vlen > limit) return nullptr;
  *value = Slice(p, vlen);
  return p + vlen;
}

// ---------------------------------------------------------------------------
// Block iterator (prefix-compressed block with restart points)
// ---------------------------------------------------------------------------

class BlockIter : public Iterator {
 public:
  BlockIter(const InternalKeyComparator* icmp, const char* data,
            uint32_t size)
      : icmp_(icmp), data_(data), size_(size) {
    if (size_ < 4) {
      status_ = Status::Corruption("block too small");
      return;
    }
    num_restarts_ = DecodeFixed32(data_ + size_ - 4);
    // A built block has at least restart 0; zero would underflow the
    // num_restarts_ - 1 in Seek and SeekToLast.
    if (num_restarts_ == 0 || 4 + 4ull * num_restarts_ > size_) {
      status_ = Status::Corruption("bad restart count");
      return;
    }
    restarts_ = size_ - 4 - 4 * num_restarts_;
    current_ = restarts_;
  }

  bool Valid() const override { return current_ < restarts_; }
  Status status() const override { return status_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  void SeekToFirst() override {
    if (!status_.ok()) return;
    SeekToRestartPoint(0);
    ParseNextKey();
  }

  void SeekToLast() override {
    if (!status_.ok()) return;
    SeekToRestartPoint(num_restarts_ - 1);
    while (ParseNextKey() && NextEntryOffset() < restarts_) {
    }
  }

  void Seek(const Slice& target) override {
    if (!status_.ok()) return;
    // Binary search over restart points for the last one with key < target.
    uint32_t left = 0;
    uint32_t right = num_restarts_ - 1;
    while (left < right) {
      uint32_t mid = (left + right + 1) / 2;
      uint32_t region_offset = RestartPoint(mid);
      uint32_t shared, non_shared, value_length;
      const char* key_ptr = DecodeEntry(
          data_ + region_offset, data_ + restarts_, &shared, &non_shared,
          &value_length);
      if (key_ptr == nullptr || shared != 0) {
        status_ = Status::Corruption("bad restart entry");
        return;
      }
      Slice mid_key(key_ptr, non_shared);
      if (icmp_->Compare(mid_key, target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }
    SeekToRestartPoint(left);
    while (ParseNextKey()) {
      if (icmp_->Compare(Slice(key_), target) >= 0) return;
    }
  }

  void Next() override {
    DLSM_CHECK(Valid());
    ParseNextKey();
  }

  void Prev() override {
    DLSM_CHECK(Valid());
    // Back up to the restart point before the current entry, then scan.
    const uint32_t original = current_;
    while (RestartPoint(restart_index_) >= original) {
      if (restart_index_ == 0) {
        current_ = restarts_;  // Before-first.
        return;
      }
      restart_index_--;
    }
    SeekToRestartPoint(restart_index_);
    do {
    } while (ParseNextKey() && NextEntryOffset() < original);
  }

 private:
  uint32_t RestartPoint(uint32_t index) const {
    return DecodeFixed32(data_ + restarts_ + index * 4);
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    restart_index_ = index;
    current_ = RestartPoint(index);
    value_ = Slice(data_ + current_, 0);
  }

  uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }

  static const char* DecodeEntry(const char* p, const char* limit,
                                 uint32_t* shared, uint32_t* non_shared,
                                 uint32_t* value_length) {
    p = GetVarint32Ptr(p, limit, shared);
    if (p == nullptr) return nullptr;
    p = GetVarint32Ptr(p, limit, non_shared);
    if (p == nullptr) return nullptr;
    p = GetVarint32Ptr(p, limit, value_length);
    if (p == nullptr) return nullptr;
    if (static_cast<uint32_t>(limit - p) < (*non_shared + *value_length)) {
      return nullptr;
    }
    return p;
  }

  bool ParseNextKey() {
    current_ = NextEntryOffset();
    const char* p = data_ + current_;
    const char* limit = data_ + restarts_;
    if (p >= limit) {
      current_ = restarts_;
      return false;
    }
    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      status_ = Status::Corruption("bad block entry");
      current_ = restarts_;
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_length);
    while (restart_index_ + 1 < num_restarts_ &&
           RestartPoint(restart_index_ + 1) < current_) {
      restart_index_++;
    }
    return true;
  }

  const InternalKeyComparator* icmp_;
  const char* data_;
  uint32_t size_;
  uint32_t restarts_ = 0;       // Offset of the restart array.
  uint32_t num_restarts_ = 0;
  uint32_t current_ = 0;        // Offset of the current entry.
  uint32_t restart_index_ = 0;
  std::string key_;
  Slice value_;
  Status status_;
};

// ---------------------------------------------------------------------------
// Remote iterators
// ---------------------------------------------------------------------------

/// How an iterator reached the record it asks its PrefetchWindow for.
/// Explicit positioning picks the window size; Next/Prev continue it.
enum class Move {
  kSeek,   ///< Seek(target): likely a short scan; ramp from kRampStart.
  kFirst,  ///< SeekToFirst: a full forward pass; full chunks at once.
  kLast,   ///< SeekToLast: a full backward pass; full chunks at once.
  kNext,   ///< Next: continues forward.
  kPrev,   ///< Prev: continues backward.
};

/// Double-buffered sequential window over a remote table's data region.
/// The window is sized to what the scan consumes. After Seek it starts at
/// kRampStart bytes and posts nothing ahead; each sequential overrun
/// doubles it up to the chunk cap (Options::scan_prefetch_size), and from
/// the second window on, every window swap posts the following window's
/// READ on a private verb queue before the caller consumes the current
/// one, so window k+1 crosses the wire while the CPU drains window k.
/// SeekToFirst/SeekToLast passes start at the cap. A record that straddles
/// the current window and the in-flight one is stitched from both into a
/// small scratch buffer rather than re-read. Backward moves fetch the
/// window that ends at the record. Any other repositioning cancels the
/// in-flight window (the handle layer discards its completion; no drain
/// stall), restarts the ramp and fetches synchronously. Baseline read
/// paths (RPC / staging copy / uncached index) stay fully synchronous
/// through RemoteReadPath::Read. The destructor never blocks: an
/// outstanding prefetch handle cancels itself.
class PrefetchWindow {
 public:
  /// First window after Seek; a 16-entry scan of ~400 B records fits.
  static constexpr size_t kRampStart = 8 << 10;

  PrefetchWindow(const RemoteReadPath& read_path, uint64_t base_addr,
                 uint32_t rkey, uint64_t data_len, size_t chunk_bytes)
      : rp_(read_path), base_(base_addr), rkey_(rkey), data_len_(data_len),
        cap_(chunk_bytes), next_(chunk_bytes),
        async_(SupportsAsyncProbe(read_path)) {}

  PrefetchWindow(const PrefetchWindow&) = delete;
  PrefetchWindow& operator=(const PrefetchWindow&) = delete;

  /// Makes [off, off+len) contiguously addressable; *out points at off.
  /// The pointer stays valid until the next Acquire call.
  Status Acquire(uint64_t off, size_t len, Move move, const char** out) {
    if (off + len > data_len_) {
      return Status::Corruption("record extends past table data");
    }
    if (move == Move::kSeek) RestartRamp();
    if (move == Move::kFirst || move == Move::kLast) next_ = cap_;
    if (Covers(front_off_, front_.size(), off, len)) {
      *out = front_.data() + (off - front_off_);
      return Status::OK();
    }
    const uint64_t front_end = front_off_ + front_.size();
    const bool ahead = move == Move::kNext || move == Move::kFirst;
    if (pending_.valid()) {
      // The in-flight window always starts at front_end.
      const bool in_back = Covers(pending_off_, back_.size(), off, len);
      const bool straddles = off >= front_off_ && off < front_end &&
                             Covers(front_off_, front_.size() + back_.size(),
                                    off, len);
      if (in_back || straddles) {
        trace::TraceSpan prefetch_span("scan_prefetch_wait", "db");
        Status ps = WaitPending();
        prefetch_span.End();
        if (ps.ok()) {
          if (straddles) {
            const size_t head = static_cast<size_t>(front_end - off);
            stitch_.assign(front_.data() + (off - front_off_), head);
            stitch_.append(back_.data(), len - head);
          }
          std::swap(front_, back_);
          front_off_ = pending_off_;
          // Keep the pipeline primed while the caller parses.
          if (ahead) PostNext();
          *out = straddles ? stitch_.data()
                           : front_.data() + (off - front_off_);
          return Status::OK();
        }
        if (!ps.IsIOError() || rp_.max_retries == 0) return ps;
        // Transient fault on the prefetched window: recover the private
        // queue so later prefetches can flow, then refetch synchronously
        // below through the retrying read path.
        if (rp_.retry_counter != nullptr) {
          rp_.retry_counter->fetch_add(1, std::memory_order_relaxed);
        }
        if (vq_ != nullptr) vq_->Recover();
      } else {
        // The consumer jumped elsewhere; the prefetched bytes are useless.
        // Cancel rather than drain: the handle layer discards the
        // completion, so repositioning pays no stall for the dead READ.
        pending_.Cancel();
      }
    }
    // Next/Prev continue the ramp only when sequential: a forward access
    // that starts inside the window or just past it, or a backward one
    // that ends inside it or just before it. (Explicit positioning sized
    // the window above.)
    const bool backward = move == Move::kPrev || move == Move::kLast;
    const bool jumped =
        (move == Move::kNext &&
         (front_.empty() || off < front_off_ || off > front_end)) ||
        (move == Move::kPrev &&
         (front_.empty() || off + len < front_off_ || off + len > front_end));
    if (jumped) RestartRamp();
    size_t want = next_ > len ? next_ : len;
    uint64_t start = off;
    if (backward) {
      // The window ends at the record, so the records before it are in.
      start = off + len > want ? off + len - want : 0;
      want = static_cast<size_t>(off + len - start);
    } else if (off + want > data_len_) {
      want = static_cast<size_t>(data_len_ - off);
    }
    Grow();
    front_.resize(want);
    // Scan fills only touch the cache when Options::cache_scans opted in;
    // by default sequential traffic never competes with the point-read
    // hot set. Keys use the window geometry (table, window offset).
    BlockCache* cache =
        rp_.cache_scans && rp_.cache_table != 0 ? rp_.cache : nullptr;
    if (cache == nullptr ||
        !cache->Lookup(rp_.cache_table, start, front_.data(), want)) {
      Status rs = rp_.Read(front_.data(), base_ + start, rkey_, want);
      if (!rs.ok()) {
        front_.clear();  // Half-overwritten bytes must never cover a read.
        return rs;
      }
      if (cache != nullptr) {
        cache->Insert(rp_.cache_table, start, front_.data(), want);
      }
    }
    front_off_ = start;
    // After Seek the first window posts nothing ahead: most such scans end
    // inside it.
    if (ahead) PostNext();
    *out = front_.data() + (off - front_off_);
    return Status::OK();
  }

 private:
  static bool Covers(uint64_t win_off, size_t win_len, uint64_t off,
                     size_t len) {
    return win_len > 0 && off >= win_off && off + len <= win_off + win_len;
  }

  void RestartRamp() { next_ = kRampStart < cap_ ? kRampStart : cap_; }
  /// The next window doubles, up to the cap.
  void Grow() { next_ = next_ >= cap_ / 2 ? cap_ : next_ * 2; }

  void PostNext() {
    if (!async_) return;
    uint64_t off = front_off_ + front_.size();
    if (off >= data_len_) return;
    size_t want = next_;
    if (off + want > data_len_) want = static_cast<size_t>(data_len_ - off);
    Grow();
    if (vq_ == nullptr) vq_ = rp_.mgr->CreateExclusiveVq();
    back_.resize(want);
    pending_ = vq_->Read(back_.data(), base_ + off, rkey_, want);
    pending_off_ = off;
  }

  Status WaitPending() {
    Status s = pending_.Wait();
    pending_ = rdma::WrHandle();
    return s;
  }

  RemoteReadPath rp_;
  uint64_t base_;
  uint32_t rkey_;
  uint64_t data_len_;
  size_t cap_;
  size_t next_;  // Size of the next window fetched or posted.
  bool async_;
  // Private verb queue: the iterator may outlive probes on the caller
  // thread's queue, and its in-flight window must not queue behind them.
  // Declared before pending_ so the handle dies first.
  rdma::ExclusiveVq vq_;
  std::string front_, back_;
  std::string stitch_;  // A record assembled across the window swap.
  uint64_t front_off_ = 0;
  rdma::WrHandle pending_;
  uint64_t pending_off_ = 0;
};

/// Byte-addressable remote iterator: positions through the per-record
/// index; the data region is consumed through a prefetch window.
class RemoteByteTableIterator : public Iterator {
 public:
  RemoteByteTableIterator(const RemoteReadPath& read_path, FileRef file,
                          size_t prefetch)
      : file_(std::move(file)),
        window_(read_path, file_->chunk.addr, file_->chunk.rkey,
                file_->data_len, prefetch < 4096 ? 4096 : prefetch) {}

  bool Valid() const override { return valid_; }
  Status status() const override { return status_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  void SeekToFirst() override { Position(0, Move::kFirst); }
  void SeekToLast() override {
    size_t n = file_->index->num_entries();
    if (n == 0) {
      valid_ = false;
      return;
    }
    Position(n - 1, Move::kLast);
  }
  void Seek(const Slice& target) override {
    Position(file_->index->Find(target), Move::kSeek);
  }
  void Next() override {
    DLSM_CHECK(Valid());
    Position(ordinal_ + 1, Move::kNext);
  }
  void Prev() override {
    DLSM_CHECK(Valid());
    if (ordinal_ == 0) {
      valid_ = false;
      return;
    }
    Position(ordinal_ - 1, Move::kPrev);
  }

 private:
  void Position(size_t ordinal, Move move) {
    const TableIndex& index = *file_->index;
    if (ordinal >= index.num_entries()) {
      valid_ = false;
      return;
    }
    const TableIndex::Entry& e = index.entry(ordinal);
    // Sequential chunk prefetch (Sec. VI): one RDMA READ covers many
    // upcoming records, and the window double-buffers the next chunk.
    const char* p = nullptr;
    Status s = window_.Acquire(e.offset, e.length, move, &p);
    if (!s.ok()) {
      status_ = s;
      valid_ = false;
      return;
    }
    if (ParseRecord(p, p + e.length, &key_, &value_) == nullptr) {
      status_ = Status::Corruption("bad record in table");
      valid_ = false;
      return;
    }
    ordinal_ = ordinal;
    valid_ = true;
  }

  FileRef file_;
  PrefetchWindow window_;
  size_t ordinal_ = 0;
  bool valid_ = false;
  Slice key_, value_;
  Status status_;
};

/// Two-level walk over a block-format table: the index picks a block and
/// a BlockIter walks its entries. Subclasses differ only in how they get a
/// block's bytes. Valid() is false while status() is not OK. A failed
/// fetch (IOError) is reported until the next Seek/SeekToFirst/SeekToLast,
/// which goes back to the wire; a lying index (Corruption) is permanent.
class BlockTableIterator : public Iterator {
 public:
  bool Valid() const override {
    return status_.ok() && inner_ != nullptr && inner_->Valid();
  }
  Status status() const override {
    if (!status_.ok()) return status_;
    return inner_ != nullptr ? inner_->status() : Status::OK();
  }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }

  void SeekToFirst() override {
    BeginPositioning();
    if (!LoadBlock(0, Move::kFirst)) return;
    inner_->SeekToFirst();
    SkipForwardEmpty();
  }

  void SeekToLast() override {
    BeginPositioning();
    size_t n = index_->num_entries();
    if (n == 0 || !LoadBlock(n - 1, Move::kLast)) return;
    inner_->SeekToLast();
  }

  void Seek(const Slice& target) override {
    BeginPositioning();
    size_t b = index_->Find(target);
    if (!LoadBlock(b, Move::kSeek)) return;
    inner_->Seek(target);
    SkipForwardEmpty();
  }

  void Next() override {
    DLSM_CHECK(Valid());
    inner_->Next();
    SkipForwardEmpty();
  }

  void Prev() override {
    DLSM_CHECK(Valid());
    inner_->Prev();
    while (inner_ != nullptr && !inner_->Valid() && inner_->status().ok() &&
           block_ > 0) {
      if (!LoadBlock(block_ - 1, Move::kPrev)) return;
      inner_->SeekToLast();
    }
  }

 protected:
  BlockTableIterator(const TableIndex* index,
                     const InternalKeyComparator& icmp)
      : index_(index), icmp_(icmp) {}

  /// Points *data at block `e`'s bytes, reached by `move`.
  virtual Status BlockBytes(const TableIndex::Entry& e, Move move,
                            const char** data) = 0;
  /// Runs at the start of every explicit positioning call.
  virtual void BeforePositioning() {}

  void Fail(const Status& s) {
    if (status_.ok()) status_ = s;
  }

 private:
  void BeginPositioning() {
    if (status_.IsIOError()) status_ = Status::OK();
    BeforePositioning();
  }

  // Steps over exhausted blocks; a corrupt block stops the walk (here and
  // in Prev) so its status surfaces instead of being skipped.
  void SkipForwardEmpty() {
    while (inner_ != nullptr && !inner_->Valid() && inner_->status().ok() &&
           block_ + 1 < index_->num_entries()) {
      if (!LoadBlock(block_ + 1, Move::kNext)) return;
      inner_->SeekToFirst();
    }
  }

  bool LoadBlock(size_t b, Move move) {
    if (b >= index_->num_entries()) {
      inner_.reset();
      return false;
    }
    const TableIndex::Entry& e = index_->entry(b);
    const char* p = nullptr;
    Status s = BlockBytes(e, move, &p);
    if (!s.ok()) {
      Fail(s);
      inner_.reset();
      return false;
    }
    // Unwrap the block: BlockIter re-materializes keys entry by entry —
    // the copy overhead the byte-addressable layout avoids.
    inner_ = std::make_unique<BlockIter>(&icmp_, p, e.length);
    block_ = b;
    return true;
  }

  const TableIndex* index_;
  InternalKeyComparator icmp_;
  size_t block_ = 0;
  std::unique_ptr<BlockIter> inner_;
  Status status_;
};

/// Block-format remote iterator: whole blocks come through a
/// PrefetchWindow (optionally several at a time).
class RemoteBlockTableIterator : public BlockTableIterator {
 public:
  RemoteBlockTableIterator(const RemoteReadPath& read_path,
                           const InternalKeyComparator& icmp, FileRef file,
                           size_t prefetch)
      : BlockTableIterator(file->index.get(), icmp),
        read_path_(read_path),
        file_(std::move(file)),
        window_(read_path, file_->chunk.addr, file_->chunk.rkey,
                file_->data_len, prefetch) {}

 private:
  Status BlockBytes(const TableIndex::Entry& e, Move move,
                    const char** data) override {
    return window_.Acquire(e.offset, e.length, move, data);
  }

  void BeforePositioning() override {
    if (!read_path_.uncached_index || index_fetched_) return;
    Status s = FetchIndexBlock(read_path_, *file_);
    if (s.ok()) {
      index_fetched_ = true;
    } else {
      Fail(s);
    }
  }

  RemoteReadPath read_path_;
  FileRef file_;
  PrefetchWindow window_;
  bool index_fetched_ = false;
};

// ---------------------------------------------------------------------------
// Local iterators (memory-node side)
// ---------------------------------------------------------------------------

class LocalByteTableIterator : public Iterator {
 public:
  LocalByteTableIterator(const char* data, uint64_t len,
                         const InternalKeyComparator& icmp)
      : data_(data), limit_(data + len), icmp_(icmp) {}

  bool Valid() const override { return valid_; }
  Status status() const override { return status_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  void SeekToFirst() override {
    next_ = data_;
    Advance();
  }

  void SeekToLast() override {
    // Forward-only structure: scan to the final record.
    SeekToFirst();
    while (valid_ && next_ < limit_) {
      Advance();
    }
  }

  void Seek(const Slice& target) override {
    // Self-delimiting stream without an index: a single forward scan
    // under the internal-key comparator. Resume from the current record
    // when the target lies ahead; otherwise restart from the front.
    if (!valid_ || icmp_.Compare(key_, target) >= 0) {
      SeekToFirst();
    }
    while (valid_ && icmp_.Compare(key_, target) < 0) {
      Advance();
    }
  }

  void Next() override {
    DLSM_CHECK(Valid());
    Advance();
  }

  void Prev() override {
    DLSM_CHECK_MSG(false, "LocalByteTableIterator is forward-only");
  }

 private:
  void Advance() {
    if (next_ >= limit_) {
      valid_ = false;
      return;
    }
    const char* after = ParseRecord(next_, limit_, &key_, &value_);
    if (after == nullptr) {
      status_ = Status::Corruption("bad record in local table");
      valid_ = false;
      return;
    }
    next_ = after;
    valid_ = true;
  }

  const char* data_;
  const char* limit_;
  InternalKeyComparator icmp_;
  const char* next_ = nullptr;
  bool valid_ = false;
  Slice key_, value_;
  Status status_;
};

/// Block-format local iterator over a table in this node's DRAM.
class LocalBlockTableIterator : public BlockTableIterator {
 public:
  LocalBlockTableIterator(const char* data, uint64_t len,
                          std::shared_ptr<TableIndex> index,
                          const InternalKeyComparator& icmp)
      : BlockTableIterator(index.get(), icmp),
        data_(data),
        len_(len),
        index_(std::move(index)) {}

 private:
  Status BlockBytes(const TableIndex::Entry& e, Move,
                    const char** data) override {
    if (e.offset > len_ || e.length > len_ - e.offset) {
      // The index came off the wire with the table; it may lie.
      return Status::Corruption("index entry points past the table");
    }
    *data = data_ + e.offset;
    return Status::OK();
  }

  const char* data_;
  uint64_t len_;
  std::shared_ptr<TableIndex> index_;  // Keeps the base's index alive.
};

}  // namespace

// ---------------------------------------------------------------------------
// Point lookup
// ---------------------------------------------------------------------------

Status TableProbePrepare(const BloomFilterPolicy& bloom,
                         const FileMetaData& file, const LookupKey& lkey,
                         uint32_t key_hash, std::pmr::memory_resource* mem,
                         TableProbe* probe, bool* skipped_by_bloom) {
  probe->need_read = false;
  probe->definitive = false;
  probe->file = &file;
  if (skipped_by_bloom != nullptr) *skipped_by_bloom = false;
  if (file.index == nullptr) {
    return Status::Corruption("table has no cached index");
  }
  const TableIndex& index = *file.index;

  // Bloom filters skip remote reads for absent keys (Sec. III).
  if (!index.HashMayMatch(bloom, key_hash)) {
    if (skipped_by_bloom != nullptr) *skipped_by_bloom = true;
    return Status::OK();
  }

  bool same_user_key = false;
  size_t pos = index.Find(lkey.internal_key(), &same_user_key);
  if (pos >= index.num_entries()) {
    return Status::OK();
  }
  const TableIndex::Entry& e = index.entry(pos);
  if (index.kind() == TableIndex::kPerRecord) {
    if (!same_user_key) {
      return Status::OK();  // Next entry is a different user key.
    }
    // The cached index already proved a visible version lives here, so
    // the read's outcome settles the whole lookup (newest-wins harvest).
    probe->definitive = true;
  }
  probe->need_read = true;
  probe->read_off = e.offset;
  // Uninitialized: the read overwrites every byte.
  probe->buf = {static_cast<char*>(mem->allocate(e.length)), e.length};
  probe->index_trailer = e.trailer;
  return Status::OK();
}

Status TableProbeFinish(const InternalKeyComparator& icmp,
                        const LookupKey& lkey, TableProbe* probe,
                        TableLookupResult* result, std::string* value) {
  *result = TableLookupResult::kNotPresent;
  if (!probe->need_read) {
    return Status::OK();
  }
  const TableIndex& index = *probe->file->index;

  if (index.kind() == TableIndex::kPerRecord) {
    // The record must carry the key the index named: the lookup's user
    // key (Prepare matched it) and the entry's trailer.
    const Slice user_key = lkey.user_key();
    Slice ikey, v;
    if (ParseRecord(probe->buf.data(), probe->buf.data() + probe->buf.size(),
                    &ikey, &v) == nullptr ||
        ikey.size() != user_key.size() + 8 || !ikey.starts_with(user_key) ||
        ExtractTrailer(ikey) != probe->index_trailer) {
      return Status::Corruption("record/index mismatch");
    }
    ParsedInternalKey parsed;
    if (!ParseInternalKey(ikey, &parsed)) {
      return Status::Corruption("bad internal key in table");
    }
    if (parsed.type == kTypeDeletion) {
      *result = TableLookupResult::kDeleted;
    } else {
      value->assign(v.data(), v.size());
      *result = TableLookupResult::kFound;
    }
    return Status::OK();
  }

  // Block layout: unwrap the fetched block.
  BlockIter iter(&icmp, probe->buf.data(),
                 static_cast<uint32_t>(probe->buf.size()));
  iter.Seek(lkey.internal_key());
  if (!iter.Valid()) {
    return iter.status();
  }
  if (ExtractUserKey(iter.key()) != lkey.user_key()) {
    return Status::OK();
  }
  ParsedInternalKey parsed;
  if (!ParseInternalKey(iter.key(), &parsed)) {
    return Status::Corruption("bad internal key in block");
  }
  if (parsed.type == kTypeDeletion) {
    *result = TableLookupResult::kDeleted;
  } else {
    Slice v = iter.value();
    value->assign(v.data(), v.size());
    *result = TableLookupResult::kFound;
  }
  return Status::OK();
}

Iterator* NewRemoteTableIterator(const RemoteReadPath& read_path,
                                 const InternalKeyComparator& icmp,
                                 FileRef file, size_t prefetch_bytes) {
  if (file->index == nullptr) {
    return NewErrorIterator(Status::Corruption("table has no cached index"));
  }
  // Stamp the owning table onto the iterator's private read-path copy so
  // scan-fill cache entries (when cache_scans is on) carry the right key.
  RemoteReadPath rp = read_path;
  rp.cache_table = file->number;
  if (file->index->kind() == TableIndex::kPerRecord) {
    return new RemoteByteTableIterator(rp, std::move(file), prefetch_bytes);
  }
  return new RemoteBlockTableIterator(rp, icmp, std::move(file),
                                      prefetch_bytes);
}

Iterator* NewLocalByteTableIterator(const char* data, uint64_t data_len,
                                    const InternalKeyComparator& icmp) {
  return new LocalByteTableIterator(data, data_len, icmp);
}

Iterator* NewLocalBlockTableIterator(const char* data, uint64_t data_len,
                                     std::shared_ptr<TableIndex> index,
                                     const InternalKeyComparator& icmp) {
  return new LocalBlockTableIterator(data, data_len, std::move(index), icmp);
}

}  // namespace dlsm

// Table sinks: where serialized SSTable bytes go.
//
//  * AsyncRemoteSink — the paper's Fig. 6 flush pipeline: bytes are
//    serialized straight into registered staging buffers; a full buffer is
//    posted as an asynchronous RDMA WRITE through the unified verb layer
//    and serialization continues in the next buffer. Each in-flight buffer
//    holds its WRITE's WrHandle; buffers recycle as their handles become
//    ready (oldest first — one QP completes FIFO, but the handle layer
//    would tolerate any order).
//  * SyncRemoteSink — ablation: one blocking RDMA WRITE per buffer.
//  * LocalMemorySink — near-data compaction output: the memory node
//    serializes directly into its own DRAM; no wire traffic at all.
//
// A FlushPipeline extends the async pipeline across the outputs of one
// flush/compaction job: sinks attached to a pipeline share its verb queue
// and hand their tail WRITE handles over on Finish() instead of draining,
// so serialization of the next output overlaps the previous output's wire
// tail. The job drains the pipeline once, before installing any output.

#ifndef DLSM_CORE_TABLE_SINK_H_
#define DLSM_CORE_TABLE_SINK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/rdma/rdma_manager.h"
#include "src/remote/remote_alloc.h"
#include "src/util/status.h"

namespace dlsm {

/// Receives the sequential byte stream of an SSTable under construction.
class TableSink {
 public:
  virtual ~TableSink() = default;

  /// Appends n bytes; the stream offset advances by n.
  virtual Status Append(const char* data, size_t n) = 0;

  /// Completes the stream (waits out in-flight I/O).
  virtual Status Finish() = 0;

  /// Bytes appended so far (== current stream offset).
  virtual uint64_t bytes_written() const = 0;
};

/// Serializes into the memory node's own DRAM (near-data compaction).
class LocalMemorySink : public TableSink {
 public:
  /// Writes into [dst, dst+capacity).
  LocalMemorySink(char* dst, size_t capacity);

  Status Append(const char* data, size_t n) override;
  Status Finish() override { return Status::OK(); }
  uint64_t bytes_written() const override { return written_; }

 private:
  char* dst_;
  size_t capacity_;
  uint64_t written_ = 0;
};

/// Job-scoped wave state shared by every output sink of one flush or
/// compute-side compaction: one exclusive verb queue plus the WRITE
/// handles deferred by finished sinks. Single-owner, like the verb queue
/// it wraps: one job thread creates it, attaches its sinks to it, and
/// drains it before installing any output. Destruction without Drain()
/// (error unwind, DB teardown) cancels the deferred handles without
/// blocking; the verb queue folds their completions into the abandoned
/// counter so the outstanding gauge is never pinned.
class FlushPipeline {
 public:
  explicit FlushPipeline(rdma::RdmaManager* mgr);
  ~FlushPipeline() = default;  // Handles cancel, then the queue unwinds.

  FlushPipeline(const FlushPipeline&) = delete;
  FlushPipeline& operator=(const FlushPipeline&) = delete;

  rdma::VerbQueue* vq() { return vq_.get(); }

  /// Takes ownership of a finished sink's in-flight WRITE handle.
  void Adopt(rdma::WrHandle wr) { deferred_.push_back(std::move(wr)); }

  /// Waits out every deferred WRITE; returns the first failure. The
  /// durability barrier before outputs are installed in the version.
  Status Drain();

  /// Deferred handles not yet drained (exposed for tests).
  size_t deferred_writes() const { return deferred_.size(); }

 private:
  // Declared before the handles so they die first on unwind.
  rdma::ExclusiveVq vq_;
  std::vector<rdma::WrHandle> deferred_;
};

/// The asynchronous flush pipeline of paper Sec. X-C.
class AsyncRemoteSink : public TableSink {
 public:
  /// Streams into the remote chunk through buffer_count staging buffers of
  /// buffer_size bytes each, allocated from the compute node's DRAM. With
  /// a pipeline, the sink posts on the pipeline's shared verb queue and
  /// Finish() defers its in-flight WRITEs to the pipeline instead of
  /// draining them (the async write path); without one it owns an
  /// exclusive queue and Finish() blocks until the last byte lands.
  AsyncRemoteSink(rdma::RdmaManager* mgr, const remote::RemoteChunk& chunk,
                  size_t buffer_size, int buffer_count,
                  FlushPipeline* pipeline = nullptr);
  ~AsyncRemoteSink() override;

  Status Append(const char* data, size_t n) override;
  Status Finish() override;
  uint64_t bytes_written() const override { return written_; }

  /// Buffer-reuse statistic (how often a finished buffer was recycled
  /// rather than a fresh one allocated); exposed for tests.
  uint64_t recycled_buffers() const { return recycled_; }

 private:
  struct Buffer {
    char* data;
    size_t fill = 0;
    rdma::WrHandle wr;  // Live while its WRITE is in flight.
  };

  /// Posts the current buffer's contents as an async WRITE and rotates to
  /// a recycled (or fresh) buffer.
  Status FlushCurrent();
  /// Reaps ready completions; if block_for_one, waits for the queue head.
  Status ReapCompletions(bool block_for_one);

  rdma::RdmaManager* mgr_;
  // Declared before the buffers so their handles die first on unwind.
  rdma::ExclusiveVq owned_vq_;  // Null when pipelined.
  rdma::VerbQueue* vq_ = nullptr;  // owned_vq_ or the pipeline's queue.
  FlushPipeline* pipeline_ = nullptr;
  remote::RemoteChunk chunk_;
  size_t buffer_size_;
  int max_buffers_;
  uint64_t written_ = 0;   // Stream offset (== remote offset of next byte).
  uint64_t recycled_ = 0;
  Buffer* current_ = nullptr;
  // FIFO of buffers whose WRITE is in flight, oldest first — mirrors the
  // RDMA send queue order, so the head always completes first.
  std::deque<Buffer*> in_flight_;
  std::vector<Buffer*> free_buffers_;
  std::vector<std::unique_ptr<Buffer>> all_buffers_;
  Status status_;
};

/// Decorator adding one staging copy per append, modeling the extra
/// buffer hop of the ported baselines' file-system layer.
class CopySink : public TableSink {
 public:
  explicit CopySink(std::unique_ptr<TableSink> inner)
      : inner_(std::move(inner)) {}

  Status Append(const char* data, size_t n) override {
    staging_.assign(data, n);  // The FS-layer copy.
    return inner_->Append(staging_.data(), n);
  }
  Status Finish() override { return inner_->Finish(); }
  uint64_t bytes_written() const override { return inner_->bytes_written(); }

 private:
  std::unique_ptr<TableSink> inner_;
  std::string staging_;
};

/// Ablation: same staging buffers, but each WRITE blocks until completion.
class SyncRemoteSink : public TableSink {
 public:
  SyncRemoteSink(rdma::RdmaManager* mgr, const remote::RemoteChunk& chunk,
                 size_t buffer_size);

  Status Append(const char* data, size_t n) override;
  Status Finish() override;
  uint64_t bytes_written() const override { return written_; }

 private:
  Status FlushCurrent();

  rdma::RdmaManager* mgr_;
  remote::RemoteChunk chunk_;
  size_t buffer_size_;
  std::vector<char> buffer_;
  size_t fill_ = 0;
  uint64_t written_ = 0;
};

}  // namespace dlsm

#endif  // DLSM_CORE_TABLE_SINK_H_

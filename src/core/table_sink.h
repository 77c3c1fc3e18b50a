// Table sinks: where serialized SSTable bytes go.
//
//  * AsyncRemoteSink — the paper's Fig. 6 flush pipeline: bytes are
//    serialized straight into registered staging buffers; a full buffer is
//    posted as an asynchronous RDMA WRITE through the unified verb layer
//    and serialization continues in the next buffer. Each in-flight buffer
//    holds its WRITE's WrHandle; buffers recycle as their handles become
//    ready (oldest first — one QP completes FIFO, but the handle layer
//    would tolerate any order). With one buffer it is the synchronous
//    transport: one blocking WRITE per full buffer.
//  * LocalMemorySink — near-data compaction output: the memory node
//    serializes directly into its own DRAM; no wire traffic at all.
//
// A FlushPipeline extends the async pipeline across the outputs of one
// flush/compaction job: sinks attached to a pipeline share its verb queue
// and hand their tail WRITE handles over on Finish() instead of draining,
// so serialization of the next output overlaps the previous output's wire
// tail. The job drains the pipeline once, before installing any output.
//
// Staging buffers come from a StagingPool and go back to it once their
// WRITE has completed (reaped by the sink or waited by Drain()).

#ifndef DLSM_CORE_TABLE_SINK_H_
#define DLSM_CORE_TABLE_SINK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
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

/// Registered staging buffers of one size, carved from a node's DRAM. That
/// DRAM is a bump arena that never frees, so the sinks of one DB draw their
/// buffers from, and return them to, one free list; it never holds more
/// buffers than were in use at once. Thread-safe.
class StagingPool {
 public:
  StagingPool(rdma::Node* node, size_t buffer_size)
      : node_(node), buffer_size_(buffer_size) {}

  /// A buffer of buffer_size() bytes; nullptr when the node's DRAM is
  /// exhausted.
  char* Get();
  /// Returns a buffer no WRITE is still reading.
  void Put(char* buffer);
  size_t buffer_size() const { return buffer_size_; }

 private:
  rdma::Node* node_;
  size_t buffer_size_;
  std::mutex mu_;
  std::vector<char*> free_;  // Guarded by mu_.
};

/// A staging buffer and the WRITE still reading it.
struct StagedWrite {
  char* buffer;
  rdma::WrHandle wr;
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
  /// Buffers adopted from sinks go back to `pool` once drained; without
  /// Drain() they are dropped with their cancelled handles, never reused.
  FlushPipeline(rdma::RdmaManager* mgr, StagingPool* pool);
  ~FlushPipeline() = default;  // Handles cancel, then the queue unwinds.

  FlushPipeline(const FlushPipeline&) = delete;
  FlushPipeline& operator=(const FlushPipeline&) = delete;

  rdma::VerbQueue* vq() { return vq_.get(); }

  /// Takes ownership of a finished sink's in-flight WRITE and its buffer.
  void Adopt(StagedWrite w) { deferred_.push_back(std::move(w)); }

  /// Waits out every deferred WRITE and returns its buffer to the pool;
  /// returns the first failure. The durability barrier before outputs are
  /// installed in the version.
  Status Drain();

  /// Deferred handles not yet drained (exposed for tests).
  size_t deferred_writes() const { return deferred_.size(); }

 private:
  // Declared before the handles so they die first on unwind.
  rdma::ExclusiveVq vq_;
  StagingPool* pool_;
  std::vector<StagedWrite> deferred_;
};

/// The asynchronous flush pipeline of paper Sec. X-C.
class AsyncRemoteSink : public TableSink {
 public:
  /// Streams into the remote chunk through up to buffer_count staging
  /// buffers drawn from `pool`. With a pipeline (which must share the
  /// pool), the sink posts on the pipeline's shared verb queue and
  /// Finish() defers its in-flight WRITEs to the pipeline instead of
  /// draining them (the async write path); without one it owns an
  /// exclusive queue and Finish() blocks until the last byte lands. With
  /// one buffer and no pipeline every full buffer is one blocking WRITE
  /// (the synchronous transport).
  AsyncRemoteSink(rdma::RdmaManager* mgr, const remote::RemoteChunk& chunk,
                  StagingPool* pool, int buffer_count,
                  FlushPipeline* pipeline = nullptr);
  /// Returns its buffers to the pool, except any a WRITE may still be
  /// reading (error unwind): those handles cancel without blocking and
  /// their buffers are dropped, never reused.
  ~AsyncRemoteSink() override;

  /// Fails with OutOfMemory when no staging buffer can be allocated.
  Status Append(const char* data, size_t n) override;
  Status Finish() override;
  uint64_t bytes_written() const override { return written_; }

  /// Buffer-reuse statistic (buffers this sink handed back to the pool
  /// once their WRITE completed); exposed for tests.
  uint64_t recycled_buffers() const { return recycled_; }

 private:
  /// Posts the current buffer's contents as an async WRITE.
  void Post();
  /// Posts the current buffer and takes the next one, waiting for the
  /// oldest WRITE when all buffer_count buffers are in flight.
  Status FlushCurrent();
  /// Reaps ready completions, returning their buffers to the pool; if
  /// block_for_one, waits for the queue head.
  Status ReapCompletions(bool block_for_one);
  /// Takes the next current buffer from the pool.
  Status TakeBuffer();

  // Declared before the buffers so their handles die first on unwind.
  rdma::ExclusiveVq owned_vq_;  // Null when pipelined.
  rdma::VerbQueue* vq_ = nullptr;  // owned_vq_ or the pipeline's queue.
  StagingPool* pool_;
  FlushPipeline* pipeline_;
  remote::RemoteChunk chunk_;
  size_t max_buffers_;
  uint64_t written_ = 0;   // Stream offset (== remote offset of next byte).
  uint64_t recycled_ = 0;
  char* current_ = nullptr;
  size_t fill_ = 0;        // Bytes in current_.
  // Buffers whose WRITE is in flight, oldest first — mirrors the RDMA send
  // queue order, so the head always completes first.
  std::deque<StagedWrite> in_flight_;
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

}  // namespace dlsm

#endif  // DLSM_CORE_TABLE_SINK_H_

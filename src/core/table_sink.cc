#include "src/core/table_sink.h"

#include <algorithm>
#include <cstring>

#include "src/util/trace.h"

namespace dlsm {

// ---------------------------------------------------------------------------
// LocalMemorySink
// ---------------------------------------------------------------------------

LocalMemorySink::LocalMemorySink(char* dst, size_t capacity)
    : dst_(dst), capacity_(capacity) {}

Status LocalMemorySink::Append(const char* data, size_t n) {
  if (written_ + n > capacity_) {
    return Status::OutOfMemory("table exceeds output chunk");
  }
  memcpy(dst_ + written_, data, n);
  written_ += n;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// StagingPool
// ---------------------------------------------------------------------------

char* StagingPool::Get() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      char* buffer = free_.back();
      free_.pop_back();
      return buffer;
    }
  }
  return node_->AllocDram(buffer_size_);
}

void StagingPool::Put(char* buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(buffer);
}

// ---------------------------------------------------------------------------
// FlushPipeline
// ---------------------------------------------------------------------------

FlushPipeline::FlushPipeline(rdma::RdmaManager* mgr, StagingPool* pool)
    : vq_(mgr->CreateExclusiveVq()), pool_(pool) {}

Status FlushPipeline::Drain() {
  // The flush wave's durability barrier: the span is the stall a flush job
  // pays waiting for its deferred WRITE handles before install.
  trace::TraceSpan span("flush_drain", "flush");
  span.arg("deferred", deferred_.size());
  Status first;
  for (StagedWrite& w : deferred_) {
    Status s = w.wr.Wait();
    if (first.ok() && !s.ok()) first = s;
    pool_->Put(w.buffer);
  }
  deferred_.clear();
  return first;
}

// ---------------------------------------------------------------------------
// AsyncRemoteSink
// ---------------------------------------------------------------------------

AsyncRemoteSink::AsyncRemoteSink(rdma::RdmaManager* mgr,
                                 const remote::RemoteChunk& chunk,
                                 StagingPool* pool, int buffer_count,
                                 FlushPipeline* pipeline)
    : pool_(pool),
      pipeline_(pipeline),
      chunk_(chunk),
      max_buffers_(static_cast<size_t>(buffer_count)) {
  if (pipeline_ != nullptr) {
    vq_ = pipeline_->vq();
  } else {
    owned_vq_ = mgr->CreateExclusiveVq();
    vq_ = owned_vq_.get();
  }
  // First buffer up front; the rest are taken on demand and go back to the
  // pool once their transfers complete (Fig. 6 step 4).
  TakeBuffer();
}

AsyncRemoteSink::~AsyncRemoteSink() {
  if (current_ != nullptr) pool_->Put(current_);
}

Status AsyncRemoteSink::TakeBuffer() {
  current_ = pool_->Get();
  if (current_ == nullptr) {
    status_ = Status::OutOfMemory("compute DRAM exhausted (flush buffer)");
  }
  return status_;
}

Status AsyncRemoteSink::ReapCompletions(bool block_for_one) {
  if (block_for_one && !in_flight_.empty()) in_flight_.front().wr.Wait();
  // Also reap whatever is already ready (Fig. 6: "the writer thread checks
  // for work request completions every time it submits").
  while (!in_flight_.empty() && in_flight_.front().wr.Ready()) {
    StagedWrite& head = in_flight_.front();
    if (!head.wr.status().ok()) status_ = head.wr.status();
    pool_->Put(head.buffer);
    recycled_++;
    in_flight_.pop_front();
  }
  return status_;
}

void AsyncRemoteSink::Post() {
  uint64_t remote_off = written_ - fill_;
  in_flight_.push_back(StagedWrite{
      current_,
      vq_->Write(current_, chunk_.addr + remote_off, chunk_.rkey, fill_)});
  current_ = nullptr;
  fill_ = 0;
}

Status AsyncRemoteSink::FlushCurrent() {
  Post();
  DLSM_RETURN_NOT_OK(ReapCompletions(false));
  if (in_flight_.size() >= max_buffers_) {
    // All buffers in flight: wait for the queue head (backpressure).
    DLSM_RETURN_NOT_OK(ReapCompletions(true));
  }
  return TakeBuffer();
}

Status AsyncRemoteSink::Append(const char* data, size_t n) {
  DLSM_RETURN_NOT_OK(status_);
  if (written_ + n > chunk_.size) {
    return Status::OutOfMemory("table exceeds remote chunk");
  }
  const size_t buffer_size = pool_->buffer_size();
  while (n > 0) {
    size_t take = std::min(n, buffer_size - fill_);
    // Serialization writes directly into the registered staging buffer —
    // no intermediate copy (Fig. 6 step 1).
    memcpy(current_ + fill_, data, take);
    fill_ += take;
    written_ += take;
    data += take;
    n -= take;
    if (fill_ == buffer_size) {
      DLSM_RETURN_NOT_OK(FlushCurrent());
    }
  }
  return status_;
}

Status AsyncRemoteSink::Finish() {
  DLSM_RETURN_NOT_OK(status_);
  // The tail buffer's WRITE is posted directly — not via FlushCurrent,
  // whose opportunistic reap could harvest it before adoption — so at
  // least one handle per pipelined sink always reaches the pipeline and
  // its outcome is checked by Drain(), never dropped.
  if (fill_ > 0) Post();
  if (pipeline_ != nullptr) {
    // Defer the tail: the pipeline owns the in-flight WRITEs and their
    // buffers from here, and the job drains them once, before installing
    // any output.
    for (StagedWrite& w : in_flight_) pipeline_->Adopt(std::move(w));
    in_flight_.clear();
  } else {
    while (!in_flight_.empty()) ReapCompletions(true);
  }
  return status_;
}

}  // namespace dlsm

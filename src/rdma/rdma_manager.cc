#include "src/rdma/rdma_manager.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/util/logging.h"
#include "src/util/trace.h"

namespace dlsm {
namespace rdma {

namespace {
// Thread-local VQ cache keyed by manager instance id (not pointer, to be
// safe against allocator address reuse across manager lifetimes).
thread_local std::unordered_map<uint64_t, VerbQueue*> tls_vqs;
}  // namespace

// ---------------------------------------------------------------------------
// WrHandle
// ---------------------------------------------------------------------------

WrHandle::WrHandle(WrHandle&& o) noexcept
    : vq_(o.vq_),
      wr_id_(o.wr_id_),
      done_(o.done_),
      status_(o.status_),
      completion_ns_(o.completion_ns_) {
  o.vq_ = nullptr;
  o.done_ = false;
}

WrHandle& WrHandle::operator=(WrHandle&& o) noexcept {
  if (this != &o) {
    Cancel();
    vq_ = o.vq_;
    wr_id_ = o.wr_id_;
    done_ = o.done_;
    status_ = o.status_;
    completion_ns_ = o.completion_ns_;
    o.vq_ = nullptr;
    o.done_ = false;
  }
  return *this;
}

Status WrHandle::Wait() {
  if (done_) return status_;
  DLSM_CHECK_MSG(vq_ != nullptr, "Wait on an invalid WrHandle");
  Completion c;
  status_ = vq_->WaitFor(wr_id_, &c);
  completion_ns_ = c.completion_ns;
  done_ = true;
  return status_;
}

bool WrHandle::Ready() {
  if (done_) return true;
  if (vq_ == nullptr) return false;
  Completion c;
  if (!vq_->TryClaim(wr_id_, &c)) return false;
  status_ = c.status;
  completion_ns_ = c.completion_ns;
  done_ = true;
  return true;
}

void WrHandle::Cancel() {
  if (vq_ != nullptr && !done_) {
    vq_->Cancel(wr_id_);
  }
  vq_ = nullptr;
}

// ---------------------------------------------------------------------------
// VerbQueue
// ---------------------------------------------------------------------------

VerbQueue::VerbQueue(QueuePair* qp, RdmaManager* mgr) : qp_(qp), mgr_(mgr) {
  if (mgr_ != nullptr) mgr_->RegisterVq(this);
}

VerbQueue::~VerbQueue() {
  if (mgr_ != nullptr) mgr_->UnregisterVq(this);
}

size_t VerbQueue::FindPending(uint64_t wr_id) const {
  for (size_t i = 0; i < pending_.size(); i++) {
    if (pending_[i].wr_id == wr_id) return i;
  }
  return pending_.size();
}

WrHandle VerbQueue::Track(uint64_t wr_id, VerbClass cls, size_t bytes) {
  pending_.push_back(Pending{wr_id, cls, false});
  // The QP stamped the post clock an instant ago; reuse it rather than
  // reading the clock a second time per verb.
  RecordPost(OutstandingVerb{wr_id, cls, qp_->last_post_ns(), bytes});
  return WrHandle(this, wr_id);
}

void VerbQueue::Admit(const Completion& c) {
  size_t i = FindPending(c.wr_id);
  DLSM_CHECK_MSG(i != pending_.size(),
                 "completion for a wr this queue did not post");
  RecordCompletion(pending_[i].cls, c);
  bool cancelled = pending_[i].cancelled;
  pending_[i] = pending_.back();
  pending_.pop_back();
  if (cancelled) {
    RecordAbandoned();
    return;  // Handle was cancelled; drop the completion.
  }
  stash_.push_back(c);
}

void VerbQueue::Sweep() {
  Completion c;
  while (qp_->PollCq(&c, 1) == 1) {
    Admit(c);
  }
}

Status VerbQueue::WaitFor(uint64_t wr_id, Completion* out) {
  for (size_t i = 0; i < stash_.size(); i++) {
    if (stash_[i].wr_id == wr_id) {
      *out = stash_[i];
      stash_[i] = stash_.back();
      stash_.pop_back();
      return out->status;
    }
  }
  DLSM_CHECK_MSG(FindPending(wr_id) != pending_.size(),
                 "waiting on a wr this queue never posted");
  for (;;) {
    Completion c = qp_->WaitCompletion();
    if (c.wr_id == wr_id) {
      // Fast path: the popped completion is the one being waited on (the
      // common FIFO case) — no stash round trip. The waiter holds this
      // verb's handle, so it cannot be cancelled.
      size_t i = FindPending(wr_id);
      DLSM_CHECK_MSG(i != pending_.size(),
                     "completion for a wr this queue did not post");
      RecordCompletion(pending_[i].cls, c);
      pending_[i] = pending_.back();
      pending_.pop_back();
      *out = c;
      return c.status;
    }
    Admit(c);
  }
}

bool VerbQueue::TryClaim(uint64_t wr_id, Completion* out) {
  Sweep();
  for (size_t i = 0; i < stash_.size(); i++) {
    if (stash_[i].wr_id == wr_id) {
      *out = stash_[i];
      stash_[i] = stash_.back();
      stash_.pop_back();
      return true;
    }
  }
  return false;
}

void VerbQueue::Cancel(uint64_t wr_id) {
  for (size_t i = 0; i < stash_.size(); i++) {
    if (stash_[i].wr_id == wr_id) {
      stash_[i] = stash_.back();
      stash_.pop_back();
      RecordAbandoned();
      return;
    }
  }
  size_t i = FindPending(wr_id);
  if (i != pending_.size()) pending_[i].cancelled = true;
}

Status VerbQueue::DrainAll() {
  Status first;
  while (!pending_.empty()) {
    Completion c = qp_->WaitCompletion();
    if (first.ok() && !c.status.ok()) first = c.status;
    Admit(c);
  }
  return first;
}

Status VerbQueue::Recover() {
  // Everything still in flight on an errored QP is already flushed and
  // pollable, so this drain cannot block on the wire.
  while (!pending_.empty()) {
    Admit(qp_->WaitCompletion());
  }
  if (!qp_->InError()) return Status::OK();
  Status s = qp_->Reset();
  if (s.ok()) RecordReconnect();
  return s;
}

void VerbQueue::RecordPost(const OutstandingVerb& v) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  posted_++;
  outstanding_++;
  if (outstanding_ > max_outstanding_) max_outstanding_ = outstanding_;
  outstanding_verbs_.push_back(v);
}

void VerbQueue::RecordCompletion(VerbClass cls, const Completion& c) {
  uint64_t wire_ns =
      c.completion_ns >= c.post_ns ? c.completion_ns - c.post_ns : 0;
  // Post→completion async span, recorded retroactively at harvest time so
  // the event carries the exact wire interval (both stamps come from the
  // fabric). Covers every verb class on both waiting paths (WaitFor's
  // fast path and Sweep).
  if (trace::Tracer::enabled()) {
    trace::Tracer::EmitComplete(VerbClassName(cls), "verb", c.post_ns,
                                wire_ns, 0, "bytes", c.byte_len, "err",
                                c.status.ok() ? 0 : 1);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  completed_++;
  outstanding_--;
  for (size_t i = 0; i < outstanding_verbs_.size(); i++) {
    if (outstanding_verbs_[i].wr_id == c.wr_id) {
      outstanding_verbs_[i] = outstanding_verbs_.back();
      outstanding_verbs_.pop_back();
      break;
    }
  }
  VerbClassStats& s = cls_stats_[static_cast<int>(cls)];
  s.ops++;
  s.bytes += c.byte_len;
  if (!c.status.ok()) s.errors++;
  s.latency_us.Add(static_cast<double>(wire_ns) / 1000.0);
}

void VerbQueue::RecordAbandoned() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  abandoned_++;
}

void VerbQueue::RecordReconnect() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  reconnects_++;
}

void VerbQueue::ListOutstanding(std::vector<OutstandingVerb>* out) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  out->insert(out->end(), outstanding_verbs_.begin(),
              outstanding_verbs_.end());
}

void VerbQueue::SnapshotInto(RdmaVerbStats* out, bool orphaned) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  out->read.MergeFrom(cls_stats_[static_cast<int>(VerbClass::kRead)]);
  out->write.MergeFrom(cls_stats_[static_cast<int>(VerbClass::kWrite)]);
  out->send.MergeFrom(cls_stats_[static_cast<int>(VerbClass::kSend)]);
  out->atomic.MergeFrom(cls_stats_[static_cast<int>(VerbClass::kAtomic)]);
  out->posted += posted_;
  out->completed += completed_;
  out->abandoned += abandoned_;
  if (orphaned) {
    // Verbs in flight on a queue without an owner can never be harvested
    // by a handle: count them as abandoned instead of pinning the gauge,
    // and count their bytes, which crossed the wire all the same.
    out->abandoned += outstanding_;
    for (const OutstandingVerb& v : outstanding_verbs_) {
      VerbClassStats* cls = v.cls == VerbClass::kRead    ? &out->read
                            : v.cls == VerbClass::kWrite ? &out->write
                            : v.cls == VerbClass::kSend  ? &out->send
                                                         : &out->atomic;
      cls->ops++;
      cls->bytes += v.bytes;
    }
  } else {
    out->outstanding += outstanding_;
  }
  if (max_outstanding_ > out->max_outstanding) {
    out->max_outstanding = max_outstanding_;
  }
  out->reconnects += reconnects_;
}

WrHandle VerbQueue::Read(void* dst, uint64_t raddr, uint32_t rkey,
                         size_t len) {
  MaybeSweep();
  return Track(qp_->PostRead(dst, raddr, rkey, len), VerbClass::kRead, len);
}

WrHandle VerbQueue::Write(const void* src, uint64_t raddr, uint32_t rkey,
                          size_t len) {
  MaybeSweep();
  return Track(qp_->PostWrite(src, raddr, rkey, len), VerbClass::kWrite,
               len);
}

WrHandle VerbQueue::WriteStamped(const void* src, uint64_t raddr,
                                 uint32_t rkey, size_t len) {
  MaybeSweep();
  return Track(qp_->PostWriteStamped(src, raddr, rkey, len),
               VerbClass::kWrite, len);
}

WrHandle VerbQueue::WriteWithImm(const void* src, uint64_t raddr,
                                 uint32_t rkey, size_t len, uint32_t imm) {
  MaybeSweep();
  return Track(qp_->PostWriteWithImm(src, raddr, rkey, len, imm),
               VerbClass::kSend, len);
}

WrHandle VerbQueue::Send(const void* src, size_t len) {
  MaybeSweep();
  return Track(qp_->PostSend(src, len), VerbClass::kSend, len);
}

WrHandle VerbQueue::FetchAdd(uint64_t raddr, uint32_t rkey, uint64_t add,
                             uint64_t* prev) {
  MaybeSweep();
  return Track(qp_->PostFetchAdd(raddr, rkey, add, prev), VerbClass::kAtomic,
               sizeof(uint64_t));
}

WrHandle VerbQueue::CmpSwap(uint64_t raddr, uint32_t rkey, uint64_t expected,
                            uint64_t desired, uint64_t* prev) {
  MaybeSweep();
  return Track(qp_->PostCmpSwap(raddr, rkey, expected, desired, prev),
               VerbClass::kAtomic, sizeof(uint64_t));
}

// ---------------------------------------------------------------------------
// RdmaManager
// ---------------------------------------------------------------------------

std::atomic<uint64_t> RdmaManager::next_instance_id_{1};

RdmaManager::RdmaManager(Fabric* fabric, Node* local, Node* remote)
    : fabric_(fabric),
      local_(local),
      remote_(remote),
      instance_id_(next_instance_id_.fetch_add(1)) {}

RdmaManager::~RdmaManager() = default;

QueuePair* RdmaManager::CreateQp() {
  auto [local_qp, remote_qp] = fabric_->CreateQpPair(local_, remote_);
  (void)remote_qp;  // The passive side; one-sided verbs need no peer logic.
  return local_qp;
}

VerbQueue* RdmaManager::ThreadVq() {
  auto it = tls_vqs.find(instance_id_);
  if (it != tls_vqs.end()) {
    return it->second;
  }
  auto vq = std::make_unique<VerbQueue>(CreateQp(), this);
  VerbQueue* raw = vq.get();
  tls_vqs[instance_id_] = raw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    thread_vqs_.push_back(std::move(vq));
  }
  return raw;
}

ExclusiveVq RdmaManager::CreateExclusiveVq() {
  std::unique_ptr<VerbQueue> vq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_vqs_.empty()) {
      vq = std::move(idle_vqs_.front());
      idle_vqs_.pop_front();
      vq->idle_ = false;
    }
  }
  if (vq == nullptr) {
    vq = std::make_unique<VerbQueue>(CreateQp(), this);
  } else {
    // Every handle of the previous owner is gone, so whatever is still in
    // flight was cancelled: Recover() drops those completions and resets
    // an errored QP. A failed reset (peer down) leaves the QP errored, as
    // a fresh QP to that peer would be.
    vq->Recover();
  }
  return ExclusiveVq(vq.release(), ExclusiveVqRelease{this});
}

void RdmaManager::ReleaseExclusiveVq(VerbQueue* vq) {
  std::lock_guard<std::mutex> lock(mu_);
  vq->idle_ = true;
  idle_vqs_.emplace_back(vq);
}

void ExclusiveVqRelease::operator()(VerbQueue* vq) const {
  mgr->ReleaseExclusiveVq(vq);
}

void RdmaManager::RegisterVq(VerbQueue* vq) {
  std::lock_guard<std::mutex> lock(mu_);
  live_vqs_.push_back(vq);
}

void RdmaManager::UnregisterVq(VerbQueue* vq) {
  std::lock_guard<std::mutex> lock(mu_);
  vq->SnapshotInto(&retired_, /*orphaned=*/true);
  for (size_t i = 0; i < live_vqs_.size(); i++) {
    if (live_vqs_[i] == vq) {
      live_vqs_[i] = live_vqs_.back();
      live_vqs_.pop_back();
      break;
    }
  }
}

RdmaVerbStats RdmaManager::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RdmaVerbStats out = retired_;
  for (VerbQueue* vq : live_vqs_) {
    vq->SnapshotInto(&out, vq->idle_);
  }
  return out;
}

void RdmaManager::ListOutstanding(std::vector<OutstandingVerb>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (VerbQueue* vq : live_vqs_) {
    if (!vq->idle_) vq->ListOutstanding(out);
  }
}

std::string RdmaManager::QpStateSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  size_t qi = 0;
  for (VerbQueue* vq : live_vqs_) {
    std::vector<OutstandingVerb> inflight;
    vq->ListOutstanding(&inflight);
    uint64_t last_post = 0;
    for (const OutstandingVerb& v : inflight) {
      if (v.post_ns > last_post) last_post = v.post_ns;
    }
    snprintf(line, sizeof(line),
             "qp[%zu] %s->%s state=%s in_flight=%zu last_post_ns=%llu\n", qi++,
             local_->name().c_str(), remote_->name().c_str(),
             vq->qp()->InError() ? "ERROR" : "RTS", inflight.size(),
             static_cast<unsigned long long>(last_post));
    out += line;
  }
  if (qi == 0) out = "(no live verb queues)\n";
  return out;
}

Status RdmaManager::Read(void* dst, uint64_t raddr, uint32_t rkey,
                         size_t len) {
  return ThreadVq()->Read(dst, raddr, rkey, len).Wait();
}

Status RdmaManager::Write(const void* src, uint64_t raddr, uint32_t rkey,
                          size_t len) {
  return ThreadVq()->Write(src, raddr, rkey, len).Wait();
}

Status RdmaManager::FetchAdd(uint64_t raddr, uint32_t rkey, uint64_t add,
                             uint64_t* prev) {
  return ThreadVq()->FetchAdd(raddr, rkey, add, prev).Wait();
}

Status RdmaManager::CmpSwap(uint64_t raddr, uint32_t rkey, uint64_t expected,
                            uint64_t desired, uint64_t* prev) {
  return ThreadVq()->CmpSwap(raddr, rkey, expected, desired, prev).Wait();
}

WrHandle RdmaManager::PostReadAsync(void* dst, uint64_t raddr, uint32_t rkey,
                                    size_t len) {
  return ThreadVq()->Read(dst, raddr, rkey, len);
}

WrHandle RdmaManager::PostWriteAsync(const void* src, uint64_t raddr,
                                     uint32_t rkey, size_t len) {
  return ThreadVq()->Write(src, raddr, rkey, len);
}

// ---------------------------------------------------------------------------
// ReadBatch
// ---------------------------------------------------------------------------

size_t ReadBatch::Add(void* dst, uint64_t raddr, uint32_t rkey, size_t len) {
  VerbQueue* vq = mgr_->ThreadVq();
  if (vq_ == nullptr) {
    vq_ = vq;
  } else {
    // Handles harvest from the posting thread's queue; waiting them from
    // another thread would poll the wrong CQ.
    DLSM_CHECK_MSG(vq_ == vq, "ReadBatch used from a different thread");
  }
  handles_.push_back(vq->Read(dst, raddr, rkey, len));
  return handles_.size() - 1;
}

Status ReadBatch::WaitAll() {
  for (WrHandle& h : handles_) {
    Status s = h.Wait();
    if (first_.ok() && !s.ok()) first_ = s;
  }
  return first_;
}

// ---------------------------------------------------------------------------
// StampFuture
// ---------------------------------------------------------------------------

Status StampFuture::Wait() {
  uint64_t t;
  while ((t = QueuePair::ReadReadyStamp(stamp_)) == 0) {
    // Poll politely: the writer needs this node's poller thread to stand
    // aside, and in virtual time a tight spin would never advance.
    env_->YieldToOthers();
  }
  // The stamp holds the producer's wire completion time; honoring it keeps
  // one-sided delivery causal in virtual time.
  env_->AdvanceTo(t);
  completion_ns_ = t;
  return Status::OK();
}

Status StampFuture::WaitUntil(uint64_t deadline_ns) {
  uint64_t t;
  while ((t = QueuePair::ReadReadyStamp(stamp_)) == 0) {
    uint64_t before = env_->NowNanos();
    if (before >= deadline_ns) {
      return Status::IOError("timed out waiting for ready stamp");
    }
    env_->YieldToOthers();
    if (env_->NowNanos() == before) {
      // No runnable peer moved the clock; a pure yield loop would never
      // reach the deadline in virtual time. Sleep one poll quantum.
      env_->SleepNanos(std::min<uint64_t>(5000, deadline_ns - before));
    }
  }
  env_->AdvanceTo(t);
  completion_ns_ = t;
  return Status::OK();
}

}  // namespace rdma
}  // namespace dlsm

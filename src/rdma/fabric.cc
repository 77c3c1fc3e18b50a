#include "src/rdma/fabric.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace dlsm {
namespace rdma {


namespace {

/// RAII guard excluding a payload copy from virtual CPU accounting: the
/// RNIC moves these bytes by DMA, so the posting thread must not pay for
/// the host memcpy that physically implements the transfer.
class DmaScope {
 public:
  explicit DmaScope(Env* env) : env_(env), token_(env->UncountedBegin()) {}
  ~DmaScope() { env_->UncountedEnd(token_); }

 private:
  Env* env_;
  uint64_t token_;
};

/// Latency injected for a stuck WR (FaultParams::stuck_wr_nth): far
/// beyond any reachable virtual time, small enough that completion-time
/// arithmetic cannot overflow.
constexpr uint64_t kStuckDelayNs = 1ull << 62;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

Node::Node(Fabric* fabric, Env* env, std::string name, uint32_t id,
           int env_node, size_t dram_bytes)
    : fabric_(fabric),
      env_(env),
      name_(std::move(name)),
      id_(id),
      env_node_(env_node),
      dram_size_(dram_bytes),
      dram_used_(0) {
  // MAP_NORESERVE: physical pages materialize on first touch, so large
  // "memory node" arenas cost only what the workload actually writes.
  void* p = mmap(nullptr, dram_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  DLSM_CHECK_MSG(p != MAP_FAILED, "node DRAM reservation failed");
  dram_ = static_cast<char*>(p);
}

Node::~Node() { munmap(dram_, dram_size_); }

char* Node::AllocDram(size_t n) {
  // 64-byte aligned bump allocation.
  size_t aligned = (n + 63) & ~static_cast<size_t>(63);
  size_t offset = dram_used_.fetch_add(aligned, std::memory_order_relaxed);
  if (offset + aligned > dram_size_) {
    dram_used_.fetch_sub(aligned, std::memory_order_relaxed);
    return nullptr;
  }
  return dram_ + offset;
}

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------

Node* QueuePair::peer_node() const { return peer_->local_; }

void QueuePair::PushSendCompletion(const Completion& c) {
  std::lock_guard<std::mutex> lock(mu_);
  send_cq_.push_back(c);
  // A crash/SetError from another thread may have raced this post between
  // its admission check and here; an errored QP must never surface an OK
  // completion posted after the transition.
  if (error_.load(std::memory_order_relaxed) && send_cq_.back().status.ok()) {
    send_cq_.back().status = FlushErr();
  }
}

Status QueuePair::ErrorCause() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_cause_;
}

void QueuePair::SetError(const Status& cause) {
  uint64_t now = local_->env()->NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.load(std::memory_order_relaxed)) return;
  error_cause_ = cause;
  error_.store(true, std::memory_order_release);
  FlushSendCqLocked(now);
}

void QueuePair::FlushSendCqLocked(uint64_t now) {
  // Entries whose completion time has passed already happened on the wire
  // and keep their outcome; everything still in flight flushes: status
  // rewritten, pollable immediately, queue (= post) order preserved.
  send_cq_.ForEach([now](Completion& c) {
    if (c.completion_ns <= now) return;
    if (c.status.ok()) c.status = FlushErr();
    c.completion_ns = now;
  });
  if (last_completion_ns_ > now) last_completion_ns_ = now;
}

Status QueuePair::Reset() {
  if (local_->crashed() || peer_node()->crashed()) {
    return Status::IOError("cannot reset QP: node down");
  }
  std::lock_guard<std::mutex> lock(mu_);
  error_cause_ = Status::OK();
  error_.store(false, std::memory_order_release);
  return Status::OK();
}

double QueuePair::NextUniform() {
  if (!rng_seeded_) {
    rng_ = SplitMix64(fabric_->fault_params().seed ^
                      (0x9e3779b97f4a7c15ULL * (qp_id_ + 1)));
    if (rng_ == 0) rng_ = 1;
    rng_seeded_ = true;
  }
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  uint64_t v = rng_ * 0x2545F4914F6CDD1DULL;
  return static_cast<double>(v >> 11) * (1.0 / 9007199254740992.0);
}

bool QueuePair::AdmitPost(Completion* c, uint64_t* extra_latency_ns) {
  if (!error_.load(std::memory_order_acquire)) {
    // A QP whose endpoint is down errors on first use. This covers QPs
    // created after the crash, which CrashNode's sweep never saw.
    Node* peer = peer_node();
    if (local_->crashed() || peer->crashed()) {
      Node* down = local_->crashed() ? local_ : peer;
      SetError(Status::IOError("node crashed: " + down->name()));
    }
  }
  if (error_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    c->status = FlushErr();
    c->completion_ns = std::max(c->post_ns, last_completion_ns_);
    last_completion_ns_ = c->completion_ns;
    return false;
  }
  Fabric* f = fabric_;
  if (f->faults_enabled()) {
    const FaultParams& fp = f->fault_params();
    if (fp.wr_error_rate > 0.0 && NextUniform() < fp.wr_error_rate) {
      c->status = Status::IOError("injected WR error");
      SetError(c->status);
      std::lock_guard<std::mutex> lock(mu_);
      c->completion_ns = std::max(c->post_ns, last_completion_ns_);
      last_completion_ns_ = c->completion_ns;
      return false;
    }
    if (fp.rnr_delay_rate > 0.0 && NextUniform() < fp.rnr_delay_rate) {
      *extra_latency_ns += fp.rnr_delay_ns;
    }
    if (fp.stuck_wr_nth > 0 &&
        f->admitted_posts_.fetch_add(1, std::memory_order_relaxed) + 1 ==
            fp.stuck_wr_nth) {
      // Park the completion unreachably far in the future: the WR never
      // completes, nothing errors, and per-QP FIFO order wedges the queue
      // behind it — the silent stall the watchdog must detect.
      *extra_latency_ns += kStuckDelayNs;
    }
  }
  return true;
}

void QueuePair::DeliverToPeer(Opcode op, const void* payload, size_t len,
                              uint32_t imm, bool has_imm,
                              uint64_t completion_ns) {
  QueuePair* peer = peer_;
  std::lock_guard<std::mutex> lock(peer->mu_);
  Completion c;
  c.opcode = Opcode::kRecv;
  c.byte_len = static_cast<uint32_t>(len);
  c.imm = imm;
  c.has_imm = has_imm;
  c.completion_ns = completion_ns;
  if (op == Opcode::kSend) {
    // Consume the next posted receive; copy the payload into it.
    if (peer->recv_queue_.empty()) {
      // Receiver-not-ready. Real RC QPs would retry then error; we model an
      // infinite SRQ by buffering into an anonymous completion with no
      // buffer, which the RPC layer never triggers (it pre-posts receives).
      c.status = Status::IOError("RNR: no posted receive");
      peer->recv_cq_.push_back(c);
      return;
    }
    PendingRecv r = peer->recv_queue_.front();
    peer->recv_queue_.pop_front();
    if (len > r.len) {
      c.status = Status::IOError("recv buffer too small");
    } else if (payload != nullptr) {
      DmaScope dma(peer->local_->env());
      memcpy(r.buf, payload, len);
    }
    c.wr_id = r.wr_id;
  } else {
    // WRITE_WITH_IMM: consumes a receive for the notification only.
    if (!peer->recv_queue_.empty()) {
      c.wr_id = peer->recv_queue_.front().wr_id;
      peer->recv_queue_.pop_front();
    }
  }
  peer->recv_cq_.push_back(c);
}

uint64_t QueuePair::PostRead(void* dst, uint64_t raddr, uint32_t rkey,
                             size_t len, uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kRead;
  c.byte_len = static_cast<uint32_t>(len);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  c.status = f->CheckRemoteAccess(rkey, raddr, len, peer_node()->id());
  uint64_t done = f->ReserveLink(peer_node(), local_, len,
                                 f->params().read_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  if (c.status.ok()) {
    peer_node()->RecordRemoteRead(len);
    DmaScope dma(f->env());
    memcpy(dst, reinterpret_cast<const void*>(raddr), len);
  } else {
    SetError(c.status);  // A remote access error puts the RC QP in error.
  }
  PushSendCompletion(c);
  return c.wr_id;
}

uint64_t QueuePair::PostWrite(const void* src, uint64_t raddr, uint32_t rkey,
                              size_t len, uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kWrite;
  c.byte_len = static_cast<uint32_t>(len);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  c.status = f->CheckRemoteAccess(rkey, raddr, len, peer_node()->id());
  uint64_t done = f->ReserveLink(local_, peer_node(), len,
                                 f->params().write_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  if (c.status.ok()) {
    peer_node()->RecordRemoteWrite(len);
    DmaScope dma(f->env());
    memcpy(reinterpret_cast<void*>(raddr), src, len);
  } else {
    SetError(c.status);
  }
  PushSendCompletion(c);
  return c.wr_id;
}

uint64_t QueuePair::PostWriteWithImm(const void* src, uint64_t raddr,
                                     uint32_t rkey, size_t len, uint32_t imm,
                                     uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kWriteWithImm;
  c.byte_len = static_cast<uint32_t>(len);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  c.status = len == 0 ? Status::OK()
                      : f->CheckRemoteAccess(rkey, raddr, len,
                                             peer_node()->id());
  uint64_t done = f->ReserveLink(local_, peer_node(), len,
                                 f->params().write_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  if (c.status.ok() && len > 0) {
    DmaScope dma(f->env());
    memcpy(reinterpret_cast<void*>(raddr), src, len);
  }
  if (c.status.ok()) {
    DeliverToPeer(Opcode::kWriteWithImm, nullptr, len, imm, true, done);
  } else {
    SetError(c.status);
  }
  PushSendCompletion(c);
  return c.wr_id;
}

uint64_t QueuePair::PostWriteStamped(const void* src, uint64_t raddr,
                                     uint32_t rkey, size_t len,
                                     uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kWrite;
  c.byte_len = static_cast<uint32_t>(len);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  c.status =
      f->CheckRemoteAccess(rkey, raddr, len + sizeof(uint64_t),
                           peer_node()->id());
  uint64_t done = f->ReserveLink(local_, peer_node(), len + sizeof(uint64_t),
                                 f->params().write_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  if (c.status.ok()) {
    DmaScope dma(f->env());
    if (len > 0) {
      memcpy(reinterpret_cast<void*>(raddr), src, len);
    }
    // The stamp is released last, as the RNIC writes bytes in order.
    uint64_t stamp = done == 0 ? 1 : done;
    __atomic_store(reinterpret_cast<uint64_t*>(raddr + len), &stamp,
                   __ATOMIC_RELEASE);
  } else {
    SetError(c.status);
  }
  // Outside the DMA scope: a woken waiter takes this thread's charged LVT.
  if (c.status.ok()) {
    f->env()->WakeWord(reinterpret_cast<const void*>(raddr + len));
  }
  PushSendCompletion(c);
  return c.wr_id;
}

uint64_t QueuePair::PostSend(const void* src, size_t len, uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kSend;
  c.byte_len = static_cast<uint32_t>(len);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  uint64_t done = f->ReserveLink(local_, peer_node(), len,
                                 f->params().send_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  DeliverToPeer(Opcode::kSend, src, len, 0, false, done);
  PushSendCompletion(c);
  return c.wr_id;
}

void QueuePair::PostRecv(void* buf, size_t len, uint64_t wr_id) {
  std::lock_guard<std::mutex> lock(mu_);
  recv_queue_.push_back(PendingRecv{buf, len, wr_id});
}

uint64_t QueuePair::PostFetchAdd(uint64_t raddr, uint32_t rkey, uint64_t add,
                                 uint64_t* result, uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kFetchAdd;
  c.byte_len = sizeof(uint64_t);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  c.status = f->CheckRemoteAccess(rkey, raddr, sizeof(uint64_t),
                                  peer_node()->id());
  if (c.status.ok() && (raddr & 7) != 0) {
    c.status = Status::InvalidArgument("atomic target not 8-byte aligned");
  }
  uint64_t done = f->ReserveLink(local_, peer_node(), sizeof(uint64_t),
                                 f->params().atomic_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  if (c.status.ok()) {
    auto* target = reinterpret_cast<std::atomic<uint64_t>*>(raddr);
    *result = target->fetch_add(add, std::memory_order_acq_rel);
  } else {
    SetError(c.status);
  }
  PushSendCompletion(c);
  return c.wr_id;
}

uint64_t QueuePair::PostCmpSwap(uint64_t raddr, uint32_t rkey,
                                uint64_t expected, uint64_t desired,
                                uint64_t* result, uint64_t wr_id) {
  Fabric* f = fabric_;
  Completion c;
  c.post_ns = f->env()->NowNanos();
  last_post_ns_ = c.post_ns;
  c.opcode = Opcode::kCmpSwap;
  c.byte_len = sizeof(uint64_t);
  c.wr_id = wr_id != 0 ? wr_id : auto_wr_id_++;
  uint64_t fault_ns = 0;
  if (!AdmitPost(&c, &fault_ns)) {
    PushSendCompletion(c);
    return c.wr_id;
  }
  c.status = f->CheckRemoteAccess(rkey, raddr, sizeof(uint64_t),
                                  peer_node()->id());
  if (c.status.ok() && (raddr & 7) != 0) {
    c.status = Status::InvalidArgument("atomic target not 8-byte aligned");
  }
  uint64_t done = f->ReserveLink(local_, peer_node(), sizeof(uint64_t),
                                 f->params().atomic_latency_ns + fault_ns,
                                 c.post_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done = std::max(done, last_completion_ns_);
    last_completion_ns_ = done;
  }
  c.completion_ns = done;
  if (c.status.ok()) {
    auto* target = reinterpret_cast<std::atomic<uint64_t>*>(raddr);
    uint64_t exp = expected;
    target->compare_exchange_strong(exp, desired, std::memory_order_acq_rel);
    *result = exp;  // Previous value, as ibverbs returns.
  } else {
    SetError(c.status);
  }
  PushSendCompletion(c);
  return c.wr_id;
}

int QueuePair::PollCq(Completion* out, int max_entries) {
  uint64_t now = local_->env()->NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  while (n < max_entries && !send_cq_.empty() &&
         send_cq_.front().completion_ns <= now) {
    out[n++] = send_cq_.front();
    send_cq_.pop_front();
  }
  return n;
}

Completion QueuePair::WaitCompletion() {
  Env* env = local_->env();
  for (;;) {
    uint64_t next_ready;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!send_cq_.empty()) {
        next_ready = send_cq_.front().completion_ns;
        if (next_ready <= env->NowNanos()) {
          Completion c = send_cq_.front();
          send_cq_.pop_front();
          return c;
        }
      } else {
        next_ready = 0;
      }
    }
    if (next_ready > 0) {
      env->AdvanceTo(next_ready);
    } else {
      // Nothing posted yet (or a racing poster); let others run.
      env->YieldToOthers();
    }
  }
}

int QueuePair::PollRecvCq(Completion* out, int max_entries) {
  uint64_t now = local_->env()->NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  while (n < max_entries && !recv_cq_.empty() &&
         recv_cq_.front().completion_ns <= now) {
    out[n++] = recv_cq_.front();
    recv_cq_.pop_front();
  }
  return n;
}

Completion QueuePair::WaitRecvCompletion() {
  Env* env = local_->env();
  for (;;) {
    uint64_t next_ready;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!recv_cq_.empty()) {
        next_ready = recv_cq_.front().completion_ns;
        if (next_ready <= env->NowNanos()) {
          Completion c = recv_cq_.front();
          recv_cq_.pop_front();
          return c;
        }
      } else {
        next_ready = 0;
      }
    }
    if (next_ready > 0) {
      env->AdvanceTo(next_ready);
    } else {
      env->YieldToOthers();
    }
  }
}

size_t QueuePair::send_cq_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return send_cq_.size();
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(Env* env, LinkParams params) : env_(env), params_(params) {
  set_fault_params(FaultParams());
}

Fabric::~Fabric() = default;

Node* Fabric::AddNode(const std::string& name, int cores, size_t dram_bytes) {
  int env_node = env_->RegisterNode(name, cores);
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back(
      new Node(this, env_, name, id, env_node, dram_bytes));
  return nodes_.back().get();
}

MemoryRegion Fabric::RegisterMemory(Node* node, void* addr, size_t len) {
  auto a = reinterpret_cast<uint64_t>(addr);
  auto base = reinterpret_cast<uint64_t>(node->dram_base());
  bool in_arena = a >= base && a + len <= base + node->dram_size();
  std::lock_guard<std::mutex> lock(mu_);
  MemoryRegion mr;
  mr.addr = a;
  mr.length = len;
  mr.lkey = next_key_++;
  mr.rkey = next_key_++;
  mr.node_id = node->id();
  if (in_arena) {
    registrations_[mr.rkey] = Registration{a, len, node->id()};
  }
  // A region outside the node's arena gets keys that never enter the
  // registration table: any remote access through them completes with an
  // "unknown rkey" error on the issuing QP — the documented invalid-rkey
  // behavior — rather than aborting the whole process here.
  return mr;
}

std::pair<QueuePair*, QueuePair*> Fabric::CreateQpPair(Node* a, Node* b) {
  std::lock_guard<std::mutex> lock(mu_);
  qps_.emplace_back(new QueuePair(this, a));
  QueuePair* qa = qps_.back().get();
  qa->qp_id_ = static_cast<uint32_t>(qps_.size() - 1);
  qps_.emplace_back(new QueuePair(this, b));
  QueuePair* qb = qps_.back().get();
  qb->qp_id_ = static_cast<uint32_t>(qps_.size() - 1);
  qa->peer_ = qb;
  qb->peer_ = qa;
  return {qa, qb};
}

size_t Fabric::num_qps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return qps_.size();
}

void Fabric::set_fault_params(const FaultParams& fp) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fault_params_history_.push_back(std::make_unique<const FaultParams>(fp));
    fault_params_.store(fault_params_history_.back().get(),
                        std::memory_order_release);
  }
  faults_enabled_.store(fp.any(), std::memory_order_relaxed);
}

void Fabric::CrashNode(Node* node) {
  node->crashed_.store(true, std::memory_order_release);
  std::vector<QueuePair*> touched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& qp : qps_) {
      if (qp->local_ == node || qp->peer_node() == node) {
        touched.push_back(qp.get());
      }
    }
  }
  // SetError takes each QP's own lock; doing it outside mu_ keeps the
  // fabric-lock -> qp-lock order one-way.
  Status cause = Status::IOError("node crashed: " + node->name());
  for (QueuePair* qp : touched) qp->SetError(cause);
  NotifyCrashListeners(node, true);
}

void Fabric::RestartNode(Node* node) {
  // QPs stay in the error state until their owners Reset() them — a
  // restarted machine's connections still need to be re-established.
  node->crashed_.store(false, std::memory_order_release);
  NotifyCrashListeners(node, false);
}

uint64_t Fabric::AddCrashListener(std::function<void(Node*, bool)> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_crash_listener_id_++;
  crash_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Fabric::RemoveCrashListener(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = crash_listeners_.begin(); it != crash_listeners_.end();
       ++it) {
    if (it->first == id) {
      crash_listeners_.erase(it);
      return;
    }
  }
}

void Fabric::NotifyCrashListeners(Node* node, bool crashed) {
  // Copy under mu_, invoke outside it: listeners may touch DB state that
  // itself issues fabric calls.
  std::vector<std::function<void(Node*, bool)>> listeners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listeners.reserve(crash_listeners_.size());
    for (const auto& entry : crash_listeners_) listeners.push_back(entry.second);
  }
  for (const auto& listener : listeners) listener(node, crashed);
}

Status Fabric::CheckRemoteAccess(uint32_t rkey, uint64_t addr, size_t len,
                                 uint32_t target_node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registrations_.find(rkey);
  if (it == registrations_.end()) {
    return Status::InvalidArgument("unknown rkey");
  }
  const Registration& r = it->second;
  if (r.node_id != target_node) {
    return Status::InvalidArgument("rkey belongs to a different node");
  }
  if (addr < r.addr || addr + len > r.addr + r.length) {
    return Status::InvalidArgument("remote access out of registered range");
  }
  return Status::OK();
}

uint64_t Fabric::ReserveLink(Node* src, Node* dst, size_t len,
                             uint64_t latency_ns, uint64_t now) {
  uint64_t occupancy =
      params_.per_op_overhead_ns +
      static_cast<uint64_t>(static_cast<double>(len) / params_.BytesPerNano());
  wire_bytes_.fetch_add(len, std::memory_order_relaxed);
  wire_ops_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t start = std::max({now, src->tx_free_, dst->rx_free_});
  uint64_t wire_done = start + occupancy;
  src->tx_free_ = wire_done;
  dst->rx_free_ = wire_done;
  return wire_done + latency_ns;
}

}  // namespace rdma
}  // namespace dlsm

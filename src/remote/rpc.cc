#include "src/remote/rpc.h"

#include <cstring>

#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/thread_slots.h"
#include "src/util/trace.h"

namespace dlsm {
namespace remote {

namespace {

// Request wire format (fits the 256-byte channel receive buffers):
//   u8  type
//   u8  wake
//   u32 id
//   u64 reply_addr
//   u32 reply_rkey
//   u32 reply_cap
//   u64 args_addr   (0 => args are inline)
//   u32 args_rkey
//   u32 args_len
//   u64 trace_flow  (0 => caller not tracing; flow id stitching the
//   u64 trace_span   server handler span to the compute-side call span)
//   u32 inline_len
//   [inline bytes]
constexpr size_t kRequestBufSize = 256;
constexpr size_t kRequestHeader = 1 + 1 + 4 + 8 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 4;
constexpr size_t kMaxInlineArgs = kRequestBufSize - kRequestHeader;
// Generous receive depth: many shards share one channel, and the
// dispatcher may be in its idle backoff when a burst of requests lands.
constexpr int kRecvSlots = 4096;
// Reply buffers hold near-data compaction results (per-output index +
// bloom blobs), which can run to megabytes for wide L0 merges. The pages
// are MAP_NORESERVE-backed, so unused capacity costs nothing.
constexpr size_t kReplyBufSize = 8 * 1024 * 1024;
constexpr size_t kArgsBufSize = 1024 * 1024;

// Server-side bounded retry for argument pulls and reply writes. These
// verbs are the only way the client's per-call buffers get released, so
// the server works through transient faults instead of dropping.
constexpr int kServerRetries = 3;
constexpr uint64_t kServerRetryBackoffNs = 50 * 1000;

struct Request {
  uint8_t type = 0;
  bool wake = false;
  uint32_t id = 0;
  uint64_t reply_addr = 0;
  uint32_t reply_rkey = 0;
  uint32_t reply_cap = 0;
  uint64_t args_addr = 0;
  uint32_t args_rkey = 0;
  uint32_t args_len = 0;
  // Trace context (0 when the caller is not tracing): the flow id joining
  // the client call span to the server handler span, and the client span
  // id recorded as the handler's parent.
  uint64_t trace_flow = 0;
  uint64_t trace_span = 0;
  std::string inline_args;
};

size_t EncodeRequest(const Request& r, char* dst) {
  char* p = dst;
  *p++ = static_cast<char>(r.type);
  *p++ = r.wake ? 1 : 0;
  EncodeFixed32(p, r.id);
  p += 4;
  EncodeFixed64(p, r.reply_addr);
  p += 8;
  EncodeFixed32(p, r.reply_rkey);
  p += 4;
  EncodeFixed32(p, r.reply_cap);
  p += 4;
  EncodeFixed64(p, r.args_addr);
  p += 8;
  EncodeFixed32(p, r.args_rkey);
  p += 4;
  EncodeFixed32(p, r.args_len);
  p += 4;
  EncodeFixed64(p, r.trace_flow);
  p += 8;
  EncodeFixed64(p, r.trace_span);
  p += 8;
  EncodeFixed32(p, static_cast<uint32_t>(r.inline_args.size()));
  p += 4;
  memcpy(p, r.inline_args.data(), r.inline_args.size());
  p += r.inline_args.size();
  return p - dst;
}

bool DecodeRequest(const char* src, size_t len, Request* r) {
  if (len < kRequestHeader) return false;
  const char* p = src;
  r->type = static_cast<uint8_t>(*p++);
  r->wake = (*p++ != 0);
  r->id = DecodeFixed32(p);
  p += 4;
  r->reply_addr = DecodeFixed64(p);
  p += 8;
  r->reply_rkey = DecodeFixed32(p);
  p += 4;
  r->reply_cap = DecodeFixed32(p);
  p += 4;
  r->args_addr = DecodeFixed64(p);
  p += 8;
  r->args_rkey = DecodeFixed32(p);
  p += 4;
  r->args_len = DecodeFixed32(p);
  p += 4;
  r->trace_flow = DecodeFixed64(p);
  p += 8;
  r->trace_span = DecodeFixed64(p);
  p += 8;
  uint32_t inline_len = DecodeFixed32(p);
  p += 4;
  if (kRequestHeader + inline_len > len) return false;
  r->inline_args.assign(p, inline_len);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// RpcClient
// ---------------------------------------------------------------------------

std::atomic<uint64_t> RpcClient::next_instance_id_{1};

/// Per-thread registered reply and argument staging buffers.
struct RpcClient::ThreadBuffers {
  char* reply = nullptr;
  rdma::MemoryRegion reply_mr;
  char* args = nullptr;
  rdma::MemoryRegion args_mr;

  uint64_t stamp_addr() const {
    return reply_mr.addr + kReplyBufSize - sizeof(uint64_t);
  }
};

// Zombies are abandoned or timed-out calls whose reply WRITE may still be
// inbound; they become free once their reply stamp fires.
struct RpcClient::ContextPool {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffers>> all;
  std::vector<ThreadBuffers*> free;
  std::vector<ThreadBuffers*> zombie;

  void Release(ThreadBuffers* ctx, bool completed) {
    std::lock_guard<std::mutex> lock(mu);
    (completed ? free : zombie).push_back(ctx);
  }
};

namespace {

// A thread's cached buffers, keyed by client instance id. When the thread
// ends, each goes back to its client's pool as a zombie: reusable as soon
// as its last reply has landed, which for a completed call is at once.
struct CachedBuffers {
  struct Entry {
    std::weak_ptr<RpcClient::ContextPool> pool;
    RpcClient::ThreadBuffers* bufs;
  };
  std::unordered_map<uint64_t, Entry> by_client;

  ~CachedBuffers() {
    for (auto& [id, e] : by_client) {
      if (auto pool = e.pool.lock()) {
        pool->Release(e.bufs, /*completed=*/false);
      }
    }
  }
};

ThreadLocal<CachedBuffers> thread_client_bufs;

}  // namespace

RpcClient::RpcClient(rdma::Fabric* fabric, rdma::Node* client_node,
                     RpcServer* server)
    : fabric_(fabric),
      client_node_(client_node),
      server_(server),
      instance_id_(next_instance_id_.fetch_add(1)),
      wait_mu_(fabric->env()),
      pool_(std::make_shared<ContextPool>()) {
  RpcServer::Channel* ch = server_->RegisterClient(client_node_);
  channel_ep_ = ch->client_ep;
  send_vq_ = std::make_unique<rdma::VerbQueue>(channel_ep_);
  // Pre-post receive slots for WRITE_WITH_IMM wakeups (notification only,
  // no payload, but each consumes a posted receive).
  for (int i = 0; i < kRecvSlots; i++) {
    notify_bufs_.emplace_back(new char[8]);
    channel_ep_->PostRecv(notify_bufs_.back().get(), 8, i + 1);
  }
  notifier_ = fabric_->env()->StartThread(
      client_node_->env_node(), "rpc-notifier", [this] { NotifierLoop(); });
}

RpcClient::~RpcClient() {
  stop_.store(true);
  fabric_->env()->Join(notifier_);
}

namespace {

std::unique_ptr<RpcClient::ThreadBuffers> NewRegisteredBuffers(
    rdma::Fabric* fabric, rdma::Node* node) {
  auto bufs = std::make_unique<RpcClient::ThreadBuffers>();
  bufs->reply = node->AllocDram(kReplyBufSize);
  bufs->args = node->AllocDram(kArgsBufSize);
  if (bufs->reply == nullptr || bufs->args == nullptr) {
    // DRAM exhausted (e.g. a long fault sweep stranding zombie contexts):
    // the RPC fails with OutOfMemory instead of aborting the process.
    return nullptr;
  }
  bufs->reply_mr = fabric->RegisterMemory(node, bufs->reply, kReplyBufSize);
  bufs->args_mr = fabric->RegisterMemory(node, bufs->args, kArgsBufSize);
  return bufs;
}

}  // namespace

RpcClient::ThreadBuffers* RpcClient::GetThreadBuffers() {
  auto& cache = thread_client_bufs.Get().by_client;
  auto it = cache.find(instance_id_);
  if (it != cache.end()) return it->second.bufs;
  ThreadBuffers* bufs = AcquireContext();
  if (bufs != nullptr) cache[instance_id_] = {pool_, bufs};
  return bufs;
}

void RpcClient::InvalidateThreadBuffers() {
  auto& cache = thread_client_bufs.Get().by_client;
  auto it = cache.find(instance_id_);
  if (it == cache.end()) return;
  ReleaseContext(it->second.bufs, /*completed=*/false);
  cache.erase(it);
}

RpcClient::ThreadBuffers* RpcClient::AcquireContext() {
  ContextPool& pool = *pool_;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    // Zombies become reusable once their abandoned call's reply stamp has
    // fired — only then is the server provably done writing the buffers.
    for (size_t i = 0; i < pool.zombie.size();) {
      auto* stamp =
          reinterpret_cast<const void*>(pool.zombie[i]->stamp_addr());
      if (rdma::QueuePair::ReadReadyStamp(stamp) != 0) {
        pool.free.push_back(pool.zombie[i]);
        pool.zombie[i] = pool.zombie.back();
        pool.zombie.pop_back();
      } else {
        i++;
      }
    }
    if (!pool.free.empty()) {
      ThreadBuffers* ctx = pool.free.back();
      pool.free.pop_back();
      return ctx;
    }
  }
  auto bufs = NewRegisteredBuffers(fabric_, client_node_);
  if (bufs == nullptr) return nullptr;
  ThreadBuffers* raw = bufs.get();
  std::lock_guard<std::mutex> lock(pool.mu);
  pool.all.push_back(std::move(bufs));
  return raw;
}

void RpcClient::ReleaseContext(ThreadBuffers* ctx, bool completed) {
  pool_->Release(ctx, completed);
}

Status RpcClient::SendRequest(uint8_t type, const Slice& args, bool wake,
                              uint32_t id, ThreadBuffers* bufs,
                              uint64_t trace_flow, uint64_t trace_span) {
  Request r;
  r.type = type;
  r.wake = wake;
  r.id = id;
  r.trace_flow = trace_flow;
  r.trace_span = trace_span;
  r.reply_addr = bufs->reply_mr.addr;
  r.reply_rkey = bufs->reply_mr.rkey;
  r.reply_cap = kReplyBufSize;
  if (args.size() <= kMaxInlineArgs && !wake) {
    r.inline_args = args.ToString();
  } else {
    if (args.size() > kArgsBufSize) {
      return Status::InvalidArgument("RPC args exceed staging buffer");
    }
    memcpy(bufs->args, args.data(), args.size());
    r.args_addr = bufs->args_mr.addr;
    r.args_rkey = bufs->args_mr.rkey;
    r.args_len = static_cast<uint32_t>(args.size());
  }

  // Zero the ready stamp before the responder can write it.
  uint64_t zero = 0;
  __atomic_store(reinterpret_cast<uint64_t*>(bufs->stamp_addr()), &zero,
                 __ATOMIC_RELEASE);

  char req[kRequestBufSize];
  size_t n = EncodeRequest(r, req);
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    if (channel_ep_->InError()) {
      // The channel QP faulted (injected error or server-node crash).
      // Reconnect before posting; while the server is down this fails and
      // the caller sees the error instead of posting into a dead QP.
      DLSM_RETURN_NOT_OK(send_vq_->Recover());
    }
    // Fire-and-forget: the cancelled handle's completion is swept (and the
    // CQ kept bounded) by the verb queue on subsequent posts. A fault at
    // post time (injected error, errored QP) is pollable immediately —
    // report it now, while the request provably never reached the server,
    // so the caller can retry on these same buffers instead of timing out
    // and stranding them on the zombie list.
    rdma::WrHandle h = send_vq_->Send(req, n);
    if (h.Ready()) {
      Status hs = h.status();
      h.Cancel();
      DLSM_RETURN_NOT_OK(hs);
    } else {
      h.Cancel();
    }
  }
  return Status::OK();
}

Status RpcClient::ParseReply(ThreadBuffers* bufs, std::string* reply) {
  uint32_t len = DecodeFixed32(bufs->reply);
  if (len + 4 > kReplyBufSize - sizeof(uint64_t)) {
    return Status::Corruption("oversized RPC reply");
  }
  reply->assign(bufs->reply + 4, len);
  return Status::OK();
}

uint64_t RpcClient::BackoffNs(int attempt) const {
  int shift = attempt < 6 ? attempt : 6;
  return policy_.retry_backoff_ns << shift;
}

Status RpcClient::Call(uint8_t type, const Slice& args, std::string* reply) {
  Status s = CallOnce(type, args, reply);
  for (int attempt = 0;
       !s.ok() && s.IsIOError() && attempt < policy_.max_retries; attempt++) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    fabric_->env()->SleepNanos(BackoffNs(attempt));
    s = CallOnce(type, args, reply);
  }
  return s;
}

Status RpcClient::CallOnce(uint8_t type, const Slice& args,
                           std::string* reply) {
  trace::TraceSpan span("rpc_call", "rpc");
  span.arg("type", type);
  uint64_t flow = span.active() ? trace::Tracer::NextId() : 0;
  ThreadBuffers* bufs = GetThreadBuffers();
  if (bufs == nullptr) {
    return Status::OutOfMemory("client DRAM exhausted for RPC buffers");
  }
  DLSM_RETURN_NOT_OK(
      SendRequest(type, args, /*wake=*/false, 0, bufs, flow, span.id()));
  if (flow != 0) trace::Tracer::EmitFlow('s', "rpc", "rpc", flow);
  // The reply arrives as a one-sided WRITE; its completion handle is a
  // stamp future over the ready word at the end of the reply buffer.
  rdma::StampFuture reply_ready(
      fabric_->env(), reinterpret_cast<const void*>(bufs->stamp_addr()));
  if (policy_.timeout_ns == 0) {
    DLSM_RETURN_NOT_OK(reply_ready.Wait());
  } else {
    Status s =
        reply_ready.WaitUntil(fabric_->env()->NowNanos() + policy_.timeout_ns);
    if (!s.ok()) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      InvalidateThreadBuffers();
      return s;
    }
  }
  return ParseReply(bufs, reply);
}

Status RpcClient::CallWithWakeup(uint8_t type, const Slice& args,
                                 std::string* reply) {
  Status s = CallWithWakeupOnce(type, args, reply);
  for (int attempt = 0;
       !s.ok() && s.IsIOError() && attempt < policy_.max_retries; attempt++) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    fabric_->env()->SleepNanos(BackoffNs(attempt));
    s = CallWithWakeupOnce(type, args, reply);
  }
  return s;
}

Status RpcClient::CallWithWakeupOnce(uint8_t type, const Slice& args,
                                     std::string* reply) {
  trace::TraceSpan span("rpc_call_wake", "rpc");
  span.arg("type", type);
  uint64_t flow = span.active() ? trace::Tracer::NextId() : 0;
  Env* env = fabric_->env();
  ThreadBuffers* bufs = GetThreadBuffers();
  if (bufs == nullptr) {
    return Status::OutOfMemory("client DRAM exhausted for RPC buffers");
  }
  uint32_t id = next_id_.fetch_add(1);

  CondVar cv(env, &wait_mu_);
  Waiter waiter;
  waiter.cv = &cv;
  {
    MutexLock l(&wait_mu_);
    waiters_[id] = &waiter;
  }
  Status send =
      SendRequest(type, args, /*wake=*/true, id, bufs, flow, span.id());
  if (!send.ok()) {
    MutexLock l(&wait_mu_);
    waiters_.erase(id);
    return send;
  }
  if (flow != 0) trace::Tracer::EmitFlow('s', "rpc", "rpc", flow);
  uint64_t deadline =
      policy_.timeout_ns == 0 ? 0 : env->NowNanos() + policy_.timeout_ns;
  bool timed_out = false;
  {
    // Sleep until the notifier sees our WRITE_WITH_IMM (paper: "attaches a
    // 4-byte number as the unique ID ... and goes to sleep").
    MutexLock l(&wait_mu_);
    while (!waiter.fired) {
      if (deadline == 0) {
        cv.Wait();
        continue;
      }
      uint64_t now = env->NowNanos();
      if (now >= deadline || cv.TimedWait(deadline - now)) {
        timed_out = !waiter.fired;
        break;
      }
    }
    waiters_.erase(id);
  }
  if (timed_out) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    InvalidateThreadBuffers();
    return Status::IOError("RPC timed out");
  }
  // The payload write carries the ready stamp; its future must already be
  // ready (the wakeup is posted after the stamped write completes).
  rdma::StampFuture reply_ready(
      env, reinterpret_cast<const void*>(bufs->stamp_addr()));
  if (!reply_ready.Ready()) {
    return Status::Corruption("wakeup before reply payload");
  }
  reply_ready.Wait();  // Adopts the writer's completion time.
  return ParseReply(bufs, reply);
}

PendingCall RpcClient::CallAsync(uint8_t type, const Slice& args) {
  PendingCall call;
  call.client_ = this;
  ThreadBuffers* ctx = AcquireContext();
  if (ctx == nullptr) {
    call.send_status_ =
        Status::OutOfMemory("client DRAM exhausted for RPC buffers");
    return call;
  }
  call.ctx_ = ctx;
  trace::TraceSpan span("rpc_send", "rpc");
  span.arg("type", type);
  uint64_t flow = span.active() ? trace::Tracer::NextId() : 0;
  // wake=true routes execution to the server's worker pool (long-running
  // requests must not run inline on the dispatcher) and stages the args
  // for the server's RDMA READ — but no waiter is registered, so the
  // wakeup immediate is dropped by the notifier and completion is the
  // reply stamp alone.
  call.send_status_ = SendRequest(type, args, /*wake=*/true,
                                  next_id_.fetch_add(1), ctx, flow, span.id());
  if (flow != 0 && call.send_status_.ok()) {
    trace::Tracer::EmitFlow('s', "rpc", "rpc", flow);
  }
  return call;
}

// ---------------------------------------------------------------------------
// PendingCall
// ---------------------------------------------------------------------------

PendingCall::PendingCall(PendingCall&& o) noexcept
    : client_(o.client_), ctx_(o.ctx_), send_status_(o.send_status_) {
  o.client_ = nullptr;
  o.ctx_ = nullptr;
}

PendingCall& PendingCall::operator=(PendingCall&& o) noexcept {
  if (this != &o) {
    Release();
    client_ = o.client_;
    ctx_ = o.ctx_;
    send_status_ = o.send_status_;
    o.client_ = nullptr;
    o.ctx_ = nullptr;
  }
  return *this;
}

PendingCall::~PendingCall() { Release(); }

void PendingCall::Release() {
  if (client_ == nullptr) return;
  auto* ctx = static_cast<RpcClient::ThreadBuffers*>(ctx_);
  if (ctx != nullptr) {
    // Abandoned without Wait: the context can be reused immediately only if
    // the request never left or the reply already landed; otherwise it
    // waits on the zombie list for its stamp.
    client_->ReleaseContext(ctx, !send_status_.ok() || Ready());
  }
  client_ = nullptr;
  ctx_ = nullptr;
}

bool PendingCall::Ready() const {
  if (client_ == nullptr || ctx_ == nullptr || !send_status_.ok()) {
    return false;
  }
  auto* ctx = static_cast<RpcClient::ThreadBuffers*>(ctx_);
  return rdma::QueuePair::ReadReadyStamp(
             reinterpret_cast<const void*>(ctx->stamp_addr())) != 0;
}

Status PendingCall::Wait(std::string* reply) {
  if (client_ == nullptr) return send_status_;
  RpcClient* client = client_;
  auto* ctx = static_cast<RpcClient::ThreadBuffers*>(ctx_);
  client_ = nullptr;
  ctx_ = nullptr;
  if (!send_status_.ok()) {
    if (ctx != nullptr) client->ReleaseContext(ctx, /*completed=*/true);
    return send_status_;
  }
  Env* env = client->fabric_->env();
  trace::TraceSpan span("rpc_wait", "rpc");
  rdma::StampFuture reply_ready(
      env, reinterpret_cast<const void*>(ctx->stamp_addr()));
  uint64_t timeout_ns = client->policy_.timeout_ns;
  Status s = timeout_ns == 0
                 ? reply_ready.Wait()
                 : reply_ready.WaitUntil(env->NowNanos() + timeout_ns);
  if (s.ok()) {
    s = client->ParseReply(ctx, reply);
    client->ReleaseContext(ctx, /*completed=*/true);
  } else {
    // Timed out: the reply WRITE may still be inbound, so the context goes
    // to the zombie list. The caller re-issues the whole CallAsync.
    client->timeouts_.fetch_add(1, std::memory_order_relaxed);
    client->ReleaseContext(ctx, /*completed=*/false);
  }
  return s;
}

void RpcClient::NotifierLoop() {
  Env* env = fabric_->env();
  rdma::Completion c;
  uint64_t idle_backoff_ns = 1000;
  while (!stop_.load(std::memory_order_relaxed)) {
    bool any = false;
    while (channel_ep_->PollRecvCq(&c, 1) == 1) {
      any = true;
      // Re-post the consumed receive slot.
      if (c.wr_id >= 1 && c.wr_id <= notify_bufs_.size()) {
        channel_ep_->PostRecv(notify_bufs_[c.wr_id - 1].get(), 8, c.wr_id);
      }
      if (!c.has_imm) continue;
      MutexLock l(&wait_mu_);
      auto it = waiters_.find(c.imm);
      if (it != waiters_.end()) {
        it->second->fired = true;
        it->second->cv->Signal();
      }
    }
    if (!any) {
      // Adaptive poll backoff: stays hot under load, cheap when idle.
      env->SleepNanos(idle_backoff_ns);
      if (idle_backoff_ns < 100000) idle_backoff_ns *= 2;
    } else {
      idle_backoff_ns = 1000;
    }
  }
}

// ---------------------------------------------------------------------------
// RpcServer
// ---------------------------------------------------------------------------

RpcServer::RpcServer(rdma::Fabric* fabric, rdma::Node* server_node,
                     int worker_threads)
    : fabric_(fabric),
      server_node_(server_node),
      worker_threads_(worker_threads) {}

RpcServer::~RpcServer() { Stop(); }

void RpcServer::Start() {
  DLSM_CHECK(!started_);
  started_ = true;
  pool_ = std::make_unique<ThreadPool>(fabric_->env(),
                                       server_node_->env_node(),
                                       worker_threads_, "compaction-worker");
  dispatcher_ = fabric_->env()->StartThread(
      server_node_->env_node(), "rpc-dispatcher", [this] { DispatcherLoop(); });
}

void RpcServer::Stop() {
  if (!started_ || stop_.load()) return;
  stop_.store(true);
  fabric_->env()->Join(dispatcher_);
  pool_.reset();  // Drains and joins workers.
}

RpcServer::Channel* RpcServer::RegisterClient(rdma::Node* client_node) {
  auto ch = std::make_unique<Channel>();
  ch->client_node = client_node;
  auto [client_ep, server_ep] = fabric_->CreateQpPair(client_node,
                                                      server_node_);
  ch->client_ep = client_ep;
  ch->server_ep = server_ep;
  ch->to_client = std::make_unique<rdma::RdmaManager>(fabric_, server_node_,
                                                      client_node);
  ch->wake_vq = std::make_unique<rdma::VerbQueue>(ch->server_ep);
  for (int i = 0; i < kRecvSlots; i++) {
    ch->recv_bufs.emplace_back(new char[kRequestBufSize]);
    ch->server_ep->PostRecv(ch->recv_bufs.back().get(), kRequestBufSize,
                            i + 1);
  }
  Channel* raw = ch.get();
  std::lock_guard<std::mutex> lock(channels_mu_);
  channels_.push_back(std::move(ch));
  return raw;
}

void RpcServer::DispatcherLoop() {
  Env* env = fabric_->env();
  rdma::Completion c;
  uint64_t idle_backoff_ns = 500;
  while (!stop_.load(std::memory_order_relaxed)) {
    bool any = false;
    size_t nchannels;
    {
      std::lock_guard<std::mutex> lock(channels_mu_);
      nchannels = channels_.size();
    }
    for (size_t i = 0; i < nchannels; i++) {
      Channel* ch;
      {
        std::lock_guard<std::mutex> lock(channels_mu_);
        ch = channels_[i].get();
      }
      while (ch->server_ep->PollRecvCq(&c, 1) == 1) {
        any = true;
        size_t slot = c.wr_id;
        bool valid_slot = slot >= 1 && slot <= ch->recv_bufs.size();
        if (c.status.ok() && valid_slot) {
          ProcessRequest(ch, ch->recv_bufs[slot - 1].get(), c.byte_len);
        }
        // A faulted delivery is dropped — the requester fails by timeout
        // and retries. Either way, re-arm the consumed receive slot.
        if (valid_slot) {
          ch->server_ep->PostRecv(ch->recv_bufs[slot - 1].get(),
                                  kRequestBufSize, slot);
        }
      }
    }
    if (!any) {
      env->SleepNanos(idle_backoff_ns);
      if (idle_backoff_ns < 20000) idle_backoff_ns *= 2;
    } else {
      idle_backoff_ns = 500;
    }
  }
}

void RpcServer::ProcessRequest(Channel* ch, const char* req, size_t len) {
  Request r;
  if (!DecodeRequest(req, len, &r)) {
    return;  // Malformed request: drop; the requester fails by timeout.
  }

  // Fetch the arguments: inline, or pulled from the requester's registered
  // buffer with an RDMA READ (paper: "the remote memory node gets the
  // required compaction metadata from the compute node via an RDMA read").
  std::string args;
  if (r.args_addr != 0) {
    args.resize(r.args_len);
    Status s = ch->to_client->Read(args.data(), r.args_addr, r.args_rkey,
                                   r.args_len);
    // Retry transient faults: a dropped request strands the requester's
    // reply context until its timeout, so give the pull a few chances
    // before falling back to drop-and-let-the-client-retry.
    for (int attempt = 0; !s.ok() && attempt < kServerRetries; attempt++) {
      ch->to_client->ThreadVq()->Recover();
      fabric_->env()->SleepNanos(kServerRetryBackoffNs << attempt);
      s = ch->to_client->Read(args.data(), r.args_addr, r.args_rkey,
                              r.args_len);
    }
    if (!s.ok()) {
      // The argument pull faulted and errored this thread's QP; reconnect
      // it so later requests can be served, then drop this one — the
      // requester times out and retries.
      ch->to_client->ThreadVq()->Recover();
      return;
    }
  } else {
    args = std::move(r.inline_args);
  }

  if (r.wake) {
    // Long-running request: hand off to the worker pool.
    pool_->Submit([this, ch, type = r.type, args = std::move(args),
                   reply_addr = r.reply_addr, reply_rkey = r.reply_rkey,
                   reply_cap = r.reply_cap, id = r.id,
                   trace_flow = r.trace_flow,
                   trace_span = r.trace_span]() mutable {
      ExecuteAndReply(ch, type, std::move(args), reply_addr, reply_rkey,
                      reply_cap, /*wake=*/true, id, trace_flow, trace_span);
    });
  } else {
    ExecuteAndReply(ch, r.type, std::move(args), r.reply_addr, r.reply_rkey,
                    r.reply_cap, /*wake=*/false, r.id, r.trace_flow,
                    r.trace_span);
  }
}

void RpcServer::ExecuteAndReply(Channel* ch, uint8_t type, std::string args,
                                uint64_t reply_addr, uint32_t reply_rkey,
                                uint32_t reply_cap, bool wake, uint32_t id,
                                uint64_t trace_flow, uint64_t trace_span) {
  Env* env = fabric_->env();
  uint64_t start = env->NowNanos();
  // Close the cross-node flow started by the requester: the finish event
  // binds to the enclosing handler span ("bp":"e"), drawing the arrow from
  // the compute-side call span onto this memory-node track.
  if (trace_flow != 0 && trace::Tracer::enabled()) {
    trace::Tracer::EmitFlow('f', "rpc", "rpc", trace_flow);
  }
  std::string reply;
  if (type == RpcType::kPing) {
    reply = args;  // Echo.
  } else {
    DLSM_CHECK_MSG(handler_ != nullptr, "no RPC handler installed");
    handler_(type, Slice(args), &reply);
  }
  uint64_t end = env->NowNanos();
  if (trace::Tracer::enabled()) {
    trace::Tracer::EmitComplete("rpc_handle", "rpc", start, end - start, 0,
                                "type", type, "parent", trace_span);
  }
  worker_busy_ns_.fetch_add(end - start, std::memory_order_relaxed);

  // Reply: [u32 len][payload], then the ready stamp at reply_cap-8, all via
  // one-sided writes on this thread's own QP (bypassing dispatchers).
  if (reply.size() + 4 + sizeof(uint64_t) > reply_cap) {
    return;  // Oversized reply: drop; the requester fails by timeout.
  }
  std::string framed;
  PutFixed32(&framed, static_cast<uint32_t>(reply.size()));
  framed.append(reply);
  rdma::VerbQueue* vq = ch->to_client->ThreadVq();
  rdma::WrHandle payload =
      vq->Write(framed.data(), reply_addr, reply_rkey, framed.size());
  // Zero-length stamped write: releases only the 8-byte ready stamp. The
  // stamp must be posted after the payload (same QP => FIFO on the wire),
  // but the handles may be waited in either order.
  rdma::WrHandle stamp = vq->WriteStamped(
      nullptr, reply_addr + reply_cap - sizeof(uint64_t), reply_rkey, 0);
  Status s = payload.Wait();
  Status st = stamp.Wait();
  // The reply must eventually land if at all possible: the client reclaims
  // its per-call buffers only when the ready stamp fires, so a silently
  // dropped reply strands them on its zombie list for good. Retry through
  // transient faults; only a dead peer defeats this.
  for (int attempt = 0; (!s.ok() || !st.ok()) && attempt < kServerRetries;
       attempt++) {
    if (!vq->Recover().ok()) break;
    env->SleepNanos(kServerRetryBackoffNs << attempt);
    payload = vq->Write(framed.data(), reply_addr, reply_rkey, framed.size());
    stamp = vq->WriteStamped(
        nullptr, reply_addr + reply_cap - sizeof(uint64_t), reply_rkey, 0);
    s = payload.Wait();
    st = stamp.Wait();
  }
  if (!s.ok() || !st.ok()) {
    // The reply writes faulted (QP now in error): reconnect this thread's
    // QP for later replies and drop — the requester times out and retries.
    vq->Recover();
    return;
  }

  if (wake) {
    // Wake the sleeping requester through the channel QP so the client's
    // notifier sees the immediate. Fire-and-forget through the channel's
    // verb queue; sweeps on later posts keep the CQ bounded.
    std::lock_guard<std::mutex> lock(ch->wake_mu_);
    if (ch->server_ep->InError()) ch->wake_vq->Recover();
    ch->wake_vq->WriteWithImm(nullptr, 0, 0, 0, id).Cancel();
  }
}

rdma::RdmaVerbStats RpcServer::reply_verb_stats() {
  rdma::RdmaVerbStats total;
  std::lock_guard<std::mutex> lock(channels_mu_);
  for (const auto& ch : channels_) {
    total.MergeFrom(ch->to_client->StatsSnapshot());
  }
  return total;
}

}  // namespace remote
}  // namespace dlsm

#include "src/remote/rpc.h"

#include <cstring>

#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/trace.h"

namespace dlsm {
namespace remote {

namespace {

// Request wire format (fits the 256-byte channel receive buffers):
//   u8  type
//   u8  offload     (1 => run on the worker pool, args pulled by READ)
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
constexpr size_t kRequestHeader = 1 + 1 + 8 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 4;
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
  bool offload = false;
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
  *p++ = r.offload ? 1 : 0;
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
  r->offload = (*p++ != 0);
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

struct CallContext {
  char* reply = nullptr;
  rdma::MemoryRegion reply_mr;
  char* args = nullptr;
  rdma::MemoryRegion args_mr;

  // The ready stamp: the last word of the reply buffer.
  uint64_t* stamp() const {
    return reinterpret_cast<uint64_t*>(reply_mr.addr + kReplyBufSize -
                                       sizeof(uint64_t));
  }
};

RpcClient::RpcClient(rdma::Fabric* fabric, rdma::Node* client_node,
                     RpcServer* server)
    : fabric_(fabric), client_node_(client_node) {
  channel_ep_ = server->RegisterClient(client_node_)->client_ep;
  send_vq_ = std::make_unique<rdma::VerbQueue>(channel_ep_);
}

RpcClient::~RpcClient() = default;

CallContext* RpcClient::AcquireContext() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    // Zombies become reusable once their abandoned call's reply stamp has
    // fired — only then is the server provably done writing the buffers.
    for (size_t i = 0; i < zombies_.size();) {
      if (rdma::QueuePair::ReadReadyStamp(zombies_[i]->stamp()) != 0) {
        free_.push_back(zombies_[i]);
        zombies_[i] = zombies_.back();
        zombies_.pop_back();
      } else {
        i++;
      }
    }
    if (!free_.empty()) {
      CallContext* ctx = free_.back();
      free_.pop_back();
      return ctx;
    }
  }
  auto ctx = std::make_unique<CallContext>();
  ctx->reply = client_node_->AllocDram(kReplyBufSize);
  ctx->args = client_node_->AllocDram(kArgsBufSize);
  if (ctx->reply == nullptr || ctx->args == nullptr) {
    // DRAM exhausted (e.g. a long fault sweep stranding zombie contexts):
    // the RPC fails with OutOfMemory instead of aborting the process.
    return nullptr;
  }
  ctx->reply_mr = fabric_->RegisterMemory(client_node_, ctx->reply,
                                          kReplyBufSize);
  ctx->args_mr = fabric_->RegisterMemory(client_node_, ctx->args,
                                         kArgsBufSize);
  CallContext* raw = ctx.get();
  std::lock_guard<std::mutex> lock(pool_mu_);
  contexts_.push_back(std::move(ctx));
  return raw;
}

void RpcClient::ReleaseContext(CallContext* ctx, bool completed) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  (completed ? free_ : zombies_).push_back(ctx);
}

Status RpcClient::SendRequest(uint8_t type, const Slice& args, bool offload,
                              CallContext* ctx, uint64_t trace_flow,
                              uint64_t trace_span) {
  Request r;
  r.type = type;
  r.offload = offload;
  r.trace_flow = trace_flow;
  r.trace_span = trace_span;
  r.reply_addr = ctx->reply_mr.addr;
  r.reply_rkey = ctx->reply_mr.rkey;
  r.reply_cap = kReplyBufSize;
  if (args.size() <= kMaxInlineArgs && !offload) {
    r.inline_args = args.ToString();
  } else {
    if (args.size() > kArgsBufSize) {
      return Status::InvalidArgument("RPC args exceed staging buffer");
    }
    memcpy(ctx->args, args.data(), args.size());
    r.args_addr = ctx->args_mr.addr;
    r.args_rkey = ctx->args_mr.rkey;
    r.args_len = static_cast<uint32_t>(args.size());
  }

  // Zero the ready stamp before the responder can write it.
  __atomic_store_n(ctx->stamp(), 0, __ATOMIC_RELEASE);

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
    // so the context is reused at once instead of timing out and stranding
    // it on the zombie list.
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

Status RpcClient::ParseReply(CallContext* ctx, std::string* reply) {
  uint32_t len = DecodeFixed32(ctx->reply);
  if (len + 4 > kReplyBufSize - sizeof(uint64_t)) {
    return Status::Corruption("oversized RPC reply");
  }
  reply->assign(ctx->reply + 4, len);
  return Status::OK();
}

uint64_t RpcClient::BackoffNs(int attempt) const {
  int shift = attempt < 6 ? attempt : 6;
  return policy_.retry_backoff_ns << shift;
}

PendingCall RpcClient::Post(uint8_t type, const Slice& args, bool offload,
                            uint64_t span_id) {
  PendingCall call;
  call.client_ = this;
  call.ctx_ = AcquireContext();
  if (call.ctx_ == nullptr) {
    call.send_status_ =
        Status::OutOfMemory("client DRAM exhausted for RPC buffers");
    return call;
  }
  uint64_t flow = span_id != 0 ? trace::Tracer::NextId() : 0;
  call.send_status_ =
      SendRequest(type, args, offload, call.ctx_, flow, span_id);
  if (flow != 0 && call.send_status_.ok()) {
    trace::Tracer::EmitFlow('s', "rpc", "rpc", flow);
  }
  return call;
}

Status RpcClient::Call(uint8_t type, const Slice& args, std::string* reply) {
  for (int attempt = 0;; attempt++) {
    Status s;
    {
      trace::TraceSpan span("rpc_call", "rpc");
      span.arg("type", type);
      s = Post(type, args, /*offload=*/false, span.id()).Complete(reply);
    }
    if (s.ok() || !s.IsIOError() || attempt >= policy_.max_retries) {
      return s;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    fabric_->env()->SleepNanos(BackoffNs(attempt));
  }
}

PendingCall RpcClient::CallAsync(uint8_t type, const Slice& args) {
  trace::TraceSpan span("rpc_send", "rpc");
  span.arg("type", type);
  return Post(type, args, /*offload=*/true, span.id());
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
  if (ctx_ != nullptr) {
    // Abandoned without Wait: the context can be reused immediately only if
    // the request never left or the reply already landed; otherwise it
    // waits on the zombie list for its stamp.
    client_->ReleaseContext(ctx_, !send_status_.ok() || Ready());
  }
  client_ = nullptr;
  ctx_ = nullptr;
}

bool PendingCall::Ready() const {
  if (client_ == nullptr || ctx_ == nullptr || !send_status_.ok()) {
    return false;
  }
  return rdma::QueuePair::ReadReadyStamp(ctx_->stamp()) != 0;
}

Status PendingCall::Wait(std::string* reply) {
  trace::TraceSpan span("rpc_wait", "rpc");
  return Complete(reply);
}

Status PendingCall::Complete(std::string* reply) {
  if (client_ == nullptr) return send_status_;
  RpcClient* client = client_;
  CallContext* ctx = ctx_;
  client_ = nullptr;
  ctx_ = nullptr;
  if (!send_status_.ok()) {
    if (ctx != nullptr) client->ReleaseContext(ctx, /*completed=*/true);
    return send_status_;
  }
  Env* env = client->fabric_->env();
  rdma::StampFuture reply_ready(env, ctx->stamp());
  uint64_t timeout_ns = client->policy_.timeout_ns;
  Status s = timeout_ns == 0
                 ? reply_ready.Wait()
                 : reply_ready.WaitUntil(env->NowNanos() + timeout_ns);
  if (s.ok()) {
    s = client->ParseReply(ctx, reply);
    client->ReleaseContext(ctx, /*completed=*/true);
  } else {
    // Timed out: the reply WRITE may still be inbound, so the context goes
    // to the zombie list until its stamp fires.
    client->timeouts_.fetch_add(1, std::memory_order_relaxed);
    client->ReleaseContext(ctx, /*completed=*/false);
  }
  return s;
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

  if (r.offload) {
    // Long-running request: hand off to the worker pool.
    pool_->Submit([this, ch, type = r.type, args = std::move(args),
                   reply_addr = r.reply_addr, reply_rkey = r.reply_rkey,
                   reply_cap = r.reply_cap, trace_flow = r.trace_flow,
                   trace_span = r.trace_span]() mutable {
      ExecuteAndReply(ch, type, std::move(args), reply_addr, reply_rkey,
                      reply_cap, trace_flow, trace_span);
    });
  } else {
    ExecuteAndReply(ch, r.type, std::move(args), r.reply_addr, r.reply_rkey,
                    r.reply_cap, r.trace_flow, r.trace_span);
  }
}

void RpcServer::ExecuteAndReply(Channel* ch, uint8_t type, std::string args,
                                uint64_t reply_addr, uint32_t reply_rkey,
                                uint32_t reply_cap, uint64_t trace_flow,
                                uint64_t trace_span) {
  Env* env = fabric_->env();
  uint64_t start = env->NowNanos();
  // Close the cross-node flow started by the requester: the finish event
  // binds to the enclosing handler span ("bp":"e"), drawing the arrow from
  // the compute-side call span onto this memory-node track.
  if (trace_flow != 0 && trace::Tracer::enabled()) {
    trace::Tracer::EmitFlow('f', "rpc", "rpc", trace_flow);
  }
  // The reply goes out as [u32 len][payload] in one WRITE: the handler
  // appends the payload after a gap for the length, filled in below.
  std::string reply(4, '\0');
  if (type == RpcType::kPing) {
    reply.append(args);  // Echo.
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
  if (reply.size() + sizeof(uint64_t) > reply_cap) {
    return;  // Oversized reply: drop; the requester fails by timeout.
  }
  EncodeFixed32(reply.data(), static_cast<uint32_t>(reply.size() - 4));
  rdma::VerbQueue* vq = ch->to_client->ThreadVq();
  rdma::WrHandle payload =
      vq->Write(reply.data(), reply_addr, reply_rkey, reply.size());
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
    payload = vq->Write(reply.data(), reply_addr, reply_rkey, reply.size());
    stamp = vq->WriteStamped(
        nullptr, reply_addr + reply_cap - sizeof(uint64_t), reply_rkey, 0);
    s = payload.Wait();
    st = stamp.Wait();
  }
  if (!s.ok() || !st.ok()) {
    // The reply writes faulted (QP now in error): reconnect this thread's
    // QP for later replies and drop — the requester times out and retries.
    vq->Recover();
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

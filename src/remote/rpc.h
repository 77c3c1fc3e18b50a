// RPC over the RDMA fabric (paper Sec. X-D).
//
// Every call takes one path. The requester draws a call context (a
// registered reply buffer and argument buffer) from its client's pool,
// attaches the reply buffer's address/rkey to a small SEND, and waits on
// the ready stamp at the end of the reply buffer (a rdma::StampFuture, the
// one-sided analogue of a completion handle). The responder executes the
// handler and returns the result with one-sided WRITEs, bypassing any
// dispatcher on the requester side. A stamp wait parks the calling thread
// (Env::WaitWord), so a long call holds no polling compute thread.
//
// Two request shapes, as in the paper:
//
//  * General-purpose RPC (Call): small arguments travel inline and the
//    server's dispatcher runs the handler itself.
//
//  * Customized near-data-compaction RPC (CallAsync): compaction runs long
//    and carries large arguments, so the request runs on the server's
//    worker pool and the argument blob is not inlined: the responder pulls
//    it from the requester's argument buffer with an RDMA READ. The paper
//    wakes the sleeping requester with a WRITE_WITH_IMM and a notifier
//    thread; here the parked stamp wait already returns when the reply
//    lands, so no wakeup verb is sent.
//
// Requests travel over a per-client-node channel queue pair; replies and
// argument reads use the worker threads' own thread-local queue pairs so
// the dispatcher never becomes a reply bottleneck. All send-side verbs go
// through the unified handle layer (rdma::VerbQueue): requests are
// cancelled handles whose completions the queue sweeps on later posts, and
// replies are explicit handle waits.

#ifndef DLSM_REMOTE_RPC_H_
#define DLSM_REMOTE_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/rdma_manager.h"
#include "src/sim/env.h"
#include "src/sim/thread_pool.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dlsm {
namespace remote {

/// Well-known RPC types. The server routes kPing internally; all other
/// types go to the installed handler (the dLSM memory-node logic).
struct RpcType {
  static constexpr uint8_t kPing = 1;
  static constexpr uint8_t kAllocFlushRegion = 2;
  static constexpr uint8_t kFreeBatch = 3;
  static constexpr uint8_t kCompaction = 4;
  static constexpr uint8_t kStats = 5;
  /// Server-mediated block read (Nova-LSM-style read path).
  static constexpr uint8_t kReadBlock = 6;
};

class RpcServer;
class RpcClient;
/// One call's registered reply and argument buffers; defined in rpc.cc.
struct CallContext;

/// Client-side failure policy. The default (timeout_ns == 0) preserves the
/// wait-forever fast path: no deadline arithmetic, no buffer invalidation,
/// identical behavior to a fault-free fabric. With a timeout set, every
/// reply wait arms a deadline, and Call retries transient failures
/// (timeouts, flushed sends, QP errors) up to max_retries times with
/// exponential backoff before the last error is returned to the caller.
struct RpcPolicy {
  /// Per-attempt reply deadline; 0 waits forever (no retries either).
  uint64_t timeout_ns = 0;
  /// Additional attempts after the first failed one.
  int max_retries = 0;
  /// Base backoff between attempts; doubles per attempt (capped at 64x).
  uint64_t retry_backoff_ns = 100 * 1000;
};

/// A sent call awaiting its reply; move-only, like a WrHandle for a
/// whole RPC. Wait() parks on the reply buffer's ready stamp (a
/// rdma::StampFuture) and recycles the call's buffers; Call completes the
/// same way. Dropping a live PendingCall never blocks: its context is
/// parked on a zombie list and reclaimed only after the server's reply
/// WRITE has landed, so a late reply can never scribble over a recycled
/// buffer.
class PendingCall {
 public:
  PendingCall() = default;
  PendingCall(PendingCall&& o) noexcept;
  PendingCall& operator=(PendingCall&& o) noexcept;
  ~PendingCall();

  PendingCall(const PendingCall&) = delete;
  PendingCall& operator=(const PendingCall&) = delete;

  /// False for default-constructed, moved-from, or waited calls.
  bool valid() const { return client_ != nullptr; }

  /// Nonblocking: true once the reply payload has landed.
  bool Ready() const;

  /// Blocks until the reply lands, fills *reply, releases the call's
  /// buffers. Idempotent calls after the first return the send status.
  /// Traced as an `rpc_wait` span.
  Status Wait(std::string* reply);

 private:
  friend class RpcClient;

  /// Wait() without its span: Call's `rpc_call` span covers the wait.
  Status Complete(std::string* reply);

  /// Returns the context to the pool (zombie if the reply is still
  /// inbound) and invalidates this handle. Never blocks.
  void Release();

  RpcClient* client_ = nullptr;
  CallContext* ctx_ = nullptr;
  Status send_status_;
};

/// Client side of the RPC layer; one per (compute node, server) pair.
/// Thread-safe: each call draws its own registered reply and argument
/// buffers from the client's pool.
class RpcClient {
 public:
  /// Connects client_node to the server.
  RpcClient(rdma::Fabric* fabric, rdma::Node* client_node, RpcServer* server);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// General-purpose RPC: inline args, run by the server's dispatcher.
  /// Sends and waits on the reply stamp, retrying transient failures as
  /// the policy allows.
  Status Call(uint8_t type, const Slice& args, std::string* reply);

  /// Compaction-style RPC: sends now, returns a handle to wait later, so
  /// one thread can keep several long-running server-side requests
  /// (near-data compactions) in flight. The request runs on the server's
  /// worker pool and its args travel via the staging buffer the server
  /// pulls with RDMA READ. Each call draws its own registered buffers from
  /// a pool, so any number may be in flight per thread. No retries: a
  /// failed call is re-sent by its caller.
  PendingCall CallAsync(uint8_t type, const Slice& args);

  /// Installs the failure policy. Not thread-safe against in-flight calls;
  /// set it right after construction (DbImpl does, from Options).
  void set_policy(const RpcPolicy& p) { policy_ = p; }
  const RpcPolicy& policy() const { return policy_; }

  /// Attempts that hit the reply deadline (each counts once, including the
  /// final attempt of an exhausted call).
  uint64_t rpc_timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  /// Re-attempts made after a transient failure.
  uint64_t rpc_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  rdma::Node* client_node() const { return client_node_; }

 private:
  friend class PendingCall;

  /// Draws a context and sends one request on it; the returned call holds
  /// the send status. offload runs the request on the server's worker
  /// pool with its args pulled by READ. span_id is the caller's trace span
  /// (0 = not tracing); its id travels in the wire header so the server
  /// handler span stitches to it.
  PendingCall Post(uint8_t type, const Slice& args, bool offload,
                   uint64_t span_id);
  /// Call-context pool: reclaims zombies whose reply has since landed,
  /// reuses a free context, or registers fresh buffers. nullptr when
  /// client DRAM is exhausted — callers fail the RPC, never abort.
  CallContext* AcquireContext();
  /// completed: the reply landed (or the request was never sent) and the
  /// buffers may be reused immediately; otherwise the context goes to the
  /// zombie list until its stamp fires. (If the request itself was lost
  /// the stamp never fires and the context is stranded — a leak bounded by
  /// the retry budget.)
  void ReleaseContext(CallContext* ctx, bool completed);
  Status SendRequest(uint8_t type, const Slice& args, bool offload,
                     CallContext* ctx, uint64_t trace_flow,
                     uint64_t trace_span);
  Status ParseReply(CallContext* ctx, std::string* reply);
  uint64_t BackoffNs(int attempt) const;

  rdma::Fabric* fabric_;
  rdma::Node* client_node_;
  rdma::QueuePair* channel_ep_ = nullptr;  // Client end of the channel.

  std::mutex send_mu_;  // Guards send_vq_ posts (quick, non-blocking).
  std::unique_ptr<rdma::VerbQueue> send_vq_;  // Channel sends, under send_mu_.

  RpcPolicy policy_;
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> retries_{0};

  // Registered-buffer pool. Zombies are abandoned or timed-out calls whose
  // reply WRITE may still be inbound; they become free once their reply
  // stamp fires.
  std::mutex pool_mu_;
  std::vector<std::unique_ptr<CallContext>> contexts_;
  std::vector<CallContext*> free_;
  std::vector<CallContext*> zombies_;
};

/// Server side: a dispatcher thread polls the per-client channels; short
/// requests are handled inline, offloaded requests are dispatched to the
/// worker pool (the memory node's weak CPU budget).
class RpcServer {
 public:
  /// The handler implements all non-kPing request types. It runs on the
  /// server node's threads and may take arbitrarily long (compaction). It
  /// appends its reply to *reply, which arrives holding the reply frame's
  /// 4-byte header: the server sends header and reply in one WRITE.
  using Handler =
      std::function<void(uint8_t type, const Slice& args, std::string* reply)>;

  RpcServer(rdma::Fabric* fabric, rdma::Node* server_node, int worker_threads);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Starts the dispatcher and the worker pool.
  void Start();

  /// Stops and joins all server threads. Idempotent.
  void Stop();

  rdma::Node* node() const { return server_node_; }

  /// Virtual nanoseconds of handler execution on the worker pool,
  /// for the paper's Fig. 12 CPU-utilization annotations.
  uint64_t worker_busy_ns() const {
    return worker_busy_ns_.load(std::memory_order_relaxed);
  }
  int worker_threads() const { return worker_threads_; }

  /// Verb-layer telemetry of the reply path, merged across all client
  /// channels (argument READs, reply WRITEs).
  rdma::RdmaVerbStats reply_verb_stats();

 private:
  friend class RpcClient;

  struct Channel {
    rdma::Node* client_node = nullptr;
    rdma::QueuePair* server_ep = nullptr;
    rdma::QueuePair* client_ep = nullptr;
    std::unique_ptr<rdma::RdmaManager> to_client;  // Server -> client verbs.
    std::vector<std::unique_ptr<char[]>> recv_bufs;
  };

  /// Called by RpcClient's constructor; wires up a channel and returns it.
  Channel* RegisterClient(rdma::Node* client_node);

  void DispatcherLoop();
  void ProcessRequest(Channel* ch, const char* req, size_t len);
  /// trace_flow/trace_span: the requester's wire-header trace context; when
  /// nonzero the handler emits a span stitched to the client call span via
  /// a flow-finish event.
  void ExecuteAndReply(Channel* ch, uint8_t type, std::string args,
                       uint64_t reply_addr, uint32_t reply_rkey,
                       uint32_t reply_cap, uint64_t trace_flow,
                       uint64_t trace_span);

  rdma::Fabric* fabric_;
  rdma::Node* server_node_;
  int worker_threads_;
  Handler handler_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  ThreadHandle dispatcher_;
  std::mutex channels_mu_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::atomic<uint64_t> worker_busy_ns_{0};
};

}  // namespace remote
}  // namespace dlsm

#endif  // DLSM_REMOTE_RPC_H_

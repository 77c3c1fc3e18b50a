// RPC over the RDMA fabric (paper Sec. X-D).
//
// Two flavours, as in the paper:
//
//  * General-purpose RPC: the requester attaches the address/rkey of a
//    registered reply buffer to a small SEND; the responder executes the
//    handler and returns the result with a one-sided WRITE, bypassing any
//    dispatcher on the requester side. The requester waits on a
//    rdma::StampFuture over the ready stamp at the end of the reply
//    buffer (the one-sided analogue of a completion handle).
//
//  * Customized near-data-compaction RPC: compaction runs long and carries
//    large arguments, so (a) the requester sleeps on a condition variable
//    and is woken by a WRITE_WITH_IMM carrying its request id (a thread
//    notifier polls the channel and wakes the right thread), and (b) the
//    argument blob is not inlined: the responder pulls it from the
//    requester's registered argument buffer with an RDMA READ.
//
// Requests travel over a per-client-node channel queue pair; replies,
// argument reads and wakeups use the worker threads' own thread-local
// queue pairs so the dispatcher never becomes a reply bottleneck. All
// send-side verbs go through the unified handle layer (rdma::VerbQueue):
// fire-and-forget posts (requests, wakeups) are cancelled handles whose
// completions the queue sweeps on later posts, and replies are explicit
// handle waits — no hand-rolled CQ scrubbing.

#ifndef DLSM_REMOTE_RPC_H_
#define DLSM_REMOTE_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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

/// Client-side failure policy. The default (timeout_ns == 0) preserves the
/// wait-forever fast path: no deadline arithmetic, no buffer invalidation,
/// identical behavior to a fault-free fabric. With a timeout set, every
/// call arms a deadline and transient failures (timeouts, flushed sends,
/// QP errors) are retried up to max_retries times with exponential backoff
/// before the last error is returned to the caller.
struct RpcPolicy {
  /// Per-attempt reply deadline; 0 waits forever (no retries either).
  uint64_t timeout_ns = 0;
  /// Additional attempts after the first failed one.
  int max_retries = 0;
  /// Base backoff between attempts; doubles per attempt (capped at 64x).
  uint64_t retry_backoff_ns = 100 * 1000;
};

/// An issued CallAsync awaiting its reply; move-only, like a WrHandle for
/// a whole RPC. Wait() parks on the reply buffer's ready stamp (a
/// rdma::StampFuture) and recycles the call's buffers. Dropping a live
/// PendingCall never blocks: its context is parked on a zombie list and
/// reclaimed only after the server's reply WRITE has landed, so a late
/// reply can never scribble over a recycled buffer.
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
  Status Wait(std::string* reply);

 private:
  friend class RpcClient;

  /// Returns the context to the pool (zombie if the reply is still
  /// inbound) and invalidates this handle. Never blocks.
  void Release();

  RpcClient* client_ = nullptr;
  void* ctx_ = nullptr;   // RpcClient::ThreadBuffers, opaque here.
  Status send_status_;
};

/// Client side of the RPC layer; one per (compute node, server) pair.
/// Thread-safe: every calling thread gets its own registered reply and
/// argument buffers.
class RpcClient {
 public:
  /// Connects client_node to the server, starting the wakeup notifier
  /// thread on the client node.
  RpcClient(rdma::Fabric* fabric, rdma::Node* client_node, RpcServer* server);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// General-purpose RPC: inline args, poll-based completion.
  Status Call(uint8_t type, const Slice& args, std::string* reply);

  /// Compaction-style RPC: args staged in a registered buffer the server
  /// pulls with RDMA READ; the caller sleeps until the WRITE_WITH_IMM
  /// wakeup arrives.
  Status CallWithWakeup(uint8_t type, const Slice& args, std::string* reply);

  /// Pipelined RPC: sends now, returns a handle to wait later, so one
  /// thread can keep several long-running server-side requests (near-data
  /// compactions) in flight. The request is dispatched to the server's
  /// worker pool like CallWithWakeup — args travel via the staging buffer
  /// the server pulls with RDMA READ — but completion is detected through
  /// the reply stamp (rdma::StampFuture), not a sleeping waiter; the
  /// wakeup immediate finds no registered waiter and is dropped. Each call
  /// draws its own registered buffers from a pool, so any number may be in
  /// flight per thread.
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

  // Internal; public only for thread-local storage.
  struct ThreadBuffers;
  struct ContextPool;

 private:
  friend class PendingCall;

  /// Returns this thread's cached buffers, drawing from the context pool
  /// on first use (or after a timeout invalidated them). nullptr when
  /// client DRAM is exhausted — callers fail the RPC, never abort. The
  /// buffers return to the pool when the thread ends, so a thread per
  /// call (the blocking compaction scheduler's helpers) reuses them.
  ThreadBuffers* GetThreadBuffers();
  /// Retires this thread's cached buffers to the zombie list. Called when
  /// an attempt times out: the server's late reply WRITE may still land in
  /// them, so they are reused only after their stamp fires. (If the
  /// request itself was lost the stamp never fires and the context is
  /// stranded — a leak bounded by the retry budget.)
  void InvalidateThreadBuffers();
  /// Call-context pool: reclaims zombies whose reply has since landed,
  /// reuses a free context, or registers fresh buffers. nullptr when
  /// client DRAM is exhausted.
  ThreadBuffers* AcquireContext();
  /// completed: the reply landed (or the request was never sent) and the
  /// buffers may be reused immediately; otherwise the context goes to the
  /// zombie list until its stamp fires.
  void ReleaseContext(ThreadBuffers* ctx, bool completed);
  /// trace_flow/trace_span carry the caller's trace context in the wire
  /// header (0 = not tracing) so the server handler span stitches to the
  /// compute-side call span.
  Status SendRequest(uint8_t type, const Slice& args, bool wake, uint32_t id,
                     ThreadBuffers* bufs, uint64_t trace_flow = 0,
                     uint64_t trace_span = 0);
  Status ParseReply(ThreadBuffers* bufs, std::string* reply);
  /// One attempt of Call / CallWithWakeup; the public wrappers add the
  /// policy's retry-with-backoff loop around these.
  Status CallOnce(uint8_t type, const Slice& args, std::string* reply);
  Status CallWithWakeupOnce(uint8_t type, const Slice& args,
                            std::string* reply);
  uint64_t BackoffNs(int attempt) const;
  void NotifierLoop();

  rdma::Fabric* fabric_;
  rdma::Node* client_node_;
  RpcServer* server_;
  uint64_t instance_id_;
  rdma::QueuePair* channel_ep_ = nullptr;  // Client end of the channel.

  std::mutex send_mu_;  // Guards send_vq_ posts (quick, non-blocking).
  std::unique_ptr<rdma::VerbQueue> send_vq_;  // Channel sends, under send_mu_.

  // Wakeup registry: request id -> waiter.
  struct Waiter {
    CondVar* cv;
    bool fired = false;
  };
  Mutex wait_mu_;
  std::unordered_map<uint32_t, Waiter*> waiters_;
  std::atomic<uint32_t> next_id_{1};

  std::atomic<bool> stop_{false};
  ThreadHandle notifier_;
  std::vector<std::unique_ptr<char[]>> notify_bufs_;

  RpcPolicy policy_;
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> retries_{0};

  // Registered-buffer pool, shared by the per-thread cached buffers and
  // CallAsync contexts. Threads' caches hold it weakly: a thread that ends
  // after its client finds the pool gone and returns nothing.
  std::shared_ptr<ContextPool> pool_;

  static std::atomic<uint64_t> next_instance_id_;
};

/// Server side: a dispatcher thread polls the per-client channels; short
/// requests are handled inline, wake-style requests are dispatched to the
/// worker pool (the memory node's weak CPU budget).
class RpcServer {
 public:
  /// The handler implements all non-kPing request types. It runs on the
  /// server node's threads and may take arbitrarily long (compaction).
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
  /// channels (argument READs, reply WRITEs, wakeups).
  rdma::RdmaVerbStats reply_verb_stats();

 private:
  friend class RpcClient;

  struct Channel {
    rdma::Node* client_node = nullptr;
    rdma::QueuePair* server_ep = nullptr;
    rdma::QueuePair* client_ep = nullptr;
    std::unique_ptr<rdma::RdmaManager> to_client;  // Server -> client verbs.
    std::mutex wake_mu_;  // Guards wake_vq posts on server_ep.
    std::unique_ptr<rdma::VerbQueue> wake_vq;  // WRITE_WITH_IMM wakeups.
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
                       uint32_t reply_cap, bool wake, uint32_t id,
                       uint64_t trace_flow = 0, uint64_t trace_span = 0);

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

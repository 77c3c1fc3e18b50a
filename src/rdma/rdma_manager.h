// RdmaManager: the intermediate layer between engine code and the verbs
// fabric (paper Sec. X-B), built around a first-class completion handle.
//
// Every verb — READ, WRITE, SEND, FETCH_ADD, CMP_SWAP — is posted through
// a VerbQueue and returns a WrHandle. Handles can be waited individually,
// in doorbell-batched waves (ReadBatch), or harvested out of post order by
// wr_id: a completion that pops before its handle asks is stashed until
// claimed. Synchronous wrappers are post+wait over the same path, so reads,
// writes and atomics interleave freely on one queue pair and any number of
// waves may be live at once — there is no "drain everything before a sync
// verb" or "one live batch per thread" restriction. Dropping or
// Cancel()ing a handle never blocks: the completion is discarded when it
// pops, which makes error unwind safe.
//
// The layer also keeps per-QP in-flight accounting and per-verb-class
// ops/bytes/wire-latency telemetry (RdmaVerbStats), surfaced through
// DbStats and the bench harness.

#ifndef DLSM_RDMA_RDMA_MANAGER_H_
#define DLSM_RDMA_RDMA_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/verb_stats.h"
#include "src/util/status.h"

namespace dlsm {
namespace rdma {

class RdmaManager;
class VerbQueue;

/// Deleter of an exclusive verb queue: hands the queue back to its
/// manager's idle list instead of freeing it with its queue pair.
struct ExclusiveVqRelease {
  RdmaManager* mgr = nullptr;
  void operator()(VerbQueue* vq) const;
};

/// A verb queue owned by one long-lived user (RdmaManager::
/// CreateExclusiveVq). Dropping it never blocks and never leaks its QP.
using ExclusiveVq = std::unique_ptr<VerbQueue, ExclusiveVqRelease>;

/// One verb posted but not yet completed, as seen by an observer thread
/// (watchdog, diagnostics). A point-in-time copy: by the time the caller
/// inspects it the verb may have completed.
struct OutstandingVerb {
  uint64_t wr_id = 0;
  VerbClass cls = VerbClass::kRead;
  uint64_t post_ns = 0;  ///< Fabric post timestamp (virtual time).
  uint64_t bytes = 0;    ///< Payload length the verb moves.
};

/// Completion handle for one posted verb; move-only, obtained from a
/// VerbQueue post. Wait() blocks (in virtual time) until this verb's own
/// completion — other completions popping meanwhile are stashed for their
/// handles, so handles may be waited in any order. Destroying or
/// Cancel()ing a live handle never blocks; the completion is discarded on
/// arrival (the fabric moves payloads at post time, so abandoning a verb
/// cannot corrupt buffers). A handle must not outlive its VerbQueue.
class WrHandle {
 public:
  WrHandle() = default;
  WrHandle(WrHandle&& o) noexcept;
  WrHandle& operator=(WrHandle&& o) noexcept;
  ~WrHandle() { Cancel(); }

  WrHandle(const WrHandle&) = delete;
  WrHandle& operator=(const WrHandle&) = delete;

  /// False for default-constructed, moved-from, or cancelled handles.
  bool valid() const { return vq_ != nullptr || done_; }
  uint64_t wr_id() const { return wr_id_; }

  /// Blocks until this verb completes; returns its status. Idempotent.
  Status Wait();

  /// Nonblocking: true once the completion has arrived (claiming it as a
  /// side effect, so status() becomes valid). Idempotent.
  bool Ready();

  /// Completion status; valid after Wait() or a true Ready().
  const Status& status() const { return status_; }

  /// Wire completion time; valid after Wait() or a true Ready().
  uint64_t completion_ns() const { return completion_ns_; }

  /// Detaches from the completion without blocking: it is dropped when it
  /// pops and this handle becomes invalid. No-op on invalid or already
  /// completed handles.
  void Cancel();

 private:
  friend class VerbQueue;
  WrHandle(VerbQueue* vq, uint64_t wr_id) : vq_(vq), wr_id_(wr_id) {}

  VerbQueue* vq_ = nullptr;
  uint64_t wr_id_ = 0;
  bool done_ = false;
  Status status_;
  uint64_t completion_ns_ = 0;
};

/// Post/harvest state over one queue pair's send side. Tracks every verb
/// posted through it until its completion is claimed by a handle, stashes
/// completions that pop before their handle asks (enabling out-of-post-
/// order harvest by wr_id), drops completions whose handles were
/// cancelled, and feeds per-verb telemetry to the owning manager.
///
/// A VerbQueue is single-owner: either thread-local (RdmaManager::
/// ThreadVq) or used under the caller's own synchronization. Wrap a QP
/// before posting on it and route every send-side post through the queue;
/// receive-side verbs (PostRecv / recv CQ) are independent and untouched.
class VerbQueue {
 public:
  /// mgr may be null (bare-fabric use); then this queue's telemetry is
  /// not aggregated into any manager snapshot.
  explicit VerbQueue(QueuePair* qp, RdmaManager* mgr = nullptr);
  ~VerbQueue();

  VerbQueue(const VerbQueue&) = delete;
  VerbQueue& operator=(const VerbQueue&) = delete;

  QueuePair* qp() const { return qp_; }

  /// Verbs posted through this queue whose completion has not popped yet.
  size_t in_flight() const { return pending_.size(); }

  WrHandle Read(void* dst, uint64_t raddr, uint32_t rkey, size_t len);
  WrHandle Write(const void* src, uint64_t raddr, uint32_t rkey, size_t len);
  /// One-sided write releasing an 8-byte ready stamp at raddr+len last
  /// (see QueuePair::PostWriteStamped / StampFuture).
  WrHandle WriteStamped(const void* src, uint64_t raddr, uint32_t rkey,
                        size_t len);
  WrHandle WriteWithImm(const void* src, uint64_t raddr, uint32_t rkey,
                        size_t len, uint32_t imm);
  WrHandle Send(const void* src, size_t len);
  WrHandle FetchAdd(uint64_t raddr, uint32_t rkey, uint64_t add,
                    uint64_t* prev);
  WrHandle CmpSwap(uint64_t raddr, uint32_t rkey, uint64_t expected,
                   uint64_t desired, uint64_t* prev);

  /// Blocks until every in-flight verb has popped (stashing completions
  /// for live handles, dropping cancelled ones). Returns the first
  /// failure observed among the completions popped by this call. A
  /// teardown / barrier helper; individual waits don't need it.
  Status DrainAll();

  /// Error recovery: after any completion reports a failure this queue's
  /// QP is in the error state and every later post flush-fails. Recover()
  /// drains whatever is still in flight (the flush statuses stash for
  /// their live handles as usual), resets the QP back to ready, and counts
  /// one reconnect. Returns non-OK — and the QP stays errored — while the
  /// peer node is down. Callers re-post their failed work after a
  /// successful Recover(). No-op on a healthy QP.
  Status Recover();

 private:
  friend class WrHandle;
  friend class RdmaManager;

  /// Fire-and-forget users (cancelled handles) never pop their
  /// completions themselves; once this many verbs are pending, a post
  /// first sweeps the CQ so it cannot grow unboundedly. Live waves
  /// smaller than this are never drained early, keeping the
  /// outstanding-op gauges faithful to what is actually in flight.
  static constexpr size_t kAutoSweepThreshold = 32;

  /// One posted-but-unharvested verb. Flat vectors with swap-erase beat
  /// node-based maps here: the sets are wave-sized (tens at most, see
  /// kAutoSweepThreshold) and this bookkeeping is charged as host CPU on
  /// every verb the simulation times.
  struct Pending {
    uint64_t wr_id;
    VerbClass cls;
    bool cancelled;
  };

 public:
  /// Appends every verb still in flight on this queue to *out. Safe from
  /// any thread (reads the stats-side mirror, not the owner's pending_).
  void ListOutstanding(std::vector<OutstandingVerb>* out) const;

 private:
  WrHandle Track(uint64_t wr_id, VerbClass cls, size_t bytes);
  /// Accounts one popped completion: telemetry, pending bookkeeping, and
  /// stash-or-drop depending on whether the handle was cancelled.
  void Admit(const Completion& c);
  /// Admits everything already ready on the CQ (nonblocking).
  void Sweep();
  /// Sweep, but only past the auto-sweep threshold (called on posts).
  void MaybeSweep() {
    if (pending_.size() >= kAutoSweepThreshold) Sweep();
  }
  Status WaitFor(uint64_t wr_id, Completion* out);
  bool TryClaim(uint64_t wr_id, Completion* out);
  void Cancel(uint64_t wr_id);

  size_t FindPending(uint64_t wr_id) const;
  void RecordPost(const OutstandingVerb& v);
  void RecordCompletion(VerbClass cls, const Completion& c);
  void RecordAbandoned();
  void RecordReconnect();
  /// Merges this queue's telemetry into *out (thread-safe vs the owner).
  /// An orphaned queue (dead, or idle between exclusive owners) reports
  /// its in-flight verbs as abandoned, with their bytes.
  void SnapshotInto(RdmaVerbStats* out, bool orphaned = false) const;

  QueuePair* qp_;
  RdmaManager* mgr_;
  // Set while the queue sits on its manager's idle list (guarded by the
  // manager's mu_): its in-flight verbs were all cancelled by the
  // previous owner and report as abandoned, as if the queue had died.
  bool idle_ = false;
  std::vector<Pending> pending_;
  std::vector<Completion> stash_;

  // Telemetry is queue-local under an uncontended per-queue mutex (the
  // queue is single-owner; only manager snapshots contend), so the
  // per-verb cost is two cheap lock round trips instead of traffic on a
  // shared cache line. outstanding_verbs_ mirrors pending_ under the same
  // mutex so observer threads (the stall watchdog) can enumerate in-flight
  // work without touching the owner-only pending_ vector.
  mutable std::mutex stats_mu_;
  std::vector<OutstandingVerb> outstanding_verbs_;
  VerbClassStats cls_stats_[kNumVerbClasses];
  uint64_t posted_ = 0;
  uint64_t completed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t max_outstanding_ = 0;
  uint64_t reconnects_ = 0;
};

/// Per-(local node, remote node) RDMA connection manager. Thread-safe;
/// each calling thread transparently gets its own verb queue (and QP).
class RdmaManager {
 public:
  RdmaManager(Fabric* fabric, Node* local, Node* remote);
  ~RdmaManager();

  RdmaManager(const RdmaManager&) = delete;
  RdmaManager& operator=(const RdmaManager&) = delete;

  Fabric* fabric() const { return fabric_; }
  Node* local() const { return local_; }
  Node* remote() const { return remote_; }
  Env* env() const { return fabric_->env(); }

  /// Returns the calling thread's verb queue, creating it (and its queue
  /// pair) on first use (paper: "every thread creates a thread-local
  /// queue pair ... so threads do not collide when polling completions").
  /// Handles from it must be waited on the posting thread.
  VerbQueue* ThreadVq();

  /// Returns a verb queue with its own queue pair for a single owner with
  /// long-lived outstanding work (flush pipeline, scan prefetch), so its
  /// in-flight depth never queues behind the owner thread's other verbs.
  /// Dropped queues go to an idle list and are reused oldest first, so
  /// the fabric's QP count stays bounded by the peak number of live ones.
  /// A reused queue is first drained of its previous owner's cancelled
  /// verbs (waiting out any still on the wire, as later verbs on that QP
  /// would anyway: a QP completes in post order) and reset if its QP is
  /// errored.
  ExclusiveVq CreateExclusiveVq();

  // Synchronous wrappers: post + wait on the calling thread's verb queue.
  // They interleave freely with outstanding async handles on the same
  // queue — waits harvest by wr_id, not FIFO position.

  /// Synchronous one-sided read; blocks until the wire completion.
  Status Read(void* dst, uint64_t raddr, uint32_t rkey, size_t len);

  /// Synchronous one-sided write; blocks until the wire completion.
  Status Write(const void* src, uint64_t raddr, uint32_t rkey, size_t len);

  /// Synchronous remote fetch-and-add of an 8-byte counter.
  Status FetchAdd(uint64_t raddr, uint32_t rkey, uint64_t add,
                  uint64_t* prev);

  /// Synchronous remote compare-and-swap; *prev receives the old value.
  Status CmpSwap(uint64_t raddr, uint32_t rkey, uint64_t expected,
                 uint64_t desired, uint64_t* prev);

  /// Posts a one-sided READ (WRITE) on the calling thread's verb queue
  /// without waiting. Doorbell batching: post N, then wait the handles.
  WrHandle PostReadAsync(void* dst, uint64_t raddr, uint32_t rkey,
                         size_t len);
  WrHandle PostWriteAsync(const void* src, uint64_t raddr, uint32_t rkey,
                          size_t len);

  /// Snapshot of verb-layer telemetry across all of this manager's
  /// queues (thread-local and exclusive).
  RdmaVerbStats StatsSnapshot() const;

  /// Verbs posted through this manager whose completion has not popped
  /// yet (gauge across all queues).
  uint64_t outstanding_ops() const { return StatsSnapshot().outstanding; }

  /// Appends every in-flight verb across this manager's queues to *out
  /// (point-in-time copy; see OutstandingVerb). Watchdog probes use this
  /// to name verbs outstanding beyond their deadline.
  void ListOutstanding(std::vector<OutstandingVerb>* out) const;

  /// One line per live verb queue — QP error state, in-flight depth, last
  /// post time — for watchdog diagnostic dumps.
  std::string QpStateSummary() const;

 private:
  friend class VerbQueue;
  friend struct ExclusiveVqRelease;

  void ReleaseExclusiveVq(VerbQueue* vq);

  /// Every VerbQueue with a manager registers for snapshot aggregation;
  /// on destruction its final telemetry folds into retired_. A queue must
  /// not outlive its manager.
  void RegisterVq(VerbQueue* vq);
  void UnregisterVq(VerbQueue* vq);

  QueuePair* CreateQp();

  Fabric* fabric_;
  Node* local_;
  Node* remote_;
  uint64_t instance_id_;
  mutable std::mutex mu_;  // Guards the queue lists and retired_.
  std::vector<VerbQueue*> live_vqs_;
  RdmaVerbStats retired_;
  // Declared after the registry so the owned queues die first: their
  // destructors unregister through mu_/live_vqs_/retired_.
  std::vector<std::unique_ptr<VerbQueue>> thread_vqs_;
  std::deque<std::unique_ptr<VerbQueue>> idle_vqs_;  // Oldest first.

  static std::atomic<uint64_t> next_instance_id_;
};

/// A doorbell wave of one-sided READs on the posting thread's verb queue:
/// Add() posts without waiting; WaitAll() harvests the wave, so N small
/// reads cost one base latency plus their wire occupancy instead of N
/// round trips. Thin wrapper over a WrHandle vector: any number of waves
/// may be live at once and other verbs may interleave with a wave. A
/// destroyed batch cancels its un-waited reads without blocking (safe
/// during error unwind). The wave stays on the thread that posted it.
class ReadBatch {
 public:
  explicit ReadBatch(RdmaManager* mgr) : mgr_(mgr) {}

  ReadBatch(const ReadBatch&) = delete;
  ReadBatch& operator=(const ReadBatch&) = delete;

  /// Posts one READ of [raddr, raddr+len) into dst; returns its slot.
  size_t Add(void* dst, uint64_t raddr, uint32_t rkey, size_t len);

  size_t size() const { return handles_.size(); }

  /// Blocks until every posted READ has completed; returns the first
  /// failure. Idempotent; per-slot outcomes via status().
  Status WaitAll();

  /// Completion status of slot i; only valid after WaitAll().
  const Status& status(size_t i) const { return handles_[i].status(); }

 private:
  RdmaManager* mgr_;
  VerbQueue* vq_ = nullptr;  // Bound to the posting thread's VQ on first Add.
  std::vector<WrHandle> handles_;
  Status first_;
};

/// Completion future for a one-sided "ready stamp" (PostWriteStamped
/// protocol): the consumer of an incoming one-sided WRITE has no CQ entry
/// for it, so delivery is detected by polling the stamp word the RNIC
/// writes last. Wait() parks politely in virtual time and then adopts the
/// writer's wire completion time (AdvanceTo), preserving causality. This
/// is the handle type for RPC reply waiters.
class StampFuture {
 public:
  StampFuture(Env* env, const void* stamp_addr)
      : env_(env), stamp_(stamp_addr) {}

  /// Nonblocking: true once the stamp has been released.
  bool Ready() const { return QueuePair::ReadReadyStamp(stamp_) != 0; }

  /// Blocks until the stamp is released, then advances to the writer's
  /// completion time. Idempotent.
  Status Wait();

  /// As Wait(), but gives up once the environment clock reaches
  /// deadline_ns (returning an IOError). A reply abandoned this way may
  /// still land later — the buffer under the stamp must then be retired,
  /// not reused (see RpcClient's zombie contexts).
  Status WaitUntil(uint64_t deadline_ns);

  /// The writer's wire completion time; valid after Wait().
  uint64_t completion_ns() const { return completion_ns_; }

 private:
  Env* env_;
  const void* stamp_;
  uint64_t completion_ns_ = 0;
};

}  // namespace rdma
}  // namespace dlsm

#endif  // DLSM_RDMA_RDMA_MANAGER_H_

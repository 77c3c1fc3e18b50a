// A software RDMA fabric.
//
// This is the stand-in for the ibverbs stack + Mellanox EDR ConnectX-4 NIC
// used by the paper (100 Gb/s InfiniBand, ~1.6 us one-sided latency). It
// implements the verbs surface dLSM's RDMA manager needs:
//
//  * Memory registration with rkeys; remote access is validated against the
//    registered regions (an invalid rkey/range completes with an error, as
//    a real RNIC would).
//  * Queue pairs with FIFO send queues and completion queues. Completions
//    become visible when the polling thread's (virtual) clock passes the
//    modeled completion time.
//  * One-sided READ / WRITE / WRITE_WITH_IMM, two-sided SEND / RECV, and
//    ATOMIC FETCH_ADD / CMP_SWAP.
//  * A link model: each node's NIC has a transmit and a receive channel;
//    a transfer of n payload bytes from A to B occupies both channels for
//    n/bandwidth and completes base_latency later:
//        start      = max(now, A.tx_free, B.rx_free)
//        completion = start + n/bandwidth + latency(op)
//        tx_free = rx_free = start + n/bandwidth
//    Small transfers are therefore latency-bound and large transfers
//    bandwidth-bound, reproducing the ~100x 64 B-vs-1 MB throughput gap the
//    paper cites for the RDMA perf-test suite.
//  * A deterministic fault model (FaultParams): seeded per-QP injected
//    error completions, the RC error state machine (a failed WR errors the
//    QP; outstanding and later WRs complete with a WC_WR_FLUSH_ERR analog
//    until Reset()), transient RNR-style delays, and fail-stop
//    crash/restart of whole nodes (CrashNode / RestartNode).
//
// Payload bytes are physically copied between the nodes' DRAM arenas at
// post time; the RDMA contract (do not touch buffers until completion; do
// not read remote data before being told it is there) makes this
// indistinguishable from delayed delivery, and completion timestamps gate
// all signalling paths.

#ifndef DLSM_RDMA_FABRIC_H_
#define DLSM_RDMA_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/env.h"
#include "src/util/fifo.h"
#include "src/util/status.h"

namespace dlsm {
namespace rdma {

class Fabric;
class QueuePair;

/// Deterministic fault-injection knobs; everything is off by default. All
/// rates are per posted send-side WR. Draws come from a per-QP RNG seeded
/// from `seed` and the QP's creation index, so a given (seed, QP, post
/// sequence) faults identically regardless of thread interleaving — the
/// fault sweep relies on this to replay a schedule across environments.
struct FaultParams {
  uint64_t seed = 1;
  /// Probability a posted WR completes with an injected error. The erroring
  /// WR's payload never moves and its queue pair transitions to the error
  /// state (recoverable via QueuePair::Reset()).
  double wr_error_rate = 0.0;
  /// Probability a WR incurs a transient RNR-style retransmission delay
  /// (completes successfully, rnr_delay_ns late).
  double rnr_delay_rate = 0.0;
  uint64_t rnr_delay_ns = 200 * 1000;

  /// When nonzero, the Nth admitted send-side WR fabric-wide (1-based,
  /// counted across all QPs) never completes: its completion time is
  /// parked unreachably far in the future, modeling a lost packet with
  /// retransmission exhausted but no error surfaced — the silent-stall
  /// scenario the watchdog exists for. Per-QP FIFO completion order means
  /// later WRs on the same QP stall behind it, exactly as on an RC queue
  /// pair. Waiting on a stuck WR would block forever (virtual time jumps
  /// to the parked timestamp); detection is the watchdog's job.
  uint64_t stuck_wr_nth = 0;

  bool any() const {
    return wr_error_rate > 0.0 || rnr_delay_rate > 0.0 || stuck_wr_nth > 0;
  }
};

/// Link timing parameters, defaults calibrated to the paper's EDR setup.
struct LinkParams {
  /// Payload bandwidth in gigabits per second.
  double bandwidth_gbps = 100.0;
  /// Per-verb NIC processing occupancy (caps small-message rate at
  /// ~1/overhead ops/s even with deep pipelines, as real RNICs do).
  uint64_t per_op_overhead_ns = 60;
  /// Base latency per verb, nanoseconds.
  uint64_t read_latency_ns = 1600;
  uint64_t write_latency_ns = 1000;
  uint64_t send_latency_ns = 2200;
  uint64_t atomic_latency_ns = 1800;

  double BytesPerNano() const { return bandwidth_gbps / 8.0; }
};

/// A machine in the cluster: a CPU core budget (enforced by SimEnv
/// processor sharing) plus a DRAM arena that memory regions are carved
/// from. The arena is reserved lazily (MAP_NORESERVE) so a "384 GB memory
/// node" does not need physical RAM up front.
class Node {
 public:
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  uint32_t id() const { return id_; }
  /// The SimEnv node id; threads of this machine are started on it.
  int env_node() const { return env_node_; }
  Env* env() const { return env_; }
  Fabric* fabric() const { return fabric_; }

  /// Bump-allocates n bytes (64-byte aligned) of this node's DRAM.
  /// Returns nullptr when the arena is exhausted.
  char* AllocDram(size_t n);

  char* dram_base() const { return dram_; }
  size_t dram_size() const { return dram_size_; }
  size_t dram_used() const { return dram_used_.load(std::memory_order_relaxed); }

  /// True between Fabric::CrashNode and Fabric::RestartNode.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// One-sided RDMA traffic targeting this node's DRAM, summed across
  /// every queue pair on the fabric — the global per-node load gauges the
  /// heat rebalancer reads (a NIC counter on real hardware).
  uint64_t remote_read_ops() const {
    return remote_read_ops_.load(std::memory_order_relaxed);
  }
  uint64_t remote_read_bytes() const {
    return remote_read_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t remote_write_ops() const {
    return remote_write_ops_.load(std::memory_order_relaxed);
  }
  uint64_t remote_write_bytes() const {
    return remote_write_bytes_.load(std::memory_order_relaxed);
  }
  void RecordRemoteRead(size_t len) {
    remote_read_ops_.fetch_add(1, std::memory_order_relaxed);
    remote_read_bytes_.fetch_add(len, std::memory_order_relaxed);
  }
  void RecordRemoteWrite(size_t len) {
    remote_write_ops_.fetch_add(1, std::memory_order_relaxed);
    remote_write_bytes_.fetch_add(len, std::memory_order_relaxed);
  }

 private:
  friend class Fabric;
  Node(Fabric* fabric, Env* env, std::string name, uint32_t id, int env_node,
       size_t dram_bytes);

  Fabric* fabric_;
  Env* env_;
  std::string name_;
  uint32_t id_;
  int env_node_;
  char* dram_;
  size_t dram_size_;
  std::atomic<size_t> dram_used_;
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> remote_read_ops_{0};
  std::atomic<uint64_t> remote_read_bytes_{0};
  std::atomic<uint64_t> remote_write_ops_{0};
  std::atomic<uint64_t> remote_write_bytes_{0};

  // NIC channel occupancy frontiers (virtual ns), guarded by Fabric::mu_.
  uint64_t tx_free_ = 0;
  uint64_t rx_free_ = 0;
};

/// A registered memory region. Remote access requires the matching rkey
/// and must fall inside [addr, addr+length).
struct MemoryRegion {
  uint64_t addr = 0;
  size_t length = 0;
  uint32_t lkey = 0;
  uint32_t rkey = 0;
  uint32_t node_id = 0;
};

/// Verb opcodes.
enum class Opcode : uint8_t {
  kRead,
  kWrite,
  kWriteWithImm,
  kSend,
  kRecv,
  kFetchAdd,
  kCmpSwap,
};

/// A completion queue entry.
struct Completion {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kRead;
  Status status;
  uint32_t byte_len = 0;
  uint32_t imm = 0;
  bool has_imm = false;
  /// Virtual time at which the verb was posted (for wire-latency stats).
  uint64_t post_ns = 0;
  /// Virtual time at which the operation completed on the wire.
  uint64_t completion_ns = 0;
};

/// One endpoint of a connected queue pair. Post* calls are safe from the
/// owning thread; the peer endpoint delivers receive-side completions
/// through an internal lock. By convention (paper Sec. X-B) each thread
/// owns its own QueuePair so completion polling never mixes threads.
class QueuePair {
 public:
  Node* local() const { return local_; }
  Node* peer_node() const;

  /// One-sided read: remote [raddr, raddr+len) -> local dst.
  uint64_t PostRead(void* dst, uint64_t raddr, uint32_t rkey, size_t len,
                    uint64_t wr_id = 0);

  /// One-sided write: local src -> remote [raddr, raddr+len).
  uint64_t PostWrite(const void* src, uint64_t raddr, uint32_t rkey,
                     size_t len, uint64_t wr_id = 0);

  /// One-sided write that also delivers a 4-byte immediate to the peer's
  /// receive completion queue (consuming a posted receive).
  uint64_t PostWriteWithImm(const void* src, uint64_t raddr, uint32_t rkey,
                            size_t len, uint32_t imm, uint64_t wr_id = 0);

  /// One-sided write whose last 8 bytes, at remote raddr+len, are a
  /// nonzero "ready stamp" holding the completion time. Waiters use
  /// ReadReadyStamp() (or Env::WaitWord, which this wakes through
  /// Env::WakeWord after the stamp's release store) to both detect delivery
  /// and preserve virtual-time causality; this models the RNIC's
  /// last-byte-written-last guarantee that one-sided polling protocols
  /// rely on.
  uint64_t PostWriteStamped(const void* src, uint64_t raddr, uint32_t rkey,
                            size_t len, uint64_t wr_id = 0);

  /// Two-sided send to the peer's next posted receive buffer.
  uint64_t PostSend(const void* src, size_t len, uint64_t wr_id = 0);

  /// Posts a receive buffer for incoming SEND (or WRITE_WITH_IMM
  /// notifications, which consume a receive but carry no payload here).
  void PostRecv(void* buf, size_t len, uint64_t wr_id = 0);

  /// 64-bit remote fetch-and-add; the previous value lands in *result.
  uint64_t PostFetchAdd(uint64_t raddr, uint32_t rkey, uint64_t add,
                        uint64_t* result, uint64_t wr_id = 0);

  /// 64-bit remote compare-and-swap; the previous value lands in *result.
  uint64_t PostCmpSwap(uint64_t raddr, uint32_t rkey, uint64_t expected,
                       uint64_t desired, uint64_t* result, uint64_t wr_id = 0);

  /// Nonblocking poll of the send/read/write/atomic completion queue.
  /// Returns the number of completions whose time has been reached.
  int PollCq(Completion* out, int max_entries);

  /// Blocking poll: parks the thread (advancing virtual time) until at
  /// least one completion is ready, then returns it.
  Completion WaitCompletion();

  /// Nonblocking poll of the receive completion queue (SEND arrivals and
  /// WRITE_WITH_IMM notifications).
  int PollRecvCq(Completion* out, int max_entries);

  /// Blocking receive-side poll.
  Completion WaitRecvCompletion();

  /// True once this queue pair is in the error state: posts complete
  /// immediately with the flush status and nothing reaches the wire.
  bool InError() const { return error_.load(std::memory_order_acquire); }

  /// The first error that pushed this QP into the error state (OK when the
  /// QP is healthy).
  Status ErrorCause() const;

  /// Transitions to the error state, as an RNIC does on any WR failure:
  /// every outstanding (not yet wire-complete) send completion is rewritten
  /// to the WC_WR_FLUSH_ERR analog, made immediately pollable in post
  /// order, and every WR posted afterwards completes the same way without
  /// touching the wire or any payload.
  void SetError(const Status& cause);

  /// Leaves the error state (ibverbs ERR -> RESET -> RTS cycle on the same
  /// wiring, i.e. a reconnect). Fails and stays errored while either end's
  /// node is crashed. Completions still queued survive; callers normally
  /// drain them first.
  Status Reset();

  /// The status carried by WRs flushed from an errored QP.
  static Status FlushErr() {
    return Status::IOError("WR flushed: QP in error state");
  }

  /// Number of send-side completions pending (ready or not); the fabric's
  /// view of this QP's in-flight depth.
  size_t send_cq_depth() const;

  /// Post timestamp of the most recent Post* call on this QP (virtual
  /// ns). Owner-thread only — the verb layer reads it immediately after a
  /// post to stamp its outstanding-WR table without a second clock read.
  uint64_t last_post_ns() const { return last_post_ns_; }

  /// Reads a ready stamp written by PostWriteStamped: 0 means not yet
  /// delivered, otherwise the completion time to AdvanceTo().
  static uint64_t ReadReadyStamp(const void* stamp_addr) {
    uint64_t v;
    __atomic_load(reinterpret_cast<const uint64_t*>(stamp_addr), &v,
                  __ATOMIC_ACQUIRE);
    return v;
  }

 private:
  friend class Fabric;
  QueuePair(Fabric* fabric, Node* local) : fabric_(fabric), local_(local) {}

  struct PendingRecv {
    void* buf;
    size_t len;
    uint64_t wr_id;
  };

  void PushSendCompletion(const Completion& c);
  void DeliverToPeer(Opcode op, const void* payload, size_t len, uint32_t imm,
                     bool has_imm, uint64_t completion_ns);

  /// Post prologue: flush-fails *c if the QP is errored, draws the fault
  /// lottery otherwise (an injected error fills *c and errors the QP; a
  /// transient delay adds to *extra_latency_ns). Returns true when the
  /// post should proceed onto the wire.
  bool AdmitPost(Completion* c, uint64_t* extra_latency_ns);
  /// Rewrites every not-yet-complete send CQ entry to the flush status,
  /// pollable at `now`, preserving post order. Requires mu_.
  void FlushSendCqLocked(uint64_t now);
  /// Per-QP deterministic uniform draw in [0,1); owner-thread only.
  double NextUniform();

  Fabric* fabric_;
  Node* local_;
  QueuePair* peer_ = nullptr;
  uint32_t qp_id_ = 0;  // Creation index; seeds the fault RNG.

  mutable std::mutex mu_;  // Guards the queues; never held across Env calls.
  Fifo<Completion> send_cq_;
  Fifo<Completion> recv_cq_;
  Fifo<PendingRecv> recv_queue_;
  uint64_t last_completion_ns_ = 0;  // Enforces per-QP FIFO completion order.
  uint64_t last_post_ns_ = 0;        // Owner-thread only; see last_post_ns().
  uint64_t auto_wr_id_ = 1;

  std::atomic<bool> error_{false};
  Status error_cause_;     // Guarded by mu_.
  uint64_t rng_ = 0;       // Owner-thread only; seeded lazily from fabric.
  bool rng_seeded_ = false;
};

/// The fabric: owns nodes, registrations, link timing and QP wiring.
class Fabric {
 public:
  explicit Fabric(Env* env, LinkParams params = LinkParams());
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  Env* env() const { return env_; }
  const LinkParams& params() const { return params_; }

  /// Adds a machine with the given core budget and DRAM arena size.
  Node* AddNode(const std::string& name, int cores, size_t dram_bytes);

  Node* node(uint32_t id) const { return nodes_[id].get(); }
  size_t num_nodes() const { return nodes_.size(); }

  /// Registers [addr, addr+len) of node's DRAM for remote access,
  /// modeling ibv_reg_mr. The region must lie inside the node's arena.
  MemoryRegion RegisterMemory(Node* node, void* addr, size_t len);

  /// Creates a connected queue pair between two nodes; returns the two
  /// endpoints. Endpoints are owned by the fabric.
  std::pair<QueuePair*, QueuePair*> CreateQpPair(Node* a, Node* b);

  /// Queue-pair endpoints created so far (two per CreateQpPair); the
  /// fabric owns them for its whole lifetime.
  size_t num_qps() const;

  /// Validates a remote access against the registration table.
  Status CheckRemoteAccess(uint32_t rkey, uint64_t addr, size_t len,
                           uint32_t target_node) const;

  /// Installs fault-injection parameters; safe while posts are in flight.
  /// Each post reads one whole FaultParams, the old or the new.
  void set_fault_params(const FaultParams& fp);
  const FaultParams& fault_params() const {
    return *fault_params_.load(std::memory_order_acquire);
  }
  bool faults_enabled() const {
    return faults_enabled_.load(std::memory_order_relaxed);
  }

  /// Fail-stops a node's NIC: every queue pair touching it (either end)
  /// enters the error state and cannot Reset() until RestartNode. The DRAM
  /// arena survives — crash/restart models a fabric-visible outage of the
  /// machine, not loss of its (assumed durable) memory contents.
  void CrashNode(Node* node);
  void RestartNode(Node* node);

  /// Registers a callback fired by CrashNode (crashed = true) and
  /// RestartNode (crashed = false), outside fabric locks, on the
  /// crashing/restarting caller's thread. Compute-side state that must
  /// fail closed across a fault (e.g. the block cache) hooks in here.
  /// Returns an id for RemoveCrashListener.
  uint64_t AddCrashListener(std::function<void(Node*, bool)> listener);
  void RemoveCrashListener(uint64_t id);

  /// Total bytes moved over the wire so far (for data-movement reports).
  uint64_t wire_bytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }
  /// Total verbs executed so far.
  uint64_t wire_ops() const {
    return wire_ops_.load(std::memory_order_relaxed);
  }

 private:
  friend class QueuePair;

  struct Registration {
    uint64_t addr;
    size_t length;
    uint32_t node_id;
  };

  /// Reserves the link for a transfer of len bytes from src to dst at
  /// (virtual) time now; returns the wire completion time.
  /// `now` is the caller's already-taken post timestamp (posts read the
  /// thread-CPU clock exactly once).
  uint64_t ReserveLink(Node* src, Node* dst, size_t len, uint64_t latency_ns,
                       uint64_t now);

  void NotifyCrashListeners(Node* node, bool crashed);

  Env* env_;
  LinkParams params_;
  mutable std::mutex mu_;  // Guards nodes' link state and registrations.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::unordered_map<uint32_t, Registration> registrations_;
  uint32_t next_key_ = 0x1000;
  // The current parameters: an immutable copy swapped in whole. Every copy
  // ever installed lives as long as the fabric (guarded by mu_), so a post
  // still reading an old one never sees it freed.
  std::atomic<const FaultParams*> fault_params_;
  std::vector<std::unique_ptr<const FaultParams>> fault_params_history_;
  std::atomic<bool> faults_enabled_{false};
  /// Admitted send-side posts, counted only while stuck_wr_nth is armed
  /// (the stuck-WR lottery's deterministic draw).
  std::atomic<uint64_t> admitted_posts_{0};
  std::vector<std::pair<uint64_t, std::function<void(Node*, bool)>>>
      crash_listeners_;  // Guarded by mu_; invoked outside it.
  uint64_t next_crash_listener_id_ = 1;
  std::atomic<uint64_t> wire_bytes_{0};
  std::atomic<uint64_t> wire_ops_{0};
};

}  // namespace rdma
}  // namespace dlsm

#endif  // DLSM_RDMA_FABRIC_H_

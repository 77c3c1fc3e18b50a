// Execution environment abstraction.
//
// Engine code never uses std::thread / std::mutex / wall clocks directly;
// it goes through an Env. Two implementations exist:
//
//  * StdEnv  — real OS threads and the monotonic clock. Used by unit tests
//              that exercise true hardware concurrency.
//  * SimEnv  — a discrete-event, virtual-time scheduler that emulates the
//              paper's testbed (a 24-core compute node, a weak-CPU memory
//              node, 100 Gb/s RDMA link) on any machine, including a
//              single-core one. See sim_env.h.
//
// The same engine binary runs under either environment, which is how the
// benchmark figures are regenerated on hardware the paper's authors did not
// have to assume.

#ifndef DLSM_SIM_ENV_H_
#define DLSM_SIM_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace dlsm {

/// Opaque handle to a thread started through an Env.
struct ThreadHandle {
  uint64_t id = 0;
};

/// Internal mutex interface; use the Mutex wrapper below.
class MutexImpl {
 public:
  virtual ~MutexImpl() = default;
  virtual void Lock() = 0;
  virtual void Unlock() = 0;
};

/// Internal condition-variable interface; use the CondVar wrapper below.
class CondVarImpl {
 public:
  virtual ~CondVarImpl() = default;
  /// Atomically releases the bound mutex and waits; reacquires on return.
  virtual void Wait() = 0;
  /// As Wait() but returns true if the deadline elapsed before a signal.
  virtual bool TimedWait(uint64_t timeout_ns) = 0;
  virtual void Signal() = 0;
  virtual void SignalAll() = 0;
};

/// Internal barrier interface; use the Barrier wrapper below.
class BarrierImpl {
 public:
  virtual ~BarrierImpl() = default;
  /// Blocks until all parties arrive. Under SimEnv, all parties leave with
  /// their virtual clocks synchronized to the latest arriver.
  virtual void Arrive() = 0;
};

/// The environment seam: time, threads and synchronization.
class Env {
 public:
  virtual ~Env() = default;

  /// True for SimEnv (virtual time), false for StdEnv (wall time).
  virtual bool is_simulated() const = 0;

  /// Current time in nanoseconds, as observed by the calling thread.
  /// Under SimEnv this is the thread's local virtual time.
  virtual uint64_t NowNanos() = 0;

  /// Lets the specified duration pass without consuming CPU.
  virtual void SleepNanos(uint64_t ns) = 0;

  /// Waits (without consuming CPU) until NowNanos() >= t_ns. Used to wait
  /// for modeled network completions. No-op if t_ns is already in the past.
  virtual void AdvanceTo(uint64_t t_ns) = 0;

  /// Scheduling point for long CPU-bound loops. Cheap; call every few dozen
  /// operations from benchmark and compaction inner loops.
  virtual void MaybeYield() = 0;

  /// Polling hint: lets every other thread that is ready at an earlier time
  /// run before the caller continues. Under StdEnv this is sched_yield().
  /// Under SimEnv the caller's clock jumps just past the earliest other
  /// thread that is not itself parked in YieldToOthers, so concurrent
  /// pollers wait together instead of taking turns. With only pollers left,
  /// past the earliest of them. A parked poller is skipped even if its own
  /// wait is already met, so a wait that depends on another poller's later
  /// work can be over-charged.
  virtual void YieldToOthers() = 0;

  /// Waits until the 8-byte word at addr is nonzero or NowNanos() reaches
  /// deadline_ns, and returns the word (read with acquire), 0 on timeout.
  /// Whoever makes the word nonzero calls WakeWord(addr) after its release
  /// store. The default polls with YieldToOthers. SimEnv parks the caller
  /// instead; WakeWord readies it with the waker's virtual time.
  virtual uint64_t WaitWord(const void* addr, uint64_t deadline_ns);
  /// Wakes the threads parked in WaitWord(addr). One branch when none is.
  virtual void WakeWord(const void* addr) { (void)addr; }

  /// Brackets a region whose host CPU cost must NOT be charged to virtual
  /// time. The fabric uses this around payload copies: a real RNIC moves
  /// bytes by DMA, so the posting thread pays only the (modeled) wire time,
  /// not the host memcpy. No-ops under StdEnv.
  virtual uint64_t UncountedBegin() { return 0; }
  virtual void UncountedEnd(uint64_t token) { (void)token; }

  /// Declares a machine with the given CPU core budget. Threads attributed
  /// to the node share its cores (processor sharing under SimEnv). Returns
  /// the node id. Node 0 always exists ("default", effectively unlimited).
  virtual int RegisterNode(const std::string& name, int cores) = 0;

  /// Starts a thread on the given node. The thread must either be Join()ed
  /// or have finished before the Env is destroyed.
  virtual ThreadHandle StartThread(int node_id, const std::string& name,
                                   std::function<void()> fn) = 0;

  /// Blocks until the thread identified by h has finished.
  virtual void Join(ThreadHandle h) = 0;

  // Identity of the calling thread, for observability (trace pid/tid
  // attribution). Defaults cover environments that do not track identity;
  // threads not started through the Env report id 0 on node 0.

  /// Stable id of the calling thread: creation-order sim thread id under
  /// SimEnv, StartThread registration id under StdEnv, 0 for foreign
  /// threads (e.g. the host main thread).
  virtual uint64_t CurrentThreadId() { return 0; }

  /// Node the calling thread was started on (0 = default node).
  virtual int CurrentNodeId() { return 0; }

  /// The name passed to StartThread; empty for foreign threads.
  virtual std::string CurrentThreadName() { return std::string(); }

  /// The name passed to RegisterNode ("default" for node 0 and for ids the
  /// environment does not know).
  virtual std::string NodeName(int node_id) {
    (void)node_id;
    return "default";
  }

  // Synchronization factories; use the wrappers below.
  virtual MutexImpl* NewMutex() = 0;
  virtual CondVarImpl* NewCondVar(MutexImpl* mu) = 0;
  virtual BarrierImpl* NewBarrier(int parties) = 0;

  /// Returns the process-wide real-time environment.
  static Env* Std();
};

/// Env-aware mutex.
class Mutex {
 public:
  explicit Mutex(Env* env) : impl_(env->NewMutex()) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() { impl_->Lock(); }
  void Unlock() { impl_->Unlock(); }
  MutexImpl* impl() { return impl_.get(); }

 private:
  std::unique_ptr<MutexImpl> impl_;
};

/// Env-aware condition variable bound to a Mutex.
class CondVar {
 public:
  CondVar(Env* env, Mutex* mu) : impl_(env->NewCondVar(mu->impl())) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Requires the bound mutex to be held.
  void Wait() { impl_->Wait(); }
  /// Requires the bound mutex to be held. Returns true on timeout.
  bool TimedWait(uint64_t timeout_ns) { return impl_->TimedWait(timeout_ns); }
  void Signal() { impl_->Signal(); }
  void SignalAll() { impl_->SignalAll(); }

 private:
  std::unique_ptr<CondVarImpl> impl_;
};

/// Env-aware barrier; under SimEnv it also synchronizes virtual clocks.
class Barrier {
 public:
  Barrier(Env* env, int parties) : impl_(env->NewBarrier(parties)) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  void Arrive() { impl_->Arrive(); }

 private:
  std::unique_ptr<BarrierImpl> impl_;
};

/// RAII lock guard for Mutex.
class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace dlsm

#endif  // DLSM_SIM_ENV_H_

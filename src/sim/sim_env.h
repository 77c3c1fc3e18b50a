// SimEnv: a virtual-time, discrete-event execution environment.
//
// The paper's evaluation ran on a testbed we cannot assume: a 24-core
// compute server and a large-memory server joined by a 100 Gb/s RDMA NIC,
// plus 16-node CloudLab clusters. SimEnv reproduces those experiments on a
// small host by decoupling *simulated* time from wall time:
//
//  * Every simulated thread is a real OS thread, but exactly one runs at a
//    time (baton passing). Each carries a "local virtual time" (LVT).
//    Run() pins all of them to one host CPU at a time, and a baton pass is a
//    futex wake of the next thread's word, so the resumed thread starts on
//    the core (and the caches) the previous one just used. The CPU rotates
//    over the caller's mask every kPinPeriodNs of host time.
//  * CPU cost is *measured*: at every scheduling point the thread's
//    CLOCK_THREAD_CPUTIME_ID delta is added to its LVT, scaled by the
//    processor-sharing factor of its node (active_threads / cores when the
//    node is oversubscribed). Real skiplist inserts, memcmp, memcpy and
//    bloom probes therefore cost what they really cost. Where that clock is
//    a syscall, a read within kCpuClockGateNs of the last real one is
//    extrapolated from CLOCK_MONOTONIC instead (see kCpuClockGateNs).
//  * Synchronization transfers causality: acquiring a mutex or receiving a
//    signal advances the receiver's LVT to at least the sender's LVT; the
//    scheduler always resumes the thread with the smallest LVT, so lock
//    queueing and producer/consumer waits play out in virtual time.
//  * A poll (YieldToOthers) moves the poller's LVT just past the earliest
//    thread that is not itself polling, so pollers never take turns with
//    one another. A poll that waits on another poller's later work can be
//    over-charged (see Env::YieldToOthers).
//  * Network delays (the RDMA fabric model) are applied with
//    Env::AdvanceTo(completion_time): the thread is parked, consuming no
//    simulated CPU, until virtual time reaches the completion timestamp.
//
// Throughput numbers are computed from virtual elapsed time across
// Barrier-synchronized regions, so a 16-thread sweep or a 16-node cluster
// behaves as it would on the real testbed even though the host serializes
// all execution.
//
// Approximation note: between scheduling points a thread's LVT is stale, so
// interleavings are accurate only at the granularity of scheduling points
// (mutex ops, condvar ops, network ops, MaybeYield calls). Hot loops call
// Env::MaybeYield() every few dozen iterations to bound the skew.

#ifndef DLSM_SIM_SIM_ENV_H_
#define DLSM_SIM_SIM_ENV_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/env.h"

namespace dlsm {

class SimMutexImpl;
class SimCondVarImpl;
class SimBarrierImpl;

/// Discrete-event virtual-time environment. Create one per simulated
/// experiment, register nodes, then call Run() with the experiment body.
class SimEnv : public Env {
 public:
  struct Options {
    Options() {}
    /// Multiplier from measured host CPU nanoseconds to virtual
    /// nanoseconds, before processor sharing. Calibrates the host core to
    /// the modeled testbed core.
    double cpu_scale = 1.0;
  };

  SimEnv() : SimEnv(Options()) {}
  explicit SimEnv(Options options);
  ~SimEnv() override;

  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  /// Runs root() as the first simulated thread, attributed to node_id.
  /// Returns once every simulated thread has finished. May be called once.
  /// The caller and every simulated thread are pinned to one host CPU at a
  /// time, starting with the one the caller is on at entry (unpinned if the
  /// kernel refuses); the caller's affinity mask is restored on return.
  void Run(int node_id, std::function<void()> root);

  /// Host time between moves of the pin to the next CPU of Run's caller
  /// mask. One vCPU of a shared host runs at one speed for up to seconds and
  /// at another after. Moving the pin makes a long run's host cost the
  /// average over the CPUs instead of one CPU's luck, while a Run shorter
  /// than the period (a unit test's measurement) stays on one CPU.
  static constexpr uint64_t kPinPeriodNs = 200'000'000;

  /// Window of host monotonic time after a real CLOCK_THREAD_CPUTIME_ID read
  /// in which a simulated thread's CPU clock is read as that value plus the
  /// monotonic time since, instead of another read (a syscall where the
  /// clock is not in the vDSO). A thread's CPU time grows no faster than
  /// wall time, so the estimate runs ahead only by time the thread spent
  /// off-CPU inside the window (plus under half a read, for when inside the
  /// read the kernel sampled); host preemptions last milliseconds, so the
  /// gate leaves them to the next real read. Per-thread reads never
  /// decrease. A thread's slice always starts on a real read.
  static constexpr uint64_t kCpuClockGateNs = 10'000;

  // Env interface -----------------------------------------------------------
  bool is_simulated() const override { return true; }
  uint64_t NowNanos() override;
  void SleepNanos(uint64_t ns) override;
  void AdvanceTo(uint64_t t_ns) override;
  void MaybeYield() override;
  void YieldToOthers() override;
  uint64_t UncountedBegin() override;
  void UncountedEnd(uint64_t token) override;
  int RegisterNode(const std::string& name, int cores) override;
  ThreadHandle StartThread(int node_id, const std::string& name,
                           std::function<void()> fn) override;
  void Join(ThreadHandle h) override;
  uint64_t CurrentThreadId() override;
  int CurrentNodeId() override;
  std::string CurrentThreadName() override;
  std::string NodeName(int node_id) override;
  MutexImpl* NewMutex() override;
  CondVarImpl* NewCondVar(MutexImpl* mu) override;
  BarrierImpl* NewBarrier(int parties) override;

  // Internal scheduler types, public so the sim synchronization primitives
  // and the thread-local current-thread pointer can reach them. Not part of
  // the supported API.
  enum class State { kReady, kRunning, kTimed, kBlocked, kFinished };

  struct SimThread {
    uint64_t id = 0;
    std::string name;
    int node = 0;
    State state = State::kReady;
    uint64_t lvt = 0;
    uint64_t wake_time = UINT64_MAX;  // Valid when state == kTimed.
    bool timed_out = false;           // Set when woken by deadline expiry.
    // Futex word the parked OS thread sleeps on; 1 = holds the baton. The
    // thread passing the baton sets it and wakes the sleeper after it has
    // released gm_; the owner clears it once it runs.
    std::atomic<uint32_t> baton{0};
    int cpu = -1;  // Host CPU its OS thread is pinned to; -1 = unknown.
    uint64_t cpu_start = 0;      // Thread-CPU ns at slice start.
    double factor_cache = 1.0;   // Processor-sharing factor at slice start.
    // Gated CPU clock (CpuNanos): the last real thread-CPU read, the
    // monotonic time it was taken at, and the largest value returned.
    // Touched only by the thread itself.
    uint64_t anchor_cpu = 0;
    uint64_t anchor_mono = 0;
    uint64_t cpu_read = 0;
    bool polling = false;  // Parked in YieldToOthers.
    std::function<void()> fn;
    std::thread os_thread;
    std::vector<SimThread*> joiners;
  };

  struct SimNode {
    std::string name;
    int cores = 0;   // 0 = unlimited.
    int active = 0;  // Threads in kReady or kRunning.
  };

  static uint64_t ThreadCpuNanos();
  /// The calling thread t's CPU clock, gated by kCpuClockGateNs; real reads
  /// it and re-anchors. Never less than an earlier return for t.
  static uint64_t CpuNanos(SimThread* t, bool real = false);
  SimThread* Current();

  // All of the below require gm_ to be held.
  double FactorLocked(int node) const;
  void SetStateLocked(SimThread* t, State s);
  void ChargeCpuLocked(SimThread* self);
  void StartSliceLocked(SimThread* t);
  /// The virtual time t is due to run at (its LVT if ready, its wake time
  /// if timed); false if t is not schedulable.
  static bool DueAtLocked(const SimThread* t, uint64_t* key);
  SimThread* PickNextLocked();
  /// Makes t runnable with causality from_lvt; caller sets any
  /// mutex-handoff state first.
  void MakeReadyLocked(SimThread* t, uint64_t from_lvt);
  /// Parks self (already moved to a non-running state) and resumes the best
  /// next thread. Returns, with lk held again, when self is scheduled again.
  void SwitchOutLocked(SimThread* self, std::unique_lock<std::mutex>& lk);
  void ResumeLocked(SimThread* t);
  /// Moves the pin to the next CPU once kPinPeriodNs has passed since the
  /// last move. Called on a baton pass; each thread follows as it resumes.
  void RotatePinLocked();
  /// Pins the calling thread t to the current pin CPU if it is elsewhere.
  void FollowPinLocked(SimThread* t);
  /// Retires self and marks the best next thread running. Returns that
  /// thread, which the caller must Wake() after releasing gm_, or nullptr
  /// once no thread remains.
  SimThread* FinishThreadLocked(SimThread* self);
  [[noreturn]] void DeadlockAbortLocked();

  void ThreadBody(SimThread* t);

  Options options_;
  std::mutex gm_;
  std::condition_variable all_done_cv_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  uint64_t next_thread_id_ = 1;
  int live_threads_ = 0;
  bool ran_ = false;
  // The caller's CPUs, in order; empty when Run could not pin. The pin is
  // pin_cpus_[pin_] until host monotonic time pin_until_ns_.
  std::vector<int> pin_cpus_;
  size_t pin_ = 0;
  uint64_t pin_until_ns_ = 0;
};

}  // namespace dlsm

#endif  // DLSM_SIM_SIM_ENV_H_

// SimEnv: a virtual-time, discrete-event execution environment.
//
// The paper's evaluation ran on a testbed we cannot assume: a 24-core
// compute server and a large-memory server joined by a 100 Gb/s RDMA NIC,
// plus 16-node CloudLab clusters. SimEnv reproduces those experiments on a
// small host by decoupling *simulated* time from wall time:
//
//  * Every simulated thread is a fiber with a stack of its own, and all of
//    them run on Run()'s calling OS thread, one at a time. Each carries a
//    "local virtual time" (LVT). Passing control to the next thread is one
//    user-space jump (sigsetjmp/siglongjmp, saving no signal mask): no
//    syscall, no kernel wake and no kernel context switch. A fiber is
//    entered the first time with makecontext/setcontext. Run() pins that OS
//    thread to one host CPU at a time and rotates the pin over the caller's
//    mask every kPinPeriodNs of host time.
//  * CPU cost is *measured*: at every scheduling point the thread's
//    CLOCK_THREAD_CPUTIME_ID delta since its slice started is added to its
//    LVT, scaled by the processor-sharing factor of its node
//    (active_threads / cores when the node is oversubscribed). Real skiplist
//    inserts, memcmp, memcpy and bloom probes therefore cost what they
//    really cost, and the context switch between two slices is charged to
//    neither. Where that clock is a syscall, a read within kCpuClockGateNs
//    of the last real one is extrapolated from the CPU's tick counter
//    instead (see kCpuClockGateNs).
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
//    simulated CPU, until virtual time reaches the completion timestamp. A
//    thread waiting for a one-sided write's ready stamp parks in WaitWord
//    until the writer's WakeWord, instead of polling.
//
// Throughput numbers are computed from virtual elapsed time across
// Barrier-synchronized regions, so a 16-thread sweep or a 16-node cluster
// behaves as it would on the real testbed even though the host serializes
// all execution. Per-thread engine state (ThreadLocal, thread_slots.h) is
// per simulated thread: each fiber installs its own slot table.
//
// Approximation note: between scheduling points a thread's LVT is stale, so
// interleavings are accurate only at the granularity of scheduling points
// (mutex ops, condvar ops, network ops, MaybeYield calls). Hot loops call
// Env::MaybeYield() every few dozen iterations to bound the skew.

#ifndef DLSM_SIM_SIM_ENV_H_
#define DLSM_SIM_SIM_ENV_H_

#include <setjmp.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/env.h"
#include "src/util/thread_slots.h"

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
  /// Every simulated thread runs on the calling OS thread, which is pinned
  /// to one host CPU at a time, starting with the one it is on at entry
  /// (unpinned if the kernel refuses); its affinity mask is restored on
  /// return. SimEnv takes no locks: call it from its simulated threads, or
  /// from one host thread before or after Run.
  void Run(int node_id, std::function<void()> root);

  /// Stack reserved per simulated thread (the pthread default), plus one
  /// guard page below it. Pages are committed only as they are touched.
  static constexpr size_t kStackBytes = 8 << 20;

  /// Host time between moves of the pin to the next CPU of Run's caller
  /// mask. One vCPU of a shared host runs at one speed for up to seconds and
  /// at another after. Moving the pin makes a long run's host cost the
  /// average over the CPUs instead of one CPU's luck, while a Run shorter
  /// than the period (a unit test's measurement) stays on one CPU.
  static constexpr uint64_t kPinPeriodNs = 200'000'000;

  /// Window of host time after a real CLOCK_THREAD_CPUTIME_ID read in which
  /// a simulated thread's CPU clock is read as that value plus the time
  /// since, instead of another read (a syscall where the clock is not in the
  /// vDSO). The time since is the CPU's tick counter (Ticks) scaled by
  /// NanosPerTick: a register read, where CLOCK_MONOTONIC is a vDSO call. A
  /// thread's CPU time grows no faster than wall time, so the estimate runs
  /// ahead only by time the thread spent off-CPU inside the window (plus
  /// under half a read, for when inside the read the kernel sampled); host
  /// preemptions last milliseconds, so the gate leaves them to the next real
  /// read. Moving the pin to another CPU, whose counter may be offset,
  /// ends the window. Reads never decrease. Every simulated thread shares
  /// the one OS thread's clock, so a slice starts on a gated read too.
  static constexpr uint64_t kCpuClockGateNs = 10'000;

  // Env interface -----------------------------------------------------------
  bool is_simulated() const override { return true; }
  uint64_t NowNanos() override;
  void SleepNanos(uint64_t ns) override;
  void AdvanceTo(uint64_t t_ns) override;
  void MaybeYield() override;
  void YieldToOthers() override;
  uint64_t WaitWord(const void* addr, uint64_t deadline_ns) override;
  void WakeWord(const void* addr) override;
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
  // and tests can reach them. Not part of the supported API. Everything
  // below runs on Run()'s OS thread, one simulated thread at a time, so it
  // needs no lock.
  enum class State { kReady, kRunning, kTimed, kBlocked, kFinished };

  struct SimThread {
    SimEnv* env = nullptr;
    uint64_t id = 0;
    std::string name;
    int node = 0;
    State state = State::kReady;
    uint64_t lvt = 0;
    uint64_t wake_time = UINT64_MAX;  // Valid when state == kTimed.
    bool timed_out = false;           // Set when woken by deadline expiry.
    uint64_t cpu_start = 0;      // Thread-CPU ns at slice start.
    double factor_cache = 1.0;   // Processor-sharing factor at slice start.
    bool polling = false;  // Parked in YieldToOthers.
    const void* wait_word = nullptr;  // Parked in WaitWord on this word.
    std::function<void()> fn;
    std::vector<SimThread*> joiners;
    // The fiber: where it resumes, saved each time it switches out (until
    // it is first entered, at FiberMain), and its stack mapping (guard page
    // first), freed by the next fiber to run once the thread has finished.
    sigjmp_buf jmp;
    bool entered = false;
    char* stack = nullptr;
    ThreadSlots slots;
    void* tsan_fiber = nullptr;      // ThreadSanitizer builds only.
    void* asan_fake_stack = nullptr;  // AddressSanitizer builds only.
  };

  struct SimNode {
    std::string name;
    int cores = 0;   // 0 = unlimited.
    int active = 0;  // Threads in kReady or kRunning.
  };

  static uint64_t ThreadCpuNanos();
  /// The CPU's time-stamp counter (CLOCK_MONOTONIC nanoseconds where there
  /// is none). Counters of different CPUs may be offset from one another.
  static uint64_t Ticks();
  /// Host nanoseconds per Ticks() tick, calibrated against CLOCK_MONOTONIC
  /// once per process, on first use.
  static double NanosPerTick();
  /// The OS thread's CPU clock, gated by kCpuClockGateNs. Never less than
  /// an earlier return.
  uint64_t CpuNanos();
  SimThread* Current();

  double Factor(int node) const;
  void SetState(SimThread* t, State s);
  void ChargeCpu(SimThread* self);
  void StartSlice(SimThread* t);
  /// The virtual time t is due to run at (its LVT if ready, its wake time
  /// if timed); false if t is not schedulable.
  static bool DueAt(const SimThread* t, uint64_t* key);
  SimThread* PickNext();
  /// Makes t runnable with causality from_lvt; caller sets any
  /// mutex-handoff state first.
  void MakeReady(SimThread* t, uint64_t from_lvt);
  /// Resumes the best next thread in place of self, which is already in a
  /// non-running state. Returns when self is scheduled again, with a new
  /// slice started.
  void SwitchOut(SimThread* self);
  void Resume(SimThread* t);
  /// Switches the OS thread from the running fiber (nullptr: Run's own
  /// context) to `to` (nullptr: back to Run): saves where `from` resumes
  /// and jumps to where `to` does, or enters `to` at FiberMain on its first
  /// run. A finished `from` never returns.
  void SwitchTo(SimThread* from, SimThread* to);
  /// First thing a context does once switched to: completes the sanitizer
  /// hand-off and unmaps the stack of a thread that just finished.
  void SwitchedIn(SimThread* self);
  /// Moves the pin to the next CPU once kPinPeriodNs has passed since the
  /// last move, and ends CpuNanos's gate window. Called on a switch between
  /// threads.
  void RotatePin();
  /// A thread with its fiber, not yet runnable.
  SimThread* NewThread(int node_id, const std::string& name,
                       std::function<void()> fn);
  [[noreturn]] void DeadlockAbort();

  /// Entry point of every fiber: runs the thread tls_current names.
  static void FiberMain();

  Options options_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  uint64_t next_thread_id_ = 1;
  int live_threads_ = 0;
  bool ran_ = false;
  std::vector<SimThread*> word_parked_;  // Parked in WaitWord.
  // Where Run()'s own context resumes once every simulated thread has
  // finished.
  sigjmp_buf host_jmp_;
  void* host_tsan_fiber_ = nullptr;
  void* host_asan_fake_stack_ = nullptr;
  const void* host_stack_bottom_ = nullptr;
  size_t host_stack_size_ = 0;
  SimThread* finished_ = nullptr;  // Its stack awaits SwitchedIn.
  // NanosPerTick in 32.32 fixed point (a gated read's ticks times it fit
  // 64 bits), and kCpuClockGateNs and kPinPeriodNs in ticks.
  uint64_t ns_per_tick_q32_;
  uint64_t gate_ticks_;
  uint64_t pin_period_ticks_;
  // Gated CPU clock (CpuNanos): the last real thread-CPU read, the tick it
  // was taken at, and the largest value returned.
  uint64_t anchor_cpu_ = 0;
  uint64_t anchor_tick_ = 0;
  uint64_t cpu_read_ = 0;
  // The caller's CPUs, in order; empty when Run could not pin. The pin is
  // pin_cpus_[pin_] until tick pin_until_tick_.
  std::vector<int> pin_cpus_;
  size_t pin_ = 0;
  uint64_t pin_until_tick_ = 0;
};

}  // namespace dlsm

#endif  // DLSM_SIM_SIM_ENV_H_

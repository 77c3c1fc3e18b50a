// glibc's fortified siglongjmp (__longjmp_chk) aborts a jump to a lower
// address on another stack, which a jump to another fiber often is.
#ifdef _FORTIFY_SOURCE
#undef _FORTIFY_SOURCE
#endif

#include "src/sim/sim_env.h"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>

#include "src/util/logging.h"

// Sanitizer builds are told about every fiber and every switch between
// fibers; otherwise ThreadSanitizer sees one thread's stack change under it
// and AddressSanitizer loses track of which stack is live.
#if defined(__SANITIZE_ADDRESS__)
#define DLSM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLSM_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DLSM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DLSM_TSAN_FIBERS 1
#endif
#endif
#ifdef DLSM_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef DLSM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace dlsm {

namespace {
// The simulated thread whose fiber the calling OS thread is running.
thread_local SimEnv::SimThread* tls_current = nullptr;

size_t GuardBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

bool PinSelfTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

uint64_t MonotonicNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Host time NanosPerTick counts ticks over.
constexpr uint64_t kTickCalibrationNs = 2'000'000;

// A tick read and the CLOCK_MONOTONIC time it was taken at: the midpoint of
// the tightest of a few monotonic reads around it, so a preemption between
// two reads cannot skew the pair.
uint64_t TickAt(uint64_t* mono) {
  uint64_t tick = 0;
  uint64_t best = UINT64_MAX;
  for (int i = 0; i < 16; i++) {
    const uint64_t before = MonotonicNanos();
    const uint64_t t = SimEnv::Ticks();
    const uint64_t after = MonotonicNanos();
    if (after - before < best) {
      best = after - before;
      tick = t;
      *mono = before + best / 2;
    }
  }
  return tick;
}

// A thread's first run: FiberMain on the thread's own stack. The jump
// leaves the switching context as a siglongjmp would.
[[noreturn]] void EnterFiber(SimEnv::SimThread* t) {
  ucontext_t ctx;
  DLSM_CHECK(getcontext(&ctx) == 0);
  ctx.uc_stack.ss_sp = t->stack + GuardBytes();
  ctx.uc_stack.ss_size = SimEnv::kStackBytes;
  ctx.uc_link = nullptr;  // FiberMain never returns.
  makecontext(&ctx, &SimEnv::FiberMain, 0);
#ifdef DLSM_ASAN_FIBERS
  // ASan's siglongjmp does this too: clear the poison of the frames left
  // behind, which a finished thread's unmapped stack would otherwise keep.
  __asan_handle_no_return();
#endif
  setcontext(&ctx);
  std::abort();
}
}  // namespace

// ---------------------------------------------------------------------------
// Sim synchronization primitives
// ---------------------------------------------------------------------------

/// Virtual-time mutex with FIFO handoff: the releaser passes ownership
/// directly to the head waiter, whose LVT is advanced to the releaser's, so
/// contention queues in virtual time.
class SimMutexImpl : public MutexImpl {
 public:
  explicit SimMutexImpl(SimEnv* env) : env_(env) {}

  void Lock() override {
    SimEnv::SimThread* self = env_->Current();
    env_->ChargeCpu(self);
    LockHeld(self);
  }

  void Unlock() override {
    SimEnv::SimThread* self = env_->Current();
    env_->ChargeCpu(self);
    UnlockHeld(self);
  }

 private:
  friend class SimCondVarImpl;

  // May park the caller until ownership is handed off.
  void LockHeld(SimEnv::SimThread* self) {
    if (holder_ == nullptr) {
      holder_ = self;
      self->lvt = std::max(self->lvt, release_lvt_);
      return;
    }
    parked_.push_back(self);
    env_->SetState(self, SimEnv::State::kBlocked);
    env_->SwitchOut(self);
    DLSM_CHECK(holder_ == self);  // FIFO handoff.
  }

  void UnlockHeld(SimEnv::SimThread* self) {
    DLSM_CHECK_MSG(holder_ == self, "unlock by non-holder");
    release_lvt_ = std::max(release_lvt_, self->lvt);
    if (parked_.empty()) {
      holder_ = nullptr;
    } else {
      SimEnv::SimThread* next = parked_.front();
      parked_.pop_front();
      holder_ = next;
      env_->MakeReady(next, self->lvt);
    }
  }

  SimEnv* env_;
  SimEnv::SimThread* holder_ = nullptr;
  uint64_t release_lvt_ = 0;
  std::deque<SimEnv::SimThread*> parked_;
};

/// Virtual-time condition variable. Signal() transfers causality: the woken
/// waiter's LVT becomes at least the signaler's.
class SimCondVarImpl : public CondVarImpl {
 public:
  SimCondVarImpl(SimEnv* env, SimMutexImpl* mu) : env_(env), mu_(mu) {}

  void Wait() override { WaitInternal(UINT64_MAX); }

  bool TimedWait(uint64_t timeout_ns) override {
    return WaitInternal(timeout_ns);
  }

  void Signal() override {
    SimEnv::SimThread* self = env_->Current();
    env_->ChargeCpu(self);
    if (!parked_.empty()) {
      WakeOne(self->lvt);
    }
  }

  void SignalAll() override {
    SimEnv::SimThread* self = env_->Current();
    env_->ChargeCpu(self);
    while (!parked_.empty()) {
      WakeOne(self->lvt);
    }
  }

 private:
  // Requires non-empty parked_.
  void WakeOne(uint64_t from_lvt) {
    SimEnv::SimThread* w = parked_.front();
    parked_.pop_front();
    w->timed_out = false;
    env_->MakeReady(w, from_lvt);
  }

  bool WaitInternal(uint64_t timeout_ns) {
    SimEnv::SimThread* self = env_->Current();
    env_->ChargeCpu(self);
    mu_->UnlockHeld(self);
    parked_.push_back(self);
    if (timeout_ns == UINT64_MAX) {
      env_->SetState(self, SimEnv::State::kBlocked);
    } else {
      self->wake_time = self->lvt + timeout_ns;
      env_->SetState(self, SimEnv::State::kTimed);
    }
    self->timed_out = false;
    env_->SwitchOut(self);
    bool timed_out = self->timed_out;
    if (timed_out) {
      // Deadline expiry: remove ourselves from the wait list.
      auto it = std::find(parked_.begin(), parked_.end(), self);
      if (it != parked_.end()) parked_.erase(it);
    }
    mu_->LockHeld(self);
    return timed_out;
  }

  SimEnv* env_;
  SimMutexImpl* mu_;
  std::deque<SimEnv::SimThread*> parked_;
};

/// Virtual-time barrier: all parties leave with LVT equal to the maximum
/// LVT among arrivers, making before/after timing reads well-defined.
class SimBarrierImpl : public BarrierImpl {
 public:
  SimBarrierImpl(SimEnv* env, int parties) : env_(env), parties_(parties) {}

  void Arrive() override {
    SimEnv::SimThread* self = env_->Current();
    env_->ChargeCpu(self);
    max_lvt_ = std::max(max_lvt_, self->lvt);
    if (++arrived_ == parties_) {
      arrived_ = 0;
      uint64_t m = max_lvt_;
      max_lvt_ = 0;
      self->lvt = m;
      for (SimEnv::SimThread* w : parked_) {
        env_->MakeReady(w, m);
      }
      parked_.clear();
    } else {
      parked_.push_back(self);
      env_->SetState(self, SimEnv::State::kBlocked);
      env_->SwitchOut(self);
    }
  }

 private:
  SimEnv* env_;
  int parties_;
  int arrived_ = 0;
  uint64_t max_lvt_ = 0;
  std::vector<SimEnv::SimThread*> parked_;
};

// ---------------------------------------------------------------------------
// SimEnv
// ---------------------------------------------------------------------------

SimEnv::SimEnv(Options options)
    : options_(options),
      ns_per_tick_q32_(static_cast<uint64_t>(NanosPerTick() * 0x1p32)),
      gate_ticks_(static_cast<uint64_t>(kCpuClockGateNs / NanosPerTick())),
      pin_period_ticks_(static_cast<uint64_t>(kPinPeriodNs / NanosPerTick())) {
  auto node0 = std::make_unique<SimNode>();
  node0->name = "default";
  node0->cores = 0;  // Unlimited.
  nodes_.push_back(std::move(node0));
}

SimEnv::~SimEnv() {
  // Threads started but never run (no Run call) still hold their stacks.
  for (auto& t : threads_) {
    if (t->stack == nullptr) continue;
    munmap(t->stack, GuardBytes() + kStackBytes);
#ifdef DLSM_TSAN_FIBERS
    __tsan_destroy_fiber(t->tsan_fiber);
#endif
  }
}

uint64_t SimEnv::ThreadCpuNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t SimEnv::Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return MonotonicNanos();
#endif
}

double SimEnv::NanosPerTick() {
  static const double ns_per_tick = [] {
    uint64_t mono0 = 0;
    uint64_t mono1 = 0;
    const uint64_t tick0 = TickAt(&mono0);
    while (MonotonicNanos() - mono0 < kTickCalibrationNs) {
    }
    const uint64_t tick1 = TickAt(&mono1);
    DLSM_CHECK_MSG(tick1 > tick0, "the tick counter does not advance");
    return static_cast<double>(mono1 - mono0) /
           static_cast<double>(tick1 - tick0);
  }();
  return ns_per_tick;
}

uint64_t SimEnv::CpuNanos() {
  uint64_t cpu;
  const uint64_t now = Ticks();
  // A tick before the anchor (another CPU's counter) wraps past the gate.
  const uint64_t since = now - anchor_tick_;
  if (since < gate_ticks_) {
    cpu = anchor_cpu_ + ((since * ns_per_tick_q32_) >> 32);
  } else {
    // The kernel samples the clock inside the read: anchor at the read's
    // midpoint (its end would drop half a read from the next charge).
    cpu = anchor_cpu_ = ThreadCpuNanos();
    anchor_tick_ = now + (Ticks() - now) / 2;
  }
  cpu_read_ = std::max(cpu_read_, cpu);
  return cpu_read_;
}

SimEnv::SimThread* SimEnv::Current() {
  DLSM_CHECK_MSG(tls_current != nullptr && tls_current->env == this,
                 "Env call from a thread not managed by this SimEnv");
  return tls_current;
}

double SimEnv::Factor(int node) const {
  const SimNode& n = *nodes_[node];
  if (n.cores <= 0 || n.active <= n.cores) return 1.0;
  return static_cast<double>(n.active) / static_cast<double>(n.cores);
}

void SimEnv::SetState(SimThread* t, State s) {
  auto counts = [](State st) {
    return st == State::kReady || st == State::kRunning;
  };
  bool was = counts(t->state);
  bool now = counts(s);
  if (was && !now) nodes_[t->node]->active--;
  if (!was && now) nodes_[t->node]->active++;
  t->state = s;
}

void SimEnv::ChargeCpu(SimThread* self) {
  uint64_t now = CpuNanos();
  uint64_t delta = now > self->cpu_start ? now - self->cpu_start : 0;
  self->cpu_start = now;
  double factor = Factor(self->node);
  self->lvt += static_cast<uint64_t>(static_cast<double>(delta) * factor *
                                     options_.cpu_scale);
}

void SimEnv::RotatePin() {
  if (pin_cpus_.size() < 2) return;
  const uint64_t now = Ticks();
  if (now < pin_until_tick_) return;
  pin_ = (pin_ + 1) % pin_cpus_.size();
  pin_until_tick_ = now + pin_period_ticks_;
  // Between two slices: the migration is host scheduling, not modeled work.
  PinSelfTo(pin_cpus_[pin_]);
  // The new CPU's counter may be offset from the old one's: the next
  // CpuNanos is a real read.
  anchor_tick_ = Ticks() - gate_ticks_;
}

void SimEnv::StartSlice(SimThread* t) {
  // A gated read: the OS thread never parked, so the clock read that ended
  // the last slice anchors this one, and the switch between them is
  // charged to neither.
  t->cpu_start = CpuNanos();
  t->factor_cache = Factor(t->node);
}

bool SimEnv::DueAt(const SimThread* t, uint64_t* key) {
  if (t->state == State::kReady) {
    *key = t->lvt;
  } else if (t->state == State::kTimed) {
    *key = t->wake_time;
  } else {
    return false;
  }
  return true;
}

SimEnv::SimThread* SimEnv::PickNext() {
  SimThread* best = nullptr;
  uint64_t best_key = UINT64_MAX;
  for (auto& tp : threads_) {
    SimThread* t = tp.get();
    uint64_t key;
    if (!DueAt(t, &key)) continue;
    if (key < best_key || (key == best_key && best != nullptr &&
                           t->id < best->id)) {
      best_key = key;
      best = t;
    }
  }
  return best;
}

void SimEnv::MakeReady(SimThread* t, uint64_t from_lvt) {
  t->lvt = std::max(t->lvt, from_lvt);
  t->wake_time = UINT64_MAX;
  SetState(t, State::kReady);
}

void SimEnv::Resume(SimThread* t) {
  if (t->state == State::kTimed) {
    // Deadline expiry path.
    t->lvt = std::max(t->lvt, t->wake_time);
    t->wake_time = UINT64_MAX;
    t->timed_out = true;
    SetState(t, State::kReady);
  }
  DLSM_CHECK(t->state == State::kReady);
  SetState(t, State::kRunning);
}

void SimEnv::SwitchTo(SimThread* from, SimThread* to) {
  // No signal mask is saved or restored, so the switch makes no syscall.
  // `from` resumes here, with sigsetjmp returning 1.
  if (sigsetjmp(from != nullptr ? from->jmp : host_jmp_, 0) != 0) {
    SwitchedIn(from);
    return;
  }
  tls_current = to;
  ThreadSlots::Install(to != nullptr ? &to->slots : nullptr);
#ifdef DLSM_ASAN_FIBERS
  // A finished fiber passes no fake-stack slot, so ASan frees its fake
  // stack.
  void** fake_stack = from == nullptr ? &host_asan_fake_stack_
                      : from->state == State::kFinished
                          ? nullptr
                          : &from->asan_fake_stack;
  if (to != nullptr) {
    __sanitizer_start_switch_fiber(fake_stack, to->stack + GuardBytes(),
                                   kStackBytes);
  } else {
    __sanitizer_start_switch_fiber(fake_stack, host_stack_bottom_,
                                   host_stack_size_);
  }
#endif
#ifdef DLSM_TSAN_FIBERS
  __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber : host_tsan_fiber_,
                         0);
#endif
  if (to != nullptr && !to->entered) {
    to->entered = true;
    EnterFiber(to);
  }
  siglongjmp(to != nullptr ? to->jmp : host_jmp_, 1);
}

void SimEnv::SwitchedIn(SimThread* self) {
#ifdef DLSM_ASAN_FIBERS
  const void* from_bottom = nullptr;
  size_t from_size = 0;
  __sanitizer_finish_switch_fiber(
      self != nullptr ? self->asan_fake_stack : host_asan_fake_stack_,
      &from_bottom, &from_size);
  // Run's context switches away once, to the root thread, which is the
  // first to finish a switch: what it switched from is Run's stack.
  if (host_stack_size_ == 0) {
    host_stack_bottom_ = from_bottom;
    host_stack_size_ = from_size;
  }
#endif
  (void)self;
  if (finished_ != nullptr) {
    munmap(finished_->stack, GuardBytes() + kStackBytes);
    finished_->stack = nullptr;
#ifdef DLSM_TSAN_FIBERS
    __tsan_destroy_fiber(finished_->tsan_fiber);
    finished_->tsan_fiber = nullptr;
#endif
    finished_ = nullptr;
  }
}

void SimEnv::SwitchOut(SimThread* self) {
  SimThread* next = PickNext();
  if (next == nullptr) {
    DeadlockAbort();
  }
  Resume(next);
  if (next != self) {
    RotatePin();
    SwitchTo(self, next);
    // Scheduled again; whoever switched back set our state to kRunning.
  }
  StartSlice(self);
}

void SimEnv::FiberMain() {
  SimThread* t = tls_current;
  SimEnv* env = t->env;
  env->SwitchedIn(t);
  env->StartSlice(t);
  t->fn();
  env->ChargeCpu(t);
  for (SimThread* j : t->joiners) {
    env->MakeReady(j, t->lvt);
  }
  t->joiners.clear();
  env->SetState(t, State::kFinished);
  env->live_threads_--;
  // Outside the slice, as a thread's destructors ran after its exit.
  t->slots.Clear();
  SimThread* next = env->PickNext();
  if (next == nullptr && env->live_threads_ > 0) {
    env->DeadlockAbort();
  }
  if (next != nullptr) {
    env->Resume(next);
    env->RotatePin();
  }
  // The next context to run unmaps this stack; this call never returns.
  env->finished_ = t;
  env->SwitchTo(t, next);
  std::abort();
}

SimEnv::SimThread* SimEnv::NewThread(int node_id, const std::string& name,
                                     std::function<void()> fn) {
  DLSM_CHECK_MSG(node_id >= 0 && node_id < static_cast<int>(nodes_.size()),
                 "unknown node id");
  auto nt = std::make_unique<SimThread>();
  SimThread* t = nt.get();
  t->env = this;
  t->id = next_thread_id_++;
  t->name = name;
  t->node = node_id;
  t->fn = std::move(fn);
  t->state = State::kBlocked;  // Not counted active until made runnable.
  void* m = mmap(nullptr, GuardBytes() + kStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  DLSM_CHECK_MSG(m != MAP_FAILED, "cannot map a simulated thread's stack");
  DLSM_CHECK(mprotect(m, GuardBytes(), PROT_NONE) == 0);
  t->stack = static_cast<char*>(m);
#ifdef DLSM_TSAN_FIBERS
  t->tsan_fiber = __tsan_create_fiber(0);
#endif
  threads_.push_back(std::move(nt));
  live_threads_++;
  return t;
}

void SimEnv::DeadlockAbort() {
  std::fprintf(stderr,
               "SimEnv: DEADLOCK — no runnable or timed thread remains.\n");
  for (auto& t : threads_) {
    const char* s = "?";
    switch (t->state) {
      case State::kReady:
        s = "ready";
        break;
      case State::kRunning:
        s = "running";
        break;
      case State::kTimed:
        s = "timed";
        break;
      case State::kBlocked:
        s = "blocked";
        break;
      case State::kFinished:
        s = "finished";
        break;
    }
    std::fprintf(stderr, "  thread %" PRIu64 " [%s] node=%d state=%s lvt=%" PRIu64
                         " wake=%" PRIu64 "\n",
                 t->id, t->name.c_str(), t->node, s, t->lvt, t->wake_time);
  }
  std::abort();
}

void SimEnv::Run(int node_id, std::function<void()> root) {
  DLSM_CHECK_MSG(!ran_, "SimEnv::Run may only be called once");
  ran_ = true;

  // One host CPU at a time for every simulated thread, rotating over the
  // caller's mask (RotatePin), so a run is not tied to one vCPU's speed on a
  // shared host.
  cpu_set_t caller_mask;
  const int cpu = sched_getcpu();
  if (cpu >= 0 &&
      pthread_getaffinity_np(pthread_self(), sizeof(caller_mask),
                             &caller_mask) == 0 &&
      CPU_ISSET(cpu, &caller_mask) && PinSelfTo(cpu)) {
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (!CPU_ISSET(c, &caller_mask)) continue;
      if (c == cpu) pin_ = pin_cpus_.size();
      pin_cpus_.push_back(c);
    }
    pin_until_tick_ = Ticks() + pin_period_ticks_;
  }

  SimThread* t = NewThread(node_id, "root", std::move(root));
  SetState(t, State::kRunning);
#ifdef DLSM_TSAN_FIBERS
  host_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  // Returns once the last simulated thread has finished.
  SwitchTo(nullptr, t);
  if (!pin_cpus_.empty()) {
    pthread_setaffinity_np(pthread_self(), sizeof(caller_mask), &caller_mask);
  }
}

uint64_t SimEnv::NowNanos() {
  SimThread* self = tls_current;
  if (self == nullptr) return 0;
  uint64_t now = CpuNanos();
  uint64_t delta = now > self->cpu_start ? now - self->cpu_start : 0;
  return self->lvt +
         static_cast<uint64_t>(static_cast<double>(delta) *
                               self->factor_cache * options_.cpu_scale);
}

void SimEnv::SleepNanos(uint64_t ns) {
  SimThread* self = Current();
  ChargeCpu(self);
  self->wake_time = self->lvt + ns;
  SetState(self, State::kTimed);
  SwitchOut(self);
}

void SimEnv::AdvanceTo(uint64_t t_ns) {
  SimThread* self = Current();
  ChargeCpu(self);
  if (t_ns <= self->lvt) return;
  self->wake_time = t_ns;
  SetState(self, State::kTimed);
  SwitchOut(self);
}

void SimEnv::MaybeYield() {
  SimThread* self = Current();
  ChargeCpu(self);
  SetState(self, State::kReady);
  SwitchOut(self);
}

uint64_t SimEnv::UncountedBegin() {
  return tls_current != nullptr ? CpuNanos() : ThreadCpuNanos();
}

void SimEnv::UncountedEnd(uint64_t token) {
  SimThread* self = tls_current;
  if (self == nullptr) return;
  // Push the slice start forward so the bracketed CPU time is never
  // charged. cpu_start <= token <= now (CpuNanos never decreases), so this
  // cannot exceed "now".
  self->cpu_start += CpuNanos() - token;
}

void SimEnv::YieldToOthers() {
  SimThread* self = Current();
  ChargeCpu(self);
  // Jump just past the earliest other thread that is not itself waiting
  // (polling, or parked in WaitWord with a deadline): that thread, not a
  // waiter, is what a poll waits for. Pollers that jumped past one another
  // would take turns 1 ns plus their charged CPU apart. Only if every other
  // thread waits, past the earliest of them.
  uint64_t any = UINT64_MAX;
  uint64_t working = UINT64_MAX;
  for (auto& tp : threads_) {
    SimThread* t = tp.get();
    uint64_t key;
    if (t == self || !DueAt(t, &key)) continue;
    any = std::min(any, key);
    if (!t->polling && t->wait_word == nullptr) {
      working = std::min(working, key);
    }
  }
  const uint64_t m = working != UINT64_MAX ? working : any;
  if (m != UINT64_MAX && m >= self->lvt) {
    self->lvt = m + 1;
  }
  SetState(self, State::kReady);
  self->polling = true;
  SwitchOut(self);
  self->polling = false;
}

uint64_t SimEnv::WaitWord(const void* addr, uint64_t deadline_ns) {
  SimThread* self = Current();
  ChargeCpu(self);
  uint64_t v;
  while ((v = __atomic_load_n(static_cast<const uint64_t*>(addr),
                              __ATOMIC_ACQUIRE)) == 0) {
    if (self->lvt >= deadline_ns) return 0;
    self->wait_word = addr;
    word_parked_.push_back(self);
    if (deadline_ns == UINT64_MAX) {
      SetState(self, State::kBlocked);
    } else {
      self->wake_time = deadline_ns;
      SetState(self, State::kTimed);
    }
    SwitchOut(self);
    if (self->wait_word != nullptr) {
      // The deadline expired first.
      self->wait_word = nullptr;
      word_parked_.erase(
          std::find(word_parked_.begin(), word_parked_.end(), self));
    }
  }
  return v;
}

void SimEnv::WakeWord(const void* addr) {
  if (word_parked_.empty()) return;
  SimThread* self = Current();
  ChargeCpu(self);
  for (size_t i = 0; i < word_parked_.size();) {
    SimThread* w = word_parked_[i];
    if (w->wait_word != addr) {
      i++;
      continue;
    }
    w->wait_word = nullptr;
    word_parked_.erase(word_parked_.begin() + i);
    MakeReady(w, self->lvt);
  }
}

int SimEnv::RegisterNode(const std::string& name, int cores) {
  auto node = std::make_unique<SimNode>();
  node->name = name;
  node->cores = cores;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

ThreadHandle SimEnv::StartThread(int node_id, const std::string& name,
                                 std::function<void()> fn) {
  SimThread* t = NewThread(node_id, name, std::move(fn));
  MakeReady(t, tls_current != nullptr ? tls_current->lvt : 0);
  return ThreadHandle{t->id};
}

void SimEnv::Join(ThreadHandle h) {
  SimThread* self = Current();
  ChargeCpu(self);
  SimThread* target = nullptr;
  for (auto& t : threads_) {
    if (t->id == h.id) {
      target = t.get();
      break;
    }
  }
  DLSM_CHECK_MSG(target != nullptr, "joining unknown thread");
  if (target->state == State::kFinished) {
    self->lvt = std::max(self->lvt, target->lvt);
    return;
  }
  target->joiners.push_back(self);
  SetState(self, State::kBlocked);
  SwitchOut(self);
}

uint64_t SimEnv::CurrentThreadId() {
  SimThread* self = tls_current;
  return self != nullptr ? self->id : 0;
}

int SimEnv::CurrentNodeId() {
  SimThread* self = tls_current;
  return self != nullptr ? self->node : 0;
}

std::string SimEnv::CurrentThreadName() {
  SimThread* self = tls_current;
  return self != nullptr ? self->name : std::string();
}

std::string SimEnv::NodeName(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return "default";
  }
  return nodes_[node_id]->name;
}

MutexImpl* SimEnv::NewMutex() { return new SimMutexImpl(this); }

CondVarImpl* SimEnv::NewCondVar(MutexImpl* mu) {
  return new SimCondVarImpl(this, static_cast<SimMutexImpl*>(mu));
}

BarrierImpl* SimEnv::NewBarrier(int parties) {
  return new SimBarrierImpl(this, parties);
}

}  // namespace dlsm

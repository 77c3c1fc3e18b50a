#include "src/sim/sim_env.h"

#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/util/logging.h"

namespace dlsm {

namespace {
thread_local SimEnv::SimThread* tls_current = nullptr;

static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "the baton word must be usable as a futex");

long Futex(std::atomic<uint32_t>* word, int op, uint32_t val) {
  return syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), op, val,
                 nullptr, nullptr, 0);
}

/// Hands t the baton. Call without gm_ held, so t does not block on gm_ the
/// moment it runs.
void Wake(SimEnv::SimThread* t) {
  t->baton.store(1, std::memory_order_release);
  Futex(&t->baton, FUTEX_WAKE_PRIVATE, 1);
}

/// Sleeps until t holds the baton, then takes it. Call without gm_ held.
void Park(SimEnv::SimThread* t) {
  while (t->baton.load(std::memory_order_acquire) == 0) {
    Futex(&t->baton, FUTEX_WAIT_PRIVATE, 0);
  }
  t->baton.store(0, std::memory_order_relaxed);
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
    std::unique_lock<std::mutex> lk(env_->gm_);
    env_->ChargeCpuLocked(self);
    LockHeld(self, lk);
  }

  void Unlock() override {
    SimEnv::SimThread* self = env_->Current();
    std::unique_lock<std::mutex> lk(env_->gm_);
    env_->ChargeCpuLocked(self);
    UnlockHeld(self);
  }

 private:
  friend class SimCondVarImpl;

  // Requires env_->gm_. May park the caller until ownership is handed off.
  void LockHeld(SimEnv::SimThread* self, std::unique_lock<std::mutex>& lk) {
    if (holder_ == nullptr) {
      holder_ = self;
      self->lvt = std::max(self->lvt, release_lvt_);
      return;
    }
    waiters_.push_back(self);
    env_->SetStateLocked(self, SimEnv::State::kBlocked);
    env_->SwitchOutLocked(self, lk);
    DLSM_CHECK(holder_ == self);  // FIFO handoff.
  }

  // Requires env_->gm_.
  void UnlockHeld(SimEnv::SimThread* self) {
    DLSM_CHECK_MSG(holder_ == self, "unlock by non-holder");
    release_lvt_ = std::max(release_lvt_, self->lvt);
    if (waiters_.empty()) {
      holder_ = nullptr;
    } else {
      SimEnv::SimThread* next = waiters_.front();
      waiters_.pop_front();
      holder_ = next;
      env_->MakeReadyLocked(next, self->lvt);
    }
  }

  SimEnv* env_;
  SimEnv::SimThread* holder_ = nullptr;
  uint64_t release_lvt_ = 0;
  std::deque<SimEnv::SimThread*> waiters_;
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
    std::unique_lock<std::mutex> lk(env_->gm_);
    env_->ChargeCpuLocked(self);
    if (!waiters_.empty()) {
      WakeOneLocked(self->lvt);
    }
  }

  void SignalAll() override {
    SimEnv::SimThread* self = env_->Current();
    std::unique_lock<std::mutex> lk(env_->gm_);
    env_->ChargeCpuLocked(self);
    while (!waiters_.empty()) {
      WakeOneLocked(self->lvt);
    }
  }

 private:
  // Requires env_->gm_ and non-empty waiters_.
  void WakeOneLocked(uint64_t from_lvt) {
    SimEnv::SimThread* w = waiters_.front();
    waiters_.pop_front();
    w->timed_out = false;
    env_->MakeReadyLocked(w, from_lvt);
  }

  bool WaitInternal(uint64_t timeout_ns) {
    SimEnv::SimThread* self = env_->Current();
    std::unique_lock<std::mutex> lk(env_->gm_);
    env_->ChargeCpuLocked(self);
    mu_->UnlockHeld(self);
    waiters_.push_back(self);
    if (timeout_ns == UINT64_MAX) {
      env_->SetStateLocked(self, SimEnv::State::kBlocked);
    } else {
      self->wake_time = self->lvt + timeout_ns;
      env_->SetStateLocked(self, SimEnv::State::kTimed);
    }
    self->timed_out = false;
    env_->SwitchOutLocked(self, lk);
    bool timed_out = self->timed_out;
    if (timed_out) {
      // Deadline expiry: remove ourselves from the wait list.
      auto it = std::find(waiters_.begin(), waiters_.end(), self);
      if (it != waiters_.end()) waiters_.erase(it);
    }
    mu_->LockHeld(self, lk);
    return timed_out;
  }

  SimEnv* env_;
  SimMutexImpl* mu_;
  std::deque<SimEnv::SimThread*> waiters_;
};

/// Virtual-time barrier: all parties leave with LVT equal to the maximum
/// LVT among arrivers, making before/after timing reads well-defined.
class SimBarrierImpl : public BarrierImpl {
 public:
  SimBarrierImpl(SimEnv* env, int parties) : env_(env), parties_(parties) {}

  void Arrive() override {
    SimEnv::SimThread* self = env_->Current();
    std::unique_lock<std::mutex> lk(env_->gm_);
    env_->ChargeCpuLocked(self);
    max_lvt_ = std::max(max_lvt_, self->lvt);
    if (++arrived_ == parties_) {
      arrived_ = 0;
      uint64_t m = max_lvt_;
      max_lvt_ = 0;
      self->lvt = m;
      for (SimEnv::SimThread* w : waiters_) {
        env_->MakeReadyLocked(w, m);
      }
      waiters_.clear();
    } else {
      waiters_.push_back(self);
      env_->SetStateLocked(self, SimEnv::State::kBlocked);
      env_->SwitchOutLocked(self, lk);
    }
  }

 private:
  SimEnv* env_;
  int parties_;
  int arrived_ = 0;
  uint64_t max_lvt_ = 0;
  std::vector<SimEnv::SimThread*> waiters_;
};

// ---------------------------------------------------------------------------
// SimEnv
// ---------------------------------------------------------------------------

SimEnv::SimEnv(Options options) : options_(options) {
  auto node0 = std::make_unique<SimNode>();
  node0->name = "default";
  node0->cores = 0;  // Unlimited.
  nodes_.push_back(std::move(node0));
}

SimEnv::~SimEnv() {
  for (auto& t : threads_) {
    if (t->os_thread.joinable()) t->os_thread.join();
  }
}

uint64_t SimEnv::ThreadCpuNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t SimEnv::CpuNanos(SimThread* t, bool real) {
  uint64_t cpu;
  const uint64_t since =
      real ? kCpuClockGateNs : MonotonicNanos() - t->anchor_mono;
  if (since < kCpuClockGateNs) {
    cpu = t->anchor_cpu + since;
  } else {
    // The kernel samples the clock inside the read: anchor at the read's
    // midpoint (its end would drop half a read from the next charge).
    const uint64_t before = MonotonicNanos();
    cpu = t->anchor_cpu = ThreadCpuNanos();
    t->anchor_mono = before + (MonotonicNanos() - before) / 2;
  }
  t->cpu_read = std::max(t->cpu_read, cpu);
  return t->cpu_read;
}

SimEnv::SimThread* SimEnv::Current() {
  DLSM_CHECK_MSG(tls_current != nullptr,
                 "Env call from a thread not managed by SimEnv");
  return tls_current;
}

double SimEnv::FactorLocked(int node) const {
  const SimNode& n = *nodes_[node];
  if (n.cores <= 0 || n.active <= n.cores) return 1.0;
  return static_cast<double>(n.active) / static_cast<double>(n.cores);
}

void SimEnv::SetStateLocked(SimThread* t, State s) {
  auto counts = [](State st) {
    return st == State::kReady || st == State::kRunning;
  };
  bool was = counts(t->state);
  bool now = counts(s);
  if (was && !now) nodes_[t->node]->active--;
  if (!was && now) nodes_[t->node]->active++;
  t->state = s;
}

void SimEnv::ChargeCpuLocked(SimThread* self) {
  uint64_t now = CpuNanos(self);
  uint64_t delta = now > self->cpu_start ? now - self->cpu_start : 0;
  self->cpu_start = now;
  double factor = FactorLocked(self->node);
  self->lvt += static_cast<uint64_t>(static_cast<double>(delta) * factor *
                                     options_.cpu_scale);
}

void SimEnv::RotatePinLocked() {
  if (pin_cpus_.size() < 2) return;
  const uint64_t now = MonotonicNanos();
  if (now < pin_until_ns_) return;
  pin_ = (pin_ + 1) % pin_cpus_.size();
  pin_until_ns_ = now + kPinPeriodNs;
}

void SimEnv::FollowPinLocked(SimThread* t) {
  if (pin_cpus_.empty() || t->cpu == pin_cpus_[pin_]) return;
  // Outside the slice: the migration is host scheduling, not modeled work.
  t->cpu = pin_cpus_[pin_];
  PinSelfTo(t->cpu);
}

void SimEnv::StartSliceLocked(SimThread* t) {
  // Real read: the thread was just parked, off-CPU, for an unknown time.
  t->cpu_start = CpuNanos(t, /*real=*/true);
  t->factor_cache = FactorLocked(t->node);
}

bool SimEnv::DueAtLocked(const SimThread* t, uint64_t* key) {
  if (t->state == State::kReady) {
    *key = t->lvt;
  } else if (t->state == State::kTimed) {
    *key = t->wake_time;
  } else {
    return false;
  }
  return true;
}

SimEnv::SimThread* SimEnv::PickNextLocked() {
  SimThread* best = nullptr;
  uint64_t best_key = UINT64_MAX;
  for (auto& tp : threads_) {
    SimThread* t = tp.get();
    uint64_t key;
    if (!DueAtLocked(t, &key)) continue;
    if (key < best_key || (key == best_key && best != nullptr &&
                           t->id < best->id)) {
      best_key = key;
      best = t;
    }
  }
  return best;
}

void SimEnv::MakeReadyLocked(SimThread* t, uint64_t from_lvt) {
  t->lvt = std::max(t->lvt, from_lvt);
  t->wake_time = UINT64_MAX;
  SetStateLocked(t, State::kReady);
}

void SimEnv::ResumeLocked(SimThread* t) {
  if (t->state == State::kTimed) {
    // Deadline expiry path.
    t->lvt = std::max(t->lvt, t->wake_time);
    t->wake_time = UINT64_MAX;
    t->timed_out = true;
    SetStateLocked(t, State::kReady);
  }
  DLSM_CHECK(t->state == State::kReady);
  SetStateLocked(t, State::kRunning);
}

void SimEnv::SwitchOutLocked(SimThread* self,
                             std::unique_lock<std::mutex>& lk) {
  SimThread* next = PickNextLocked();
  if (next == self) {
    ResumeLocked(self);
    StartSliceLocked(self);
    return;
  }
  if (next == nullptr) {
    DeadlockAbortLocked();
  }
  ResumeLocked(next);
  RotatePinLocked();
  // next calls StartSliceLocked itself on wake; the CPU clock is per-thread.
  lk.unlock();
  Wake(next);
  Park(self);
  lk.lock();
  // Scheduled again; our state was set to kRunning by the waker.
  FollowPinLocked(self);
  StartSliceLocked(self);
}

SimEnv::SimThread* SimEnv::FinishThreadLocked(SimThread* self) {
  ChargeCpuLocked(self);
  for (SimThread* j : self->joiners) {
    MakeReadyLocked(j, self->lvt);
  }
  self->joiners.clear();
  SetStateLocked(self, State::kFinished);
  live_threads_--;
  SimThread* next = PickNextLocked();
  if (next == nullptr) {
    if (live_threads_ > 0) {
      DeadlockAbortLocked();
    }
    all_done_cv_.notify_all();
    return nullptr;
  }
  ResumeLocked(next);
  return next;
}

void SimEnv::DeadlockAbortLocked() {
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

void SimEnv::ThreadBody(SimThread* t) {
  tls_current = t;
  Park(t);
  {
    std::unique_lock<std::mutex> lk(gm_);
    FollowPinLocked(t);
    StartSliceLocked(t);
  }
  t->fn();
  SimThread* next;
  {
    std::unique_lock<std::mutex> lk(gm_);
    next = FinishThreadLocked(t);
  }
  if (next != nullptr) Wake(next);
  tls_current = nullptr;
}

void SimEnv::Run(int node_id, std::function<void()> root) {
  DLSM_CHECK_MSG(!ran_, "SimEnv::Run may only be called once");
  ran_ = true;

  // One host CPU at a time for every simulated thread: a baton pass then
  // wakes a thread on the core the last one ran on, instead of a cold,
  // remote one. The CPU rotates over the caller's mask (RotatePinLocked), so
  // a run is not tied to one vCPU's speed on a shared host.
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
    pin_until_ns_ = MonotonicNanos() + kPinPeriodNs;
  }

  auto rt = std::make_unique<SimThread>();
  SimThread* t = rt.get();
  t->id = next_thread_id_++;
  t->name = "root";
  t->node = node_id;
  t->cpu = pin_cpus_.empty() ? -1 : cpu;
  t->state = State::kBlocked;  // So the kRunning transition counts it active.
  {
    std::unique_lock<std::mutex> lk(gm_);
    threads_.push_back(std::move(rt));
    live_threads_++;
    SetStateLocked(t, State::kRunning);
    StartSliceLocked(t);
  }
  tls_current = t;
  root();
  std::unique_lock<std::mutex> lk(gm_);
  SimThread* next = FinishThreadLocked(t);
  if (next != nullptr) {
    lk.unlock();
    Wake(next);
    lk.lock();
  }
  // The baton (if any) has been passed; wait for the rest of the world.
  all_done_cv_.wait(lk, [this] { return live_threads_ == 0; });
  lk.unlock();
  tls_current = nullptr;
  if (!pin_cpus_.empty()) {
    pthread_setaffinity_np(pthread_self(), sizeof(caller_mask), &caller_mask);
  }
}

uint64_t SimEnv::NowNanos() {
  SimThread* self = tls_current;
  if (self == nullptr) return 0;
  uint64_t now = CpuNanos(self);
  uint64_t delta = now > self->cpu_start ? now - self->cpu_start : 0;
  return self->lvt +
         static_cast<uint64_t>(static_cast<double>(delta) *
                               self->factor_cache * options_.cpu_scale);
}

void SimEnv::SleepNanos(uint64_t ns) {
  SimThread* self = Current();
  std::unique_lock<std::mutex> lk(gm_);
  ChargeCpuLocked(self);
  self->wake_time = self->lvt + ns;
  SetStateLocked(self, State::kTimed);
  SwitchOutLocked(self, lk);
}

void SimEnv::AdvanceTo(uint64_t t_ns) {
  SimThread* self = Current();
  std::unique_lock<std::mutex> lk(gm_);
  ChargeCpuLocked(self);
  if (t_ns <= self->lvt) return;
  self->wake_time = t_ns;
  SetStateLocked(self, State::kTimed);
  SwitchOutLocked(self, lk);
}

void SimEnv::MaybeYield() {
  SimThread* self = Current();
  std::unique_lock<std::mutex> lk(gm_);
  ChargeCpuLocked(self);
  SetStateLocked(self, State::kReady);
  SwitchOutLocked(self, lk);
}

uint64_t SimEnv::UncountedBegin() {
  SimThread* self = tls_current;
  return self != nullptr ? CpuNanos(self) : ThreadCpuNanos();
}

void SimEnv::UncountedEnd(uint64_t token) {
  SimThread* self = tls_current;
  if (self == nullptr) return;
  // Push the slice start forward so the bracketed CPU time is never
  // charged. cpu_start <= token <= now (CpuNanos never decreases), so this
  // cannot exceed "now".
  self->cpu_start += CpuNanos(self) - token;
}

void SimEnv::YieldToOthers() {
  SimThread* self = Current();
  std::unique_lock<std::mutex> lk(gm_);
  ChargeCpuLocked(self);
  // Jump just past the earliest other thread that is not itself polling:
  // that thread, not another poller, is what a poll waits for. Pollers that
  // jumped past one another would take turns 1 ns plus their charged CPU
  // apart. Only if every other thread polls, past the earliest of them.
  uint64_t any = UINT64_MAX;
  uint64_t working = UINT64_MAX;
  for (auto& tp : threads_) {
    SimThread* t = tp.get();
    uint64_t key;
    if (t == self || !DueAtLocked(t, &key)) continue;
    any = std::min(any, key);
    if (!t->polling) working = std::min(working, key);
  }
  const uint64_t m = working != UINT64_MAX ? working : any;
  if (m != UINT64_MAX && m >= self->lvt) {
    self->lvt = m + 1;
  }
  SetStateLocked(self, State::kReady);
  self->polling = true;
  SwitchOutLocked(self, lk);
  self->polling = false;
}

int SimEnv::RegisterNode(const std::string& name, int cores) {
  std::unique_lock<std::mutex> lk(gm_);
  auto node = std::make_unique<SimNode>();
  node->name = name;
  node->cores = cores;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

ThreadHandle SimEnv::StartThread(int node_id, const std::string& name,
                                 std::function<void()> fn) {
  auto nt = std::make_unique<SimThread>();
  SimThread* t = nt.get();
  t->name = name;
  t->node = node_id;
  t->fn = std::move(fn);
  t->state = State::kBlocked;  // Until the baton first reaches it.
  uint64_t creator_lvt = 0;
  if (tls_current != nullptr) {
    creator_lvt = tls_current->lvt;
    t->cpu = tls_current->cpu;  // The OS thread inherits the creator's mask.
  }
  {
    std::unique_lock<std::mutex> lk(gm_);
    t->id = next_thread_id_++;
    DLSM_CHECK_MSG(static_cast<int>(nodes_.size()) > node_id,
                   "unknown node id");
    threads_.push_back(std::move(nt));
    live_threads_++;
    MakeReadyLocked(t, creator_lvt);
  }
  t->os_thread = std::thread([this, t] { ThreadBody(t); });
  return ThreadHandle{t->id};
}

void SimEnv::Join(ThreadHandle h) {
  SimThread* self = Current();
  std::unique_lock<std::mutex> lk(gm_);
  ChargeCpuLocked(self);
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
  SetStateLocked(self, State::kBlocked);
  SwitchOutLocked(self, lk);
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
  std::unique_lock<std::mutex> lk(gm_);
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

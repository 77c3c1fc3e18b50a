// StdEnv: the real-time environment — std::thread, std::mutex and the
// monotonic clock. Used for correctness tests that need true concurrency.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/sim/env.h"
#include "src/util/logging.h"
#include "src/util/thread_slots.h"

namespace dlsm {

namespace {

// Identity of the calling thread, set by StartThread's wrapper before the
// user function runs. Foreign threads (the host main thread) keep the
// defaults: id 0, node 0, no name.
struct StdIdentity {
  uint64_t id = 0;
  int node = 0;
  std::string name;
};
ThreadLocal<StdIdentity> thread_identity;

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class StdMutex : public MutexImpl {
 public:
  void Lock() override { mu_.lock(); }
  void Unlock() override { mu_.unlock(); }
  std::mutex* raw() { return &mu_; }

 private:
  std::mutex mu_;
};

class StdCondVar : public CondVarImpl {
 public:
  explicit StdCondVar(StdMutex* mu) : mu_(mu) {}

  void Wait() override {
    std::unique_lock<std::mutex> lock(*mu_->raw(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  bool TimedWait(uint64_t timeout_ns) override {
    std::unique_lock<std::mutex> lock(*mu_->raw(), std::adopt_lock);
    auto st = cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns));
    lock.release();
    return st == std::cv_status::timeout;
  }

  void Signal() override { cv_.notify_one(); }
  void SignalAll() override { cv_.notify_all(); }

 private:
  StdMutex* mu_;
  std::condition_variable cv_;
};

class StdBarrier : public BarrierImpl {
 public:
  explicit StdBarrier(int parties) : parties_(parties) {}

  void Arrive() override {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      generation_++;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

class StdEnv : public Env {
 public:
  StdEnv() : origin_(SteadyNowNanos()) {}

  ~StdEnv() override {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, t] : threads_) {
      if (t.joinable()) t.join();
    }
  }

  bool is_simulated() const override { return false; }

  uint64_t NowNanos() override { return SteadyNowNanos() - origin_; }

  void SleepNanos(uint64_t ns) override {
    if (ns < 100000) {
      // Short waits: spin for accuracy; the OS sleep granularity is coarse.
      uint64_t deadline = SteadyNowNanos() + ns;
      while (SteadyNowNanos() < deadline) {
      }
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    }
  }

  void AdvanceTo(uint64_t t_ns) override {
    uint64_t now = NowNanos();
    if (t_ns > now) SleepNanos(t_ns - now);
  }

  void MaybeYield() override {}

  void YieldToOthers() override { std::this_thread::yield(); }

  int RegisterNode(const std::string& name, int cores) override {
    (void)cores;
    // Real hardware enforces its own core budget; nodes are bookkeeping
    // only — but names are kept for trace attribution.
    std::lock_guard<std::mutex> lock(mu_);
    int id = next_node_id_++;
    node_names_[id] = name;
    return id;
  }

  ThreadHandle StartThread(int node_id, const std::string& name,
                           std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t id = next_thread_id_++;
    threads_.emplace(
        id, std::thread([id, node_id, name, fn = std::move(fn)]() mutable {
          thread_identity.Get() = StdIdentity{id, node_id, name};
          fn();
        }));
    return ThreadHandle{id};
  }

  void Join(ThreadHandle h) override {
    std::thread t;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = threads_.find(h.id);
      DLSM_CHECK_MSG(it != threads_.end(), "joining unknown thread");
      t = std::move(it->second);
      threads_.erase(it);
    }
    if (t.joinable()) t.join();
  }

  uint64_t CurrentThreadId() override { return thread_identity.Get().id; }

  int CurrentNodeId() override { return thread_identity.Get().node; }

  std::string CurrentThreadName() override {
    return thread_identity.Get().name;
  }

  std::string NodeName(int node_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = node_names_.find(node_id);
    return it != node_names_.end() ? it->second : std::string("default");
  }

  MutexImpl* NewMutex() override { return new StdMutex(); }

  CondVarImpl* NewCondVar(MutexImpl* mu) override {
    return new StdCondVar(static_cast<StdMutex*>(mu));
  }

  BarrierImpl* NewBarrier(int parties) override {
    return new StdBarrier(parties);
  }

 private:
  uint64_t origin_;
  std::mutex mu_;
  std::unordered_map<uint64_t, std::thread> threads_;
  std::unordered_map<int, std::string> node_names_;
  uint64_t next_thread_id_ = 1;
  int next_node_id_ = 1;
};

}  // namespace

uint64_t Env::WaitWord(const void* addr, uint64_t deadline_ns) {
  uint64_t v;
  while ((v = __atomic_load_n(static_cast<const uint64_t*>(addr),
                              __ATOMIC_ACQUIRE)) == 0) {
    uint64_t before = NowNanos();
    if (before >= deadline_ns) return 0;
    YieldToOthers();
    if (NowNanos() == before) {
      // Nothing moved the clock; a pure yield loop would never reach the
      // deadline. Sleep one poll quantum.
      SleepNanos(std::min<uint64_t>(5000, deadline_ns - before));
    }
  }
  return v;
}

Env* Env::Std() {
  static StdEnv* env = new StdEnv();
  return env;
}

}  // namespace dlsm

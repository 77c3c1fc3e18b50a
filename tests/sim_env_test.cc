// Tests for the execution environments: the real-time StdEnv and the
// virtual-time SimEnv scheduler that stands in for the paper's testbed.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/sim/env.h"
#include "src/sim/sim_env.h"
#include "src/sim/thread_pool.h"
#include "src/util/thread_slots.h"

namespace dlsm {
namespace {

TEST(StdEnvTest, TimeAdvances) {
  Env* env = Env::Std();
  EXPECT_FALSE(env->is_simulated());
  uint64_t a = env->NowNanos();
  env->SleepNanos(1000000);  // 1 ms.
  uint64_t b = env->NowNanos();
  EXPECT_GE(b - a, 900000u);
}

TEST(StdEnvTest, ThreadsAndJoin) {
  Env* env = Env::Std();
  std::atomic<int> counter{0};
  std::vector<ThreadHandle> handles;
  for (int i = 0; i < 4; i++) {
    handles.push_back(env->StartThread(0, "worker", [&] { counter++; }));
  }
  for (ThreadHandle h : handles) env->Join(h);
  EXPECT_EQ(4, counter.load());
}

TEST(StdEnvTest, MutexAndCondVar) {
  Env* env = Env::Std();
  Mutex mu(env);
  CondVar cv(env, &mu);
  bool flag = false;
  ThreadHandle h = env->StartThread(0, "setter", [&] {
    MutexLock l(&mu);
    flag = true;
    cv.Signal();
  });
  {
    MutexLock l(&mu);
    while (!flag) cv.Wait();
  }
  env->Join(h);
  EXPECT_TRUE(flag);
}

TEST(StdEnvTest, TimedWaitTimesOut) {
  Env* env = Env::Std();
  Mutex mu(env);
  CondVar cv(env, &mu);
  MutexLock l(&mu);
  EXPECT_TRUE(cv.TimedWait(1000000));  // 1 ms, nobody signals.
}

TEST(SimEnvTest, VirtualSleepIsFree) {
  // Sleeping ten virtual seconds must not take ten real seconds.
  SimEnv env;
  uint64_t virtual_elapsed = 0;
  env.Run(0, [&] {
    uint64_t start = env.NowNanos();
    env.SleepNanos(10ull * 1000 * 1000 * 1000);
    virtual_elapsed = env.NowNanos() - start;
  });
  EXPECT_GE(virtual_elapsed, 10ull * 1000 * 1000 * 1000);
}

TEST(SimEnvTest, AdvanceTo) {
  SimEnv env;
  env.Run(0, [&] {
    env.AdvanceTo(5000000);
    EXPECT_GE(env.NowNanos(), 5000000u);
    uint64_t now = env.NowNanos();
    env.AdvanceTo(100);  // In the past: no-op.
    EXPECT_GE(env.NowNanos(), now);
  });
}

TEST(SimEnvTest, CpuWorkAdvancesVirtualTime) {
  SimEnv env;
  uint64_t elapsed = 0;
  env.Run(0, [&] {
    uint64_t start = env.NowNanos();
    // Burn some real CPU.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 2000000; i++) sink += i;
    env.MaybeYield();
    elapsed = env.NowNanos() - start;
  });
  EXPECT_GT(elapsed, 0u);
}

TEST(SimEnvTest, ThreadsJoinWithCausality) {
  SimEnv env;
  env.Run(0, [&] {
    ThreadHandle h = env.StartThread(0, "sleeper", [&] {
      env.SleepNanos(1000000000);  // 1 virtual second.
    });
    env.Join(h);
    // Joiner's clock must have advanced past the sleeper's.
    EXPECT_GE(env.NowNanos(), 1000000000u);
  });
}

TEST(SimEnvTest, MutexHandoffTransfersTime) {
  SimEnv env;
  env.Run(0, [&] {
    Mutex mu(&env);
    mu.Lock();
    ThreadHandle h = env.StartThread(0, "waiter", [&] {
      mu.Lock();
      // We block until the root releases at t >= 2s; causality requires our
      // clock to be at least that.
      EXPECT_GE(env.NowNanos(), 2000000000u);
      mu.Unlock();
    });
    env.SleepNanos(2000000000);
    mu.Unlock();
    env.Join(h);
  });
}

TEST(SimEnvTest, CondVarSignalWakes) {
  SimEnv env;
  env.Run(0, [&] {
    Mutex mu(&env);
    CondVar cv(&env, &mu);
    bool flag = false;
    ThreadHandle h = env.StartThread(0, "waiter", [&] {
      MutexLock l(&mu);
      while (!flag) cv.Wait();
      EXPECT_GE(env.NowNanos(), 3000000000u);
    });
    env.SleepNanos(3000000000);
    {
      MutexLock l(&mu);
      flag = true;
      cv.Signal();
    }
    env.Join(h);
  });
}

TEST(SimEnvTest, TimedWaitExpires) {
  SimEnv env;
  env.Run(0, [&] {
    Mutex mu(&env);
    CondVar cv(&env, &mu);
    uint64_t start = env.NowNanos();
    MutexLock l(&mu);
    bool timed_out = cv.TimedWait(500000000);  // 0.5 virtual seconds.
    EXPECT_TRUE(timed_out);
    EXPECT_GE(env.NowNanos() - start, 500000000u);
  });
}

TEST(SimEnvTest, TimedWaitSignaledBeforeDeadline) {
  SimEnv env;
  env.Run(0, [&] {
    Mutex mu(&env);
    CondVar cv(&env, &mu);
    ThreadHandle h = env.StartThread(0, "signaler", [&] {
      env.SleepNanos(1000000);  // 1 virtual ms.
      MutexLock l(&mu);
      cv.Signal();
    });
    {
      MutexLock l(&mu);
      bool timed_out = cv.TimedWait(1000000000);  // 1 virtual second.
      EXPECT_FALSE(timed_out);
      EXPECT_LT(env.NowNanos(), 900000000u);
    }
    env.Join(h);
  });
}

TEST(SimEnvTest, BarrierSynchronizesClocks) {
  SimEnv env;
  env.Run(0, [&] {
    Barrier barrier(&env, 3);
    std::vector<uint64_t> after(3);
    std::vector<ThreadHandle> hs;
    for (int i = 0; i < 2; i++) {
      hs.push_back(env.StartThread(0, "p", [&, i] {
        env.SleepNanos((i + 1) * 1000000000ull);
        barrier.Arrive();
        after[i] = env.NowNanos();
      }));
    }
    barrier.Arrive();
    after[2] = env.NowNanos();
    for (ThreadHandle h : hs) env.Join(h);
    // Everyone leaves at >= the slowest arriver's time (2 virtual seconds).
    for (uint64_t t : after) EXPECT_GE(t, 2000000000u);
  });
}

TEST(SimEnvTest, ProcessorSharingScalesCpuCost) {
  // Two CPU-bound workloads on a 1-core node should cost roughly twice the
  // virtual time of the same workloads on a 2-core node.
  auto run_with_cores = [](int cores) {
    SimEnv env;
    uint64_t elapsed = 0;
    int node = env.RegisterNode("n", cores);
    env.Run(0, [&] {
      Barrier barrier(&env, 3);
      auto work = [&] {
        barrier.Arrive();
        volatile uint64_t sink = 0;
        for (int r = 0; r < 50; r++) {
          for (int i = 0; i < 100000; i++) sink += i;
          env.MaybeYield();
        }
        barrier.Arrive();
      };
      ThreadHandle h1 = env.StartThread(node, "w1", work);
      ThreadHandle h2 = env.StartThread(node, "w2", work);
      barrier.Arrive();
      uint64_t start = env.NowNanos();
      barrier.Arrive();
      elapsed = env.NowNanos() - start;
      env.Join(h1);
      env.Join(h2);
    });
    return elapsed;
  };
  uint64_t one_core = run_with_cores(1);
  uint64_t two_cores = run_with_cores(2);
  EXPECT_GT(one_core, two_cores * 3 / 2)
      << "1-core: " << one_core << " 2-core: " << two_cores;
}

TEST(SimEnvTest, ManyThreadsProgress) {
  SimEnv env;
  std::atomic<int> done{0};
  env.Run(0, [&] {
    std::vector<ThreadHandle> hs;
    for (int i = 0; i < 32; i++) {
      hs.push_back(env.StartThread(0, "t", [&, i] {
        env.SleepNanos((i % 7 + 1) * 1000000ull);
        done++;
      }));
    }
    for (ThreadHandle h : hs) env.Join(h);
  });
  EXPECT_EQ(32, done.load());
}

TEST(SimEnvTest, YieldToOthersLetsLaggardsRun) {
  SimEnv env;
  env.Run(0, [&] {
    std::atomic<bool> flag{false};
    ThreadHandle h = env.StartThread(0, "setter", [&] {
      env.SleepNanos(1000000);
      flag = true;
    });
    int spins = 0;
    while (!flag.load()) {
      env.YieldToOthers();
      ASSERT_LT(++spins, 1000000);
    }
    env.Join(h);
    EXPECT_TRUE(flag.load());
  });
}

// Four pollers wait for one setter. Each jumps just past the setter's wake
// time instead of past another poller, so the wait costs a few spins
// however little CPU a spin charges (none here); jumping past one another,
// 1 ns per turn, they took 3,000,001 spins to cover the 1 ms.
TEST(SimEnvTest, PollersDoNotLeapfrogEachOther) {
  SimEnv::Options options;
  options.cpu_scale = 0;
  SimEnv env(options);
  uint64_t spins = 0;  // Only the baton holder writes it.
  env.Run(0, [&] {
    std::atomic<bool> flag{false};
    std::vector<ThreadHandle> hs;
    hs.push_back(env.StartThread(0, "setter", [&] {
      env.SleepNanos(1000000);
      flag = true;
    }));
    for (int i = 0; i < 4; i++) {
      hs.push_back(env.StartThread(0, "poller", [&] {
        // Capped so that leapfrogging fails fast instead of spinning on.
        while (!flag.load() && spins < 100000) {
          env.YieldToOthers();
          spins++;
        }
      }));
    }
    for (ThreadHandle h : hs) env.Join(h);
    EXPECT_TRUE(flag.load());
  });
  EXPECT_LE(spins, 40u);
}

// The pollers rule's known cost: a poller skips every thread parked
// polling, even one whose wait is already met. B polls on C's flag; C sets
// it at 10 us and then sleeps 1 ms; A wakes at 10 us too (after C: equal
// times run in start order) and polls on B's flag while B, met but not yet
// resumed, is parked at 10 us + 1 ns. A jumps past C's wake time, not just
// past B, so it sees B's flag ~1 ms late.
TEST(SimEnvTest, PollerWaitingOnPollerIsChargedPastNextNonPoller) {
  SimEnv::Options options;
  options.cpu_scale = 0;
  SimEnv env(options);
  uint64_t b_saw = 0, a_saw = 0;
  env.Run(0, [&] {
    std::atomic<bool> flag_c{false}, flag_b{false};
    std::vector<ThreadHandle> hs;
    hs.push_back(env.StartThread(0, "B", [&] {
      while (!flag_c.load()) env.YieldToOthers();
      b_saw = env.NowNanos();
      flag_b = true;
    }));
    hs.push_back(env.StartThread(0, "C", [&] {
      env.SleepNanos(10000);
      flag_c = true;
      env.SleepNanos(1000000);
    }));
    hs.push_back(env.StartThread(0, "A", [&] {
      env.SleepNanos(10000);
      while (!flag_b.load()) env.YieldToOthers();
      a_saw = env.NowNanos();
    }));
    for (ThreadHandle h : hs) env.Join(h);
  });
  EXPECT_GE(b_saw, 10000u);
  EXPECT_LT(b_saw, 20000u);
  EXPECT_GT(a_saw, 1010000u);
}

// True if this process may narrow a thread's affinity to one CPU (some
// sandboxes refuse sched_setaffinity; SimEnv then runs unpinned).
bool CanPinToOneCpu() {
  bool ok = false;
  std::thread probe([&ok] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    ok = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  });
  probe.join();
  return ok;
}

// Every simulated thread runs on the one CPU the pin is on, so the CPU seen
// after each baton pass changes only when the pin moves, at most once per
// SimEnv::kPinPeriodNs of host time; over several periods it does move.
TEST(SimEnvTest, SimulatedThreadsShareOneHostCpuAtATime) {
  if (!CanPinToOneCpu()) GTEST_SKIP() << "host refuses sched_setaffinity";
  cpu_set_t before, after;
  ASSERT_EQ(0, pthread_getaffinity_np(pthread_self(), sizeof(before), &before));
  std::vector<int> seen;          // sched_getcpu() in run order.
  std::vector<int> allowed(5, 0);  // CPUs in each thread's mask.
  auto allowed_cpus = [] {
    cpu_set_t mask;
    pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
    return CPU_COUNT(&mask);
  };
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ns = [start] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  SimEnv env;
  env.Run(0, [&] {
    seen.push_back(sched_getcpu());
    allowed[0] = allowed_cpus();
    std::vector<ThreadHandle> hs;
    for (int i = 1; i <= 4; i++) {
      hs.push_back(env.StartThread(0, "w", [&, i] {
        allowed[i] = allowed_cpus();
        for (int k = 0; k < 1000 || elapsed_ns() < 2 * SimEnv::kPinPeriodNs;
             k++) {
          // A baton pass: the target stays ahead of the CPU AdvanceTo
          // charges before it compares.
          env.AdvanceTo(env.NowNanos() + 1000000 + i);
          seen.push_back(sched_getcpu());
        }
      }));
    }
    for (ThreadHandle h : hs) env.Join(h);
    seen.push_back(sched_getcpu());
  });
  const uint64_t elapsed = elapsed_ns();
  uint64_t moves = 0;
  for (size_t i = 1; i < seen.size(); i++) moves += seen[i] != seen[i - 1];
  EXPECT_LE(moves, elapsed / SimEnv::kPinPeriodNs + 1)
      << "simulated threads ran on several host CPUs at once";
  if (CPU_COUNT(&before) > 1) {
    EXPECT_GT(std::set<int>(seen.begin(), seen.end()).size(), 1u)
        << "the pin never moved";
  }
  for (int n : allowed) EXPECT_EQ(1, n) << "a simulated thread was not pinned";
  ASSERT_EQ(0, pthread_getaffinity_np(pthread_self(), sizeof(after), &after));
  EXPECT_TRUE(CPU_EQUAL(&before, &after)) << "Run left the caller pinned";
}

// Within SimEnv::kCpuClockGateNs of a real CLOCK_THREAD_CPUTIME_ID read the
// thread's CPU clock is extrapolated from the CPU's tick counter. With a host
// thread competing for the same CPU, time off-CPU inside a window could
// inflate an estimate, but by less than one gate: measured from the slice's
// real start read, NowNanos never runs more than a gate ahead of the real
// clock, and it never runs backwards. An UncountedBegin/End pair therefore
// never pushes the slice start past the clock either. (The real clock may
// itself jump ahead of wall time by tens of microseconds on a VM; the
// estimate then trails until the next real read.)
TEST(SimEnvTest, GatedCpuClockNeverRunsAheadOfThreadCpu) {
  std::atomic<bool> stop{false};
  std::thread busy;
  SimEnv env;
  env.Run(0, [&] {
    const int cpu = sched_getcpu();
    busy = std::thread([&stop, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
    const SimEnv::SimThread* self = env.Current();
    env.MaybeYield();  // Starts a slice on a real read.
    const uint64_t lvt0 = self->lvt;
    const uint64_t real0 = self->cpu_start;
    volatile uint64_t sink = 0;
    uint64_t last = lvt0;
    for (int i = 0; i < 5000; i++) {
      for (int k = 0; k < (i % 64) * 50; k++) sink = sink + k;
      const uint64_t now = env.NowNanos();
      const uint64_t real = SimEnv::ThreadCpuNanos();
      ASSERT_GE(now, last) << "at read " << i;
      ASSERT_LE(now - lvt0, real - real0 + SimEnv::kCpuClockGateNs)
          << "at read " << i;
      last = now;
    }
    for (int i = 0; i < 5000; i++) {
      env.UncountedEnd(env.UncountedBegin());
      ASSERT_LE(self->cpu_start,
                SimEnv::ThreadCpuNanos() + SimEnv::kCpuClockGateNs)
          << "at pair " << i;
    }
  });
  stop = true;
  busy.join();
}

uint64_t MonotonicNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// The gate's tick counter, scaled by its once-per-process calibration,
// measures host time as CLOCK_MONOTONIC does: over 25 ms on Run's pinned
// CPU the two agree within 1%.
TEST(SimEnvTest, TickClockTracksMonotonic) {
  SimEnv env;
  env.Run(0, [&] {
    const uint64_t mono0 = MonotonicNanos();
    const uint64_t tick0 = SimEnv::Ticks();
    while (MonotonicNanos() - mono0 < 25'000'000) {
    }
    const uint64_t tick1 = SimEnv::Ticks();
    const double elapsed = static_cast<double>(MonotonicNanos() - mono0);
    const double ticked =
        static_cast<double>(tick1 - tick0) * SimEnv::NanosPerTick();
    EXPECT_NEAR(ticked, elapsed, 0.01 * elapsed);
  });
}

// Another CPU's tick counter may be offset from this one's, so a pin move
// ends the gate's window: the next CpuNanos is a real read (a new anchor),
// however little time has passed. The window is widened here so that only
// the move can end it.
TEST(SimEnvTest, PinMoveMakesTheNextCpuClockReadReal) {
  if (!CanPinToOneCpu()) GTEST_SKIP() << "host refuses sched_setaffinity";
  cpu_set_t mask;
  ASSERT_EQ(0, pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask));
  if (CPU_COUNT(&mask) < 2) GTEST_SKIP() << "one CPU: the pin never moves";
  SimEnv env;
  const uint64_t gate = env.gate_ticks_;
  env.Run(0, [&] {
    for (int move = 0; move < 8; move++) {
      // Past the window, so this read is a real one.
      const uint64_t start = MonotonicNanos();
      while (MonotonicNanos() - start < 2 * SimEnv::kCpuClockGateNs) {
      }
      env.CpuNanos();
      const uint64_t anchor = env.anchor_cpu_;
      env.gate_ticks_ = UINT64_MAX >> 1;
      env.CpuNanos();
      ASSERT_EQ(anchor, env.anchor_cpu_) << "no gated read, move " << move;
      const int cpu = sched_getcpu();
      env.pin_until_tick_ = 0;  // The pin period is over.
      env.RotatePin();
      ASSERT_NE(cpu, sched_getcpu()) << "the pin did not move, move " << move;
      env.CpuNanos();
      EXPECT_NE(anchor, env.anchor_cpu_) << "a gated read after move " << move;
      env.gate_ticks_ = gate;
    }
  });
}

// Four producer/consumer pairs over bounded queues, all eight threads also
// contending on one shared mutex, with virtual sleeps, timed waits and
// yields in between. A lost wakeup either hangs Run (the deadlock abort
// kills the test binary) or loses an item, which the exact counts catch.
TEST(SimEnvTest, HandoffStressLosesNoWakeup) {
  constexpr int kPairs = 4;
  constexpr int kItems = 10000;
  constexpr size_t kQueueCap = 3;
  struct Pair {
    explicit Pair(Env* env)
        : mu(env), not_empty(env, &mu), not_full(env, &mu) {}
    Mutex mu;
    CondVar not_empty, not_full;
    std::deque<int> q;
    int received = 0;
    bool in_order = true;
  };
  SimEnv::Options options;
  options.cpu_scale = 0;  // Virtual time moves only at the calls below.
  SimEnv env(options);
  std::vector<int> shared_counts(2 * kPairs, 0);
  uint64_t handoffs = 0;  // Resumptions after another thread ran.
  env.Run(0, [&] {
    Mutex shared(&env);
    std::vector<std::unique_ptr<Pair>> pairs;
    for (int p = 0; p < kPairs; p++) {
      pairs.push_back(std::make_unique<Pair>(&env));
    }
    uint64_t last_runner = 0;
    // Runs one scheduling call and counts a hand-off if it let another
    // thread run. Only the baton holder runs, so plain variables suffice.
    auto step = [&](auto&& call) {
      uint64_t me = env.CurrentThreadId();
      last_runner = me;
      call();
      if (last_runner != me) handoffs++;
      last_runner = me;
    };
    auto bump_shared = [&](int who) {
      step([&] { shared.Lock(); });
      shared_counts[who]++;
      shared.Unlock();
    };
    std::vector<ThreadHandle> hs;
    for (int p = 0; p < kPairs; p++) {
      Pair* pr = pairs[p].get();
      hs.push_back(env.StartThread(0, "producer", [&, pr, p] {
        for (int k = 0; k < kItems; k++) {
          step([&] { env.AdvanceTo(env.NowNanos() + 50 + (k * 7 + p) % 31); });
          {
            MutexLock l(&pr->mu);
            while (pr->q.size() == kQueueCap) {
              step([&] { pr->not_full.Wait(); });
            }
            pr->q.push_back(k);
            pr->not_empty.Signal();
          }
          bump_shared(2 * p);
          if (k % 3 == 0) step([&] { env.MaybeYield(); });
        }
      }));
      hs.push_back(env.StartThread(0, "consumer", [&, pr, p] {
        for (int k = 0; k < kItems; k++) {
          {
            MutexLock l(&pr->mu);
            while (pr->q.empty()) {
              step([&] { pr->not_empty.TimedWait(20 + (k + p) % 40); });
            }
            if (pr->q.front() != k) pr->in_order = false;
            pr->q.pop_front();
            pr->received++;
            pr->not_full.Signal();
          }
          bump_shared(2 * p + 1);
          step([&] { env.AdvanceTo(env.NowNanos() + 40 + (k * 5 + p) % 29); });
        }
      }));
    }
    for (ThreadHandle h : hs) env.Join(h);
    for (const auto& pr : pairs) {
      EXPECT_EQ(kItems, pr->received);
      EXPECT_TRUE(pr->in_order);
      EXPECT_TRUE(pr->q.empty());
    }
  });
  for (int c : shared_counts) EXPECT_EQ(kItems, c);
  EXPECT_GE(handoffs, 100000u);
}

pid_t OsThreadId() { return static_cast<pid_t>(syscall(SYS_gettid)); }

// Every simulated thread is a fiber on the OS thread that called Run, before
// and after it parks.
TEST(SimEnvTest, SimulatedThreadsRunOnTheCallersOsThread) {
  const pid_t caller = OsThreadId();
  std::vector<pid_t> seen;
  SimEnv env;
  env.Run(0, [&] {
    seen.push_back(OsThreadId());
    std::vector<ThreadHandle> hs;
    for (int i = 0; i < 4; i++) {
      hs.push_back(env.StartThread(0, "t", [&, i] {
        seen.push_back(OsThreadId());
        env.SleepNanos(1000 * (4 - i));
        seen.push_back(OsThreadId());
      }));
    }
    for (ThreadHandle h : hs) env.Join(h);
    seen.push_back(OsThreadId());
  });
  ASSERT_EQ(10u, seen.size());
  for (pid_t tid : seen) EXPECT_EQ(caller, tid);
}

// Recurses depth frames of 4 KiB each and yields at the bottom, so other
// threads run while the deep stack is live.
uint64_t DeepFrames(Env* env, int depth) {
  volatile char frame[4096];
  for (size_t i = 0; i < sizeof(frame); i += 64) {
    frame[i] = static_cast<char>(depth % 100);
  }
  uint64_t sum = 0;
  if (depth > 1) {
    sum = DeepFrames(env, depth - 1);
  } else {
    env->MaybeYield();
  }
  for (size_t i = 0; i < sizeof(frame); i += 64) sum += frame[i];
  return sum;
}

// A simulated thread has an OS thread's stack: two threads each hold 1 MiB
// of frames across a switch, and neither overwrites the other's.
TEST(SimEnvTest, SimulatedThreadsCanUseOneMebibyteOfStack) {
  constexpr int kDepth = (1 << 20) / 4096;
  uint64_t want = 0;
  for (int d = 1; d <= kDepth; d++) want += 64 * (d % 100);
  uint64_t got[2] = {0, 0};
  SimEnv env;
  env.Run(0, [&] {
    ThreadHandle a = env.StartThread(0, "a", [&] {
      got[0] = DeepFrames(&env, kDepth);
    });
    ThreadHandle b = env.StartThread(0, "b", [&] {
      got[1] = DeepFrames(&env, kDepth);
    });
    env.Join(a);
    env.Join(b);
  });
  EXPECT_EQ(want, got[0]);
  EXPECT_EQ(want, got[1]);
}

// Per-thread engine state follows the simulated thread, not the OS thread
// the fibers share: each thread keeps its own ThreadLocal across switches.
TEST(SimEnvTest, ThreadLocalIsPerSimulatedThread) {
  static ThreadLocal<uint64_t> slot;
  std::vector<uint64_t> mismatches;
  SimEnv env;
  env.Run(0, [&] {
    std::vector<ThreadHandle> hs;
    for (uint64_t i = 1; i <= 4; i++) {
      hs.push_back(env.StartThread(0, "t", [&, i] {
        if (slot.Get() != 0) mismatches.push_back(slot.Get());
        for (int k = 0; k < 100; k++) {
          slot.Get() = i;
          env.MaybeYield();
          if (slot.Get() != i) mismatches.push_back(slot.Get());
        }
      }));
    }
    for (ThreadHandle h : hs) env.Join(h);
    EXPECT_EQ(0u, slot.Get()) << "the root thread saw another's value";
  });
  EXPECT_TRUE(mismatches.empty()) << mismatches.size() << " mismatches";
}

// A thread waiting on a word parks (no polling) until the writer's WakeWord
// and resumes at the writer's virtual time; with a deadline and no writer it
// returns 0 at the deadline.
TEST(SimEnvTest, WaitWordParksUntilWokenAtTheWakersTime) {
  SimEnv::Options options;
  options.cpu_scale = 0;
  SimEnv env(options);
  uint64_t word = 0;
  uint64_t never = 0;
  uint64_t got = 0, woke_at = 0, timed_out = 1, timed_out_at = 0;
  env.Run(0, [&] {
    ThreadHandle h = env.StartThread(0, "waiter", [&] {
      got = env.WaitWord(&word, UINT64_MAX);
      woke_at = env.NowNanos();
      timed_out = env.WaitWord(&never, woke_at + 5000);
      timed_out_at = env.NowNanos();
    });
    env.SleepNanos(20000);
    __atomic_store_n(&word, 7, __ATOMIC_RELEASE);
    env.WakeWord(&word);
    env.Join(h);
  });
  EXPECT_EQ(7u, got);
  EXPECT_EQ(20000u, woke_at);
  EXPECT_EQ(0u, timed_out);
  EXPECT_EQ(25000u, timed_out_at);
}

TEST(ThreadPoolTest, RunsTasksStdEnv) {
  Env* env = Env::Std();
  ThreadPool pool(env, 0, 4, "pool");
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    pool.Submit([&] { count++; });
  }
  pool.WaitIdle();
  EXPECT_EQ(100, count.load());
}

TEST(ThreadPoolTest, RunsTasksSimEnv) {
  SimEnv env;
  std::atomic<int> count{0};
  env.Run(0, [&] {
    ThreadPool pool(&env, 0, 4, "pool");
    for (int i = 0; i < 100; i++) {
      pool.Submit([&] {
        env.SleepNanos(1000);
        count++;
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(100, count.load());
  });
}

TEST(ThreadPoolTest, WaitIdleWaitsForInFlightTasks) {
  SimEnv env;
  env.Run(0, [&] {
    ThreadPool pool(&env, 0, 2, "pool");
    std::atomic<int> finished{0};
    for (int i = 0; i < 8; i++) {
      pool.Submit([&] {
        env.SleepNanos(50000000);
        finished++;
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(8, finished.load());
  });
}

}  // namespace
}  // namespace dlsm

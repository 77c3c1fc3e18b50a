#include "src/util/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/util/thread_slots.h"

namespace dlsm {
namespace trace {

std::atomic<bool> Tracer::enabled_{false};
std::atomic<bool> Tracer::exemplars_on_{false};

/// Per-thread event buffer. Preallocated at registration; appends drop at
/// capacity (never reallocate, never wrap) so a buffer overflow shortens
/// the trace deterministically instead of perturbing timing.
struct Tracer::ThreadLog {
  ThreadIdentity who;
  uint64_t seq = 0;  // Registration order; export order.
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

namespace {

/// One op retained (so far) by the exemplar policy: its duration, the
/// identity of the emitting thread, and a copy of its event range. A
/// candidate may still be displaced by a slower op in the same window.
struct ExemplarCandidate {
  uint64_t dur_ns = 0;
  uint64_t seq = 0;  // Admission order; export tiebreak.
  const char* name = nullptr;
  ThreadIdentity who;
  std::vector<TraceEvent> events;
};

struct TracerState {
  std::mutex mu;
  std::function<uint64_t()> clock;
  std::function<ThreadIdentity()> identity;
  size_t events_per_thread = Tracer::kDefaultEventsPerThread;
  // Bumped on every Enable; thread-local caches from an older epoch
  // re-register instead of appending to a stale buffer.
  std::atomic<uint64_t> epoch{0};
  std::vector<std::unique_ptr<Tracer::ThreadLog>> logs;
  std::atomic<uint64_t> next_id{1};
  std::atomic<uint64_t> dropped{0};
  // Exemplar mode (guarded by mu except the hot-path flag mirror).
  ExemplarPolicy exemplar_policy;
  std::map<uint64_t, std::vector<ExemplarCandidate>> exemplar_windows;
  uint64_t exemplar_seq = 0;
};

TracerState& State() {
  static TracerState* s = new TracerState();  // Leaked: outlive all threads.
  return *s;
}

struct LogCache {
  uint64_t epoch = 0;
  Tracer::ThreadLog* log = nullptr;
  // Only the outermost TraceOp on a thread does exemplar accounting.
  bool in_op = false;
};
// One trace track per thread of execution, so per simulated thread under
// SimEnv.
ThreadLocal<LogCache> thread_log;

/// Candidates of one window in export order: slowest first, admission
/// order breaking ties (both deterministic under SimEnv).
std::vector<const ExemplarCandidate*> SortedWindow(
    const std::vector<ExemplarCandidate>& cands) {
  std::vector<const ExemplarCandidate*> sorted;
  sorted.reserve(cands.size());
  for (const ExemplarCandidate& c : cands) sorted.push_back(&c);
  std::sort(sorted.begin(), sorted.end(),
            [](const ExemplarCandidate* a, const ExemplarCandidate* b) {
              if (a->dur_ns != b->dur_ns) return a->dur_ns > b->dur_ns;
              return a->seq < b->seq;
            });
  return sorted;
}

void AppendJsonEvent(std::string* out, const ThreadIdentity& who,
                     const TraceEvent& e) {
  char buf[320];
  double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
  switch (e.phase) {
    case 'X': {
      double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%llu",
                    e.name, e.cat, ts_us, dur_us, who.pid,
                    static_cast<unsigned long long>(who.tid));
      out->append(buf);
      if (e.arg1_name != nullptr || e.id != 0) {
        out->append(",\"args\":{");
        bool first = true;
        if (e.id != 0) {
          std::snprintf(buf, sizeof(buf), "\"span\":%llu",
                        static_cast<unsigned long long>(e.id));
          out->append(buf);
          first = false;
        }
        if (e.arg1_name != nullptr) {
          std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                        e.arg1_name, static_cast<unsigned long long>(e.arg1));
          out->append(buf);
          first = false;
        }
        if (e.arg2_name != nullptr) {
          std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                        e.arg2_name, static_cast<unsigned long long>(e.arg2));
          out->append(buf);
        }
        out->append("}");
      }
      out->append("}");
      break;
    }
    case 'i': {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":%llu",
                    e.name, e.cat, ts_us, who.pid,
                    static_cast<unsigned long long>(who.tid));
      out->append(buf);
      if (e.arg1_name != nullptr) {
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"%s\":%llu}", e.arg1_name,
                      static_cast<unsigned long long>(e.arg1));
        out->append(buf);
      }
      out->append("}");
      break;
    }
    case 's':
    case 'f': {
      // Flow finish binds to the enclosing slice ("bp":"e") so the arrow
      // lands on the handler span whose interval covers this timestamp.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",%s"
                    "\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":%llu}",
                    e.name, e.cat, e.phase,
                    e.phase == 'f' ? "\"bp\":\"e\"," : "",
                    static_cast<unsigned long long>(e.id), ts_us, who.pid,
                    static_cast<unsigned long long>(who.tid));
      out->append(buf);
      break;
    }
    default:
      break;
  }
}

void AppendMetadata(std::string* out, const char* kind, uint32_t pid,
                    uint64_t tid, bool with_tid, const std::string& value) {
  char buf[256];
  if (with_tid) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,\"tid\":%llu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  kind, pid, static_cast<unsigned long long>(tid),
                  value.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  kind, pid, value.c_str());
  }
  out->append(buf);
}

}  // namespace

void Tracer::Enable(std::function<uint64_t()> clock,
                    std::function<ThreadIdentity()> identity,
                    size_t events_per_thread) {
  TracerState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  s.clock = std::move(clock);
  s.identity = std::move(identity);
  s.events_per_thread = events_per_thread > 0 ? events_per_thread : 1;
  s.logs.clear();
  s.next_id.store(1, std::memory_order_relaxed);
  s.dropped.store(0, std::memory_order_relaxed);
  s.exemplar_policy = ExemplarPolicy();
  s.exemplar_windows.clear();
  s.exemplar_seq = 0;
  exemplars_on_.store(false, std::memory_order_release);
  s.epoch.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::SetExemplarPolicy(const ExemplarPolicy& policy) {
  TracerState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  s.exemplar_policy = policy;
  s.exemplar_windows.clear();
  exemplars_on_.store(policy.active(), std::memory_order_release);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_release); }

uint64_t Tracer::Now() {
  TracerState& s = State();
  return s.clock ? s.clock() : 0;
}

uint64_t Tracer::NextId() {
  return State().next_id.fetch_add(1, std::memory_order_relaxed);
}

Tracer::ThreadLog* Tracer::Log() {
  TracerState& s = State();
  uint64_t epoch = s.epoch.load(std::memory_order_acquire);
  LogCache& cache = thread_log.Get();
  if (cache.epoch == epoch && cache.log != nullptr) return cache.log;
  std::lock_guard<std::mutex> lk(s.mu);
  if (!enabled()) return nullptr;
  auto log = std::make_unique<ThreadLog>();
  log->who = s.identity ? s.identity() : ThreadIdentity();
  log->seq = s.logs.size();
  log->events.reserve(s.events_per_thread);
  ThreadLog* raw = log.get();
  s.logs.push_back(std::move(log));
  cache.epoch = epoch;
  cache.log = raw;
  return raw;
}

void Tracer::EmitComplete(const char* name, const char* cat, uint64_t ts_ns,
                          uint64_t dur_ns, uint64_t id, const char* arg1_name,
                          uint64_t arg1, const char* arg2_name,
                          uint64_t arg2) {
  if (!enabled()) return;
  ThreadLog* log = Log();
  if (log == nullptr) return;
  if (log->events.size() == log->events.capacity()) {
    log->dropped++;
    State().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.id = id;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.arg2_name = arg2_name;
  e.arg2 = arg2;
  e.phase = 'X';
  log->events.push_back(e);
}

void Tracer::EmitInstant(const char* name, const char* cat,
                         const char* arg1_name, uint64_t arg1) {
  if (!enabled()) return;
  ThreadLog* log = Log();
  if (log == nullptr) return;
  if (log->events.size() == log->events.capacity()) {
    log->dropped++;
    State().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = Now();
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.phase = 'i';
  log->events.push_back(e);
}

void Tracer::EmitFlow(char phase, const char* name, const char* cat,
                      uint64_t id) {
  if (!enabled()) return;
  ThreadLog* log = Log();
  if (log == nullptr) return;
  if (log->events.size() == log->events.capacity()) {
    log->dropped++;
    State().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = Now();
  e.id = id;
  e.phase = phase;
  log->events.push_back(e);
}

std::string Tracer::ChromeTraceJson() {
  TracerState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  std::string out;
  out.reserve(1 << 16);
  out.append("{\"traceEvents\":[");
  bool first = true;
  auto sep = [&out, &first] {
    if (!first) out.append(",\n");
    first = false;
  };
  // Metadata first: one process_name per node, one thread_name per thread,
  // in registration order (deterministic under SimEnv).
  std::set<uint32_t> named_pids;
  for (const auto& log : s.logs) {
    if (named_pids.insert(log->who.pid).second &&
        !log->who.process_name.empty()) {
      sep();
      AppendMetadata(&out, "process_name", log->who.pid, 0, false,
                     log->who.process_name);
    }
    if (!log->who.thread_name.empty()) {
      sep();
      AppendMetadata(&out, "thread_name", log->who.pid, log->who.tid, true,
                     log->who.thread_name);
    }
  }
  for (const auto& log : s.logs) {
    for (const TraceEvent& e : log->events) {
      sep();
      AppendJsonEvent(&out, log->who, e);
    }
  }
  // Exemplar span trees, grouped by window ascending, slowest op first.
  // Events keep their original thread identity, so they land on the
  // emitting thread's track next to that thread's background spans.
  for (const auto& [window, cands] : s.exemplar_windows) {
    (void)window;
    for (const ExemplarCandidate* c : SortedWindow(cands)) {
      for (const TraceEvent& e : c->events) {
        sep();
        AppendJsonEvent(&out, c->who, e);
      }
    }
  }
  out.append("]}\n");
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = (n == json.size());
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

uint64_t Tracer::dropped_events() {
  return State().dropped.load(std::memory_order_relaxed);
}

void Tracer::ExemplarFinish(ThreadLog* log, size_t mark, const char* name,
                            uint64_t start_ns, uint64_t dur_ns) {
  TracerState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!s.exemplar_policy.active()) return;  // Raced off; keep the events.
  size_t end = log->events.size();
  if (mark > end) return;  // Buffer re-registered mid-op; nothing to claim.
  std::vector<ExemplarCandidate>& w =
      s.exemplar_windows[start_ns / s.exemplar_policy.window_ns];
  bool admit;
  if (w.size() < s.exemplar_policy.k) {
    admit = true;
  } else {
    // Displace the window's fastest retained op if this one is slower
    // (the adaptive threshold: the current k-th slowest duration).
    size_t min_i = 0;
    for (size_t i = 1; i < w.size(); i++) {
      if (w[i].dur_ns < w[min_i].dur_ns) min_i = i;
    }
    admit = dur_ns > w[min_i].dur_ns;
    if (admit) {
      w[min_i] = std::move(w.back());
      w.pop_back();
    }
  }
  if (admit) {
    ExemplarCandidate c;
    c.dur_ns = dur_ns;
    c.seq = s.exemplar_seq++;
    c.name = name;
    c.who = log->who;
    c.events.assign(log->events.begin() + mark, log->events.begin() + end);
    w.push_back(std::move(c));
  }
  // Rolled back either way: retained ops live in the candidate store, so
  // the thread buffer only holds background (non-op) events.
  log->events.resize(mark);
}

std::vector<Tracer::ExemplarInfo> Tracer::ExemplarIndex() {
  TracerState& s = State();
  std::lock_guard<std::mutex> lk(s.mu);
  std::vector<ExemplarInfo> out;
  for (const auto& [window, cands] : s.exemplar_windows) {
    for (const ExemplarCandidate* c : SortedWindow(cands)) {
      out.push_back(ExemplarInfo{window, c->dur_ns, c->name});
    }
  }
  return out;
}

void TraceSpan::Begin(const char* name, const char* cat) {
  active_ = true;
  name_ = name;
  cat_ = cat;
  start_ns_ = Tracer::Now();
  id_ = Tracer::NextId();
}

void TraceOp::Begin(const char* name, const char* cat) {
  active_ = true;
  name_ = name;
  cat_ = cat;
  start_ns_ = Tracer::Now();
  id_ = Tracer::NextId();
  if (Tracer::exemplars_active() && !thread_log.Get().in_op) {
    log_ = Tracer::Log();
    if (log_ != nullptr) {
      mark_ = log_->events.size();
      exemplar_ = true;
      thread_log.Get().in_op = true;
    }
  }
}

void TraceOp::End() {
  if (!active_) return;
  active_ = false;
  uint64_t dur_ns = Tracer::Now() - start_ns_;
  // The op's own span is emitted first so it is part of the copied range.
  Tracer::EmitComplete(name_, cat_, start_ns_, dur_ns, id_, arg1_name_,
                       arg1_, arg2_name_, arg2_);
  if (exemplar_) {
    exemplar_ = false;
    thread_log.Get().in_op = false;
    Tracer::ExemplarFinish(log_, mark_, name_, start_ns_, dur_ns);
  }
}

}  // namespace trace
}  // namespace dlsm

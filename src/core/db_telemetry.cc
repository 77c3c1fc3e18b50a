// DLsmDB continuous telemetry: the background sampler that feeds the
// "dlsm.timeseries" ring and the stall-watchdog tick loop (DESIGN
// Sec. 4.9). Split out of db_impl.cc: everything here is off the hot path
// and inactive unless Options::stats_sample_period_ms or
// Options::watchdog_deadline_ms is set.

#include <algorithm>
#include <cstdio>

#include "src/core/db_impl.h"

namespace dlsm {

namespace {

// Watchdog kind literals per verb class (StuckOp stores the pointer).
const char* VerbStuckKind(rdma::VerbClass c) {
  switch (c) {
    case rdma::VerbClass::kRead:
      return "verb:READ";
    case rdma::VerbClass::kWrite:
      return "verb:WRITE";
    case rdma::VerbClass::kSend:
      return "verb:SEND";
    case rdma::VerbClass::kAtomic:
      return "verb:ATOMIC";
  }
  return "verb:?";
}

}  // namespace

void DLsmDB::SetupTelemetry() {
  const bool sampler_on = options_.stats_sample_period_ms > 0;
  const bool watchdog_on = options_.watchdog_deadline_ms > 0;
  if (!sampler_on && !watchdog_on) return;

  if (sampler_on) {
    using Kind = telemetry::Series::Kind;
    std::vector<telemetry::Series::Column> cols;
    auto counter = [&cols](std::string name) {
      cols.push_back({std::move(name), Kind::kCounter});
    };
    auto gauge = [&cols](std::string name) {
      cols.push_back({std::move(name), Kind::kGauge});
    };
    // Every listed DbStats counter under its own name: monotones export
    // per-interval deltas, high-water marks their level.
    for (const DbCounter& c : kDbCounters) {
      if (c.rule == MergeRule::kMax) {
        gauge(c.name);
      } else {
        counter(c.name);
      }
    }
    // Verb-layer counters and gauges, engine-wide.
    counter("rdma_posted");
    counter("rdma_completed");
    gauge("rdma_outstanding");
    // Windowed wire-latency percentiles (this interval's completions
    // only, via Histogram::DeltaSince), microseconds.
    gauge("read_p50_us");
    gauge("read_p99_us");
    gauge("write_p99_us");
    // Per-memory-node READ/WRITE distribution: the balance signal the
    // heat rebalancer acts on, now observable over time.
    for (size_t i = 0; i < nodes_.size(); i++) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "node%zu_read_verbs", i);
      counter(buf);
      std::snprintf(buf, sizeof(buf), "node%zu_write_verbs", i);
      counter(buf);
    }
    size_t cap = options_.stats_ring_capacity > 0
                     ? options_.stats_ring_capacity
                     : 1;
    series_ = std::make_unique<telemetry::Series>(std::move(cols), cap);
  }

  if (watchdog_on) {
    telemetry::Watchdog::Options wo;
    wo.clock = [this] { return env_->NowNanos(); };
    wo.deadline_ns = options_.watchdog_deadline_ms * 1'000'000ull;
    if (options_.watchdog_sink) wo.sink = options_.watchdog_sink;
    watchdog_ = std::make_unique<telemetry::Watchdog>(wo);

    // Probe: verbs in flight longer than the deadline, across every
    // per-node connection. These are too hot to Arm() individually; the
    // verb layer's outstanding mirror is enumerated instead.
    watchdog_->AddProbe(
        "outstanding_verbs",
        [this](uint64_t now, uint64_t deadline_ns,
               std::vector<telemetry::Watchdog::StuckOp>* out) {
          std::vector<rdma::OutstandingVerb> verbs;
          for (const MemoryNodeState& n : nodes_) {
            if (n.mgr == nullptr) continue;
            verbs.clear();
            n.mgr->ListOutstanding(&verbs);
            for (const rdma::OutstandingVerb& v : verbs) {
              if (now > v.post_ns && now - v.post_ns > deadline_ns) {
                out->push_back(telemetry::Watchdog::StuckOp{
                    VerbStuckKind(v.cls), v.wr_id, now - v.post_ns});
              }
            }
          }
        });

    // Dump sections: recent samples, the raw outstanding-handle table,
    // and per-QP state — what a postmortem needs to name the wedge.
    watchdog_->AddDiagnostic("timeseries_tail", [this] {
      return series_ != nullptr ? series_->TailJson(8)
                                : std::string("(sampler off)");
    });
    watchdog_->AddDiagnostic("outstanding_verbs", [this] {
      std::string out;
      char line[128];
      std::vector<rdma::OutstandingVerb> verbs;
      for (size_t i = 0; i < nodes_.size(); i++) {
        if (nodes_[i].mgr == nullptr) continue;
        verbs.clear();
        nodes_[i].mgr->ListOutstanding(&verbs);
        for (const rdma::OutstandingVerb& v : verbs) {
          std::snprintf(line, sizeof(line),
                        "node%zu wr_id=%llu class=%s post_ns=%llu\n", i,
                        static_cast<unsigned long long>(v.wr_id),
                        rdma::VerbClassName(v.cls),
                        static_cast<unsigned long long>(v.post_ns));
          out += line;
        }
      }
      if (out.empty()) out = "(none)\n";
      return out;
    });
    watchdog_->AddDiagnostic("qp_state", [this] {
      std::string out;
      for (const MemoryNodeState& n : nodes_) {
        if (n.mgr != nullptr) out += n.mgr->QpStateSummary();
      }
      return out;
    });
  }

  has_telemetry_thread_ = true;
  telemetry_thread_ = env_->StartThread(deps_.compute->env_node(),
                                        "telemetry", [this] {
                                          TelemetryLoop();
                                        });
}

void DLsmDB::TelemetryLoop() {
  const uint64_t sample_ns = options_.stats_sample_period_ms * 1'000'000ull;
  uint64_t poll_ns = 0;
  if (watchdog_ != nullptr) {
    poll_ns = std::max<uint64_t>(
        options_.watchdog_deadline_ms * 1'000'000ull / 4, 1'000'000ull);
  }
  uint64_t tick_ns;
  if (sample_ns > 0 && poll_ns > 0) {
    tick_ns = sample_ns < poll_ns ? sample_ns : poll_ns;
  } else {
    tick_ns = sample_ns > 0 ? sample_ns : poll_ns;
  }
  uint64_t next_sample = env_->NowNanos() + sample_ns;
  while (!shutdown_.load(std::memory_order_acquire)) {
    {
      MutexLock l(&telem_mu_);
      if (!shutdown_.load(std::memory_order_acquire)) {
        telem_cv_.TimedWait(tick_ns);
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    if (series_ != nullptr && env_->NowNanos() >= next_sample) {
      SampleOnce();
      next_sample += sample_ns;
      // A long stall can put next_sample several periods behind; realign
      // rather than emitting a burst of make-up rows.
      uint64_t now = env_->NowNanos();
      if (next_sample <= now) next_sample = now + sample_ns;
    }
    if (watchdog_ != nullptr) watchdog_->Poll();
  }
}

void DLsmDB::SampleOnce() {
  // One snapshot feeds every column, so a row is internally consistent.
  DbStats s = GetStats();
  // This interval's completions only: percentile of the histogram delta.
  Histogram read_delta =
      s.rdma.read.latency_us.DeltaSince(prev_verbs_.read.latency_us);
  Histogram write_delta =
      s.rdma.write.latency_us.DeltaSince(prev_verbs_.write.latency_us);

  std::vector<double> row;
  row.reserve(series_->num_columns());
  auto push = [&row](uint64_t v) { row.push_back(static_cast<double>(v)); };
  for (const DbCounter& c : kDbCounters) push(s.*c.field);
  push(s.rdma.posted);
  push(s.rdma.completed);
  push(s.rdma.outstanding);
  row.push_back(read_delta.Percentile(50.0));
  row.push_back(read_delta.Percentile(99.0));
  row.push_back(write_delta.Percentile(99.0));
  for (const DbStats::NodeIoStats& n : s.per_node) {
    push(n.read_verbs);
    push(n.write_verbs);
  }
  series_->Append(env_->NowNanos(), row);
  prev_verbs_ = std::move(s.rdma);
}

void DLsmDB::StopTelemetry() {
  if (!has_telemetry_thread_) return;
  {
    MutexLock l(&telem_mu_);
    telem_cv_.SignalAll();
  }
  env_->Join(telemetry_thread_);
  has_telemetry_thread_ = false;
}

}  // namespace dlsm

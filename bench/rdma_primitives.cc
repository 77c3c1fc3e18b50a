// The Sec. I motivation claim: transferring data in 64 B units vs 1 MB
// units differs by ~100x on the modeled EDR link (the OFED perf-test
// observation that motivates the LSM design). Sweeps payload size and
// prints achieved one-sided READ bandwidth.
//
// Also measures the unified verb layer's overhead: synchronous wrappers
// (post+wait per verb) vs handle waves (doorbell batches) vs interleaved
// read+write handles on one queue pair — the three shapes engine code
// drives the layer with.
//
// Usage: rdma_primitives [--total_mb=64]

#include <cstdio>
#include <deque>
#include <vector>

#include "bench/harness.h"
#include "src/rdma/fabric.h"
#include "src/rdma/rdma_manager.h"
#include "src/sim/sim_env.h"
#include "src/util/logging.h"
#include "src/util/trace.h"
#include "src/util/watchdog.h"

namespace dlsm {
namespace bench {
namespace {

void VerbLayerSeries(SimEnv* env, rdma::Fabric* fabric,
                     rdma::RdmaManager* mgr, const rdma::MemoryRegion& mr) {
  std::printf("\n=== Verb-layer overhead (one QP, %u ops/series) ===\n",
              20000u);
  std::printf("%10s %12s %14s %14s %14s\n", "payload", "wave", "sync ops/s",
              "wave ops/s", "mixed ops/s");
  constexpr uint64_t kOps = 20000;
  constexpr size_t kWave = 16;
  std::vector<char> buf(1 << 20);
  for (size_t payload : {64ul, 4096ul}) {
    // Sync wrappers: one post+wait round trip per verb.
    uint64_t t0 = env->NowNanos();
    for (uint64_t i = 0; i < kOps; i++) {
      DLSM_CHECK(mgr->Read(buf.data(), mr.addr, mr.rkey, payload).ok());
    }
    double sync_rate = kOps / ((env->NowNanos() - t0) / 1e9);

    // Handle waves: post kWave, wait the handles (doorbell batching).
    t0 = env->NowNanos();
    for (uint64_t i = 0; i < kOps; i += kWave) {
      rdma::ReadBatch batch(mgr);
      for (size_t j = 0; j < kWave; j++) {
        batch.Add(buf.data() + j * payload, mr.addr + j * payload, mr.rkey,
                  payload);
      }
      DLSM_CHECK(batch.WaitAll().ok());
    }
    double wave_rate = kOps / ((env->NowNanos() - t0) / 1e9);

    // Interleaved read+write waves on the same queue — legal under the
    // handle layer (was forbidden by the pre-refactor contract).
    t0 = env->NowNanos();
    for (uint64_t i = 0; i < kOps; i += kWave) {
      std::vector<rdma::WrHandle> handles;
      handles.reserve(kWave);
      rdma::VerbQueue* vq = mgr->ThreadVq();
      for (size_t j = 0; j < kWave; j++) {
        uint64_t addr = mr.addr + j * payload;
        char* b = buf.data() + j * payload;
        handles.push_back(j % 2 == 0 ? vq->Read(b, addr, mr.rkey, payload)
                                     : vq->Write(b, addr, mr.rkey, payload));
      }
      for (auto& h : handles) DLSM_CHECK(h.Wait().ok());
    }
    double mixed_rate = kOps / ((env->NowNanos() - t0) / 1e9);

    std::printf("%10zu %12zu %14.0f %14.0f %14.0f\n", payload, kWave,
                sync_rate, wave_rate, mixed_rate);
  }
  std::printf("\nVerb-layer telemetry after the series:\n%s",
              mgr->StatsSnapshot().ToString().c_str());
  (void)fabric;
}

// A/B guard for the tracing fast path: the disabled check is one relaxed
// atomic load per span, so the same READ loop with tracing off must stay
// within noise (±2%) of a build that never heard of tracing; with tracing
// on, the recorder's per-event cost shows up as the third column.
void TracingOverheadSeries(SimEnv* env, rdma::RdmaManager* mgr,
                           const rdma::MemoryRegion& mr) {
  constexpr uint64_t kOps = 20000;
  constexpr size_t kPayload = 64;
  std::vector<char> buf(kPayload);
  auto series = [&] {
    uint64_t t0 = env->NowNanos();
    for (uint64_t i = 0; i < kOps; i++) {
      DLSM_CHECK(mgr->Read(buf.data(), mr.addr, mr.rkey, kPayload).ok());
    }
    return kOps / ((env->NowNanos() - t0) / 1e9);
  };

  double off1 = series();
  double off2 = series();  // Tracing-off rerun: the noise floor.
  trace::EnableWithEnv(env);
  double on = series();
  uint64_t events = 0;
  {
    // Count "verb" events without parsing: each completion emits one.
    std::string json = trace::Tracer::ChromeTraceJson();
    for (size_t p = json.find("\"cat\":\"verb\""); p != std::string::npos;
         p = json.find("\"cat\":\"verb\"", p + 1)) {
      events++;
    }
  }
  trace::Tracer::Disable();

  double off_delta = 100.0 * (off2 - off1) / off1;
  double on_delta = 100.0 * (on - off2) / off2;
  std::printf("\n=== Tracing overhead (sync READ, %zu B x %llu) ===\n",
              kPayload, static_cast<unsigned long long>(kOps));
  std::printf("%14s %14s %14s %10s\n", "off ops/s", "off rerun", "on ops/s",
              "events");
  std::printf("%14.0f %14.0f %14.0f %10llu\n", off1, off2, on,
              static_cast<unsigned long long>(events));
  std::printf("off-vs-off delta %+.2f%% (guard: |delta| <= 2%%: %s), "
              "on-vs-off delta %+.2f%%\n",
              off_delta, off_delta <= 2.0 && off_delta >= -2.0 ? "PASS"
                                                               : "FAIL",
              on_delta);
}

// A/B guard for the continuous-telemetry stack at the verb layer. Legs:
//   off x2      — the noise floor (SimEnv folds host CPU into virtual
//                 time, so ops/s carries host jitter).
//   watchdog    — a stall watchdog whose probe enumerates the in-flight
//                 WR mirror, polled at its deadline/4 cadence. This is
//                 the always-on production configuration, so it carries
//                 the 2% acceptance budget (widened to the measured noise
//                 floor when the host is noisier than the budget).
//   exemplars   — watchdog plus exemplar-mode tracing (per-op top-k
//                 admission and thread-buffer rollback). Like the full-
//                 tracing delta above, a debug mode: reported, not
//                 guarded — its cost is the price of keeping p99 span
//                 trees at production rates.
void TelemetryOverheadSeries(SimEnv* env, rdma::RdmaManager* mgr,
                             const rdma::MemoryRegion& mr) {
  constexpr uint64_t kOps = 20000;
  constexpr size_t kPayload = 64;
  constexpr uint64_t kPollNs = 250'000;  // 1 ms deadline / 4.
  std::vector<char> buf(kPayload);
  telemetry::Watchdog* wd = nullptr;
  auto series = [&] {
    uint64_t next_poll = env->NowNanos() + kPollNs;
    uint64_t t0 = env->NowNanos();
    for (uint64_t i = 0; i < kOps; i++) {
      trace::TraceOp op("Read", "bench");
      DLSM_CHECK(mgr->Read(buf.data(), mr.addr, mr.rkey, kPayload).ok());
      if (wd != nullptr && env->NowNanos() >= next_poll) {
        wd->Poll();
        next_poll = env->NowNanos() + kPollNs;
      }
    }
    return kOps / ((env->NowNanos() - t0) / 1e9);
  };

  double off1 = series();
  double off2 = series();  // Telemetry-off rerun: the noise floor.

  telemetry::Watchdog::Options wo;
  wo.clock = [env] { return env->NowNanos(); };
  wo.deadline_ns = 1'000'000;
  wo.sink = [](const std::string&) {};  // A healthy run never fires.
  telemetry::Watchdog watchdog(wo);
  watchdog.AddProbe(
      "outstanding_verbs",
      [mgr](uint64_t now, uint64_t deadline_ns,
            std::vector<telemetry::Watchdog::StuckOp>* out) {
        std::vector<rdma::OutstandingVerb> verbs;
        mgr->ListOutstanding(&verbs);
        for (const rdma::OutstandingVerb& v : verbs) {
          if (now > v.post_ns && now - v.post_ns > deadline_ns) {
            out->push_back(telemetry::Watchdog::StuckOp{
                "verb", v.wr_id, now - v.post_ns});
          }
        }
      });
  wd = &watchdog;
  double wd_on = series();

  trace::EnableWithEnv(env);
  trace::ExemplarPolicy policy;
  policy.k = 4;
  policy.window_ns = 1'000'000;
  trace::Tracer::SetExemplarPolicy(policy);
  double ex_on = series();
  size_t exemplars = trace::Tracer::ExemplarIndex().size();
  trace::Tracer::Disable();
  wd = nullptr;

  double off_delta = 100.0 * (off2 - off1) / off1;
  double wd_delta = 100.0 * (wd_on - off2) / off2;
  double ex_delta = 100.0 * (ex_on - off2) / off2;
  double budget = off_delta < 0 ? -off_delta : off_delta;
  if (budget < 2.0) budget = 2.0;
  bool wd_ok = wd_delta <= budget && wd_delta >= -budget;
  std::printf("\n=== Telemetry overhead (sync READ, %zu B x %llu) ===\n",
              kPayload, static_cast<unsigned long long>(kOps));
  std::printf("%14s %14s %14s %14s %10s %8s\n", "off ops/s", "off rerun",
              "wd ops/s", "exemp ops/s", "exemplars", "fired");
  std::printf("%14.0f %14.0f %14.0f %14.0f %10zu %8s\n", off1, off2, wd_on,
              ex_on, exemplars, watchdog.fired() ? "yes" : "no");
  std::printf("off-vs-off delta %+.2f%% (noise floor) | watchdog delta "
              "%+.2f%% (guard |delta| <= %.1f%%: %s) | +exemplars delta "
              "%+.2f%% (debug mode, informational)\n",
              off_delta, wd_delta, budget, wd_ok ? "PASS" : "FAIL",
              ex_delta);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"total_mb"});
  uint64_t total = flags.GetInt("total_mb", 64) << 20;

  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 1ull << 30);

  std::printf("\n=== RDMA one-sided READ bandwidth vs payload size ===\n");
  std::printf("(link: %.0f Gb/s, %.1f us read latency)\n",
              fabric.params().bandwidth_gbps,
              fabric.params().read_latency_ns / 1000.0);
  std::printf("%12s %14s %14s\n", "payload", "GB/s", "ops/s");

  env.Run(0, [&] {
    char* remote = memory->AllocDram(4 << 20);
    rdma::MemoryRegion mr = fabric.RegisterMemory(memory, remote, 4 << 20);
    rdma::RdmaManager mgr(&fabric, compute, memory);
    std::vector<char> buf(4 << 20);

    // Pipelined reads at queue depth 16, as the OFED perf-test drives the
    // NIC (the paper's Sec. I measurement). A deque of in-flight handles
    // keeps the pipe full; the oldest handle is waited as new posts go out.
    constexpr size_t kQueueDepth = 16;
    double small_bw = 0, big_bw = 0;
    for (size_t payload : {64ul, 256ul, 1024ul, 4096ul, 16384ul, 65536ul,
                           262144ul, 1048576ul}) {
      uint64_t ops = total / payload;
      if (ops > 200000) ops = 200000;
      rdma::VerbQueue* vq = mgr.ThreadVq();
      uint64_t t0 = env.NowNanos();
      uint64_t posted = 0, completed = 0;
      std::deque<rdma::WrHandle> inflight;
      while (completed < ops) {
        while (posted < ops && inflight.size() < kQueueDepth) {
          inflight.push_back(vq->Read(buf.data(), mr.addr, mr.rkey, payload));
          posted++;
        }
        DLSM_CHECK(inflight.front().Wait().ok());
        inflight.pop_front();
        completed++;
      }
      uint64_t t1 = env.NowNanos();
      double secs = (t1 - t0) / 1e9;
      double gbs = ops * payload / secs / 1e9;
      std::printf("%12zu %14.3f %14.0f\n", payload, gbs, ops / secs);
      if (payload == 64) small_bw = gbs;
      if (payload == 1048576) big_bw = gbs;
    }
    std::printf("\n64B vs 1MB throughput gap: %.0fx (paper cites ~100x)\n",
                big_bw / small_bw);

    VerbLayerSeries(&env, &fabric, &mgr, mr);
    TracingOverheadSeries(&env, &mgr, mr);
    TelemetryOverheadSeries(&env, &mgr, mr);
  });
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

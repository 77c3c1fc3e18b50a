// The Sec. I motivation claim: transferring data in 64 B units vs 1 MB
// units differs by ~100x on the modeled EDR link (the OFED perf-test
// observation that motivates the LSM design). Sweeps payload size and
// prints achieved one-sided READ bandwidth.
//
// Also measures the unified verb layer's overhead: synchronous wrappers
// (post+wait per verb) vs handle waves (doorbell batches) vs interleaved
// read+write handles on one queue pair — the three shapes engine code
// drives the layer with — and guards the tracing and telemetry overhead
// on the sync READ path (exit status 1 when the guard fails).
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

void VerbLayerSeries(SimEnv* env, rdma::RdmaManager* mgr,
                     const rdma::MemoryRegion& mr) {
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
    // Mixed waves interleave READs and WRITEs on the same queue.
    auto waves = [&](bool mixed) {
      uint64_t start = env->NowNanos();
      rdma::VerbQueue* vq = mgr->ThreadVq();
      for (uint64_t i = 0; i < kOps; i += kWave) {
        std::vector<rdma::WrHandle> wave;
        wave.reserve(kWave);
        for (size_t j = 0; j < kWave; j++) {
          uint64_t addr = mr.addr + j * payload;
          char* b = buf.data() + j * payload;
          wave.push_back(mixed && j % 2 == 1
                             ? vq->Write(b, addr, mr.rkey, payload)
                             : vq->Read(b, addr, mr.rkey, payload));
        }
        for (rdma::WrHandle& h : wave) DLSM_CHECK(h.Wait().ok());
      }
      return kOps / ((env->NowNanos() - start) / 1e9);
    };
    double wave_rate = waves(false);
    double mixed_rate = waves(true);

    std::printf("%10zu %12zu %14.0f %14.0f %14.0f\n", payload, kWave,
                sync_rate, wave_rate, mixed_rate);
  }
  std::printf("\nVerb-layer telemetry after the series:\n%s",
              mgr->StatsSnapshot().ToString().c_str());
}

// A/B guard for tracing and the continuous-telemetry stack at the verb
// layer: every leg runs the same loop of kOps synchronous 64 B READs, each
// under a TraceOp. Legs:
//   off        — tracing and watchdog off; its spread is the noise floor
//                (SimEnv folds host CPU into virtual time).
//   tracing    — full tracing: the recorder's per-event cost.
//   watchdog   — a stall watchdog whose probe enumerates the in-flight WR
//                mirror, polled at its deadline/4 cadence. This is the
//                always-on production configuration, so it must not be
//                worse than off by more than 2%.
//   exemplars  — watchdog plus exemplar-mode tracing (per-op top-k
//                admission and thread-buffer rollback).
// Tracing and exemplars are debug modes: reported, not guarded.
int TelemetryOverheadGuard(SimEnv* env, rdma::RdmaManager* mgr,
                           const rdma::MemoryRegion& mr) {
  constexpr uint64_t kOps = 20000;
  constexpr size_t kPayload = 64;
  constexpr uint64_t kPollNs = 250'000;  // 1 ms deadline / 4.
  std::vector<char> buf(kPayload);
  auto series = [&](telemetry::Watchdog* wd) {
    uint64_t next_poll = env->NowNanos() + kPollNs;
    uint64_t t0 = env->NowNanos();
    for (uint64_t i = 0; i < kOps; i++) {
      trace::TraceOp op("Read", "bench");
      DLSM_CHECK(mgr->Read(buf.data(), mr.addr, mr.rkey, kPayload).ok());
      // Every leg pays this clock read, so the legs differ only in Poll.
      if (env->NowNanos() >= next_poll) {
        if (wd != nullptr) wd->Poll();
        next_poll = env->NowNanos() + kPollNs;
      }
    }
    PhaseResult r;
    r.ops = kOps;
    r.elapsed_s = (env->NowNanos() - t0) / 1e9;
    r.ops_per_sec = kOps / r.elapsed_s;
    return r;
  };
  auto with_watchdog = [&] {
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
    return series(&watchdog);
  };
  // Runs `leg` traced, keeping the k slowest ops per 1 ms window (k = 0
  // keeps every span).
  auto traced = [&](const std::function<PhaseResult()>& leg, size_t k) {
    trace::EnableWithEnv(env);
    trace::ExemplarPolicy policy;
    policy.k = k;
    policy.window_ns = 1'000'000;
    trace::Tracer::SetExemplarPolicy(policy);
    PhaseResult r = leg();
    trace::Tracer::Disable();
    return r;
  };
  std::printf("\n=== Tracing and telemetry overhead (sync READ, %zu B x "
              "%llu) ===\n",
              kPayload, static_cast<unsigned long long>(kOps));
  return RunAbGuard(
      {{"off", [&] { return series(nullptr); }},
       {"tracing", [&] { return traced([&] { return series(nullptr); }, 0); }},
       {"watchdog", with_watchdog},
       {"exemplars", [&] { return traced(with_watchdog, 4); }}},
      {{"ops/s", true, 0, [](const PhaseResult& r) { return r.ops_per_sec; }}},
      {{AbCheckKind::kNotWorse, "ops/s", "watchdog", "off", 0.02}});
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

  int rc = 0;
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

    VerbLayerSeries(&env, &mgr, mr);
    rc = TelemetryOverheadGuard(&env, &mgr, mr);
  });
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

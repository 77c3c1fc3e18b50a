// Tracing subsystem tests: disabled-path inertness (no events, no
// allocations), Chrome trace JSON shape, cross-node RPC flow stitching,
// and byte-identical traces across same-seed deterministic SimEnv runs.
//
// Determinism caveat: SimEnv charges *measured* host CPU time into virtual
// time by default (cpu_scale = 1.0), so timestamps wobble run to run with
// the host. The byte-identical guarantee holds in pure discrete-event mode
// (cpu_scale = 0), where virtual time advances only through the fabric
// model and explicit sleeps; that is what these tests pin down.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/db.h"
#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/trace.h"
#include "tests/alloc_counter.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace {

using test::SmallOptions;
using test::TestKey;
using test::TestValue;

// Runs a small write+read workload on a two-node deployment in pure
// discrete-event mode and returns the full Chrome trace JSON. Everything
// that feeds the trace — thread creation order, scheduler tie-breaks,
// timestamps — is a function of the seed alone.
std::string TracedWorkloadJson(uint64_t seed) {
  SimEnv::Options so;
  so.cpu_scale = 0.0;
  SimEnv env(so);
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);

  trace::EnableWithEnv(&env);
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 4);
    service.Start();
    Options options = SmallOptions(&env);
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
    std::unique_ptr<DB> db(raw);

    Random rnd(seed);
    // Enough data for several flushes and at least one compaction under
    // SmallOptions (64 KB memtables, L0 trigger 4).
    for (int i = 0; i < 9000; i++) {
      uint64_t k = rnd.Uniform(3000);
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(k), TestValue(k)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
    for (int i = 0; i < 200; i++) {
      std::string value;
      Status s = db->Get(ReadOptions(), TestKey(rnd.Uniform(1000)), &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound());
    }
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
  std::string json = trace::Tracer::ChromeTraceJson();
  trace::Tracer::Disable();
  return json;
}

TEST(TraceTest, DisabledTracingRecordsNothingAndAllocatesNothing) {
  trace::Tracer::Disable();
  ASSERT_FALSE(trace::Tracer::enabled());
  // The counted block is pure tracing API; gtest assertions stay outside
  // so the only possible allocations are the recorder's.
  uint64_t before = test::OperatorNewCount();
  bool any_active = false;
  uint64_t id_sum = 0;
  for (int i = 0; i < 10000; i++) {
    trace::TraceSpan span("hot", "test");
    span.arg("k", 1);
    trace::Tracer::EmitInstant("inst", "test", "a", 2);
    trace::Tracer::EmitComplete("done", "test", 0, 1);
    trace::Tracer::EmitFlow('s', "flow", "test", 7);
    any_active |= span.active();
    id_sum += span.id();
  }
  uint64_t after = test::OperatorNewCount();
  EXPECT_EQ(before, after);
  EXPECT_FALSE(any_active);
  EXPECT_EQ(0u, id_sum);
}

TEST(TraceTest, ChromeJsonShapeAndInstrumentedLayers) {
  std::string json = TracedWorkloadJson(1234);
  // Top-level shape.
  EXPECT_EQ(0u, json.find("{\"traceEvents\":["));
  EXPECT_NE(std::string::npos, json.rfind("]}"));

  // Metadata: pid = node (compute/memory), named threads.
  EXPECT_NE(std::string::npos, json.find("\"process_name\""));
  EXPECT_NE(std::string::npos, json.find("\"compute\""));
  EXPECT_NE(std::string::npos, json.find("\"memory\""));
  EXPECT_NE(std::string::npos, json.find("\"thread_name\""));

  // DB layer: op spans with phase sub-spans.
  for (const char* name :
       {"\"Get\"", "\"Write\"", "\"mem_probe\"", "\"flush\"",
        "\"compaction\"", "\"exec_compaction\""}) {
    EXPECT_NE(std::string::npos, json.find(name)) << name;
  }
  // Verb layer: per-class async spans recorded at completion harvest.
  EXPECT_NE(std::string::npos, json.find("\"cat\":\"verb\""));
  // RPC layer: client call span, server handler span, flow arrows.
  EXPECT_NE(std::string::npos, json.find("\"rpc_call\""));
  EXPECT_NE(std::string::npos, json.find("\"rpc_handle\""));
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"s\""));
  EXPECT_NE(std::string::npos, json.find("\"ph\":\"f\""));
}

TEST(TraceTest, RpcFlowsStitchAcrossNodes) {
  std::string json = TracedWorkloadJson(1234);
  // Every flow-start id posted by the compute side must be finished by a
  // memory-node handler: grab the first 's' event's id and find a matching
  // 'f' with the same id.
  size_t s_pos = json.find("\"ph\":\"s\"");
  ASSERT_NE(std::string::npos, s_pos);
  size_t id_pos = json.find("\"id\":", s_pos);
  ASSERT_NE(std::string::npos, id_pos);
  size_t id_end = json.find_first_of(",}", id_pos);
  std::string id_field = json.substr(id_pos, id_end - id_pos);
  // The same flow id appears on a finish event.
  bool stitched = false;
  for (size_t f_pos = json.find("\"ph\":\"f\""); f_pos != std::string::npos;
       f_pos = json.find("\"ph\":\"f\"", f_pos + 1)) {
    size_t fid = json.find("\"id\":", f_pos);
    if (fid == std::string::npos) break;
    size_t fid_end = json.find_first_of(",}", fid);
    if (json.substr(fid, fid_end - fid) == id_field) {
      stitched = true;
      break;
    }
  }
  EXPECT_TRUE(stitched) << "flow " << id_field << " never finished";
}

TEST(TraceTest, SameSeedRunsProduceByteIdenticalTraces) {
  std::string a = TracedWorkloadJson(777);
  std::string b = TracedWorkloadJson(777);
  ASSERT_GT(a.size(), 1000u);
  EXPECT_EQ(a, b);
  // And the trace is not degenerate: dropped-event counter stayed zero.
  EXPECT_EQ(0u, trace::Tracer::dropped_events());
}

TEST(TraceTest, DifferentSeedsProduceDifferentTraces) {
  std::string a = TracedWorkloadJson(777);
  std::string b = TracedWorkloadJson(778);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dlsm

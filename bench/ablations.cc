// Ablation benches for the design choices DESIGN.md calls out:
//   --which=seqrange   sequence-range MemTable switching (Sec. IV) vs the
//                      naive double-checked-locking switch.
//   --which=asyncflush asynchronous pipelined flushing (Sec. X-C, Fig. 6)
//                      vs synchronous per-buffer writes.
//   --which=rpc        customized one-sided-reply RPC vs dispatcher work.
//
// Usage: ablations [--which=all] [--keys=N] [--threads=8]

#include <cstdio>

#include "bench/harness.h"
#include "src/core/table_sink.h"
#include "src/rdma/fabric.h"
#include "src/remote/rpc.h"
#include "src/sim/sim_env.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace dlsm {
namespace bench {
namespace {

void AblateSeqRange(uint64_t keys, int threads) {
  std::printf("\n--- Ablation: MemTable switch policy (bulkload, %d threads) "
              "---\n",
              threads);
  // Bulkload isolates the in-memory write path, where the policy matters.
  for (bool seqrange : {true, false}) {
    BenchConfig config;
    config.num_keys = keys;
    config.threads = threads;
    config.bulkload = true;
    config.system = SystemKind::kDLsm;
    config.override_switch_policy = true;
    config.switch_policy = seqrange
                               ? MemTableSwitchPolicy::kSeqRange
                               : MemTableSwitchPolicy::kDoubleCheckedSize;
    auto r = RunBench(config, {Phase::kFillRandom});
    std::printf("%-36s %16s\n",
                seqrange ? "seq-range switching (dLSM, Sec. IV)"
                         : "double-checked size switching",
                FormatThroughput(r[0].ops_per_sec).c_str());
  }
}

void AblateAsyncFlush(uint64_t mb) {
  std::printf("\n--- Ablation: async pipelined flush vs sync flush "
              "(%llu MB stream) ---\n",
              static_cast<unsigned long long>(mb));
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 4ull << 30);
  env.Run(0, [&] {
    char* region = memory->AllocDram(mb << 20);
    rdma::MemoryRegion mr = fabric.RegisterMemory(memory, region, mb << 20);
    rdma::RdmaManager mgr(&fabric, compute, memory);
    remote::RemoteChunk chunk;
    chunk.addr = mr.addr;
    chunk.size = mb << 20;
    chunk.rkey = mr.rkey;
    chunk.owner_node = compute->id();

    std::string payload(4096, 'x');
    uint64_t chunks = (mb << 20) / payload.size();

    for (bool async : {true, false}) {
      uint64_t t0 = env.NowNanos();
      std::unique_ptr<TableSink> sink;
      if (async) {
        sink = std::make_unique<AsyncRemoteSink>(&mgr, chunk, 256 << 10, 4);
      } else {
        sink = std::make_unique<SyncRemoteSink>(&mgr, chunk, 256 << 10);
      }
      for (uint64_t i = 0; i < chunks; i++) {
        DLSM_CHECK(sink->Append(payload.data(), payload.size()).ok());
      }
      DLSM_CHECK(sink->Finish().ok());
      uint64_t t1 = env.NowNanos();
      double secs = (t1 - t0) / 1e9;
      std::printf("%-28s %10.2f GB/s\n",
                  async ? "async pipelined (Fig. 6)" : "synchronous",
                  (mb << 20) / secs / 1e9);
    }
  });
}

void AblateRpc(int calls) {
  std::printf("\n--- Ablation: RPC reply path (one-sided write vs extra "
              "dispatcher hop) ---\n");
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 1ull << 30);
  env.Run(0, [&] {
    remote::RpcServer server(&fabric, memory, 2);
    server.set_handler([](uint8_t, const Slice& args, std::string* reply) {
      *reply = args.ToString();
    });
    server.Start();
    remote::RpcClient client(&fabric, compute, &server);

    // Poll-based general RPC (reply bypasses dispatchers).
    uint64_t t0 = env.NowNanos();
    for (int i = 0; i < calls; i++) {
      std::string reply;
      DLSM_CHECK(client.Call(remote::RpcType::kStats, "x", &reply).ok());
    }
    uint64_t t1 = env.NowNanos();
    std::printf("%-36s %8.2f us/call\n", "general RPC (one-sided reply)",
                (t1 - t0) / 1e3 / calls);

    // Wakeup-based RPC (dispatcher + notifier + condvar on the reply path).
    t0 = env.NowNanos();
    for (int i = 0; i < calls; i++) {
      std::string reply;
      DLSM_CHECK(
          client.CallWithWakeup(remote::RpcType::kStats, "x", &reply).ok());
    }
    t1 = env.NowNanos();
    std::printf("%-36s %8.2f us/call\n",
                "wakeup RPC (sleep + IMM notify)", (t1 - t0) / 1e3 / calls);
    server.Stop();
  });
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, {"calls", "keys", "mb", "threads", "which"});
  std::string which = flags.GetString("which", "all");
  uint64_t keys = flags.GetInt("keys", 60000);
  int threads = static_cast<int>(flags.GetInt("threads", 8));
  if (which == "seqrange" || which == "all") {
    AblateSeqRange(keys, threads);
  }
  if (which == "asyncflush" || which == "all") {
    AblateAsyncFlush(flags.GetInt("mb", 64));
  }
  if (which == "rpc" || which == "all") {
    AblateRpc(static_cast<int>(flags.GetInt("calls", 2000)));
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dlsm

int main(int argc, char** argv) { return dlsm::bench::Main(argc, argv); }

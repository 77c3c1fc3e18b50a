// Tests for remote memory management and the RPC layer.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "src/remote/remote_alloc.h"
#include "src/rdma/rdma_manager.h"
#include "src/remote/rpc.h"
#include "src/sim/sim_env.h"
#include "tests/dlsm_test_util.h"

namespace dlsm {
namespace remote {
namespace {

constexpr size_t kMB = 1024 * 1024;

TEST(SlabAllocatorTest, AllocateFreeReuse) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* memory = fabric.AddNode("memory", 4, 16 * kMB);
  char* base = memory->AllocDram(8 * kMB);
  rdma::MemoryRegion mr = fabric.RegisterMemory(memory, base, 8 * kMB);
  SlabAllocator alloc(mr, kMB, memory->id());

  EXPECT_EQ(8u, alloc.capacity_chunks());
  std::vector<RemoteChunk> chunks;
  std::set<uint64_t> addrs;
  for (int i = 0; i < 8; i++) {
    RemoteChunk c = alloc.Allocate();
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(kMB, c.size);
    EXPECT_EQ(memory->id(), c.owner_node);
    EXPECT_TRUE(addrs.insert(c.addr).second) << "duplicate chunk";
    chunks.push_back(c);
  }
  // Exhausted.
  EXPECT_FALSE(alloc.Allocate().valid());
  EXPECT_EQ(8u, alloc.allocated_chunks());

  // Free two, re-allocate two.
  alloc.Free(chunks[3]);
  alloc.Free(chunks[5]);
  EXPECT_EQ(6u, alloc.allocated_chunks());
  RemoteChunk r1 = alloc.Allocate();
  RemoteChunk r2 = alloc.Allocate();
  ASSERT_TRUE(r1.valid());
  ASSERT_TRUE(r2.valid());
  std::set<uint64_t> freed = {chunks[3].addr, chunks[5].addr};
  EXPECT_TRUE(freed.count(r1.addr));
  EXPECT_TRUE(freed.count(r2.addr));
}

TEST(SlabAllocatorTest, FreeByAddrValidation) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* memory = fabric.AddNode("memory", 4, 16 * kMB);
  char* base = memory->AllocDram(4 * kMB);
  rdma::MemoryRegion mr = fabric.RegisterMemory(memory, base, 4 * kMB);
  SlabAllocator alloc(mr, kMB, memory->id());

  RemoteChunk c = alloc.Allocate();
  EXPECT_FALSE(alloc.FreeByAddr(c.addr + 1).ok());     // Not chunk-aligned.
  EXPECT_FALSE(alloc.FreeByAddr(mr.addr - kMB).ok());  // Outside region.
  EXPECT_TRUE(alloc.FreeByAddr(c.addr).ok());
}

TEST(FreeBatchCodecTest, RoundTripsAndRejectsTruncation) {
  std::vector<uint64_t> addrs = {0x1000, 0xdeadbeef00, 1, 0};
  std::string wire;
  EncodeFreeBatch(addrs, &wire);

  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeFreeBatch(Slice(wire), &decoded).ok());
  EXPECT_EQ(addrs, decoded);

  // A payload that promises more addresses than it carries is corrupt,
  // not a crash.
  decoded.clear();
  Slice truncated(wire.data(), wire.size() - 3);
  EXPECT_TRUE(DecodeFreeBatch(truncated, &decoded).IsCorruption());
  EXPECT_TRUE(DecodeFreeBatch(Slice(), &decoded).IsCorruption());

  std::string empty_wire;
  EncodeFreeBatch({}, &empty_wire);
  decoded.clear();
  ASSERT_TRUE(DecodeFreeBatch(Slice(empty_wire), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

class RpcTest : public ::testing::Test {
 protected:
  void RunSim(std::function<void(rdma::Fabric*, rdma::Node*, rdma::Node*)>
                  body) {
    SimEnv env;
    rdma::Fabric fabric(&env);
    // RPC thread buffers are MAP_NORESERVE-lazy but still need address
    // space: size the nodes generously.
    rdma::Node* compute = fabric.AddNode("compute", 24, 1024 * kMB);
    rdma::Node* memory = fabric.AddNode("memory", 4, 1024 * kMB);
    env.Run(0, [&] { body(&fabric, compute, memory); });
  }
};

TEST_F(RpcTest, PingEchoes) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    RpcServer server(f, memory, 2);
    server.Start();
    RpcClient client(f, compute, &server);

    std::string reply;
    Status s = client.Call(RpcType::kPing, "hello", &reply);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("hello", reply);
    server.Stop();
  });
}

TEST_F(RpcTest, ReplyPathReportsVerbTelemetry) {
  // The server's reply path runs on the unified verb layer: each call posts
  // a payload WRITE plus a stamped-release WRITE back to the client, and
  // the telemetry must show them.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    RpcServer server(f, memory, 2);
    server.Start();
    RpcClient client(f, compute, &server);

    const int kCalls = 5;
    for (int i = 0; i < kCalls; i++) {
      std::string reply;
      ASSERT_TRUE(client.Call(RpcType::kPing, "x", &reply).ok());
    }
    // The client's stamp future and the server's reply-handle waits fire at
    // the same wire-completion instant; give the server thread a moment to
    // harvest its side before snapshotting.
    rdma::RdmaVerbStats stats = server.reply_verb_stats();
    for (int i = 0; i < 1000 && stats.posted != stats.completed; i++) {
      f->env()->SleepNanos(10 * 1000);
      stats = server.reply_verb_stats();
    }
    EXPECT_GE(stats.write.ops, static_cast<uint64_t>(2 * kCalls));
    EXPECT_EQ(stats.posted, stats.completed);
    EXPECT_EQ(0u, stats.outstanding);
    EXPECT_GT(stats.write.latency_us.Count(), 0u);
    server.Stop();
  });
}

TEST_F(RpcTest, HandlerReceivesTypeAndArgs) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    RpcServer server(f, memory, 2);
    server.set_handler(
        [](uint8_t type, const Slice& args, std::string* reply) {
          reply->append(std::to_string(type) + ":" + args.ToString());
        });
    server.Start();
    RpcClient client(f, compute, &server);

    std::string reply;
    ASSERT_TRUE(client.Call(RpcType::kFreeBatch, "abc", &reply).ok());
    EXPECT_EQ("3:abc", reply);
    server.Stop();
  });
}

TEST_F(RpcTest, WakeupPathRoundTrips) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    RpcServer server(f, memory, 2);
    server.set_handler(
        [f](uint8_t type, const Slice& args, std::string* reply) {
          EXPECT_EQ(RpcType::kCompaction, type);
          // Simulate a long compaction.
          f->env()->SleepNanos(5'000'000);
          reply->append("compacted:" + args.ToString());
        });
    server.Start();
    RpcClient client(f, compute, &server);

    std::string reply;
    Status s = client.CallAsync(RpcType::kCompaction, "t1,t2").Wait(&reply);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("compacted:t1,t2", reply);
    server.Stop();
  });
}

TEST_F(RpcTest, LargeArgumentsTravelViaRdmaRead) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    std::string big(100 * 1024, 'z');  // Exceeds any inline capacity.
    RpcServer server(f, memory, 2);
    server.set_handler(
        [&](uint8_t, const Slice& args, std::string* reply) {
          EXPECT_EQ(big.size(), args.size());
          EXPECT_EQ(big, args.ToString());
          reply->append(std::to_string(args.size()));
        });
    server.Start();
    RpcClient client(f, compute, &server);

    std::string reply;
    ASSERT_TRUE(client.CallAsync(RpcType::kCompaction, big).Wait(&reply).ok());
    EXPECT_EQ(std::to_string(big.size()), reply);
    server.Stop();
  });
}

TEST_F(RpcTest, ConcurrentCallersGetTheirOwnReplies) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    Env* env = f->env();
    RpcServer server(f, memory, 4);
    server.set_handler(
        [env](uint8_t, const Slice& args, std::string* reply) {
          env->SleepNanos(1'000'000);
          reply->append("r:" + args.ToString());
        });
    server.Start();
    RpcClient client(f, compute, &server);

    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<ThreadHandle> hs;
    for (int i = 0; i < kThreads; i++) {
      hs.push_back(env->StartThread(compute->env_node(), "caller", [&, i] {
        for (int k = 0; k < 5; k++) {
          std::string arg = std::to_string(i) + "." + std::to_string(k);
          std::string reply;
          Status s =
              (k % 2 == 0)
                  ? client.Call(RpcType::kStats, arg, &reply)
                  : client.CallAsync(RpcType::kCompaction, arg).Wait(&reply);
          if (!s.ok() || reply != "r:" + arg) failures++;
        }
      }));
    }
    for (ThreadHandle h : hs) env->Join(h);
    EXPECT_EQ(0, failures.load());
    server.Stop();
  });
}

// Every simulated thread runs on one OS thread, yet each keeps its own
// per-thread verb queue and RPC reply buffers: two threads interleaving
// Call, CallAsync and async READs through one RpcClient and one RdmaManager
// each see their own queue and get their own replies and bytes.
TEST_F(RpcTest, SimulatedThreadsKeepTheirOwnVerbQueueAndReplyBuffers) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    Env* env = f->env();
    RpcServer server(f, memory, 2);
    server.set_handler(
        [env](uint8_t, const Slice& args, std::string* reply) {
          env->SleepNanos(50'000);
          reply->append("r:" + args.ToString());
        });
    server.Start();
    RpcClient client(f, compute, &server);
    // A reply lost to another thread's buffers fails by timeout, not a hang.
    RpcPolicy policy;
    policy.timeout_ns = 10'000'000;
    client.set_policy(policy);
    constexpr size_t kPage = 4096;
    char* remote = memory->AllocDram(2 * kPage);
    ASSERT_NE(nullptr, remote);
    for (size_t i = 0; i < 2 * kPage; i++) {
      remote[i] = static_cast<char>('a' + i / kPage);
    }
    rdma::MemoryRegion mr = f->RegisterMemory(memory, remote, 2 * kPage);
    rdma::RdmaManager mgr(f, compute, memory);

    rdma::VerbQueue* vqs[2] = {nullptr, nullptr};
    int failures = 0;
    std::vector<ThreadHandle> hs;
    for (int t = 0; t < 2; t++) {
      hs.push_back(env->StartThread(compute->env_node(), "caller", [&, t] {
        vqs[t] = mgr.ThreadVq();
        env->SleepNanos(1000);  // Both threads hold their queue.
        if (vqs[0] == vqs[1]) return;
        for (int k = 0; k < 20; k++) {
          const std::string arg = std::to_string(t) + "." + std::to_string(k);
          // The READ and the async call stay in flight across this thread's
          // blocking Call, during which the other thread posts its own.
          char buf[64] = {};
          rdma::WrHandle read = mgr.PostReadAsync(
              buf, mr.addr + t * kPage + k, mr.rkey, sizeof(buf));
          PendingCall call = client.CallAsync(RpcType::kStats, arg + "a");
          std::string reply;
          if (!client.Call(RpcType::kStats, arg, &reply).ok() ||
              reply != "r:" + arg) {
            failures++;
          }
          if (!call.Wait(&reply).ok() || reply != "r:" + arg + "a") {
            failures++;
          }
          if (!read.Wait().ok() || buf[0] != 'a' + t || buf[63] != 'a' + t) {
            failures++;
          }
          if (mgr.ThreadVq() != vqs[t]) failures++;
        }
      }));
    }
    for (ThreadHandle h : hs) env->Join(h);
    EXPECT_EQ(0, failures);
    EXPECT_NE(vqs[0], vqs[1]);
    server.Stop();
  });
}

TEST_F(RpcTest, MultipleClientNodesOneServer) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* c1 = fabric.AddNode("compute1", 8, 1024 * kMB);
  rdma::Node* c2 = fabric.AddNode("compute2", 8, 1024 * kMB);
  rdma::Node* memory = fabric.AddNode("memory", 4, 1024 * kMB);
  env.Run(0, [&] {
    RpcServer server(&fabric, memory, 2);
    server.set_handler([](uint8_t, const Slice& args, std::string* reply) {
      reply->append("ok:" + args.ToString());
    });
    server.Start();
    RpcClient client1(&fabric, c1, &server);
    RpcClient client2(&fabric, c2, &server);

    std::string reply;
    ASSERT_TRUE(client1.Call(RpcType::kStats, "one", &reply).ok());
    EXPECT_EQ("ok:one", reply);
    ASSERT_TRUE(client2.Call(RpcType::kStats, "two", &reply).ok());
    EXPECT_EQ("ok:two", reply);
    server.Stop();
  });
}

TEST_F(RpcTest, WorkerBusyTimeIsTracked) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    RpcServer server(f, memory, 2);
    server.set_handler([f](uint8_t, const Slice&, std::string* reply) {
      f->env()->SleepNanos(10'000'000);  // 10 ms of "work".
      reply->append("done");
    });
    server.Start();
    RpcClient client(f, compute, &server);
    std::string reply;
    ASSERT_TRUE(client.CallAsync(RpcType::kCompaction, "x").Wait(&reply).ok());
    EXPECT_GE(server.worker_busy_ns(), 10'000'000u);
    server.Stop();
  });
}

// A blocking call to a long worker-pool handler returns as soon as its
// reply stamp lands: the caller parks on the stamp word itself, not on a
// poller that notices the reply later. At cpu_scale = 0 virtual time
// moves only with modeled costs, so the gap between the handler finishing
// and the caller resuming is the reply's wire time alone: two WRITEs
// posted back to back (the framed payload, then the 8-byte stamp), i.e.
// their NIC occupancy and serialization plus one write latency.
TEST(RpcStampTest, BlockingWorkerPoolCallReturnsWhenItsReplyStampLands) {
  SimEnv::Options so;
  so.cpu_scale = 0.0;
  SimEnv env(so);
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1024 * kMB);
  rdma::Node* memory = fabric.AddNode("memory", 4, 1024 * kMB);
  const std::string kReply = "compacted";
  const rdma::LinkParams& link = fabric.params();
  const uint64_t reply_wire_ns =
      2 * link.per_op_overhead_ns +
      static_cast<uint64_t>((4 + kReply.size() + 8) / link.BytesPerNano()) +
      1 + link.write_latency_ns;
  env.Run(0, [&] {
    RpcServer server(&fabric, memory, 2);
    uint64_t handler_done = 0;
    server.set_handler([&](uint8_t, const Slice&, std::string* reply) {
      env.SleepNanos(5'000'000);
      reply->append(kReply);
      handler_done = env.NowNanos();
    });
    server.Start();
    RpcClient client(&fabric, compute, &server);
    for (int i = 0; i < 8; i++) {
      std::string reply;
      ASSERT_TRUE(
          client.CallAsync(RpcType::kCompaction, "x").Wait(&reply).ok());
      const uint64_t returned = env.NowNanos();
      EXPECT_EQ(kReply, reply);
      ASSERT_GT(handler_done, 0u);
      EXPECT_GE(returned, handler_done + link.write_latency_ns);
      EXPECT_LE(returned - handler_done, reply_wire_ns) << "call " << i;
    }
    server.Stop();
  });
}

TEST_F(RpcTest, CallAsyncPipelinesCallsOnOneThread) {
  // The compaction scheduler's pattern: one thread keeps several
  // long-running server-side requests in flight and collects the replies
  // out of issue order.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    Env* env = f->env();
    RpcServer server(f, memory, 4);
    server.set_handler(
        [env](uint8_t type, const Slice& args, std::string* reply) {
          EXPECT_EQ(RpcType::kCompaction, type);
          env->SleepNanos(2'000'000);
          reply->append("r:" + args.ToString());
        });
    server.Start();
    RpcClient client(f, compute, &server);

    constexpr int kCalls = 6;
    std::vector<PendingCall> calls;
    for (int i = 0; i < kCalls; i++) {
      calls.push_back(
          client.CallAsync(RpcType::kCompaction, "c" + std::to_string(i)));
      ASSERT_TRUE(calls.back().valid());
    }
    for (int i = kCalls - 1; i >= 0; i--) {
      std::string reply;
      Status s = calls[i].Wait(&reply);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ("r:c" + std::to_string(i), reply);
      EXPECT_FALSE(calls[i].valid()) << "Wait must release the context";
    }
    server.Stop();
  });
}

TEST_F(RpcTest, CallAsyncDroppedCallsAreReclaimed) {
  // Abandoning a PendingCall parks its context on the zombie list; it may
  // be reused only after the late reply has landed, and that reply must
  // never corrupt a later call's buffers. Many rounds so reclamation
  // actually cycles contexts instead of registering fresh ones.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    RpcServer server(f, memory, 2);
    server.set_handler([](uint8_t, const Slice& args, std::string* reply) {
      reply->append("r:" + args.ToString());
    });
    server.Start();
    RpcClient client(f, compute, &server);

    for (int round = 0; round < 32; round++) {
      PendingCall dropped = client.CallAsync(
          RpcType::kCompaction, "dropped" + std::to_string(round));
      ASSERT_TRUE(dropped.valid());
      PendingCall kept = client.CallAsync(RpcType::kCompaction,
                                          "kept" + std::to_string(round));
      std::string reply;
      ASSERT_TRUE(kept.Wait(&reply).ok());
      EXPECT_EQ("r:kept" + std::to_string(round), reply);
      // `dropped` dies here, its reply possibly still inbound.
    }
    server.Stop();
  });
}

TEST_F(RpcTest, CallAsyncLargeArgumentsTravelViaRdmaRead) {
  // CallAsync args never inline, however small: they stage in the
  // per-call registered buffer the server pulls with an RDMA READ.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    std::string big(64 * 1024, '\0');
    for (size_t i = 0; i < big.size(); i++) {
      big[i] = static_cast<char>('a' + i % 26);
    }
    RpcServer server(f, memory, 2);
    server.set_handler([&](uint8_t, const Slice& args, std::string* reply) {
      EXPECT_EQ(big, args.ToString());
      reply->append(std::to_string(args.size()));
    });
    server.Start();
    RpcClient client(f, compute, &server);

    PendingCall call = client.CallAsync(RpcType::kCompaction, big);
    std::string reply;
    ASSERT_TRUE(call.Wait(&reply).ok());
    EXPECT_EQ(std::to_string(big.size()), reply);
    server.Stop();
  });
}

TEST_F(RpcTest, CallAsyncTeardownWithCallsInFlight) {
  // Client and server tear down while pipelined calls are still being
  // served: nothing may hang, and the late reply WRITEs must land in
  // node DRAM the abandoned contexts still own, not recycled memory.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory) {
    Env* env = f->env();
    RpcServer server(f, memory, 2);
    server.set_handler([env](uint8_t, const Slice&, std::string* reply) {
      env->SleepNanos(10'000'000);  // Replies arrive long after the drop.
      reply->append("late");
    });
    server.Start();
    {
      RpcClient client(f, compute, &server);
      for (int i = 0; i < 4; i++) {
        PendingCall call = client.CallAsync(RpcType::kCompaction, "x");
        ASSERT_TRUE(call.valid());
        // Dropped immediately: still executing server-side.
      }
    }  // Client destroyed with all four replies inbound.
    server.Stop();
  });
}

// With async_write off, each near-data sub-compaction's RPC runs on a
// helper thread that ends with its compaction. The helper's call
// context (9 MiB of registered compute DRAM) must return to the client's
// pool then, so round after round of compactions reuses a bounded set of
// contexts instead of growing compute DRAM by one per sub-compaction.
TEST(RpcContextTest, BlockingCompactionsKeepComputeDramBounded) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 2048 * kMB);
  rdma::Node* memory = fabric.AddNode("memory", 4, 2048 * kMB);
  env.Run(0, [&] {
    dlsm::MemoryNodeService service(&fabric, memory, 4);
    service.Start();
    Options options = test::SmallOptions(&env);
    options.async_write = false;
    DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    DB* raw = nullptr;
    ASSERT_TRUE(DLsmDB::Open(options, deps, &raw).ok());
    std::unique_ptr<DB> db(raw);
    // Concurrent helpers at most: scheduler threads x sub-compactions.
    const size_t kMaxContexts =
        static_cast<size_t>(options.compaction_scheduler_threads) *
        static_cast<size_t>(options.max_subcompactions);
    const size_t kContextBytes = 9 * kMB;
    size_t warm = 0;
    uint64_t warm_compactions = 0;
    for (int round = 0; round < 12; round++) {
      for (uint64_t i = 0; i < 3000; i++) {
        ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i * 7 + round),
                            test::TestValue(i))
                        .ok());
      }
      ASSERT_TRUE(db->Flush().ok());
      ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
      if (round == 1) {
        warm = compute->dram_used();
        warm_compactions = db->GetStats().compactions;
      }
    }
    const uint64_t compactions = db->GetStats().compactions - warm_compactions;
    // Enough compactions that one leaked context each would show.
    ASSERT_GT(compactions, kMaxContexts);
    EXPECT_LE(compute->dram_used(), warm + kMaxContexts * kContextBytes)
        << compactions << " compactions after warm-up; warm " << warm;
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    service.Stop();
  });
}

}  // namespace
}  // namespace remote
}  // namespace dlsm

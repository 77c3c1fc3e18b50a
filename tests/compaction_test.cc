// Tests for the compaction machinery: task/result wire formats, the
// MergeAndBuild drop rules (shadowed versions, snapshots, tombstones), the
// near-data executor, and the end-to-end RPC path through the memory node
// service.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/core/compaction.h"
#include "src/core/memory_node_service.h"
#include "src/core/merger.h"
#include "src/core/table_builder.h"
#include "src/core/table_reader.h"
#include "src/remote/rpc.h"
#include "src/sim/sim_env.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace dlsm {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType t = kTypeValue) {
  std::string out;
  AppendInternalKey(&out, ParsedInternalKey(user_key, seq, t));
  return out;
}

std::string UKey(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

TEST(CompactionProtoTest, TaskRoundTrip) {
  CompactionTask task;
  for (int i = 0; i < 3; i++) {
    CompactionInput in;
    in.format = i == 2 ? 2 : 1;
    in.addr = 0x1000 + i * 0x100;
    in.start_off = i * 7;
    in.end_off = i * 7 + 1000;
    in.index_blob = i == 2 ? "blockindex" : "";
    task.inputs.push_back(in);
  }
  task.smallest_snapshot = 12345;
  task.drop_tombstones = true;
  task.target_file_size = 1 << 20;
  task.output_chunk_size = 2 << 20;
  task.output_format = 1;
  task.block_size = 4096;
  task.bloom_bits_per_key = 10;

  CompactionTask parsed;
  ASSERT_TRUE(CompactionTask::Deserialize(task.Serialize(), &parsed));
  ASSERT_EQ(3u, parsed.inputs.size());
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(task.inputs[i].format, parsed.inputs[i].format);
    EXPECT_EQ(task.inputs[i].addr, parsed.inputs[i].addr);
    EXPECT_EQ(task.inputs[i].start_off, parsed.inputs[i].start_off);
    EXPECT_EQ(task.inputs[i].end_off, parsed.inputs[i].end_off);
    EXPECT_EQ(task.inputs[i].index_blob, parsed.inputs[i].index_blob);
  }
  EXPECT_EQ(12345u, parsed.smallest_snapshot);
  EXPECT_TRUE(parsed.drop_tombstones);
  EXPECT_EQ(task.target_file_size, parsed.target_file_size);
  EXPECT_EQ(task.output_chunk_size, parsed.output_chunk_size);
}

TEST(CompactionProtoTest, ResultRoundTrip) {
  CompactionResult result;
  CompactionOutput out;
  out.chunk.addr = 0xdead000;
  out.chunk.size = 4 << 20;
  out.chunk.rkey = 77;
  out.chunk.owner_node = 1;
  out.data_len = 12345;
  out.num_entries = 99;
  out.smallest.DecodeFrom(IKey(UKey(1), 5));
  out.largest.DecodeFrom(IKey(UKey(9), 2));
  out.index_blob = "indexbytes";
  result.outputs.push_back(out);

  std::string wire;
  result.AppendTo(&wire);
  CompactionResult parsed;
  ASSERT_TRUE(CompactionResult::Deserialize(wire, &parsed));
  ASSERT_EQ(1u, parsed.outputs.size());
  EXPECT_EQ(out.chunk.addr, parsed.outputs[0].chunk.addr);
  EXPECT_EQ(out.chunk.rkey, parsed.outputs[0].chunk.rkey);
  EXPECT_EQ(out.data_len, parsed.outputs[0].data_len);
  EXPECT_EQ(out.index_blob, parsed.outputs[0].index_blob);
  EXPECT_EQ(IKey(UKey(1), 5),
            parsed.outputs[0].smallest.Encode().ToString());
}

TEST(CompactionProtoTest, DeserializeRejectsTruncation) {
  CompactionTask task;
  CompactionInput in;
  in.addr = 1;
  in.end_off = 10;
  task.inputs.push_back(in);
  std::string wire = task.Serialize();
  for (size_t cut = 1; cut + 1 < wire.size(); cut += 3) {
    CompactionTask parsed;
    EXPECT_FALSE(CompactionTask::Deserialize(
        Slice(wire.data(), wire.size() - cut), &parsed));
  }
}

// --- MergeAndBuild drop rules ------------------------------------------------

class MergeTest : public ::testing::Test {
 protected:
  // Builds a byte table in local memory from (ikey, value) pairs.
  struct LocalTable {
    std::string storage;
    uint64_t data_len = 0;
  };

  LocalTable Build(const std::vector<std::pair<std::string, std::string>>&
                       entries) {
    LocalTable table;
    table.storage.resize(1 << 20);
    LocalMemorySink sink(table.storage.data(), table.storage.size());
    BloomFilterPolicy bloom(10);
    auto builder = NewByteTableBuilder(&bloom, &sink);
    for (const auto& [k, v] : entries) {
      EXPECT_TRUE(builder->Add(k, v).ok());
    }
    TableBuildResult result;
    EXPECT_TRUE(builder->Finish(&result).ok());
    table.data_len = result.data_len;
    return table;
  }

  // Runs MergeAndBuild over local tables and returns the surviving
  // (user key, seq, type, value) entries.
  struct Survivor {
    std::string user_key;
    SequenceNumber seq;
    ValueType type;
    std::string value;
  };

  std::vector<Survivor> Merge(const std::vector<LocalTable*>& tables,
                              uint64_t smallest_snapshot,
                              bool drop_tombstones,
                              uint64_t target_file_size = 1 << 20,
                              std::vector<CompactionOutput>* outs = nullptr) {
    InternalKeyComparator icmp;
    BloomFilterPolicy bloom(10);
    std::vector<Iterator*> children;
    for (LocalTable* t : tables) {
      children.push_back(
          NewLocalByteTableIterator(t->storage.data(), t->data_len, icmp));
    }
    Iterator* merged = NewMergingIterator(&icmp, children.data(),
                                          static_cast<int>(children.size()));
    std::vector<std::unique_ptr<std::string>> outputs_storage;
    std::vector<CompactionOutput> outputs;
    auto new_output = [&](const Slice&, remote::RemoteChunk* chunk,
                          std::unique_ptr<TableSink>* sink) -> Status {
      outputs_storage.push_back(std::make_unique<std::string>(2 << 20, '\0'));
      chunk->addr =
          reinterpret_cast<uint64_t>(outputs_storage.back()->data());
      chunk->size = outputs_storage.back()->size();
      *sink = std::make_unique<LocalMemorySink>(
          outputs_storage.back()->data(), outputs_storage.back()->size());
      return Status::OK();
    };
    Status s = MergeAndBuild(nullptr, merged, bloom,
                             smallest_snapshot, drop_tombstones,
                             target_file_size,
                             TableFormat::kByteAddressable, 4096, new_output,
                             &outputs);
    EXPECT_TRUE(s.ok()) << s.ToString();

    std::vector<Survivor> survivors;
    for (const CompactionOutput& out : outputs) {
      std::unique_ptr<Iterator> it(NewLocalByteTableIterator(
          reinterpret_cast<const char*>(out.chunk.addr), out.data_len,
          InternalKeyComparator()));
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey ikey;
        EXPECT_TRUE(ParseInternalKey(it->key(), &ikey));
        survivors.push_back(Survivor{ikey.user_key.ToString(),
                                     ikey.sequence, ikey.type,
                                     it->value().ToString()});
      }
    }
    if (outs != nullptr) *outs = outputs;
    return survivors;
  }
};

TEST_F(MergeTest, KeepsNewestVersionDropsShadowed) {
  LocalTable newer = Build({{IKey(UKey(1), 20), "new"}});
  LocalTable older = Build({{IKey(UKey(1), 10), "old"}});
  auto survivors =
      Merge({&newer, &older}, /*smallest_snapshot=*/100, false);
  ASSERT_EQ(1u, survivors.size());
  EXPECT_EQ(20u, survivors[0].seq);
  EXPECT_EQ("new", survivors[0].value);
}

TEST_F(MergeTest, SnapshotPreservesOldVersions) {
  LocalTable newer = Build({{IKey(UKey(1), 20), "new"}});
  LocalTable older = Build({{IKey(UKey(1), 10), "old"}});
  // A snapshot at 15 still needs the seq-10 version.
  auto survivors = Merge({&newer, &older}, /*smallest_snapshot=*/15, false);
  ASSERT_EQ(2u, survivors.size());
  EXPECT_EQ(20u, survivors[0].seq);
  EXPECT_EQ(10u, survivors[1].seq);
}

TEST_F(MergeTest, TombstonesDroppedOnlyAtBottom) {
  LocalTable del = Build({{IKey(UKey(1), 20, kTypeDeletion), ""}});
  LocalTable val = Build({{IKey(UKey(1), 10), "old"}});

  // Not bottommost: tombstone must survive (it may shadow deeper data).
  auto kept = Merge({&del, &val}, 100, /*drop_tombstones=*/false);
  ASSERT_EQ(1u, kept.size());
  EXPECT_EQ(kTypeDeletion, kept[0].type);

  // Bottommost: both the tombstone and everything it covers vanish.
  LocalTable del2 = Build({{IKey(UKey(1), 20, kTypeDeletion), ""}});
  LocalTable val2 = Build({{IKey(UKey(1), 10), "old"}});
  auto dropped = Merge({&del2, &val2}, 100, /*drop_tombstones=*/true);
  EXPECT_TRUE(dropped.empty());
}

TEST_F(MergeTest, CutsFilesAtTargetWithoutSplittingUserKeys) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 500; i++) {
    entries.emplace_back(IKey(UKey(i), 1), std::string(100, 'v'));
  }
  LocalTable t = Build(entries);
  std::vector<CompactionOutput> outputs;
  auto survivors =
      Merge({&t}, 100, false, /*target_file_size=*/8 << 10, &outputs);
  EXPECT_EQ(500u, survivors.size());
  EXPECT_GT(outputs.size(), 2u);
  // Output ranges must not overlap.
  InternalKeyComparator icmp;
  for (size_t i = 1; i < outputs.size(); i++) {
    EXPECT_LT(icmp.Compare(outputs[i - 1].largest.Encode(),
                           outputs[i].smallest.Encode()),
              0);
  }
}

TEST_F(MergeTest, ManyTablesManyKeysMatchReferenceMerge) {
  // Property: merging K tables == applying them oldest-to-newest to a map.
  Random rnd(99);
  std::map<std::string, std::pair<SequenceNumber, std::string>> model;
  std::vector<LocalTable> tables;
  SequenceNumber seq = 1;
  for (int t = 0; t < 6; t++) {
    std::vector<std::pair<std::string, std::string>> entries;
    std::map<std::string, std::pair<std::string, SequenceNumber>> in_table;
    for (int i = 0; i < 200; i++) {
      std::string k = UKey(rnd.Uniform(300));
      std::string v = "t" + std::to_string(t) + "-" + std::to_string(i);
      in_table[k] = {v, seq++};
    }
    for (auto& [k, vs] : in_table) {
      entries.emplace_back(IKey(k, vs.second), vs.first);
      auto it = model.find(k);
      if (it == model.end() || it->second.first < vs.second) {
        model[k] = {vs.second, vs.first};
      }
    }
    tables.push_back(Build(entries));
  }
  std::vector<LocalTable*> ptrs;
  for (auto& t : tables) ptrs.push_back(&t);
  auto survivors = Merge(ptrs, /*smallest_snapshot=*/seq, false);
  ASSERT_EQ(model.size(), survivors.size());
  size_t i = 0;
  for (const auto& [k, vs] : model) {
    EXPECT_EQ(k, survivors[i].user_key);
    EXPECT_EQ(vs.first, survivors[i].seq);
    EXPECT_EQ(vs.second, survivors[i].value);
    i++;
  }
}

// --- Near-data executor over the RPC path ------------------------------------

TEST(NearDataExecutorTest, CompactsViaMemoryNodeService) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 2ull << 30);
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 2);
    service.Start();
    remote::RpcClient client(&fabric, compute, service.rpc_server());

    // Stage two byte tables directly in memory-node DRAM.
    BloomFilterPolicy bloom(10);
    auto stage = [&](int offset_keys,
                     SequenceNumber seq) -> std::pair<uint64_t, uint64_t> {
      char* base = memory->AllocDram(1 << 20);
      LocalMemorySink sink(base, 1 << 20);
      auto builder = NewByteTableBuilder(&bloom, &sink);
      for (int i = 0; i < 300; i++) {
        EXPECT_TRUE(builder
                        ->Add(IKey(UKey(offset_keys + i), seq),
                              "v" + std::to_string(seq))
                        .ok());
      }
      TableBuildResult result;
      EXPECT_TRUE(builder->Finish(&result).ok());
      return {reinterpret_cast<uint64_t>(base), result.data_len};
    };
    auto [addr1, len1] = stage(0, 10);    // Keys 0..299 @ seq 10.
    auto [addr2, len2] = stage(150, 5);   // Keys 150..449 @ seq 5.

    CompactionTask task;
    CompactionInput in1{1, addr1, 0, len1, ""};
    CompactionInput in2{1, addr2, 0, len2, ""};
    task.inputs = {in1, in2};
    task.smallest_snapshot = 100;
    task.drop_tombstones = true;
    task.target_file_size = 4 << 20;
    task.output_chunk_size = 6 << 20;
    task.output_format = 1;
    task.bloom_bits_per_key = 10;

    std::string reply;
    ASSERT_TRUE(client.CallAsync(remote::RpcType::kCompaction, task.Serialize())
                    .Wait(&reply)
                    .ok());
    ASSERT_FALSE(reply.empty());
    ASSERT_EQ(1, reply[0]) << "compaction failed: "
                           << reply.substr(1);
    CompactionResult result;
    ASSERT_TRUE(CompactionResult::Deserialize(
        Slice(reply.data() + 1, reply.size() - 1), &result));
    ASSERT_EQ(1u, result.outputs.size());
    const CompactionOutput& out = result.outputs[0];
    // 450 distinct keys; overlapping 150 deduplicated to the newer version.
    EXPECT_EQ(450u, out.num_entries);
    EXPECT_EQ(memory->id(), out.chunk.owner_node);

    // Verify the merged contents straight out of memory-node DRAM.
    std::unique_ptr<Iterator> it(NewLocalByteTableIterator(
        reinterpret_cast<const char*>(out.chunk.addr), out.data_len,
        InternalKeyComparator()));
    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ParsedInternalKey ikey;
      ASSERT_TRUE(ParseInternalKey(it->key(), &ikey));
      uint64_t k = std::stoull(ikey.user_key.ToString());
      if (k < 150) {
        EXPECT_EQ("v10", it->value().ToString());
      } else if (k < 300) {
        EXPECT_EQ(10u, ikey.sequence) << "newer version must win";
      } else {
        EXPECT_EQ("v5", it->value().ToString());
      }
      count++;
    }
    EXPECT_EQ(450, count);
    service.Stop();
  });
}

// Compaction tasks arrive as bytes from a compute node: a malformed one
// gets the `0 | error text` reply, and the memory node keeps serving.
TEST(NearDataExecutorTest, MalformedTaskGetsErrorReplyNotAbort) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 2ull << 30);
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 2);
    service.Start();
    remote::RpcClient client(&fabric, compute, service.rpc_server());
    auto call = [&](const std::string& args) {
      std::string reply;
      EXPECT_TRUE(client.CallAsync(remote::RpcType::kCompaction, args)
                      .Wait(&reply)
                      .ok());
      CompactionResult result;
      return std::make_pair(reply, ParseCompactionReply(reply, &result));
    };

    auto [garbage, garbage_status] = call("\x07not a task");
    ASSERT_FALSE(garbage.empty());
    EXPECT_EQ(0, garbage[0]);
    EXPECT_NE(std::string::npos, garbage.find("malformed"));
    EXPECT_TRUE(garbage_status.IsIOError()) << garbage_status.ToString();

    CompactionTask task;
    task.target_file_size = 4 << 20;
    task.output_chunk_size = 1 << 20;  // Cannot hold one output table.
    auto [small, small_status] = call(task.Serialize());
    ASSERT_FALSE(small.empty());
    EXPECT_EQ(0, small[0]);
    EXPECT_NE(std::string::npos, small.find("output_chunk_size"));
    EXPECT_TRUE(small_status.IsIOError()) << small_status.ToString();

    // Still serving. An input count the payload cannot hold is malformed,
    // not a giant allocation.
    EXPECT_EQ(0, call("").first.at(0));
    EXPECT_EQ(0, call("\xff\xff\xff\xff\x0f").first.at(0));
    service.Stop();
  });
}

// The service's other RPCs fail closed too: each malformed request gets
// the reply its caller already reads as failure, and the node keeps
// serving.
TEST(NearDataExecutorTest, MalformedServiceRpcsGetFailureRepliesNotAbort) {
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* compute = fabric.AddNode("compute", 24, 1ull << 30);
  rdma::Node* memory = fabric.AddNode("memory", 4, 2ull << 30);
  env.Run(0, [&] {
    MemoryNodeService service(&fabric, memory, 2);
    service.Start();
    remote::RpcClient client(&fabric, compute, service.rpc_server());
    auto call = [&](uint8_t type, const std::string& args) {
      std::string reply;
      EXPECT_TRUE(client.Call(type, args, &reply).ok());
      return reply;
    };
    auto read_args = [](uint64_t addr, uint64_t len) {
      std::string args;
      PutFixed64(&args, addr);
      PutFixed64(&args, len);
      return args;
    };

    // Alloc request too short to name a size: addr 0, the OOM signal.
    std::string alloc = call(remote::RpcType::kAllocFlushRegion, "\x01");
    ASSERT_EQ(12u, alloc.size());
    EXPECT_EQ(0u, DecodeFixed64(alloc.data()));

    // Free batch promising 5 addresses and carrying none: nothing freed.
    std::string freed = call(remote::RpcType::kFreeBatch, "\x05");
    ASSERT_EQ(4u, freed.size());
    EXPECT_EQ(0u, DecodeFixed32(freed.data()));

    // Short and out-of-range block reads get empty replies, including
    // spans whose end wraps around 2^64.
    const auto base = reinterpret_cast<uint64_t>(memory->dram_base());
    const uint64_t size = memory->dram_size();
    EXPECT_TRUE(call(remote::RpcType::kReadBlock, "short").empty());
    EXPECT_TRUE(call(remote::RpcType::kReadBlock, read_args(16, 8)).empty());
    EXPECT_TRUE(
        call(remote::RpcType::kReadBlock, read_args(base + size - 8, 16))
            .empty());
    EXPECT_TRUE(call(remote::RpcType::kReadBlock,
                     read_args(base + 4096, ~uint64_t{0} - 100))
                    .empty());
    EXPECT_TRUE(
        call(remote::RpcType::kReadBlock, read_args(~uint64_t{0} - 7, 16))
            .empty());

    // Unknown type: an empty reply.
    EXPECT_TRUE(call(0x7f, "x").empty());

    // Still serving: an in-range read answers in full.
    EXPECT_EQ(64u,
              call(remote::RpcType::kReadBlock, read_args(base, 64)).size());
    service.Stop();
  });
}

TEST(NearDataExecutorTest, SubRangeSlicesCompactIndependently) {
  // The sub-compaction contract: disjoint record-aligned slices of the
  // same inputs produce disjoint outputs covering everything.
  SimEnv env;
  rdma::Fabric fabric(&env);
  rdma::Node* memory = fabric.AddNode("memory", 4, 1ull << 30);
  env.Run(0, [&] {
    InternalKeyComparator icmp;
    BloomFilterPolicy bloom(10);
    char* base = memory->AllocDram(1 << 20);
    LocalMemorySink sink(base, 1 << 20);
    auto builder = NewByteTableBuilder(&bloom, &sink);
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(builder->Add(IKey(UKey(i), 3), "x").ok());
    }
    TableBuildResult built;
    ASSERT_TRUE(builder->Finish(&built).ok());
    auto index = TableIndex::Parse(built.index_blob);

    auto offset_of = [&](int key) {
      size_t pos = index->Find(IKey(UKey(key), kMaxSequenceNumber));
      return pos >= index->num_entries() ? built.data_len
                                         : index->entry(pos).offset;
    };

    int total = 0;
    std::vector<char> out_backing(4 << 20);
    size_t out_used = 0;
    for (auto [lo, hi] : std::vector<std::pair<int, int>>{
             {0, 100}, {100, 250}, {250, 400}}) {
      CompactionTask task;
      CompactionInput in;
      in.format = 1;
      in.addr = reinterpret_cast<uint64_t>(base);
      in.start_off = offset_of(lo);
      in.end_off = offset_of(hi);
      task.inputs.push_back(in);
      task.smallest_snapshot = 100;
      task.target_file_size = 4 << 20;
      task.output_chunk_size = 1 << 20;
      task.output_format = 1;
      task.bloom_bits_per_key = 10;

      auto alloc = [&]() {
        remote::RemoteChunk c;
        c.addr = reinterpret_cast<uint64_t>(out_backing.data()) + out_used;
        c.size = 1 << 20;
        out_used += 1 << 20;
        c.owner_node = memory->id();
        return c;
      };
      auto free_chunk = [](const remote::RemoteChunk&) {};
      CompactionResult result;
      ASSERT_TRUE(ExecuteCompactionTask(&env, task, icmp, alloc, free_chunk,
                                        memory->id(), &result)
                      .ok());
      for (const auto& out : result.outputs) {
        total += static_cast<int>(out.num_entries);
      }
    }
    EXPECT_EQ(400, total);
  });
}

}  // namespace
}  // namespace dlsm

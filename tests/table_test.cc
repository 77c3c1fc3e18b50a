// Tests for SSTable machinery: index serialization, sinks (local, async
// pipelined, sync), builders and readers in both layouts, point lookups
// and iterators, local iterators used by near-data compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/file_meta.h"
#include "src/core/options.h"
#include "src/core/table_builder.h"
#include "src/core/table_index.h"
#include "src/core/table_reader.h"
#include "src/core/table_sink.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/coding.h"
#include "src/util/random.h"
#include "tests/alloc_counter.h"
#include "tests/dlsm_test_util.h"

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

/// One table's point lookup as the engine runs it: local bloom/index
/// filtering, then one remote read of exactly the probed bytes.
Status ProbeTable(const RemoteReadPath& read_path,
                  const InternalKeyComparator& icmp,
                  const BloomFilterPolicy& bloom, const FileMetaData& file,
                  const LookupKey& lkey, TableLookupResult* result,
                  std::string* value) {
  *result = TableLookupResult::kNotPresent;
  std::pmr::monotonic_buffer_resource mem;
  TableProbe probe;
  Status s =
      TableProbePrepare(bloom, file, lkey,
                        BloomFilterPolicy::KeyHash(lkey.user_key()), &mem,
                        &probe);
  if (!s.ok() || !probe.need_read) return s;
  s = read_path.Read(probe.buf.data(), file.chunk.addr + probe.read_off,
                     file.chunk.rkey, probe.buf.size());
  if (!s.ok()) return s;
  return TableProbeFinish(icmp, lkey, &probe, result, value);
}

// Sanitizer instrumentation inflates the measured host CPU that SimEnv
// charges into virtual time, so WRITE completions become "ready" before
// the next poll and the pipeline legitimately never holds a deferred
// handle. The in-flight-count assertions only hold at native speed; the
// data-integrity and gauge assertions hold everywhere.
using test::kSanitizedBuild;

TEST(TableIndexTest, BuildParseRoundTrip) {
  TableIndex::Builder builder(TableIndex::kPerRecord);
  for (int i = 0; i < 100; i++) {
    builder.Add(IKey(UKey(i), 100 - i), i * 10, 42 + i);
  }
  std::string blob = builder.Finish("fake-filter-bytes");

  auto index = TableIndex::Parse(blob);
  ASSERT_NE(nullptr, index);
  EXPECT_EQ(TableIndex::kPerRecord, index->kind());
  ASSERT_EQ(100u, index->num_entries());
  for (int i = 0; i < 100; i++) {
    const TableIndex::Entry& e = index->entry(i);
    EXPECT_EQ(IKey(UKey(i), 100 - i), index->key(i).ToString());
    EXPECT_EQ(static_cast<uint64_t>(i) * 10, e.offset);
    EXPECT_EQ(42u + i, e.length);
  }
}

TEST(TableIndexTest, FindReturnsFirstGreaterOrEqual) {
  TableIndex::Builder builder(TableIndex::kPerRecord);
  for (int i = 0; i < 50; i++) {
    builder.Add(IKey(UKey(i * 2), 7), i, 1);  // Even keys only.
  }
  auto index = TableIndex::Parse(builder.Finish());
  ASSERT_NE(nullptr, index);

  // Exact hit.
  EXPECT_EQ(5u, index->Find(IKey(UKey(10), kMaxSequenceNumber)));
  // Between keys: first greater.
  EXPECT_EQ(6u, index->Find(IKey(UKey(11), kMaxSequenceNumber)));
  // Before all.
  EXPECT_EQ(0u, index->Find(IKey(UKey(0), kMaxSequenceNumber)));
  // Past the end.
  EXPECT_EQ(50u, index->Find(IKey(UKey(1000), kMaxSequenceNumber)));
}

// Find searches key words first; it must land where a plain binary search
// over whole internal keys does. Seeded random indexes of both layouts:
// user keys sharing a 0-20 byte prefix and ending before, inside or past
// the 8-byte word, 0x00/0xFF bytes, 1-3 versions per user key, and
// targets below, inside and above the table at assorted sequences.
TEST(TableIndexTest, KeyWordFindMatchesFullKeyLowerBound) {
  InternalKeyComparator icmp;
  auto less = [&icmp](const std::string& a, const std::string& b) {
    return icmp.Compare(a, b) < 0;
  };
  Random rnd(301);
  for (int trial = 0; trial < 400; trial++) {
    const std::string prefix = test::EdgeBytes(&rnd, rnd.Uniform(21));
    const std::vector<std::string> user_keys =
        test::RandomSortedUserKeys(&rnd, prefix, rnd.Uniform(300));
    // A per-block index holds each block's last key: a sparse subsequence.
    const auto kind =
        trial % 2 == 0 ? TableIndex::kPerRecord : TableIndex::kPerBlock;
    std::vector<std::string> entries;
    for (const std::string& u : user_keys) {
      SequenceNumber seq = 10 + rnd.Uniform(1000);
      for (uint64_t v = 1 + rnd.Uniform(3); v > 0; v--) {
        if (kind == TableIndex::kPerRecord || rnd.OneIn(3)) {
          entries.push_back(
              IKey(u, seq, rnd.OneIn(4) ? kTypeDeletion : kTypeValue));
        }
        seq -= 1 + rnd.Uniform(3);
      }
    }
    TableIndex::Builder builder(kind);
    for (size_t i = 0; i < entries.size(); i++) {
      builder.Add(entries[i], i, 1);
    }
    auto index = TableIndex::Parse(builder.Finish());
    ASSERT_NE(nullptr, index);
    for (int probe = 0; probe < 200; probe++) {
      const std::string user_key =
          test::RandomProbeKey(&rnd, prefix, user_keys);
      const SequenceNumber seq = rnd.OneIn(3)   ? kMaxSequenceNumber
                                 : rnd.OneIn(2) ? 0
                                                : rnd.Uniform(1100);
      const std::string target = IKey(user_key, seq, kValueTypeForSeek);
      const size_t want =
          std::lower_bound(entries.begin(), entries.end(), target, less) -
          entries.begin();
      ASSERT_EQ(want, index->Find(target))
          << "trial " << trial << " prefix size " << prefix.size()
          << " entries " << entries.size() << " seq " << seq;
    }
  }
}

// A reference decode of a serialized index: each entry's internal key,
// offset and length, read with the blob's own varint layout.
struct RefEntry {
  std::string key;
  uint64_t offset;
  uint32_t length;
};

std::vector<RefEntry> DecodeIndexBlob(const std::string& blob) {
  Slice in(blob);
  in.remove_prefix(1);  // Kind.
  uint32_t count = 0;
  EXPECT_TRUE(GetVarint32(&in, &count));
  std::vector<RefEntry> out;
  for (uint32_t i = 0; i < count; i++) {
    Slice key;
    RefEntry e;
    EXPECT_TRUE(GetLengthPrefixedSlice(&in, &key));
    EXPECT_TRUE(GetVarint64(&in, &e.offset));
    EXPECT_TRUE(GetVarint32(&in, &e.length));
    e.key = key.ToString();
    out.push_back(e);
  }
  return out;
}

// Find settles most lookups from key words, lengths and trailers alone.
// Seeded indexes aimed at where that could go wrong, each checked against
// a reference decode of the blob: Find's position and same-user-key
// answer, each entry's fields, and the point probe built from them.
//   0: keys longer than prefix + 8 that share a word (the tails decide);
//   1: keys that differ only by trailing \0 bytes (the lengths decide);
//   2: runs of many versions, searched at older snapshots;
//   3: the block layout, over keys of all three kinds.
TEST(TableIndexTest, FindAndProbeMatchAReferenceDecode) {
  InternalKeyComparator icmp;
  auto less = [&icmp](const RefEntry& a, const std::string& b) {
    return icmp.Compare(a.key, b) < 0;
  };
  BloomFilterPolicy bloom(10);
  Random rnd(29);
  for (int trial = 0; trial < 200; trial++) {
    const int shape = trial % 4;
    const std::string prefix = test::EdgeBytes(&rnd, rnd.Uniform(21));
    std::set<std::string> keyset;
    for (int n = 0; n < 120; n++) {
      const int kind = shape == 3 ? rnd.Uniform(3) : shape;
      if (kind == 0) {
        // Two words, told apart by their first byte so the prefix ends
        // where the words start; 1-6 tail bytes past each word.
        const std::string word =
            rnd.OneIn(2) ? std::string("a\x00\xff\x01zz\x80\x00", 8)
                         : std::string("b\x00\x00\x00\x00\x00\x00\x01", 8);
        keyset.insert(prefix + word +
                      test::EdgeBytes(&rnd, 1 + rnd.Uniform(6)));
      } else if (kind == 1) {
        // A base ending inside the word, then 0-12 trailing \0 bytes.
        const std::string base =
            prefix + (rnd.OneIn(2) ? "c" : "d") + test::EdgeBytes(&rnd, 2);
        keyset.insert(base + std::string(rnd.Uniform(13), '\0'));
      } else {
        keyset.insert(prefix + test::EdgeBytes(&rnd, rnd.Uniform(13)));
      }
    }
    const std::vector<std::string> user_keys(keyset.begin(), keyset.end());
    const auto kind =
        shape == 3 ? TableIndex::kPerBlock : TableIndex::kPerRecord;
    std::vector<std::string> ikeys;
    for (const std::string& u : user_keys) {
      SequenceNumber seq = 300 + rnd.Uniform(1000);
      const uint64_t versions = shape == 2 ? 4 + rnd.Uniform(8) : 1;
      for (uint64_t v = 0; v < versions; v++) {
        if (kind == TableIndex::kPerRecord || rnd.OneIn(3)) {
          ikeys.push_back(
              IKey(u, seq, rnd.OneIn(4) ? kTypeDeletion : kTypeValue));
        }
        seq -= 1 + rnd.Uniform(20);
      }
    }
    TableIndex::Builder builder(kind);
    for (const std::string& k : ikeys) {
      builder.Add(k, rnd.Next64() >> rnd.Uniform(64), 1 + rnd.Uniform(512));
    }
    FileMetaData file;
    file.index = TableIndex::Parse(builder.Finish());
    const TableIndex& index = *file.index;
    ASSERT_NE(nullptr, file.index);
    const std::vector<RefEntry> ref = DecodeIndexBlob(index.blob());
    ASSERT_EQ(ref.size(), index.num_entries());
    for (size_t i = 0; i < ref.size(); i++) {
      ASSERT_EQ(ref[i].key, index.key(i).ToString());
      ASSERT_EQ(ExtractUserKey(ref[i].key), index.user_key(i));
      ASSERT_EQ(ref[i].offset, index.entry(i).offset);
      ASSERT_EQ(ref[i].length, index.entry(i).length);
      ASSERT_EQ(ExtractTrailer(ref[i].key), index.entry(i).trailer);
    }

    for (int probe_no = 0; probe_no < 300; probe_no++) {
      std::string user_key = test::RandomProbeKey(&rnd, prefix, user_keys);
      if (shape == 1 && rnd.OneIn(2)) {
        user_key += std::string(1 + rnd.Uniform(4), '\0');
      }
      // Older snapshots land inside a key's run of versions.
      const SequenceNumber seq = rnd.OneIn(4)   ? kMaxSequenceNumber
                                 : rnd.OneIn(8) ? 0
                                                : rnd.Uniform(1400);
      const LookupKey lkey(user_key, seq);
      const size_t want =
          std::lower_bound(ref.begin(), ref.end(),
                           lkey.internal_key().ToString(), less) -
          ref.begin();
      const bool want_same =
          want < ref.size() && ExtractUserKey(ref[want].key) == user_key;
      bool same = !want_same;
      ASSERT_EQ(want, index.Find(lkey.internal_key(), &same))
          << "trial " << trial << " probe " << probe_no;
      ASSERT_EQ(want_same, same) << "trial " << trial << " probe " << probe_no;

      std::pmr::monotonic_buffer_resource mem;
      TableProbe probe;
      ASSERT_TRUE(TableProbePrepare(bloom, file, lkey,
                                    BloomFilterPolicy::KeyHash(user_key), &mem,
                                    &probe)
                      .ok());
      const bool want_read =
          kind == TableIndex::kPerRecord ? want_same : want < ref.size();
      ASSERT_EQ(want_read, probe.need_read);
      ASSERT_EQ(want_read && kind == TableIndex::kPerRecord, probe.definitive);
      if (want_read) {
        EXPECT_EQ(ref[want].offset, probe.read_off);
        EXPECT_EQ(ref[want].length, probe.buf.size());
        EXPECT_EQ(ExtractTrailer(ref[want].key), probe.index_trailer);
      }
    }
  }
}

// A probe resolves its READ against the lookup's user key and the index
// entry's trailer: a record that carries any other key is Corruption,
// including one that differs from the index only in its trailer.
TEST(TableIndexTest, ProbeRejectsARecordWhoseKeyDiffersFromTheIndex) {
  InternalKeyComparator icmp;
  BloomFilterPolicy bloom(10);
  auto record = [](const std::string& ikey, const std::string& value) {
    std::string r;
    PutVarint32(&r, static_cast<uint32_t>(ikey.size()));
    r.append(ikey);
    PutVarint32(&r, static_cast<uint32_t>(value.size()));
    r.append(value);
    return r;
  };
  const std::string good = record(IKey("user-key", 7), "value");
  TableIndex::Builder builder(TableIndex::kPerRecord);
  builder.Add(IKey("user-key", 7), 0, static_cast<uint32_t>(good.size()));
  FileMetaData file;
  file.index = TableIndex::Parse(builder.Finish());
  ASSERT_NE(nullptr, file.index);

  auto finish_with = [&](const std::string& bytes, TableLookupResult* result,
                         std::string* value) {
    const LookupKey lkey("user-key", kMaxSequenceNumber);
    std::pmr::monotonic_buffer_resource mem;
    TableProbe probe;
    Status s = TableProbePrepare(bloom, file, lkey,
                                 BloomFilterPolicy::KeyHash(lkey.user_key()),
                                 &mem, &probe);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(probe.need_read);
    EXPECT_EQ(bytes.size(), probe.buf.size());  // Records of equal length.
    std::memcpy(probe.buf.data(), bytes.data(),
                std::min(bytes.size(), probe.buf.size()));
    return TableProbeFinish(icmp, lkey, &probe, result, value);
  };
  TableLookupResult result;
  std::string value;
  ASSERT_TRUE(finish_with(good, &result, &value).ok());
  EXPECT_EQ(TableLookupResult::kFound, result);
  EXPECT_EQ("value", value);
  for (const std::string& bad :
       {record(IKey("user-key", 6), "value"),
        record(IKey("user-key", 7, kTypeDeletion), "value"),
        record(IKey("user-kez", 7), "value")}) {
    EXPECT_TRUE(finish_with(bad, &result, &value).IsCorruption());
  }
}

TEST(TableIndexTest, ParseRejectsGarbage) {
  EXPECT_EQ(nullptr, TableIndex::Parse(""));
  EXPECT_EQ(nullptr, TableIndex::Parse("\x07garbage"));
  std::string truncated;
  {
    TableIndex::Builder builder(TableIndex::kPerBlock);
    builder.Add(IKey(UKey(1), 1), 0, 100);
    truncated = builder.Finish();
  }
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(nullptr, TableIndex::Parse(truncated));
  // An entry key too short to hold an internal-key trailer.
  TableIndex::Builder builder(TableIndex::kPerRecord);
  builder.Add("short", 0, 1);
  EXPECT_EQ(nullptr, TableIndex::Parse(builder.Finish()));
}

TEST(TableSinkTest, LocalMemorySinkBounds) {
  std::string storage(64, '\0');
  LocalMemorySink sink(storage.data(), 64);
  ASSERT_TRUE(sink.Append("0123456789", 10).ok());
  ASSERT_TRUE(sink.Append("abcdef", 6).ok());
  EXPECT_EQ(16u, sink.bytes_written());
  EXPECT_EQ("0123456789abcdef", storage.substr(0, 16));
  EXPECT_TRUE(sink.Append(std::string(100, 'x').data(), 100)
                  .IsOutOfMemory());
}

class TableSimTest : public ::testing::Test {
 protected:
  void RunSim(std::function<void(rdma::Fabric*, rdma::Node*, rdma::Node*,
                                 Env*)> body) {
    SimEnv env;
    rdma::Fabric fabric(&env);
    rdma::Node* compute = fabric.AddNode("compute", 24, 256 << 20);
    rdma::Node* memory = fabric.AddNode("memory", 4, 1ull << 30);
    env.Run(0, [&] { body(&fabric, compute, memory, &env); });
  }
};

TEST_F(TableSimTest, AsyncSinkStreamsAndRecyclesBuffers) {
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
            Env*) {
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    StagingPool pool(compute, /*buffer_size=*/64 << 10);
    AsyncRemoteSink sink(&mgr, chunk, &pool, /*buffer_count=*/3);
    std::string pattern;
    Random rnd(5);
    for (int i = 0; i < 4096; i++) {
      std::string piece(1024, static_cast<char>('a' + rnd.Uniform(26)));
      pattern += piece;
      ASSERT_TRUE(sink.Append(piece.data(), piece.size()).ok());
    }
    ASSERT_TRUE(sink.Finish().ok());
    EXPECT_EQ(pattern.size(), sink.bytes_written());
    // 4 MB through 3 x 64 KB buffers: recycling must have happened.
    EXPECT_GT(sink.recycled_buffers(), 10u);
    EXPECT_EQ(0, memcmp(region, pattern.data(), pattern.size()));
  });
}

TEST_F(TableSimTest, DepthOneSinkIsOneBlockingWritePerBuffer) {
  // The synchronous transport: one staging buffer and no pipeline, so each
  // full buffer is one WRITE, waited before the buffer is refilled.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
            Env*) {
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    const size_t kBuffer = 64 << 10;
    StagingPool pool(compute, kBuffer);
    const uint64_t kChunk = 4 << 20;
    std::string patterns[2];
    Random rnd(13);
    size_t dram_after_first = 0;
    for (int out = 0; out < 2; out++) {
      remote::RemoteChunk chunk{mr.addr + out * kChunk, kChunk, mr.rkey,
                                compute->id()};
      AsyncRemoteSink sink(&mgr, chunk, &pool, /*buffer_count=*/1);
      for (int i = 0; i < 1500; i++) {
        std::string piece(1000, static_cast<char>('a' + rnd.Uniform(26)));
        patterns[out] += piece;
        ASSERT_TRUE(sink.Append(piece.data(), piece.size()).ok());
      }
      ASSERT_TRUE(sink.Finish().ok());
      if (out == 0) dram_after_first = compute->dram_used();
    }
    // The second sink refilled the first one's buffer from the pool.
    EXPECT_EQ(dram_after_first, compute->dram_used());

    rdma::RdmaVerbStats stats = mgr.StatsSnapshot();
    const uint64_t per_sink = (patterns[0].size() + kBuffer - 1) / kBuffer;
    EXPECT_EQ(2 * per_sink, stats.write.ops);
    EXPECT_EQ(patterns[0].size() + patterns[1].size(), stats.write.bytes);
    EXPECT_EQ(1u, stats.max_outstanding);
    EXPECT_EQ(0u, stats.outstanding);
    for (int out = 0; out < 2; out++) {
      EXPECT_EQ(0, memcmp(region + out * kChunk, patterns[out].data(),
                          patterns[out].size()))
          << "output " << out;
    }
  });
}

TEST_F(TableSimTest, FlushPipelineDefersWritesAcrossSinks) {
  // Two outputs of one flush job share a FlushPipeline: each Finish()
  // hands its in-flight WRITE handles to the pipeline instead of draining,
  // and the single Drain() is the durability barrier for both.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
            Env*) {
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    StagingPool pool(compute, /*buffer_size=*/64 << 10);
    FlushPipeline pipeline(&mgr, &pool);

    const uint64_t kChunk = 4 << 20;
    std::string patterns[2];
    Random rnd(9);
    for (int out = 0; out < 2; out++) {
      remote::RemoteChunk chunk{mr.addr + out * kChunk, kChunk, mr.rkey,
                                compute->id()};
      AsyncRemoteSink sink(&mgr, chunk, &pool, /*buffer_count=*/3,
                           &pipeline);
      // Pieces that don't divide the buffer size, so the last buffer is
      // partial and its WRITE is posted by Finish() itself — a completion
      // can't beat the adoption no matter how virtual time advances.
      for (int i = 0; i < 1024; i++) {
        std::string piece(1000, static_cast<char>('a' + rnd.Uniform(26)));
        patterns[out] += piece;
        ASSERT_TRUE(sink.Append(piece.data(), piece.size()).ok());
      }
      ASSERT_TRUE(sink.Finish().ok());
      EXPECT_EQ(patterns[out].size(), sink.bytes_written());
    }
    // At least the tail WRITE of each sink must have been deferred.
    if (!kSanitizedBuild) EXPECT_GE(pipeline.deferred_writes(), 2u);

    ASSERT_TRUE(pipeline.Drain().ok());
    for (int out = 0; out < 2; out++) {
      EXPECT_EQ(0, memcmp(region + out * kChunk, patterns[out].data(),
                          patterns[out].size()))
          << "output " << out;
    }
    rdma::RdmaVerbStats stats = mgr.StatsSnapshot();
    EXPECT_EQ(0u, stats.outstanding);
    EXPECT_EQ(stats.posted, stats.completed);
  });
}

TEST_F(TableSimTest, FlushPipelineCancelsDeferredWritesOnTeardown) {
  // Error unwind / DB teardown destroys the pipeline without Drain(): the
  // deferred handles must cancel without blocking and without pinning the
  // outstanding-verbs gauge.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
            Env*) {
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    {
      StagingPool pool(compute, /*buffer_size=*/64 << 10);
      FlushPipeline pipeline(&mgr, &pool);
      remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};
      AsyncRemoteSink sink(&mgr, chunk, &pool, /*buffer_count=*/3,
                           &pipeline);
      // A partial tail buffer: Finish() posts its WRITE and defers the
      // handle, so at least one deferred WRITE survives to the unwind.
      std::string piece((512 << 10) + (60 << 10), 'q');
      ASSERT_TRUE(sink.Append(piece.data(), piece.size()).ok());
      ASSERT_TRUE(sink.Finish().ok());
      if (!kSanitizedBuild) ASSERT_GT(pipeline.deferred_writes(), 0u);
    }
    rdma::RdmaVerbStats stats = mgr.StatsSnapshot();
    EXPECT_EQ(0u, stats.outstanding) << "cancelled WRITEs pinned the gauge";
    if (!kSanitizedBuild) EXPECT_GT(stats.abandoned, 0u);
  });
}

struct LayoutParam {
  TableFormat format;
  size_t block_size;
};

class TableLayoutTest : public TableSimTest,
                        public ::testing::WithParamInterface<LayoutParam> {};

TEST_P(TableLayoutTest, BuildThenPointLookupEveryKey) {
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    const LayoutParam param = GetParam();
    InternalKeyComparator icmp;
    BloomFilterPolicy bloom(10);

    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    StagingPool pool(compute, 64 << 10);
    AsyncRemoteSink sink(&mgr, chunk, &pool, 3);
    auto builder =
        param.format == TableFormat::kByteAddressable
            ? NewByteTableBuilder(&bloom, &sink)
            : NewBlockTableBuilder(&bloom, &sink, param.block_size);

    const int kN = 2000;
    Random rnd(7);
    std::map<std::string, std::string> expected;
    for (int i = 0; i < kN; i++) {
      std::string k = UKey(i * 3);
      std::string v = "val-" + std::to_string(rnd.Next());
      expected[k] = v;
      ASSERT_TRUE(builder->Add(IKey(k, i + 1), v).ok());
    }
    TableBuildResult result;
    ASSERT_TRUE(builder->Finish(&result).ok());
    EXPECT_EQ(static_cast<uint64_t>(kN), result.num_entries);

    auto file = std::make_shared<FileMetaData>();
    file->chunk = chunk;
    file->data_len = result.data_len;
    file->num_entries = result.num_entries;
    file->smallest = result.smallest;
    file->largest = result.largest;
    file->index = TableIndex::Parse(result.index_blob);
    ASSERT_NE(nullptr, file->index);

    RemoteReadPath read_path;
    read_path.mgr = &mgr;

    // Every present key is found with the right value.
    for (const auto& [k, v] : expected) {
      LookupKey lkey(k, kMaxSequenceNumber);
      TableLookupResult lookup;
      std::string value;
      ASSERT_TRUE(ProbeTable(read_path, icmp, bloom, *file, lkey, &lookup,
                             &value)
                      .ok());
      ASSERT_EQ(TableLookupResult::kFound, lookup) << k;
      EXPECT_EQ(v, value);
    }
    // Absent keys (odd multiples) are not present.
    int absent_found = 0;
    for (int i = 0; i < 200; i++) {
      LookupKey lkey(UKey(i * 3 + 1), kMaxSequenceNumber);
      TableLookupResult lookup;
      std::string value;
      ASSERT_TRUE(ProbeTable(read_path, icmp, bloom, *file, lkey, &lookup,
                             &value)
                      .ok());
      if (lookup != TableLookupResult::kNotPresent) absent_found++;
    }
    EXPECT_EQ(0, absent_found);
  });
}

TEST_P(TableLayoutTest, RemoteIteratorFullScanAndSeek) {
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    const LayoutParam param = GetParam();
    InternalKeyComparator icmp;
    BloomFilterPolicy bloom(10);

    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    StagingPool pool(compute, 64 << 10);
    AsyncRemoteSink sink(&mgr, chunk, &pool, 3);
    auto builder =
        param.format == TableFormat::kByteAddressable
            ? NewByteTableBuilder(&bloom, &sink)
            : NewBlockTableBuilder(&bloom, &sink, param.block_size);
    const int kN = 1500;
    for (int i = 0; i < kN; i++) {
      ASSERT_TRUE(
          builder->Add(IKey(UKey(i), 1), "v" + std::to_string(i)).ok());
    }
    TableBuildResult result;
    ASSERT_TRUE(builder->Finish(&result).ok());

    auto file = std::make_shared<FileMetaData>();
    file->chunk = chunk;
    file->data_len = result.data_len;
    file->num_entries = result.num_entries;
    file->index = TableIndex::Parse(result.index_blob);

    RemoteReadPath read_path;
    read_path.mgr = &mgr;
    std::unique_ptr<Iterator> it(
        NewRemoteTableIterator(read_path, icmp, file, 256 << 10));

    int count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      EXPECT_EQ(UKey(count), ExtractUserKey(it->key()).ToString());
      EXPECT_EQ("v" + std::to_string(count), it->value().ToString());
      count++;
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(kN, count);

    it->Seek(IKey(UKey(700), kMaxSequenceNumber));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(UKey(700), ExtractUserKey(it->key()).ToString());
    it->Prev();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(UKey(699), ExtractUserKey(it->key()).ToString());
    it->SeekToLast();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(UKey(kN - 1), ExtractUserKey(it->key()).ToString());
  });
}

/// Builds `records` (ascending user keys, one version each) into a remote
/// table of the test's layout at chunk and returns its metadata.
FileRef BuildRemoteTable(
    rdma::RdmaManager* mgr, const remote::RemoteChunk& chunk,
    const LayoutParam& param,
    const std::vector<std::pair<std::string, std::string>>& records) {
  BloomFilterPolicy bloom(10);
  StagingPool pool(mgr->local(), 64 << 10);
  AsyncRemoteSink sink(mgr, chunk, &pool, 3);
  auto builder = param.format == TableFormat::kByteAddressable
                     ? NewByteTableBuilder(&bloom, &sink)
                     : NewBlockTableBuilder(&bloom, &sink, param.block_size);
  for (const auto& [key, value] : records) {
    EXPECT_TRUE(builder->Add(IKey(key, 1), value).ok());
  }
  TableBuildResult result;
  EXPECT_TRUE(builder->Finish(&result).ok());
  auto file = std::make_shared<FileMetaData>();
  file->chunk = chunk;
  file->data_len = result.data_len;
  file->num_entries = result.num_entries;
  file->index = TableIndex::Parse(result.index_blob);
  return file;
}

TEST_P(TableLayoutTest, ReverseScanReadsWindowsNotRecords) {
  // A backward window ends at the record it was fetched for, so the
  // records before it are already in; a reverse pass costs one READ per
  // window, not one per record (or block). A record straddling a window's
  // start is re-read whole with the next window, so each window advances
  // at least its size minus the largest record.
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    InternalKeyComparator icmp;
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    const int kN = 2000;
    std::vector<std::pair<std::string, std::string>> records;
    for (int i = 0; i < kN; i++) {
      records.emplace_back(UKey(i), std::string(100, 'a' + i % 26));
    }
    FileRef file = BuildRemoteTable(&mgr, chunk, GetParam(), records);

    const size_t kWindow = 16 << 10;
    RemoteReadPath read_path;
    read_path.mgr = &mgr;
    std::unique_ptr<Iterator> it(
        NewRemoteTableIterator(read_path, icmp, file, kWindow));
    const uint64_t before = mgr.StatsSnapshot().read.ops;
    int n = 0;
    for (it->SeekToLast(); it->Valid(); it->Prev(), n++) {
      ASSERT_EQ(UKey(kN - 1 - n), ExtractUserKey(it->key()).ToString());
      ASSERT_EQ(records[kN - 1 - n].second, it->value().ToString());
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(kN, n);
    const uint64_t reads = mgr.StatsSnapshot().read.ops - before;
    size_t largest = 0;
    for (size_t i = 0; i < file->index->num_entries(); i++) {
      largest = std::max<size_t>(largest, file->index->entry(i).length);
    }
    const size_t advance = kWindow - largest;
    EXPECT_LE(reads, (file->data_len + advance - 1) / advance + 1)
        << "data_len " << file->data_len << ", largest " << largest;
    EXPECT_LT(reads, file->index->num_entries() / 2);
  });
}

TEST_P(TableLayoutTest, FailedWindowFetchNeverServesStaleBytes) {
  // A window fetch that fails must not leave the window claiming bytes it
  // never received: after the fault clears, a Seek into that range reads
  // the record again instead of parsing a zero-filled buffer.
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    InternalKeyComparator icmp;
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    const int kN = 400;
    std::vector<std::pair<std::string, std::string>> records;
    for (int i = 0; i < kN; i++) {
      records.emplace_back(UKey(i), std::string(100, 'a' + i % 26));
    }
    FileRef file = BuildRemoteTable(&mgr, chunk, GetParam(), records);

    RemoteReadPath read_path;
    read_path.mgr = &mgr;
    read_path.max_retries = 1;  // Recovers the QP once the fault clears.
    std::unique_ptr<Iterator> it(
        NewRemoteTableIterator(read_path, icmp, file, 64 << 10));
    it->Seek(IKey(UKey(0), kMaxSequenceNumber));
    ASSERT_TRUE(it->Valid());

    rdma::FaultParams fp;
    fp.wr_error_rate = 1.0;
    f->set_fault_params(fp);
    int reached = 0;
    for (; it->Valid(); it->Next()) reached++;
    EXPECT_TRUE(it->status().IsIOError()) << it->status().ToString();
    ASSERT_LT(reached, kN);
    f->set_fault_params(rdma::FaultParams());

    it->Seek(IKey(UKey(reached), kMaxSequenceNumber));
    ASSERT_TRUE(it->Valid()) << it->status().ToString();
    EXPECT_EQ(UKey(reached), ExtractUserKey(it->key()).ToString());
    EXPECT_EQ(records[reached].second, it->value().ToString());
  });
}

TEST_P(TableLayoutTest, ScansAreByteIdenticalOnBothTransports) {
  // Records of 300-1700 B under a 10007 B window cap: window boundaries
  // fall inside records (blocks) everywhere, so the async transport
  // stitches straddlers across its window swap while the sync transport
  // (staging-copy path, no prefetch) re-reads them. Every scan shape must
  // yield the same bytes on both, and those of the source records; a
  // full forward pass on the async transport reads each byte once.
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    InternalKeyComparator icmp;
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    const int kN = 600;
    Random rnd(17);
    std::vector<std::pair<std::string, std::string>> records;
    for (int i = 0; i < kN; i++) {
      std::string value(300 + rnd.Uniform(1400), '\0');
      for (char& c : value) c = static_cast<char>('a' + rnd.Uniform(26));
      records.emplace_back(UKey(i), std::move(value));
    }
    FileRef file = BuildRemoteTable(&mgr, chunk, GetParam(), records);

    const size_t kCap = 10007;
    auto append = [](std::string* out, Iterator* it) {
      *out += ExtractUserKey(it->key()).ToString();
      *out += '=';
      *out += it->value().ToString();
      *out += ';';
    };
    // One transcript of every scan shape: full forward, full reverse, then
    // Seek followed by Next and by Prev runs at spread-out targets, and a
    // direction change mid-run.
    auto transcript = [&](const RemoteReadPath& rp) {
      std::unique_ptr<Iterator> it(
          NewRemoteTableIterator(rp, icmp, file, kCap));
      std::string out = "fwd:";
      for (it->SeekToFirst(); it->Valid(); it->Next()) append(&out, it.get());
      out += "rev:";
      for (it->SeekToLast(); it->Valid(); it->Prev()) append(&out, it.get());
      for (int target : {0, 7, 123, 301, 520, 599}) {
        out += "seek" + std::to_string(target) + ":";
        it->Seek(IKey(UKey(target), kMaxSequenceNumber));
        for (int i = 0; i < 60 && it->Valid(); i++, it->Next()) {
          append(&out, it.get());
        }
        out += "back:";
        it->Seek(IKey(UKey(target), kMaxSequenceNumber));
        for (int i = 0; i < 60 && it->Valid(); i++, it->Prev()) {
          append(&out, it.get());
        }
      }
      out += "zigzag:";
      it->Seek(IKey(UKey(250), kMaxSequenceNumber));
      for (int i = 0; i < 40 && it->Valid(); i++, it->Next()) {
        append(&out, it.get());
      }
      for (int i = 0; i < 70 && it->Valid(); i++, it->Prev()) {
        append(&out, it.get());
      }
      EXPECT_TRUE(it->status().ok()) << it->status().ToString();
      return out;
    };

    std::string expected = "fwd:";
    auto add = [&expected, &records](int i) {
      expected += records[i].first + "=" + records[i].second + ";";
    };
    for (int i = 0; i < kN; i++) add(i);
    expected += "rev:";
    for (int i = kN - 1; i >= 0; i--) add(i);
    for (int target : {0, 7, 123, 301, 520, 599}) {
      expected += "seek" + std::to_string(target) + ":";
      for (int i = target; i < kN && i < target + 60; i++) add(i);
      expected += "back:";
      for (int i = target; i >= 0 && i > target - 60; i--) add(i);
    }
    expected += "zigzag:";
    for (int i = 250; i < 290; i++) add(i);
    for (int i = 290; i > 220; i--) add(i);

    RemoteReadPath async_path;
    async_path.mgr = &mgr;
    RemoteReadPath sync_path = async_path;
    sync_path.extra_copy = true;
    ASSERT_FALSE(SupportsAsyncProbe(sync_path));
    EXPECT_TRUE(transcript(async_path) == expected)
        << "async transport diverged";
    EXPECT_TRUE(transcript(sync_path) == expected)
        << "sync transport diverged";

    // A SeekToFirst pass fetches full chunks from the start, and stitching
    // makes them tile the data region: each byte is read once, not once
    // plus a cancelled chunk per straddling record.
    std::unique_ptr<Iterator> it(
        NewRemoteTableIterator(async_path, icmp, file, kCap));
    const rdma::VerbClassStats before = mgr.StatsSnapshot().read;
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(kN, n);
    const rdma::VerbClassStats after = mgr.StatsSnapshot().read;
    EXPECT_LE(after.bytes - before.bytes, file->data_len * 105 / 100);
    EXPECT_EQ((file->data_len + kCap - 1) / kCap, after.ops - before.ops);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, TableLayoutTest,
    ::testing::Values(LayoutParam{TableFormat::kByteAddressable, 0},
                      LayoutParam{TableFormat::kBlock, 4096},
                      LayoutParam{TableFormat::kBlock, 512}),
    [](const ::testing::TestParamInfo<LayoutParam>& info) {
      if (info.param.format == TableFormat::kByteAddressable) return std::string("Byte");
      return "Block" + std::to_string(info.param.block_size);
    });

TEST(LocalIteratorTest, ByteTableLocalScan) {
  // Build into plain memory, iterate without an index — the executor path.
  BloomFilterPolicy bloom(10);
  std::string storage(1 << 20, '\0');
  LocalMemorySink sink(storage.data(), storage.size());
  auto builder = NewByteTableBuilder(&bloom, &sink);
  const int kN = 500;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(builder->Add(IKey(UKey(i), 9), "value").ok());
  }
  TableBuildResult result;
  ASSERT_TRUE(builder->Finish(&result).ok());

  std::unique_ptr<Iterator> it(
      NewLocalByteTableIterator(storage.data(), result.data_len,
                                InternalKeyComparator()));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(UKey(count), ExtractUserKey(it->key()).ToString());
    count++;
  }
  EXPECT_EQ(kN, count);
  EXPECT_TRUE(it->status().ok());
}

TEST(LocalIteratorTest, ByteTableSeekAndSeekToLast) {
  InternalKeyComparator icmp;
  BloomFilterPolicy bloom(10);
  std::string storage(1 << 20, '\0');
  LocalMemorySink sink(storage.data(), storage.size());
  auto builder = NewByteTableBuilder(&bloom, &sink);
  const int kN = 200;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(builder->Add(IKey(UKey(i), 9), "v" + std::to_string(i)).ok());
  }
  TableBuildResult result;
  ASSERT_TRUE(builder->Finish(&result).ok());

  std::unique_ptr<Iterator> it(
      NewLocalByteTableIterator(storage.data(), result.data_len, icmp));

  // Seek lands on the first record >= target (internal-key order).
  it->Seek(IKey(UKey(50), kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(UKey(50), ExtractUserKey(it->key()).ToString());
  EXPECT_EQ("v50", it->value().ToString());

  // A forward re-seek continues from the current position...
  it->Seek(IKey(UKey(120), kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(UKey(120), ExtractUserKey(it->key()).ToString());

  // ...and a backward re-seek restarts the scan.
  it->Seek(IKey(UKey(7), kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(UKey(7), ExtractUserKey(it->key()).ToString());

  // Seeking past the last key invalidates the iterator.
  it->Seek(IKey(UKey(kN), kMaxSequenceNumber));
  EXPECT_FALSE(it->Valid());

  // SeekToLast works from any state, including invalid.
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(UKey(kN - 1), ExtractUserKey(it->key()).ToString());
  EXPECT_EQ("v" + std::to_string(kN - 1), it->value().ToString());
  EXPECT_TRUE(it->status().ok());
}

TEST(LocalIteratorTest, ByteTableSliceScan) {
  // Sub-compaction slices: iterate a record-aligned [start, end) window.
  InternalKeyComparator icmp;
  BloomFilterPolicy bloom(10);
  std::string storage(1 << 20, '\0');
  LocalMemorySink sink(storage.data(), storage.size());
  auto builder = NewByteTableBuilder(&bloom, &sink);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(builder->Add(IKey(UKey(i), 9), "value").ok());
  }
  TableBuildResult result;
  ASSERT_TRUE(builder->Finish(&result).ok());
  auto index = TableIndex::Parse(result.index_blob);

  // Slice covering keys [30, 60).
  uint64_t start =
      index->entry(index->Find(IKey(UKey(30), kMaxSequenceNumber)))
          .offset;
  uint64_t end =
      index->entry(index->Find(IKey(UKey(60), kMaxSequenceNumber)))
          .offset;
  std::unique_ptr<Iterator> it(
      NewLocalByteTableIterator(storage.data() + start, end - start, icmp));
  int expected = 30;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(UKey(expected), ExtractUserKey(it->key()).ToString());
    expected++;
  }
  EXPECT_EQ(60, expected);
}

TEST(LocalIteratorTest, BlockTableLocalScan) {
  InternalKeyComparator icmp;
  BloomFilterPolicy bloom(10);
  std::string storage(1 << 20, '\0');
  LocalMemorySink sink(storage.data(), storage.size());
  auto builder = NewBlockTableBuilder(&bloom, &sink, 1024);
  const int kN = 400;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(builder->Add(IKey(UKey(i), 9), "block-value").ok());
  }
  TableBuildResult result;
  ASSERT_TRUE(builder->Finish(&result).ok());
  auto index = TableIndex::Parse(result.index_blob);
  ASSERT_NE(nullptr, index);
  EXPECT_EQ(TableIndex::kPerBlock, index->kind());
  EXPECT_GE(index->num_entries(), 10u);  // Many blocks at 1 KB.

  std::unique_ptr<Iterator> it(NewLocalBlockTableIterator(
      storage.data(), result.data_len, index, icmp));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(UKey(count), ExtractUserKey(it->key()).ToString());
    count++;
  }
  EXPECT_EQ(kN, count);
}

TEST(LocalIteratorTest, ZeroFilledBlockIsCorruptionNotAHang) {
  // A zero-filled block decodes a restart count of 0; every positioning
  // call must report Corruption instead of indexing restart 0 - 1.
  InternalKeyComparator icmp;
  BloomFilterPolicy bloom(10);
  std::string storage(1 << 16, '\0');
  LocalMemorySink sink(storage.data(), storage.size());
  auto builder = NewBlockTableBuilder(&bloom, &sink, 1 << 15);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(builder->Add(IKey(UKey(i), 9), "v").ok());
  }
  TableBuildResult result;
  ASSERT_TRUE(builder->Finish(&result).ok());
  auto index = TableIndex::Parse(result.index_blob);
  ASSERT_NE(nullptr, index);
  ASSERT_EQ(1u, index->num_entries());
  std::fill(storage.begin(), storage.begin() + result.data_len, '\0');

  std::unique_ptr<Iterator> it(NewLocalBlockTableIterator(
      storage.data(), result.data_len, index, icmp));
  it->Seek(IKey(UKey(7), 9));
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
  it->SeekToLast();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
}

// A block table of exactly three blocks, built into *storage, with the
// middle block's restart count zeroed so its BlockIter reports Corruption.
std::shared_ptr<TableIndex> BuildThreeBlocksCorruptMiddle(
    std::string* storage, uint64_t* data_len) {
  BloomFilterPolicy bloom(10);
  storage->assign(1 << 16, '\0');
  LocalMemorySink sink(storage->data(), storage->size());
  auto builder = NewBlockTableBuilder(&bloom, &sink, 1024);
  for (int i = 0; i < 12; i++) {
    EXPECT_TRUE(builder->Add(IKey(UKey(i), 9), std::string(200, 'v')).ok());
  }
  TableBuildResult result;
  EXPECT_TRUE(builder->Finish(&result).ok());
  auto index = TableIndex::Parse(result.index_blob);
  EXPECT_NE(nullptr, index);
  EXPECT_EQ(3u, index->num_entries());
  TableIndex::Entry mid = index->entry(1);
  EncodeFixed32(storage->data() + mid.offset + mid.length - 4, 0);
  *data_len = result.data_len;
  return index;
}

// Forward from SeekToFirst and backward from SeekToLast over the table
// above: each pass ends in Corruption at the middle block and never
// yields a key from the block beyond it.
void ExpectScansStopAtCorruptMiddleBlock(Iterator* it,
                                         const TableIndex& index) {
  int yielded = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(0u, index.Find(it->key())) << "scanned past corruption";
    yielded++;
  }
  EXPECT_GT(yielded, 0);
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
  yielded = 0;
  for (it->SeekToLast(); it->Valid(); it->Prev()) {
    EXPECT_EQ(2u, index.Find(it->key())) << "scanned past corruption";
    yielded++;
  }
  EXPECT_GT(yielded, 0);
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
}

TEST(LocalIteratorTest, CorruptMiddleBlockStopsScansBothWays) {
  std::string storage;
  uint64_t data_len = 0;
  auto index = BuildThreeBlocksCorruptMiddle(&storage, &data_len);
  ASSERT_EQ(3u, index->num_entries());
  std::unique_ptr<Iterator> it(NewLocalBlockTableIterator(
      storage.data(), data_len, index,
      InternalKeyComparator()));
  ExpectScansStopAtCorruptMiddleBlock(it.get(), *index);
}

// The index arrives with the table's bytes; an entry pointing past the
// table's end is Corruption, in either scan direction, not an abort.
TEST(LocalIteratorTest, IndexEntryPastTableIsCorruption) {
  std::string storage;
  uint64_t data_len = 0;
  auto index = BuildThreeBlocksCorruptMiddle(&storage, &data_len);
  ASSERT_EQ(3u, index->num_entries());
  InternalKeyComparator icmp;
  // Cut the table inside its last block: entry 2 now ends past it.
  const uint64_t cut = index->entry(2).offset + 1;
  std::unique_ptr<Iterator> fwd(
      NewLocalBlockTableIterator(storage.data(), cut, index, icmp));
  fwd->Seek(IKey(UKey(11), kMaxSequenceNumber));
  EXPECT_FALSE(fwd->Valid());
  EXPECT_TRUE(fwd->status().IsCorruption()) << fwd->status().ToString();

  std::unique_ptr<Iterator> back(
      NewLocalBlockTableIterator(storage.data(), cut, index, icmp));
  back->SeekToLast();
  EXPECT_FALSE(back->Valid());
  EXPECT_TRUE(back->status().IsCorruption()) << back->status().ToString();
  // The corruption is sticky: re-seeking into the intact block 0 keeps the
  // iterator invalid, so a non-OK status never pairs with Valid().
  back->SeekToFirst();
  EXPECT_FALSE(back->Valid());
  EXPECT_TRUE(back->status().IsCorruption()) << back->status().ToString();
}

TEST_F(TableSimTest, RemoteCorruptMiddleBlockStopsScansBothWays) {
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    std::string storage;
    uint64_t data_len = 0;
    auto index = BuildThreeBlocksCorruptMiddle(&storage, &data_len);
    ASSERT_EQ(3u, index->num_entries());
    char* region = memory->AllocDram(1 << 16);
    std::memcpy(region, storage.data(), data_len);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 1 << 16);
    rdma::RdmaManager mgr(f, compute, memory);
    auto file = std::make_shared<FileMetaData>();
    file->chunk = remote::RemoteChunk{mr.addr, 1 << 16, mr.rkey,
                                      compute->id()};
    file->data_len = data_len;
    file->index = index;
    RemoteReadPath read_path;
    read_path.mgr = &mgr;
    std::unique_ptr<Iterator> it(NewRemoteTableIterator(
        read_path, InternalKeyComparator(), file, 4096));
    ExpectScansStopAtCorruptMiddleBlock(it.get(), *index);
  });
}

// The remote walk shares the local one's contract: Valid() never pairs
// with a non-OK status. A failed READ is reported, and keeps the iterator
// invalid, until a re-seek goes back to the wire and lands in an intact
// block.
TEST_F(TableSimTest, RemoteFailedFetchNeverPairsWithValid) {
  RunSim([&](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
             Env*) {
    std::string storage;
    uint64_t data_len = 0;
    auto index = BuildThreeBlocksCorruptMiddle(&storage, &data_len);
    ASSERT_EQ(3u, index->num_entries());
    char* region = memory->AllocDram(1 << 16);
    std::memcpy(region, storage.data(), data_len);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 1 << 16);
    rdma::RdmaManager mgr(f, compute, memory);
    auto file = std::make_shared<FileMetaData>();
    file->chunk = remote::RemoteChunk{mr.addr, 1 << 16, mr.rkey,
                                      compute->id()};
    file->data_len = data_len;
    file->index = index;
    RemoteReadPath read_path;
    read_path.mgr = &mgr;
    read_path.max_retries = 1;  // Recovers the QP once the fault clears.
    std::unique_ptr<Iterator> it(NewRemoteTableIterator(
        read_path, InternalKeyComparator(), file, 4096));

    rdma::FaultParams fail_all;
    fail_all.wr_error_rate = 1.0;
    f->set_fault_params(fail_all);
    it->SeekToLast();
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().IsIOError()) << it->status().ToString();
    it->SeekToFirst();  // Still failing: still invalid.
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().IsIOError()) << it->status().ToString();

    f->set_fault_params(rdma::FaultParams());
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(UKey(0), ExtractUserKey(it->key()).ToString());
  });
}

TEST(BloomInTableTest, NoFalseNegativesAndLowFalsePositives) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 5000; i++) keys.push_back(UKey(i * 2));
  for (const auto& k : keys) slices.emplace_back(k);
  std::string filter;
  policy.CreateFilter(slices.data(), static_cast<int>(slices.size()),
                      &filter);

  for (const auto& k : keys) {
    ASSERT_TRUE(policy.KeyMayMatch(k, filter)) << "false negative: " << k;
  }
  int false_positives = 0;
  for (int i = 0; i < 5000; i++) {
    if (policy.KeyMayMatch(UKey(i * 2 + 1), filter)) false_positives++;
  }
  // 10 bits/key should give ~1% FPR; allow generous slack.
  EXPECT_LT(false_positives, 250);
}

TEST(BloomTest, FilterFromHashesEqualsFilterFromKeys) {
  for (int bits_per_key : {1, 10, 23}) {
    BloomFilterPolicy policy(bits_per_key);
    for (int n : {0, 1, 7, 1000}) {
      std::vector<std::string> keys;
      std::vector<Slice> slices;
      std::vector<uint32_t> hashes;
      for (int i = 0; i < n; i++) keys.push_back(UKey(i * 7919));
      for (const auto& k : keys) {
        slices.emplace_back(k);
        hashes.push_back(BloomFilterPolicy::KeyHash(k));
      }
      std::string from_keys = "prefix";
      std::string from_hashes = "prefix";
      policy.CreateFilter(slices.data(), n, &from_keys);
      policy.CreateFilterFromHashes(hashes.data(), hashes.size(),
                                    &from_hashes);
      ASSERT_EQ(from_keys, from_hashes) << bits_per_key << " bits, " << n;
      const Slice filter(from_hashes.data() + 6, from_hashes.size() - 6);
      for (const auto& k : keys) {
        ASSERT_TRUE(policy.KeyMayMatch(k, filter)) << "false negative: " << k;
      }
    }
  }
}

// Seeded records in internal-key order: ascending user keys, up to three
// versions each (newest first), one in eight a tombstone, values of 0 to
// 199 bytes.
std::vector<std::pair<std::string, std::string>> SeededRecords(
    uint64_t seed, int n) {
  Random rnd(seed);
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(n);
  uint64_t user = 0;
  while (static_cast<int>(records.size()) < n) {
    user += 1 + rnd.Uniform(5);
    SequenceNumber seq = 1000000 + rnd.Uniform(1000);
    const int versions = 1 + static_cast<int>(rnd.Uniform(3));
    for (int v = 0; v < versions && static_cast<int>(records.size()) < n;
         v++) {
      seq -= 1 + rnd.Uniform(10);
      const ValueType type = rnd.OneIn(8) ? kTypeDeletion : kTypeValue;
      std::string value;
      if (type == kTypeValue) {
        value.resize(rnd.Uniform(200));
        for (char& c : value) c = static_cast<char>('a' + rnd.Uniform(26));
      }
      records.emplace_back(IKey(UKey(user), seq, type), std::move(value));
    }
  }
  return records;
}

uint64_t Fnv1a(uint64_t h, const Slice& bytes) {
  for (size_t i = 0; i < bytes.size(); i++) {
    h ^= static_cast<uint8_t>(bytes[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Builds the records into one table in *storage (block_size 0 = the byte
// layout); returns a digest of its data region and index blob.
uint64_t BuildTableDigest(
    const std::vector<std::pair<std::string, std::string>>& records,
    size_t block_size, std::string* storage) {
  BloomFilterPolicy bloom(10);
  LocalMemorySink sink(storage->data(), storage->size());
  auto builder = block_size == 0
                     ? NewByteTableBuilder(&bloom, &sink)
                     : NewBlockTableBuilder(&bloom, &sink, block_size);
  for (const auto& [key, value] : records) {
    EXPECT_TRUE(builder->Add(key, value).ok());
  }
  TableBuildResult result;
  EXPECT_TRUE(builder->Finish(&result).ok());
  EXPECT_EQ(records.size(), result.num_entries);
  uint64_t h = Fnv1a(0xcbf29ce484222325ull,
                     Slice(storage->data(), result.data_len));
  return Fnv1a(h, result.index_blob);
}

// The bytes a table build writes (data region, index and filter) are
// pinned: these digests were computed before the builders kept bloom
// hashes instead of keys and built the index blob in place.
TEST(TableBuildTest, SeededBuildsWriteThePinnedBytes) {
  const auto records = SeededRecords(2027, 10000);
  std::string storage(4 << 20, '\0');
  EXPECT_EQ(0x242aec5dfc20667eull, BuildTableDigest(records, 0, &storage));
  EXPECT_EQ(0x7808254aa67cdc4bull, BuildTableDigest(records, 4096, &storage));
}

// A table build keeps no per-record heap allocation: its buffers grow
// geometrically and are reused, so the operator new count stays far below
// one per 100 records.
TEST(TableBuildTest, BuildHeapTrafficDoesNotGrowWithRecords) {
  constexpr int kRecords = 20000;
  const auto records = SeededRecords(7, kRecords);
  std::string storage(8 << 20, '\0');
  for (size_t block_size : {size_t{0}, size_t{4096}}) {
    const uint64_t before = test::OperatorNewCount();
    BuildTableDigest(records, block_size, &storage);
    const uint64_t news = test::OperatorNewCount() - before;
    EXPECT_LT(news, kRecords / 100)
        << news << " operator new calls over " << kRecords
        << " records, block_size " << block_size;
  }
}

}  // namespace
}  // namespace dlsm

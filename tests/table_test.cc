// Tests for SSTable machinery: index serialization, sinks (local, async
// pipelined, sync), builders and readers in both layouts, point lookups
// and iterators, local iterators used by near-data compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
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
#include "src/util/random.h"
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
  TableProbe probe;
  Status s = TableProbePrepare(icmp, bloom, file, lkey, &probe);
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
  builder.SetFilter("fake-filter-bytes");
  std::string blob = builder.Finish();

  auto index = TableIndex::Parse(blob);
  ASSERT_NE(nullptr, index);
  EXPECT_EQ(TableIndex::kPerRecord, index->kind());
  ASSERT_EQ(100u, index->num_entries());
  for (int i = 0; i < 100; i++) {
    TableIndex::Entry e = index->entry(i);
    EXPECT_EQ(IKey(UKey(i), 100 - i), e.key.ToString());
    EXPECT_EQ(static_cast<uint64_t>(i) * 10, e.offset);
    EXPECT_EQ(42u + i, e.length);
  }
}

TEST(TableIndexTest, FindReturnsFirstGreaterOrEqual) {
  InternalKeyComparator icmp(BytewiseComparator());
  TableIndex::Builder builder(TableIndex::kPerRecord);
  for (int i = 0; i < 50; i++) {
    builder.Add(IKey(UKey(i * 2), 7), i, 1);  // Even keys only.
  }
  auto index = TableIndex::Parse(builder.Finish());
  ASSERT_NE(nullptr, index);

  // Exact hit.
  EXPECT_EQ(5u, index->Find(icmp, IKey(UKey(10), kMaxSequenceNumber)));
  // Between keys: first greater.
  EXPECT_EQ(6u, index->Find(icmp, IKey(UKey(11), kMaxSequenceNumber)));
  // Before all.
  EXPECT_EQ(0u, index->Find(icmp, IKey(UKey(0), kMaxSequenceNumber)));
  // Past the end.
  EXPECT_EQ(50u, index->Find(icmp, IKey(UKey(1000), kMaxSequenceNumber)));
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

    AsyncRemoteSink sink(&mgr, chunk, /*buffer_size=*/64 << 10,
                         /*buffer_count=*/3);
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

TEST_F(TableSimTest, FlushPipelineDefersWritesAcrossSinks) {
  // Two outputs of one flush job share a FlushPipeline: each Finish()
  // hands its in-flight WRITE handles to the pipeline instead of draining,
  // and the single Drain() is the durability barrier for both.
  RunSim([](rdma::Fabric* f, rdma::Node* compute, rdma::Node* memory,
            Env*) {
    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    FlushPipeline pipeline(&mgr);

    const uint64_t kChunk = 4 << 20;
    std::string patterns[2];
    Random rnd(9);
    for (int out = 0; out < 2; out++) {
      remote::RemoteChunk chunk{mr.addr + out * kChunk, kChunk, mr.rkey,
                                compute->id()};
      AsyncRemoteSink sink(&mgr, chunk, /*buffer_size=*/64 << 10,
                           /*buffer_count=*/3, &pipeline);
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
      FlushPipeline pipeline(&mgr);
      remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};
      AsyncRemoteSink sink(&mgr, chunk, /*buffer_size=*/64 << 10,
                           /*buffer_count=*/3, &pipeline);
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
    InternalKeyComparator icmp(BytewiseComparator());
    BloomFilterPolicy bloom(10);

    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    AsyncRemoteSink sink(&mgr, chunk, 64 << 10, 3);
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
    InternalKeyComparator icmp(BytewiseComparator());
    BloomFilterPolicy bloom(10);

    char* region = memory->AllocDram(8 << 20);
    rdma::MemoryRegion mr = f->RegisterMemory(memory, region, 8 << 20);
    rdma::RdmaManager mgr(f, compute, memory);
    remote::RemoteChunk chunk{mr.addr, 8 << 20, mr.rkey, compute->id()};

    AsyncRemoteSink sink(&mgr, chunk, 64 << 10, 3);
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
  AsyncRemoteSink sink(mgr, chunk, 64 << 10, 3);
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
    InternalKeyComparator icmp(BytewiseComparator());
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
    InternalKeyComparator icmp(BytewiseComparator());
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
    InternalKeyComparator icmp(BytewiseComparator());
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
  InternalKeyComparator icmp(BytewiseComparator());
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
                                InternalKeyComparator(BytewiseComparator())));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(UKey(count), ExtractUserKey(it->key()).ToString());
    count++;
  }
  EXPECT_EQ(kN, count);
  EXPECT_TRUE(it->status().ok());
}

TEST(LocalIteratorTest, ByteTableSeekAndSeekToLast) {
  InternalKeyComparator icmp(BytewiseComparator());
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
  InternalKeyComparator icmp(BytewiseComparator());
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
      index->entry(index->Find(icmp, IKey(UKey(30), kMaxSequenceNumber)))
          .offset;
  uint64_t end =
      index->entry(index->Find(icmp, IKey(UKey(60), kMaxSequenceNumber)))
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
  InternalKeyComparator icmp(BytewiseComparator());
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

}  // namespace
}  // namespace dlsm

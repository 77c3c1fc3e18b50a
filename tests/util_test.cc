// Unit tests for the utility kernel: Slice, Status, coding, CRC32C, hash,
// arena, random generators, histogram, logging helpers.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/util/arena.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/fifo.h"
#include "src/util/hash.h"
#include "src/util/histogram.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace dlsm {
namespace {

TEST(SliceTest, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, empty.size());

  std::string s = "hello";
  Slice a(s);
  EXPECT_EQ(5u, a.size());
  EXPECT_EQ('h', a[0]);
  EXPECT_EQ("hello", a.ToString());

  Slice b("hello");
  EXPECT_TRUE(a == b);
  b.remove_prefix(1);
  EXPECT_EQ("ello", b.ToString());
  EXPECT_TRUE(a != b);
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").compare(Slice("abcd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcd").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abcd").starts_with(Slice("bc")));
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ("OK", Status::OK().ToString());

  Status nf = Status::NotFound("key", "missing");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ("NotFound: key: missing", nf.ToString());

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
}

TEST(CodingTest, Fixed32) {
  std::string s;
  for (uint32_t v = 0; v < 100000; v += 7777) {
    PutFixed32(&s, v);
  }
  const char* p = s.data();
  for (uint32_t v = 0; v < 100000; v += 7777) {
    EXPECT_EQ(v, DecodeFixed32(p));
    p += sizeof(uint32_t);
  }
}

TEST(CodingTest, Fixed64) {
  std::string s;
  for (int power = 0; power <= 63; power++) {
    uint64_t v = static_cast<uint64_t>(1) << power;
    PutFixed64(&s, v - 1);
    PutFixed64(&s, v);
    PutFixed64(&s, v + 1);
  }
  const char* p = s.data();
  for (int power = 0; power <= 63; power++) {
    uint64_t v = static_cast<uint64_t>(1) << power;
    EXPECT_EQ(v - 1, DecodeFixed64(p));
    p += sizeof(uint64_t);
    EXPECT_EQ(v, DecodeFixed64(p));
    p += sizeof(uint64_t);
    EXPECT_EQ(v + 1, DecodeFixed64(p));
    p += sizeof(uint64_t);
  }
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 32 * 32; i++) {
    uint32_t v = (i / 32) << (i % 32);
    values.push_back(v);
    PutVarint32(&s, v);
  }
  Slice input(s);
  for (uint32_t expected : values) {
    uint32_t actual;
    ASSERT_TRUE(GetVarint32(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64RoundTrip) {
  std::vector<uint64_t> values = {0, 100, ~static_cast<uint64_t>(0)};
  for (uint32_t k = 0; k < 64; k++) {
    const uint64_t power = 1ull << k;
    values.push_back(power);
    values.push_back(power - 1);
    values.push_back(power + 1);
  }
  std::string s;
  for (uint64_t v : values) {
    PutVarint64(&s, v);
    EXPECT_EQ(VarintLength(v),
              static_cast<int>(s.size()) -
                  static_cast<int>(s.size() - VarintLength(v)));
  }
  Slice input(s);
  for (uint64_t expected : values) {
    uint64_t actual;
    ASSERT_TRUE(GetVarint64(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint32Truncation) {
  uint32_t large_value = (1u << 31) + 100;
  std::string s;
  PutVarint32(&s, large_value);
  uint32_t result;
  for (size_t len = 0; len < s.size() - 1; len++) {
    EXPECT_EQ(nullptr, GetVarint32Ptr(s.data(), s.data() + len, &result));
  }
  EXPECT_NE(nullptr,
            GetVarint32Ptr(s.data(), s.data() + s.size(), &result));
  EXPECT_EQ(large_value, result);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("foo"));
  PutLengthPrefixedSlice(&s, Slice("bar"));
  PutLengthPrefixedSlice(&s, Slice(std::string(200, 'x')));

  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("bar", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(200, 'x'), v.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&input, &v));
}

TEST(Crc32cTest, StandardVectors) {
  // From the CRC32C specification (RFC 3720 appendix): 32 zero bytes.
  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, crc32c::Value(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, crc32c::Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(0x46dd794eu, crc32c::Value(buf, sizeof(buf)));
}

TEST(Crc32cTest, Extend) {
  std::string a = "hello ";
  std::string b = "world";
  std::string ab = "hello world";
  EXPECT_EQ(crc32c::Value(ab.data(), ab.size()),
            crc32c::Extend(crc32c::Value(a.data(), a.size()), b.data(),
                           b.size()));
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
  EXPECT_EQ(crc,
            crc32c::Unmask(crc32c::Unmask(crc32c::Mask(crc32c::Mask(crc)))));
}

TEST(HashTest, SignedUnsignedIssue) {
  const uint8_t data1[1] = {0x62};
  const uint8_t data2[2] = {0xc3, 0x97};
  const uint8_t data3[3] = {0xe2, 0x99, 0xa5};
  const uint8_t data4[4] = {0xe1, 0x80, 0xb9, 0x32};
  // Hash values should be stable across runs and not depend on char
  // signedness.
  EXPECT_EQ(Hash(nullptr, 0, 0xbc9f1d34),
            Hash(nullptr, 0, 0xbc9f1d34));
  uint32_t h1 = Hash(reinterpret_cast<const char*>(data1), 1, 0xbc9f1d34);
  uint32_t h2 = Hash(reinterpret_cast<const char*>(data2), 2, 0xbc9f1d34);
  uint32_t h3 = Hash(reinterpret_cast<const char*>(data3), 3, 0xbc9f1d34);
  uint32_t h4 = Hash(reinterpret_cast<const char*>(data4), 4, 0xbc9f1d34);
  std::set<uint32_t> distinct = {h1, h2, h3, h4};
  EXPECT_EQ(4u, distinct.size());
}

// FIFO order holds while the ring wraps and while it grows with the head
// mid-ring; the walk visits entries front to back.
TEST(FifoTest, KeepsOrderAcrossWrapAndGrowth) {
  Fifo<int> q;
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 50; round++) {
    for (int i = 0; i < 3 + round % 7; i++) q.push_back(next_in++);
    EXPECT_EQ(next_in - 1, q.back());
    int expect = next_out;
    q.ForEach([&](int& v) { EXPECT_EQ(expect++, v); });
    EXPECT_EQ(next_in, expect);
    while (q.size() > static_cast<size_t>(round % 5)) {
      EXPECT_EQ(next_out++, q.front());
      q.pop_front();
    }
  }
  while (!q.empty()) {
    EXPECT_EQ(next_out++, q.front());
    q.pop_front();
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(ArenaTest, Empty) { Arena arena; }

TEST(ArenaTest, ManyAllocations) {
  std::vector<std::pair<size_t, char*>> allocated;
  Arena arena;
  const int kN = 10000;
  size_t bytes = 0;
  Random rnd(301);
  for (int i = 0; i < kN; i++) {
    size_t s;
    if (i % (kN / 10) == 0) {
      s = i;
    } else {
      s = rnd.OneIn(4000)
              ? rnd.Uniform(6000)
              : (rnd.OneIn(10) ? rnd.Uniform(100) : rnd.Uniform(20));
    }
    if (s == 0) s = 1;
    char* r;
    if (rnd.OneIn(10)) {
      r = arena.AllocateAligned(s);
    } else {
      r = arena.Allocate(s);
    }
    for (size_t b = 0; b < s; b++) {
      r[b] = static_cast<char>(i % 256);
    }
    bytes += s;
    allocated.push_back(std::make_pair(s, r));
    ASSERT_GE(arena.MemoryUsage(), bytes);
  }
  for (size_t i = 0; i < allocated.size(); i++) {
    size_t num_bytes = allocated[i].first;
    const char* p = allocated[i].second;
    for (size_t b = 0; b < num_bytes; b++) {
      EXPECT_EQ(static_cast<int>(p[b]) & 0xff, static_cast<int>(i % 256));
    }
  }
}

TEST(ArenaTest, AlignedAllocationsAreAligned) {
  Arena arena;
  for (int i = 1; i < 200; i++) {
    char* p = arena.AllocateAligned(i);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) %
                      alignof(std::max_align_t));
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random rnd(42);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rnd.Uniform(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(10u, seen.size());
}

TEST(RandomTest, Determinism) {
  Random a(7), b(7), c(8);
  bool all_same_ab = true, any_diff_ac = false;
  for (int i = 0; i < 100; i++) {
    uint64_t va = a.Next64(), vb = b.Next64(), vc = c.Next64();
    all_same_ab = all_same_ab && (va == vb);
    any_diff_ac = any_diff_ac || (va != vc);
  }
  EXPECT_TRUE(all_same_ab);
  EXPECT_TRUE(any_diff_ac);
}

TEST(RandomTest, ZipfianIsSkewedAndInRange) {
  const uint64_t n = 1000;
  ZipfianGenerator gen(n, 0.99, 11);
  std::map<uint64_t, int> counts;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; i++) {
    uint64_t v = gen.Next();
    ASSERT_LT(v, n);
    counts[v]++;
  }
  // Item 0 should be substantially more popular than the median item.
  EXPECT_GT(counts[0], kSamples / 100);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; i++) {
    h.Add(i);
  }
  EXPECT_EQ(100u, h.Count());
  EXPECT_NEAR(50.5, h.Average(), 0.01);
  EXPECT_EQ(1.0, h.Min());
  EXPECT_EQ(100.0, h.Max());
  EXPECT_GE(h.Percentile(99), 90.0);
  EXPECT_LE(h.Percentile(10), 20.0);
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  for (int i = 0; i < 50; i++) a.Add(10);
  for (int i = 0; i < 50; i++) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(100u, a.Count());
  EXPECT_EQ(10.0, a.Min());
  EXPECT_EQ(1000.0, a.Max());
  EXPECT_NEAR(505.0, a.Average(), 0.01);
}

TEST(LoggingTest, NumberToString) {
  EXPECT_EQ("0", NumberToString(0));
  EXPECT_EQ("123456789", NumberToString(123456789));
}

TEST(LoggingTest, EscapeString) {
  EXPECT_EQ("abc", EscapeString(Slice("abc")));
  EXPECT_EQ("\\x01", EscapeString(Slice("\x01")));
}

TEST(LoggingTest, ConsumeDecimalNumber) {
  Slice in("123abc");
  uint64_t v = 0;
  EXPECT_TRUE(ConsumeDecimalNumber(&in, &v));
  EXPECT_EQ(123u, v);
  EXPECT_EQ("abc", in.ToString());

  Slice bad("abc");
  EXPECT_FALSE(ConsumeDecimalNumber(&bad, &v));

  Slice overflow("118446744073709551616");  // > 2^64.
  EXPECT_FALSE(ConsumeDecimalNumber(&overflow, &v));
}

TEST(HistogramTest, EmptyHistogramReportsZero) {
  Histogram h;
  EXPECT_EQ(0u, h.Count());
  EXPECT_EQ(0.0, h.Percentile(0.0));
  EXPECT_EQ(0.0, h.Percentile(50.0));
  EXPECT_EQ(0.0, h.Percentile(99.9));
  EXPECT_EQ(0.0, h.Median());
  EXPECT_EQ(0.0, h.Average());
}

TEST(HistogramTest, SingleSampleIsExactAtEveryPercentile) {
  Histogram h;
  h.Add(42.0);
  EXPECT_EQ(1u, h.Count());
  // One sample: every percentile is that sample, never an interpolated
  // bucket bound (the pre-hardening behavior returned bucket edges).
  EXPECT_DOUBLE_EQ(42.0, h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(42.0, h.Percentile(50.0));
  EXPECT_DOUBLE_EQ(42.0, h.Percentile(99.9));
  EXPECT_DOUBLE_EQ(42.0, h.Average());
}

TEST(HistogramTest, PercentilesClampedAndMonotonic) {
  Histogram h;
  for (int i = 1; i <= 1000; i++) h.Add(static_cast<double>(i));
  double p50 = h.Percentile(50.0);
  double p90 = h.Percentile(90.0);
  double p99 = h.Percentile(99.0);
  double p999 = h.Percentile(99.9);
  EXPECT_LE(h.Min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, h.Max());
  // Interpolation keeps the median near the true one (bucket-bounded).
  EXPECT_NEAR(500.0, p50, 60.0);
}

TEST(HistogramTest, MergeMatchesCombinedSamples) {
  Histogram a, b, both;
  Random rnd(99);
  for (int i = 0; i < 500; i++) {
    double v = static_cast<double>(rnd.Uniform(100000)) / 7.0;
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    both.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(both.Count(), a.Count());
  EXPECT_DOUBLE_EQ(both.Min(), a.Min());
  EXPECT_DOUBLE_EQ(both.Max(), a.Max());
  // Summation order differs between the merged and combined histograms,
  // so the mean is only bit-close, not bit-equal.
  EXPECT_NEAR(both.Average(), a.Average(), 1e-6 * both.Average());
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(both.Percentile(p), a.Percentile(p)) << "p" << p;
  }
  // Merging an empty histogram changes nothing.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(both.Count(), a.Count());
  EXPECT_DOUBLE_EQ(both.Percentile(50.0), a.Percentile(50.0));
}

TEST(HistogramTest, ToJsonShape) {
  Histogram empty;
  std::string j = empty.ToJson();
  EXPECT_NE(std::string::npos, j.find("\"count\":0"));
  EXPECT_NE(std::string::npos, j.find("\"buckets\":[]"));

  Histogram h;
  for (int i = 1; i <= 100; i++) h.Add(static_cast<double>(i));
  j = h.ToJson();
  EXPECT_EQ('{', j.front());
  EXPECT_EQ('}', j.back());
  EXPECT_NE(std::string::npos, j.find("\"count\":100"));
  for (const char* field : {"\"min\":", "\"max\":", "\"avg\":",
                            "\"stddev\":", "\"p50\":", "\"p90\":",
                            "\"p99\":", "\"p999\":", "\"le\":", "\"n\":"}) {
    EXPECT_NE(std::string::npos, j.find(field)) << field;
  }
}

}  // namespace
}  // namespace dlsm

#include "src/util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dlsm {

const double Histogram::kBucketLimit[kNumBuckets] = {
    1,        2,        3,        4,        5,        6,       7,
    8,        9,        10,       12,       14,       16,      18,
    20,       25,       30,       35,       40,       45,      50,
    60,       70,       80,       90,       100,      120,     140,
    160,      180,      200,      250,      300,      350,     400,
    450,      500,      600,      700,      800,      900,     1000,
    1200,     1400,     1600,     1800,     2000,     2500,    3000,
    3500,     4000,     4500,     5000,     6000,     7000,    8000,
    9000,     10000,    12000,    14000,    16000,    18000,   20000,
    25000,    30000,    35000,    40000,    45000,    50000,   60000,
    70000,    80000,    90000,    100000,   120000,   140000,  160000,
    180000,   200000,   250000,   300000,   350000,   400000,  450000,
    500000,   600000,   700000,   800000,   900000,   1000000, 1200000,
    1400000,  1600000,  1800000,  2000000,  2500000,  3000000, 3500000,
    4000000,  4500000,  5000000,  6000000,  7000000,  8000000, 9000000,
    10000000, 12000000, 14000000, 16000000, 18000000, 20000000,
    25000000, 30000000, 35000000, 40000000, 45000000, 50000000,
    60000000, 70000000, 80000000, 90000000, 100000000, 120000000,
    140000000, 160000000, 180000000, 200000000, 250000000, 300000000,
    350000000, 400000000, 450000000, 500000000, 600000000, 700000000,
    800000000, 900000000, 1000000000, 1200000000, 1400000000, 1600000000,
    1800000000, 2000000000, 2500000000.0, 3000000000.0, 3500000000.0,
    4000000000.0, 4500000000.0, 5000000000.0, 6000000000.0, 7000000000.0,
    8000000000.0, 9000000000.0, 1e200,
};

void Histogram::Clear() {
  min_ = kBucketLimit[kNumBuckets - 1];
  max_ = 0;
  num_ = 0;
  sum_ = 0;
  sum_squares_ = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    buckets_[i] = 0;
  }
}

void Histogram::Add(double value) {
  // Linear search is fast enough given the exponential bucket spacing and
  // the typical small-latency samples; use binary search for large values.
  int b = 0;
  while (b < kNumBuckets - 1 && kBucketLimit[b] <= value) {
    b++;
  }
  buckets_[b] += 1.0;
  if (min_ > value) min_ = value;
  if (max_ < value) max_ = value;
  num_++;
  sum_ += value;
  sum_squares_ += (value * value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  num_ += other.num_;
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  for (int b = 0; b < kNumBuckets; b++) {
    buckets_[b] += other.buckets_[b];
  }
}

Histogram Histogram::DeltaSince(const Histogram& prev) const {
  Histogram d;
  int lo = -1;
  int hi = -1;
  double count = 0;
  for (int b = 0; b < kNumBuckets; b++) {
    double n = buckets_[b] - prev.buckets_[b];
    if (n > 0) {
      d.buckets_[b] = n;
      count += n;
      if (lo < 0) lo = b;
      hi = b;
    }
  }
  if (count == 0) return d;  // Empty interval: stays Clear()'d.
  // Derive the moments from the snapshot difference but the count from
  // the bucket difference, so the delta is internally consistent even if
  // the two snapshots were not taken atomically.
  d.num_ = count;
  d.sum_ = sum_ - prev.sum_ > 0 ? sum_ - prev.sum_ : 0;
  d.sum_squares_ =
      sum_squares_ - prev.sum_squares_ > 0 ? sum_squares_ - prev.sum_squares_
                                           : 0;
  // The window's extremes lie within its occupied buckets and within the
  // cumulative extremes; against an empty prev they are the cumulative ones.
  d.min_ = std::max(lo == 0 ? 0 : kBucketLimit[lo - 1], min_);
  d.max_ = std::min(kBucketLimit[hi], max_);
  return d;
}

double Histogram::Percentile(double p) const {
  // Degenerate cases: the empty histogram has min_/max_ at their sentinel
  // values (1e200 / 0), so the clamp below would return garbage; a single
  // sample has an exact answer at every percentile.
  if (num_ == 0.0) return 0.0;
  if (num_ == 1.0) return min_;
  double threshold = num_ * (p / 100.0);
  double sum = 0;
  for (int b = 0; b < kNumBuckets; b++) {
    sum += buckets_[b];
    if (sum >= threshold) {
      // Interpolate within the bucket.
      double left_point = (b == 0) ? 0 : kBucketLimit[b - 1];
      double right_point = kBucketLimit[b];
      double left_sum = sum - buckets_[b];
      double right_sum = sum;
      double pos = 0;
      double right_left_diff = right_sum - left_sum;
      if (right_left_diff != 0) {
        pos = (threshold - left_sum) / right_left_diff;
      }
      double r = left_point + (right_point - left_point) * pos;
      if (r < min_) r = min_;
      if (r > max_) r = max_;
      return r;
    }
  }
  return max_;
}

double Histogram::Average() const {
  if (num_ == 0.0) return 0;
  return sum_ / num_;
}

double Histogram::StandardDeviation() const {
  if (num_ == 0.0) return 0;
  double variance = (sum_squares_ * num_ - sum_ * sum_) / (num_ * num_);
  return std::sqrt(variance > 0 ? variance : 0);
}

std::string Histogram::ToString() const {
  char buf[200];
  std::string r;
  std::snprintf(buf, sizeof(buf), "Count: %.0f  Average: %.4f  StdDev: %.2f\n",
                num_, Average(), StandardDeviation());
  r += buf;
  std::snprintf(buf, sizeof(buf),
                "Min: %.4f  Median: %.4f  P99: %.4f  Max: %.4f\n",
                (num_ == 0.0 ? 0.0 : min_), Median(), Percentile(99), max_);
  r += buf;
  return r;
}

std::string Histogram::ToJson() const {
  char buf[200];
  std::string r = "{";
  std::snprintf(buf, sizeof(buf),
                "\"count\":%.0f,\"min\":%.4f,\"max\":%.4f,\"avg\":%.4f,"
                "\"stddev\":%.4f,",
                num_, (num_ == 0.0 ? 0.0 : min_), max_, Average(),
                StandardDeviation());
  r += buf;
  std::snprintf(buf, sizeof(buf),
                "\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f,\"p999\":%.4f,",
                Percentile(50), Percentile(90), Percentile(99),
                Percentile(99.9));
  r += buf;
  r += "\"buckets\":[";
  bool first = true;
  for (int b = 0; b < kNumBuckets; b++) {
    if (buckets_[b] == 0.0) continue;
    // The last bucket is the catch-all; report its bound as the observed
    // max so the JSON stays finite (kBucketLimit ends at 1e200).
    double le = (b == kNumBuckets - 1) ? max_ : kBucketLimit[b];
    std::snprintf(buf, sizeof(buf), "%s{\"le\":%.4f,\"n\":%.0f}",
                  first ? "" : ",", le, buckets_[b]);
    r += buf;
    first = false;
  }
  r += "]}";
  return r;
}

}  // namespace dlsm

// Histogram: fixed-bucket latency histogram used by the benchmark harness
// to report percentiles, in the style of LevelDB's db_bench histogram.

#ifndef DLSM_UTIL_HISTOGRAM_H_
#define DLSM_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dlsm {

/// Accumulates scalar samples (typically microseconds) into exponentially
/// sized buckets and reports summary statistics. Not thread-safe; merge
/// per-thread histograms with Merge().
class Histogram {
 public:
  Histogram() { Clear(); }

  /// Resets all accumulated state.
  void Clear();

  /// Records one sample.
  void Add(double value);

  /// Merges another histogram's samples into this one.
  void Merge(const Histogram& other);

  /// The samples recorded in *this but not in `prev`, where `prev` is an
  /// earlier snapshot of the same histogram (bucket-wise subtraction) —
  /// the windowed view the telemetry sampler reports p50/p99 over.
  /// min/max are bounded by both the delta's occupied bucket edges and the
  /// cumulative min/max (the exact extremes of an interval are not
  /// recoverable from two cumulative snapshots), so a delta against an
  /// empty histogram equals the undifferenced one.
  Histogram DeltaSince(const Histogram& prev) const;

  double Median() const { return Percentile(50.0); }

  /// Returns the approximate p-th percentile (p in [0, 100]). Exact for
  /// empty (0) and single-sample (the sample) histograms; otherwise
  /// linearly interpolated within the bucket and clamped to [Min, Max].
  double Percentile(double p) const;

  double Average() const;
  double StandardDeviation() const;
  double Min() const { return min_; }
  double Max() const { return max_; }
  uint64_t Count() const { return static_cast<uint64_t>(num_); }

  /// Multi-line summary with count/avg/stddev/percentiles.
  std::string ToString() const;

  /// JSON object: count/min/max/avg/stddev, p50/p90/p99/p999, and the
  /// non-empty buckets as [{"le": upper_bound, "n": count}, ...].
  std::string ToJson() const;

 private:
  static constexpr int kNumBuckets = 154;
  static const double kBucketLimit[kNumBuckets];

  double min_;
  double max_;
  double num_;
  double sum_;
  double sum_squares_;
  double buckets_[kNumBuckets];
};

}  // namespace dlsm

#endif  // DLSM_UTIL_HISTOGRAM_H_

// Per-verb telemetry for the unified completion-handle layer (DESIGN
// Sec. 4.3): operation and byte counters plus wire-latency histograms per
// verb class, and outstanding-op gauges. Collected by RdmaManager as
// completions are harvested, snapshotted into DbStats, and merged exactly
// across shards (Histogram::Merge). Header is dependency-light so db.h
// can embed a snapshot without pulling in the fabric.

#ifndef DLSM_RDMA_VERB_STATS_H_
#define DLSM_RDMA_VERB_STATS_H_

#include <cstdint>
#include <string>

#include "src/util/histogram.h"

namespace dlsm {
namespace rdma {

/// Stats bucket a verb falls into. SEND covers the two-sided channel's
/// SENDs; ATOMIC covers FETCH_ADD / CMP_SWAP.
enum class VerbClass : uint8_t { kRead = 0, kWrite = 1, kSend = 2, kAtomic = 3 };

inline constexpr int kNumVerbClasses = 4;

inline const char* VerbClassName(VerbClass c) {
  switch (c) {
    case VerbClass::kRead:
      return "READ";
    case VerbClass::kWrite:
      return "WRITE";
    case VerbClass::kSend:
      return "SEND";
    case VerbClass::kAtomic:
      return "ATOMIC";
  }
  return "?";
}

/// One verb class's aggregate telemetry.
struct VerbClassStats {
  uint64_t ops = 0;
  uint64_t bytes = 0;
  /// Completions harvested with a non-OK status (injected errors, flushed
  /// WRs, remote access faults). Included in ops.
  uint64_t errors = 0;
  /// Wire latency (post to completion), microseconds.
  Histogram latency_us;

  void MergeFrom(const VerbClassStats& o) {
    ops += o.ops;
    bytes += o.bytes;
    errors += o.errors;
    latency_us.Merge(o.latency_us);
  }

  /// What accrued since `prev`, an earlier snapshot of the same class.
  VerbClassStats DeltaSince(const VerbClassStats& prev) const {
    return {ops - prev.ops, bytes - prev.bytes, errors - prev.errors,
            latency_us.DeltaSince(prev.latency_us)};
  }
};

/// Snapshot of one manager's verb-layer telemetry. Copyable; shards merge
/// their snapshots with MergeFrom (exact, including histograms).
struct RdmaVerbStats {
  VerbClassStats read;
  VerbClassStats write;
  VerbClassStats send;
  VerbClassStats atomic;
  uint64_t posted = 0;     ///< Verbs posted through the handle layer.
  uint64_t completed = 0;  ///< Completions harvested.
  uint64_t abandoned = 0;  ///< Completions discarded by handle cancel.
  uint64_t outstanding = 0;      ///< In flight at snapshot time.
  uint64_t max_outstanding = 0;  ///< High-water mark of in-flight verbs.
  uint64_t reconnects = 0;       ///< Successful QP error-state recoveries.

  VerbClassStats& cls(VerbClass c) {
    switch (c) {
      case VerbClass::kRead:
        return read;
      case VerbClass::kWrite:
        return write;
      case VerbClass::kSend:
        return send;
      case VerbClass::kAtomic:
        return atomic;
    }
    return read;
  }
  const VerbClassStats& cls(VerbClass c) const {
    return const_cast<RdmaVerbStats*>(this)->cls(c);
  }

  void MergeFrom(const RdmaVerbStats& o);

  /// What accrued since `prev`, an earlier snapshot of the same manager:
  /// every class and counter differenced; the outstanding gauges keep this
  /// snapshot's value.
  RdmaVerbStats DeltaSince(const RdmaVerbStats& prev) const;

  /// Compact per-class summary ("READ 120 ops 4.2 MB p50 2.1us p99 8.0us")
  /// for bench dumps; empty classes are omitted.
  std::string ToString() const;

  /// JSON object: per-class {ops, bytes, errors, latency_us histogram}
  /// plus the layer-wide gauges. All classes are present, even empty ones,
  /// so consumers can index unconditionally.
  std::string ToJson() const;
};

}  // namespace rdma
}  // namespace dlsm

#endif  // DLSM_RDMA_VERB_STATS_H_

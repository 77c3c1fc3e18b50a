#include "src/rdma/verb_stats.h"

#include <cstdio>

namespace dlsm {
namespace rdma {

void RdmaVerbStats::MergeFrom(const RdmaVerbStats& o) {
  read.MergeFrom(o.read);
  write.MergeFrom(o.write);
  send.MergeFrom(o.send);
  atomic.MergeFrom(o.atomic);
  posted += o.posted;
  completed += o.completed;
  abandoned += o.abandoned;
  outstanding += o.outstanding;
  if (o.max_outstanding > max_outstanding) {
    max_outstanding = o.max_outstanding;
  }
  reconnects += o.reconnects;
}

RdmaVerbStats RdmaVerbStats::DeltaSince(const RdmaVerbStats& prev) const {
  RdmaVerbStats d = *this;
  for (int i = 0; i < kNumVerbClasses; i++) {
    auto c = static_cast<VerbClass>(i);
    d.cls(c) = cls(c).DeltaSince(prev.cls(c));
  }
  d.posted -= prev.posted;
  d.completed -= prev.completed;
  d.abandoned -= prev.abandoned;
  d.reconnects -= prev.reconnects;
  return d;
}

std::string RdmaVerbStats::ToString() const {
  std::string out;
  char line[160];
  for (int i = 0; i < kNumVerbClasses; i++) {
    auto c = static_cast<VerbClass>(i);
    const VerbClassStats& s = cls(c);
    if (s.ops == 0) continue;
    snprintf(line, sizeof(line),
             "  %-6s %10llu ops %10.2f MB  wire p50 %7.1f us  p99 %7.1f us\n",
             VerbClassName(c), static_cast<unsigned long long>(s.ops),
             static_cast<double>(s.bytes) / (1024.0 * 1024.0),
             s.latency_us.Percentile(50.0), s.latency_us.Percentile(99.0));
    out += line;
    if (s.errors > 0) {
      snprintf(line, sizeof(line), "  %-6s %10llu errors\n", VerbClassName(c),
               static_cast<unsigned long long>(s.errors));
      out += line;
    }
  }
  snprintf(line, sizeof(line),
           "  posted %llu  completed %llu  abandoned %llu  outstanding %llu "
           "(max %llu)\n",
           static_cast<unsigned long long>(posted),
           static_cast<unsigned long long>(completed),
           static_cast<unsigned long long>(abandoned),
           static_cast<unsigned long long>(outstanding),
           static_cast<unsigned long long>(max_outstanding));
  out += line;
  if (reconnects > 0) {
    snprintf(line, sizeof(line), "  qp reconnects %llu\n",
             static_cast<unsigned long long>(reconnects));
    out += line;
  }
  return out;
}

std::string RdmaVerbStats::ToJson() const {
  std::string out = "{";
  char line[160];
  for (int i = 0; i < kNumVerbClasses; i++) {
    auto c = static_cast<VerbClass>(i);
    const VerbClassStats& s = cls(c);
    snprintf(line, sizeof(line),
             "\"%s\":{\"ops\":%llu,\"bytes\":%llu,\"errors\":%llu,"
             "\"latency_us\":",
             VerbClassName(c), static_cast<unsigned long long>(s.ops),
             static_cast<unsigned long long>(s.bytes),
             static_cast<unsigned long long>(s.errors));
    out += line;
    out += s.latency_us.ToJson();
    out += "},";
  }
  snprintf(line, sizeof(line),
           "\"posted\":%llu,\"completed\":%llu,\"abandoned\":%llu,"
           "\"outstanding\":%llu,\"max_outstanding\":%llu,\"reconnects\":%llu}",
           static_cast<unsigned long long>(posted),
           static_cast<unsigned long long>(completed),
           static_cast<unsigned long long>(abandoned),
           static_cast<unsigned long long>(outstanding),
           static_cast<unsigned long long>(max_outstanding),
           static_cast<unsigned long long>(reconnects));
  out += line;
  return out;
}

}  // namespace rdma
}  // namespace dlsm

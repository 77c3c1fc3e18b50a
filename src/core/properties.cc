// DbStats serialization and the DB::GetProperty base implementation.
//
// Everything here derives from the public DB interface (GetStats,
// NumFilesAtLevel), so all engines — dLSM, the baselines, and the sharded
// wrappers — answer the "dlsm.*" property names without per-engine code.
// DLsmDB overrides "dlsm.levels" to add per-level byte counts, which only
// it can see (Version tracks the remote chunk sizes).

#include <algorithm>
#include <cstdio>

#include "src/core/db.h"

namespace dlsm {

namespace {


void AppendCounter(std::string* out, const char* name, uint64_t v,
                   bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", *first ? "" : ",", name,
                static_cast<unsigned long long>(v));
  out->append(buf);
  *first = false;
}

// One line per memory-node slot; shared by ToString and "dlsm.placement".
void AppendPerNode(std::string* out,
                   const std::vector<DbStats::NodeIoStats>& per_node) {
  char buf[160];
  for (size_t i = 0; i < per_node.size(); i++) {
    std::snprintf(buf, sizeof(buf),
                  "node%zu: read verbs %llu (%llu B)  write verbs %llu "
                  "(%llu B)\n",
                  i, static_cast<unsigned long long>(per_node[i].read_verbs),
                  static_cast<unsigned long long>(per_node[i].read_bytes),
                  static_cast<unsigned long long>(per_node[i].write_verbs),
                  static_cast<unsigned long long>(per_node[i].write_bytes));
    out->append(buf);
  }
}

}  // namespace

void DbStats::MergeFrom(const DbStats& other) {
  for (const DbCounter& c : kDbCounters) {
    uint64_t& v = this->*c.field;
    const uint64_t o = other.*c.field;
    v = c.rule == MergeRule::kMax ? std::max(v, o) : v + o;
  }
  if (per_node.size() < other.per_node.size()) {
    per_node.resize(other.per_node.size());
  }
  for (size_t i = 0; i < other.per_node.size(); i++) {
    per_node[i].read_verbs += other.per_node[i].read_verbs;
    per_node[i].read_bytes += other.per_node[i].read_bytes;
    per_node[i].write_verbs += other.per_node[i].write_verbs;
    per_node[i].write_bytes += other.per_node[i].write_bytes;
  }
  rdma.MergeFrom(other.rdma);
}

DbStats DbStats::DeltaSince(const DbStats& prev) const {
  DbStats d = *this;
  for (const DbCounter& c : kDbCounters) {
    if (c.rule == MergeRule::kSum) d.*c.field -= prev.*c.field;
  }
  for (size_t i = 0; i < d.per_node.size() && i < prev.per_node.size(); i++) {
    d.per_node[i].read_verbs -= prev.per_node[i].read_verbs;
    d.per_node[i].read_bytes -= prev.per_node[i].read_bytes;
    d.per_node[i].write_verbs -= prev.per_node[i].write_verbs;
    d.per_node[i].write_bytes -= prev.per_node[i].write_bytes;
  }
  d.rdma = rdma.DeltaSince(prev.rdma);
  return d;
}

std::string DbStats::ToString() const {
  std::string out;
  for (const DbCounter& c : kDbCounters) {
    out += c.name;
    out += ' ';
    out += std::to_string(this->*c.field);
    out += '\n';
  }
  AppendPerNode(&out, per_node);
  return out + rdma.ToString();
}

std::string StatsJson(const DbStats& stats) {
  std::string out = "{";
  bool first = true;
  for (const DbCounter& c : kDbCounters) {
    AppendCounter(&out, c.name, stats.*c.field, &first);
  }
  out.append(",\"per_node\":[");
  for (size_t i = 0; i < stats.per_node.size(); i++) {
    if (i > 0) out.append(",");
    std::string node = "{";
    bool nf = true;
    AppendCounter(&node, "read_verbs", stats.per_node[i].read_verbs, &nf);
    AppendCounter(&node, "read_bytes", stats.per_node[i].read_bytes, &nf);
    AppendCounter(&node, "write_verbs", stats.per_node[i].write_verbs, &nf);
    AppendCounter(&node, "write_bytes", stats.per_node[i].write_bytes, &nf);
    node.append("}");
    out.append(node);
  }
  out.append("]");
  out.append(",\"rdma\":");
  out.append(stats.rdma.ToJson());
  out.append("}");
  return out;
}

bool DB::GetProperty(const Slice& property, std::string* value) {
  if (property == Slice("dlsm.stats")) {
    *value = GetStats().ToString();
    return true;
  }
  if (property == Slice("dlsm.levels")) {
    std::string out;
    char buf[64];
    // Every level, even empty ones, so output rows are stable across runs.
    for (int level = 0; level < kNumLevels; level++) {
      std::snprintf(buf, sizeof(buf), "L%d: %d files\n", level,
                    NumFilesAtLevel(level));
      out.append(buf);
    }
    *value = std::move(out);
    return true;
  }
  if (property == Slice("dlsm.rdma")) {
    *value = GetStats().rdma.ToString();
    return true;
  }
  if (property == Slice("dlsm.cache")) {
    // Counter-only view; DLsmDB overrides this to add capacity/usage,
    // which only the engine owning the BlockCache can see.
    DbStats s = GetStats();
    uint64_t accesses = s.cache_hits + s.cache_misses;
    double hit_rate = accesses == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(s.cache_hits) /
                                static_cast<double>(accesses);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "block-cache: hits=%llu misses=%llu hit-rate=%.2f%%\n"
                  "inserts=%llu evictions=%llu admission-rejects=%llu\n",
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.cache_misses), hit_rate,
                  static_cast<unsigned long long>(s.cache_inserts),
                  static_cast<unsigned long long>(s.cache_evictions),
                  static_cast<unsigned long long>(s.cache_admission_rejects));
    *value = buf;
    return true;
  }
  if (property == Slice("dlsm.placement")) {
    // Counter-only view; DLsmDB overrides this to add the policy name and
    // live per-node table distribution, which only the engine can see.
    DbStats s = GetStats();
    std::string out = "tables_migrated " + std::to_string(s.tables_migrated) +
                      "\nmigration_bytes " +
                      std::to_string(s.migration_bytes) + "\n";
    AppendPerNode(&out, s.per_node);
    *value = std::move(out);
    return true;
  }
  return false;
}

}  // namespace dlsm

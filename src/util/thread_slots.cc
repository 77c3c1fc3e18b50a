#include "src/util/thread_slots.h"

#include <atomic>

namespace dlsm {

namespace {

struct OsThreadSlots {
  ThreadSlots own;
  ThreadSlots* installed = nullptr;  // nullptr: own.
};

// The per-thread slot: every ThreadLocal in the engine lives in the table
// this selects.
thread_local OsThreadSlots tls_slots;

}  // namespace

ThreadSlots* ThreadSlots::Current() {
  OsThreadSlots& s = tls_slots;
  return s.installed != nullptr ? s.installed : &s.own;
}

void ThreadSlots::Install(ThreadSlots* t) { tls_slots.installed = t; }

size_t ThreadSlots::NewIndex() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void ThreadSlots::Set(size_t i, void* p, void (*del)(void*)) {
  if (i >= values_.size()) values_.resize(i + 1);
  values_[i] = Value{p, del};
}

void ThreadSlots::Clear() {
  // A deleter may itself touch a ThreadLocal of this table; take the values
  // out first.
  std::vector<Value> values;
  values.swap(values_);
  for (Value& v : values) {
    if (v.ptr != nullptr) v.del(v.ptr);
  }
}

}  // namespace dlsm

// Per-thread state that follows the thread of execution.
//
// Engine code keeps its per-thread caches (a thread's verb queue, its RPC
// buffers, its trace log, scratch strings) in ThreadLocal<T> rather than in
// C++ thread-local storage. Each OS thread owns one ThreadSlots table, which
// is what StdEnv's threads use. SimEnv runs every simulated thread as a
// fiber on one OS thread; it gives each simulated thread a table of its own
// and installs it (ThreadSlots::Install) whenever that thread's fiber runs.
// So a ThreadLocal is per simulated thread under SimEnv and per OS thread
// otherwise.

#ifndef DLSM_UTIL_THREAD_SLOTS_H_
#define DLSM_UTIL_THREAD_SLOTS_H_

#include <cstddef>
#include <vector>

namespace dlsm {

/// One thread of execution's values, indexed by ThreadLocal slot.
class ThreadSlots {
 public:
  ThreadSlots() = default;
  ~ThreadSlots() { Clear(); }
  ThreadSlots(const ThreadSlots&) = delete;
  ThreadSlots& operator=(const ThreadSlots&) = delete;

  /// The calling thread of execution's table: the installed one, else the
  /// OS thread's own.
  static ThreadSlots* Current();

  /// Makes t the calling OS thread's current table (nullptr: its own).
  static void Install(ThreadSlots* t);

  /// A fresh slot index; one per ThreadLocal object.
  static size_t NewIndex();

  /// The value in slot i, or nullptr if none was created in this table.
  void* Find(size_t i) const {
    return i < values_.size() ? values_[i].ptr : nullptr;
  }

  /// Stores p in slot i; del(p) runs when the table is cleared.
  void Set(size_t i, void* p, void (*del)(void*));

  /// Deletes every value in the table.
  void Clear();

 private:
  struct Value {
    void* ptr = nullptr;
    void (*del)(void*) = nullptr;
  };
  std::vector<Value> values_;
};

/// A T per thread of execution, value-initialized on a thread's first Get()
/// and deleted with that thread's table. Declare at namespace or function
/// scope with static storage duration.
template <typename T>
class ThreadLocal {
 public:
  ThreadLocal() : index_(ThreadSlots::NewIndex()) {}
  ThreadLocal(const ThreadLocal&) = delete;
  ThreadLocal& operator=(const ThreadLocal&) = delete;

  T& Get() {
    ThreadSlots* slots = ThreadSlots::Current();
    void* p = slots->Find(index_);
    if (p == nullptr) {
      p = new T();
      slots->Set(index_, p, [](void* v) { delete static_cast<T*>(v); });
    }
    return *static_cast<T*>(p);
  }

 private:
  const size_t index_;
};

}  // namespace dlsm

#endif  // DLSM_UTIL_THREAD_SLOTS_H_

// Fifo: a FIFO queue over one growable ring buffer.

#ifndef DLSM_UTIL_FIFO_H_
#define DLSM_UTIL_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace dlsm {

/// push_back and pop_front in amortised O(1). The ring doubles when full
/// and never shrinks, so a queue whose depth stays bounded stops
/// allocating once it has reached that depth (std::deque allocates and
/// frees a node every few hundred bytes of traffic). Not thread-safe.
template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  T& back() { return at(size_ - 1); }

  void push_back(T v) {
    if (size_ == slots_.size()) Grow();
    at(size_) = std::move(v);
    size_++;
  }
  void pop_front() {
    slots_[head_] = T();  // Drop what the entry owns now, not on reuse.
    head_ = (head_ + 1) & (slots_.size() - 1);
    size_--;
  }

  /// Calls f on every entry, front to back.
  template <typename F>
  void ForEach(F f) {
    for (size_t i = 0; i < size_; i++) f(at(i));
  }

 private:
  T& at(size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }

  void Grow() {
    std::vector<T> next(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; i++) next[i] = std::move(at(i));
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // Power-of-two size.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace dlsm

#endif  // DLSM_UTIL_FIFO_H_

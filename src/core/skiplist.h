// Lock-free concurrent skip list (paper Sec. IV: "dLSM follows existing
// systems in using a lock-free skip list to minimize lock use").
//
// Concurrency model, as in RocksDB's InlineSkipList:
//  * Inserts may run concurrently with each other and with readers; each
//    level link is spliced with a compare-and-swap and retried on conflict.
//  * Readers never block and see a consistent list: a node's next pointers
//    are published with release stores, read with acquire loads.
//  * Removal is not supported (LSM MemTables are insert-only; deletions are
//    tombstone inserts).
//
// Keys are const char* with an externally supplied comparator; allocation
// comes from an Arena whose lifetime must cover the list.

#ifndef DLSM_CORE_SKIPLIST_H_
#define DLSM_CORE_SKIPLIST_H_

#include <atomic>
#include <cstdlib>

#include "src/util/arena.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/thread_slots.h"

namespace dlsm {

/// A thread's skiplist height generator, seeded from its own address.
struct SkipListRandom {
  Random rnd{0xdecafbad ^ reinterpret_cast<uintptr_t>(this)};
};

template <typename Key, class Compare>
class SkipList {
 private:
  struct Node;

 public:
  /// Creates a list that uses cmp for ordering and arena for node storage.
  explicit SkipList(Compare cmp, Arena* arena);

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts key. Safe to call concurrently with other inserts and with
  /// readers. Duplicate keys must not be inserted (internal keys carry a
  /// unique sequence number, so LSM usage never does).
  void Insert(const Key& key);

  /// Returns true iff a key comparing equal is in the list.
  bool Contains(const Key& key) const;

  /// Bidirectional iteration over the list.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list);

    bool Valid() const;
    const Key& key() const;
    void Next();
    void Prev();
    void Seek(const Key& target);
    void SeekToFirst();
    void SeekToLast();

   private:
    const SkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;

  Node* NewNode(const Key& key, int height);
  int RandomHeight();
  bool Equal(const Key& a, const Key& b) const {
    return (compare_(a, b) == 0);
  }
  bool KeyIsAfterNode(const Key& key, Node* n) const;
  Node* FindGreaterOrEqual(const Key& key, Node** prev) const;
  Node* FindLessThan(const Key& key) const;
  Node* FindLast() const;
  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  Compare const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
};

template <typename Key, class Compare>
struct SkipList<Key, Compare>::Node {
  explicit Node(const Key& k) : key(k) {}

  Key const key;

  Node* Next(int n) {
    DLSM_CHECK(n >= 0);
    return next_[n].load(std::memory_order_acquire);
  }
  void SetNext(int n, Node* x) {
    DLSM_CHECK(n >= 0);
    next_[n].store(x, std::memory_order_release);
  }
  bool CasNext(int n, Node* expected, Node* x) {
    DLSM_CHECK(n >= 0);
    return next_[n].compare_exchange_strong(expected, x,
                                            std::memory_order_acq_rel);
  }
  Node* NoBarrier_Next(int n) {
    return next_[n].load(std::memory_order_relaxed);
  }
  void NoBarrier_SetNext(int n, Node* x) {
    next_[n].store(x, std::memory_order_relaxed);
  }

 private:
  // Array of length equal to the node height; next_[0] is the lowest level.
  std::atomic<Node*> next_[1];
};

template <typename Key, class Compare>
typename SkipList<Key, Compare>::Node*
SkipList<Key, Compare>::NewNode(const Key& key, int height) {
  char* const node_memory = arena_->AllocateAligned(
      sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
  return new (node_memory) Node(key);
}

template <typename Key, class Compare>
inline SkipList<Key, Compare>::Iterator::Iterator(const SkipList* list) {
  list_ = list;
  node_ = nullptr;
}

template <typename Key, class Compare>
inline bool SkipList<Key, Compare>::Iterator::Valid() const {
  return node_ != nullptr;
}

template <typename Key, class Compare>
inline const Key& SkipList<Key, Compare>::Iterator::key() const {
  DLSM_CHECK(Valid());
  return node_->key;
}

template <typename Key, class Compare>
inline void SkipList<Key, Compare>::Iterator::Next() {
  DLSM_CHECK(Valid());
  node_ = node_->Next(0);
}

template <typename Key, class Compare>
inline void SkipList<Key, Compare>::Iterator::Prev() {
  // No back links; search for the last node before node_.
  DLSM_CHECK(Valid());
  node_ = list_->FindLessThan(node_->key);
  if (node_ == list_->head_) {
    node_ = nullptr;
  }
}

template <typename Key, class Compare>
inline void SkipList<Key, Compare>::Iterator::Seek(const Key& target) {
  node_ = list_->FindGreaterOrEqual(target, nullptr);
}

template <typename Key, class Compare>
inline void SkipList<Key, Compare>::Iterator::SeekToFirst() {
  node_ = list_->head_->Next(0);
}

template <typename Key, class Compare>
inline void SkipList<Key, Compare>::Iterator::SeekToLast() {
  node_ = list_->FindLast();
  if (node_ == list_->head_) {
    node_ = nullptr;
  }
}

template <typename Key, class Compare>
int SkipList<Key, Compare>::RandomHeight() {
  // Per-thread generator: height choice needs no cross-thread agreement.
  static ThreadLocal<SkipListRandom> thread_rnd;
  Random& rnd = thread_rnd.Get().rnd;
  static const unsigned int kBranching = 4;
  int height = 1;
  while (height < kMaxHeight && rnd.OneIn(kBranching)) {
    height++;
  }
  DLSM_CHECK(height > 0);
  DLSM_CHECK(height <= kMaxHeight);
  return height;
}

template <typename Key, class Compare>
bool SkipList<Key, Compare>::KeyIsAfterNode(const Key& key,
                                               Node* n) const {
  return (n != nullptr) && (compare_(n->key, key) < 0);
}

template <typename Key, class Compare>
typename SkipList<Key, Compare>::Node*
SkipList<Key, Compare>::FindGreaterOrEqual(const Key& key,
                                              Node** prev) const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  for (;;) {
    Node* next = x->Next(level);
    if (KeyIsAfterNode(key, next)) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) {
        return next;
      }
      level--;
    }
  }
}

template <typename Key, class Compare>
typename SkipList<Key, Compare>::Node*
SkipList<Key, Compare>::FindLessThan(const Key& key) const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  for (;;) {
    Node* next = x->Next(level);
    if (next == nullptr || compare_(next->key, key) >= 0) {
      if (level == 0) {
        return x;
      }
      level--;
    } else {
      x = next;
    }
  }
}

template <typename Key, class Compare>
typename SkipList<Key, Compare>::Node*
SkipList<Key, Compare>::FindLast() const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  for (;;) {
    Node* next = x->Next(level);
    if (next == nullptr) {
      if (level == 0) {
        return x;
      }
      level--;
    } else {
      x = next;
    }
  }
}

template <typename Key, class Compare>
SkipList<Key, Compare>::SkipList(Compare cmp, Arena* arena)
    : compare_(cmp),
      arena_(arena),
      head_(NewNode(Key() /* any key will do */, kMaxHeight)),
      max_height_(1) {
  for (int i = 0; i < kMaxHeight; i++) {
    head_->SetNext(i, nullptr);
  }
}

template <typename Key, class Compare>
void SkipList<Key, Compare>::Insert(const Key& key) {
  Node* prev[kMaxHeight];
  int height = RandomHeight();

  // Raise the list height with a CAS race; losing is harmless (another
  // thread raised it, possibly further).
  int max_height = GetMaxHeight();
  while (height > max_height) {
    if (max_height_.compare_exchange_weak(max_height, height,
                                          std::memory_order_relaxed)) {
      break;
    }
  }

  Node* x = NewNode(key, height);
  for (int level = 0; level < height; level++) {
    for (;;) {
      Node* next = FindGreaterOrEqual(key, prev);
      // Splice at this level: link x between prev[level] and its successor.
      Node* succ = level == 0 ? next : prev[level]->Next(level);
      DLSM_CHECK_MSG(level != 0 || succ == nullptr ||
                         !Equal(key, succ->key),
                     "duplicate insert into skiplist");
      x->NoBarrier_SetNext(level, succ);
      if (prev[level]->CasNext(level, succ, x)) {
        break;
      }
      // Lost the race at this level; recompute predecessors and retry.
    }
  }
}

template <typename Key, class Compare>
bool SkipList<Key, Compare>::Contains(const Key& key) const {
  Node* x = FindGreaterOrEqual(key, nullptr);
  return x != nullptr && Equal(key, x->key);
}

}  // namespace dlsm

#endif  // DLSM_CORE_SKIPLIST_H_

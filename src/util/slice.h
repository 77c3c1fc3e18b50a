// Slice: a pointer + length view over external bytes, in the style used by
// LevelDB/RocksDB. The Slice does not own the data; the caller must ensure
// the underlying storage outlives the Slice.

#ifndef DLSM_UTIL_SLICE_H_
#define DLSM_UTIL_SLICE_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <string>

namespace dlsm {

/// A non-owning view of a byte range.
class Slice {
 public:
  /// Creates an empty slice.
  Slice() : data_(""), size_(0) {}

  /// Creates a slice referring to data[0, n-1].
  Slice(const char* data, size_t n) : data_(data), size_(n) {}

  /// Creates a slice referring to the contents of s.
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT

  /// Creates a slice referring to the NUL-terminated string s.
  Slice(const char* s) : data_(s), size_(strlen(s)) {}  // NOLINT

  /// Returns a pointer to the beginning of the referenced data.
  const char* data() const { return data_; }

  /// Returns the length of the referenced data, in bytes.
  size_t size() const { return size_; }

  /// Returns true iff the slice has length zero.
  bool empty() const { return size_ == 0; }

  /// Returns the i-th byte of the referenced data. Requires i < size().
  char operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  /// Resets the slice to be empty.
  void clear() {
    data_ = "";
    size_ = 0;
  }

  /// Drops the first n bytes from this slice. Requires n <= size().
  void remove_prefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  /// Returns a std::string containing a copy of the referenced data.
  std::string ToString() const { return std::string(data_, size_); }

  /// Three-way comparison: <0, ==0, or >0 if this is <, ==, or > b.
  int compare(const Slice& b) const {
    const size_t min_len = (size_ < b.size_) ? size_ : b.size_;
    int r = memcmp(data_, b.data_, min_len);
    if (r == 0) {
      if (size_ < b.size_) {
        r = -1;
      } else if (size_ > b.size_) {
        r = +1;
      }
    }
    return r;
  }

  /// Returns true iff x is a prefix of this slice.
  bool starts_with(const Slice& x) const {
    return (size_ >= x.size_) && (memcmp(data_, x.data_, x.size_) == 0);
  }

 private:
  const char* data_;
  size_t size_;
};

inline bool operator==(const Slice& x, const Slice& y) {
  return (x.size() == y.size()) &&
         (memcmp(x.data(), y.data(), x.size()) == 0);
}

inline bool operator!=(const Slice& x, const Slice& y) { return !(x == y); }

inline bool operator<(const Slice& x, const Slice& y) {
  return x.compare(y) < 0;
}

}  // namespace dlsm

#endif  // DLSM_UTIL_SLICE_H_

#include "src/core/key_words.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace dlsm {

namespace {

/// The 8 bytes at p as a big-endian integer.
uint64_t LoadBigEndian(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// The big-endian word of key's bytes [offset, offset + 8), zero-padded.
uint64_t WordAt(const Slice& key, size_t offset) {
  const size_t n = key.size() - offset;
  if (n >= 8) return LoadBigEndian(key.data() + offset);
  if (n == 0) return 0;
  if (key.size() >= 8) {
    // The key's last 8 bytes end with the n wanted ones: shift them up.
    return LoadBigEndian(key.data() + key.size() - 8) << (8 * (8 - n));
  }
  uint64_t w = 0;
  for (size_t i = 0; i < n; i++) {
    w |= static_cast<uint64_t>(static_cast<uint8_t>(key[offset + i]))
         << (56 - 8 * i);
  }
  return w;
}

}  // namespace

void KeyWords::Add(const Slice& key) {
  if (words_.empty()) {
    prefix_.assign(key.data(), key.size());
    prefix_len_ = key.size();
    segments_.assign(1, {0, prefix_len_});
    words_.push_back(0);  // Nothing of the first key lies past itself.
    return;
  }
  // Sorted keys share less and less of the first key, so the running
  // prefix only shrinks; the common case is a key that keeps all of it.
  if (key.size() < prefix_len_ ||
      std::memcmp(key.data(), prefix_.data(), prefix_len_) != 0) {
    const size_t limit = std::min(prefix_len_, key.size());
    size_t n = 0;
    while (n < limit && key[n] == prefix_[n]) n++;
    prefix_len_ = n;
    segments_.emplace_back(words_.size(), n);
  }
  words_.push_back(WordAt(key, prefix_len_));
}

void KeyWords::Finish() {
  const size_t p = prefix_len_;
  // A key whose word was read at offset p + d shares its first p + d bytes
  // with the first key, so its word at p is the first key's d bytes
  // followed by the top 8 - d bytes of the word it has.
  const uint64_t base = WordAt(Slice(prefix_), p);
  for (size_t s = 0; s < segments_.size(); s++) {
    const size_t d = segments_[s].second - p;
    if (d == 0) continue;
    const size_t end =
        s + 1 < segments_.size() ? segments_[s + 1].first : words_.size();
    for (size_t i = segments_[s].first; i < end; i++) {
      words_[i] = d >= 8 ? base
                         : (base & (~uint64_t{0} << (64 - 8 * d))) |
                               (words_[i] >> (8 * d));
    }
  }
  prefix_.resize(p);
  segments_ = {};
}

std::pair<size_t, size_t> KeyWords::EqualRange(const Slice& key) const {
  const size_t n = words_.size();
  if (n == 0) return {0, 0};
  const size_t p = prefix_.size();
  const int c =
      std::memcmp(key.data(), prefix_.data(), std::min(key.size(), p));
  if (c < 0 || (c == 0 && key.size() < p)) return {0, 0};
  if (c > 0) return {n, n};
  const uint64_t w = WordAt(key, p);
  const uint64_t* words = words_.data();
  // Lower bound without a data-dependent branch (the compiler emits a
  // conditional move). A lookup usually finds the table's words cold, and
  // a branch-free step cannot load ahead speculatively, so each step
  // prefetches the four words two steps on may probe: the misses of
  // successive steps overlap instead of queueing one behind another.
  const uint64_t* base = words;
  for (size_t len = n; len > 1;) {
    const size_t half = len / 2;
    const size_t quarter = half / 2;
    __builtin_prefetch(base + quarter / 2);
    __builtin_prefetch(base + quarter + quarter / 2);
    __builtin_prefetch(base + half + quarter / 2);
    __builtin_prefetch(base + half + quarter + quarter / 2);
    base = base[half] < w ? base + half : base;
    len -= half;
  }
  const size_t lo = static_cast<size_t>(base - words) + (*base < w);
  // The run of equal words is one key or the versions of one user key, so
  // gallop past it rather than binary-search the rest of the array.
  size_t known = lo, probe = lo;
  for (size_t step = 1; probe < n && words[probe] == w; step *= 2) {
    known = probe + 1;
    probe += step;
  }
  const uint64_t* hi = std::upper_bound(words + known,
                                        words + std::min(probe, n), w);
  return {lo, static_cast<size_t>(hi - words)};
}

}  // namespace dlsm

#include "util/bitset.hpp"

#include <algorithm>

namespace mui::util {

std::size_t DynBitset::count() const {
  std::size_t n = static_cast<std::size_t>(__builtin_popcountll(first_));
  for (std::uint64_t w : more_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

std::size_t DynBitset::lowest() const {
  const std::size_t n = wordCount();
  for (std::size_t w = 0; w < n; ++w) {
    if (word(w) != 0) {
      return w * 64 + static_cast<std::size_t>(__builtin_ctzll(word(w)));
    }
  }
  return static_cast<std::size_t>(-1);
}

bool DynBitset::isSubsetOf(const DynBitset& other) const {
  if ((first_ & ~other.first_) != 0) return false;
  for (std::size_t w = 0; w < more_.size(); ++w) {
    if ((more_[w] & ~other.word(w + 1)) != 0) return false;
  }
  return true;
}

bool DynBitset::intersects(const DynBitset& other) const {
  if ((first_ & other.first_) != 0) return true;
  const std::size_t n = std::min(more_.size(), other.more_.size());
  for (std::size_t w = 0; w < n; ++w) {
    if ((more_[w] & other.more_[w]) != 0) return true;
  }
  return false;
}

DynBitset& DynBitset::operator|=(const DynBitset& o) {
  first_ |= o.first_;
  if (o.more_.size() > more_.size()) more_.resize(o.more_.size(), 0);
  for (std::size_t w = 0; w < o.more_.size(); ++w) more_[w] |= o.more_[w];
  return *this;
}

DynBitset& DynBitset::operator&=(const DynBitset& o) {
  first_ &= o.first_;
  if (more_.size() > o.more_.size()) more_.resize(o.more_.size());
  for (std::size_t w = 0; w < more_.size(); ++w) more_[w] &= o.more_[w];
  shrink();
  return *this;
}

DynBitset& DynBitset::operator-=(const DynBitset& o) {
  first_ &= ~o.first_;
  const std::size_t n = std::min(more_.size(), o.more_.size());
  for (std::size_t w = 0; w < n; ++w) more_[w] &= ~o.more_[w];
  shrink();
  return *this;
}

bool DynBitset::operator<(const DynBitset& o) const {
  const std::size_t n = wordCount();
  if (n != o.wordCount()) return n < o.wordCount();
  for (std::size_t w = n; w-- > 0;) {
    if (word(w) != o.word(w)) return word(w) < o.word(w);
  }
  return false;
}

std::vector<std::size_t> DynBitset::bits() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  forEach([&](std::size_t b) { out.push_back(b); });
  return out;
}

std::size_t DynBitset::hash() const {
  std::size_t h = 0xcbf29ce484222325ull;
  const std::size_t n = wordCount();
  for (std::size_t w = 0; w < n; ++w) {
    h ^= static_cast<std::size_t>(word(w));
    h *= 0x100000001b3ull;
  }
  return h;
}

std::size_t DenseBitset::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) {
    n += static_cast<std::size_t>(__builtin_popcountll(w));
  }
  return n;
}

bool DenseBitset::any() const {
  for (std::uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

void DenseBitset::flip() {
  for (std::uint64_t& w : words_) w = ~w;
  clearTail();
}

void DenseBitset::placeAt(std::size_t at, const DenseBitset& src) {
  const std::size_t first = at / 64;
  const std::size_t shift = at % 64;
  if (first >= words_.size()) return;
  words_[first] &= (std::uint64_t{1} << shift) - 1;
  std::fill(words_.begin() + static_cast<std::ptrdiff_t>(first) + 1,
            words_.end(), 0);
  for (std::size_t w = 0; w < src.words_.size(); ++w) {
    const std::size_t dst = first + w;
    if (dst >= words_.size()) break;
    words_[dst] |= src.words_[w] << shift;
    if (shift != 0 && dst + 1 < words_.size()) {
      words_[dst + 1] |= src.words_[w] >> (64 - shift);
    }
  }
  clearTail();
}

DenseBitset& DenseBitset::operator&=(const DenseBitset& o) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= o.words_[w];
  return *this;
}

DenseBitset& DenseBitset::operator|=(const DenseBitset& o) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
  return *this;
}

std::string DynBitset::toString() const {
  std::string s = "{";
  bool first = true;
  forEach([&](std::size_t b) {
    if (!first) s += ',';
    s += std::to_string(b);
    first = false;
  });
  s += '}';
  return s;
}

}  // namespace mui::util

#pragma once
// Dynamic bitset used throughout MUI for signal sets (the A and B components
// of a transition label, see paper Def. 1) and proposition label sets.
//
// The set is conceptually unbounded: bits beyond the allocated words are 0.
// All binary operations therefore work on sets of different allocated widths.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mui::util {

class DynBitset {
 public:
  DynBitset() = default;

  /// Singleton set {bit}.
  static DynBitset single(std::size_t bit) {
    DynBitset b;
    b.set(bit);
    return b;
  }

  /// Set containing every bit in `bits`.
  static DynBitset of(std::initializer_list<std::size_t> bits) {
    DynBitset b;
    for (std::size_t i : bits) b.set(i);
    return b;
  }

  void set(std::size_t bit) {
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if (bit < 64) {
      first_ |= mask;
      return;
    }
    if (bit / 64 > more_.size()) more_.resize(bit / 64, 0);
    more_[bit / 64 - 1] |= mask;
  }

  void reset(std::size_t bit) {
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if (bit < 64) {
      first_ &= ~mask;
    } else if (bit / 64 <= more_.size()) {
      more_[bit / 64 - 1] &= ~mask;
      shrink();
    }
  }

  [[nodiscard]] bool test(std::size_t bit) const {
    return (word(bit / 64) >> (bit % 64)) & std::uint64_t{1};
  }

  [[nodiscard]] bool empty() const { return first_ == 0 && more_.empty(); }
  [[nodiscard]] std::size_t count() const;

  /// Index of the lowest set bit; undefined on empty sets.
  [[nodiscard]] std::size_t lowest() const;

  [[nodiscard]] bool isSubsetOf(const DynBitset& other) const;
  [[nodiscard]] bool intersects(const DynBitset& other) const;

  [[nodiscard]] DynBitset operator|(const DynBitset& o) const {
    DynBitset r = *this;
    r |= o;
    return r;
  }
  [[nodiscard]] DynBitset operator&(const DynBitset& o) const {
    DynBitset r = *this;
    r &= o;
    return r;
  }
  /// Set difference (this \ o).
  [[nodiscard]] DynBitset operator-(const DynBitset& o) const {
    DynBitset r = *this;
    r -= o;
    return r;
  }

  DynBitset& operator|=(const DynBitset& o);
  DynBitset& operator&=(const DynBitset& o);
  DynBitset& operator-=(const DynBitset& o);

  bool operator==(const DynBitset& o) const {
    return first_ == o.first_ && more_ == o.more_;
  }
  /// Lexicographic on the canonical word representation; usable as map key.
  bool operator<(const DynBitset& o) const;

  /// Calls `f(bit)` for every set bit in ascending order.
  template <typename F>
  void forEach(F&& f) const {
    const std::size_t n = wordCount();
    for (std::size_t w = 0; w < n; ++w) {
      std::uint64_t bits = word(w);
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        f(w * 64 + static_cast<std::size_t>(tz));
        bits &= bits - 1;
      }
    }
  }

  /// All set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> bits() const;

  /// Raw 64-bit words, for fixed-stride packing (automata/flat_product.hpp):
  /// the canonical word count (0 for ∅), word w (0 past the end), and the
  /// set spelled by `n` raw words.
  [[nodiscard]] std::size_t wordCount() const {
    return more_.empty() ? (first_ != 0 ? 1 : 0) : more_.size() + 1;
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    if (w == 0) return first_;
    return w <= more_.size() ? more_[w - 1] : 0;
  }
  static DynBitset fromWords(const std::uint64_t* words, std::size_t n) {
    DynBitset b;
    if (n == 0) return b;
    b.first_ = words[0];
    b.more_.assign(words + 1, words + n);
    b.shrink();
    return b;
  }

  [[nodiscard]] std::size_t hash() const;

  /// Debug rendering such as "{0,3,17}".
  [[nodiscard]] std::string toString() const;

 private:
  // Keep the representation canonical (no trailing zero words) so that
  // operator== / hash are structural set equality.
  void shrink() {
    while (!more_.empty() && more_.back() == 0) more_.pop_back();
  }

  // Word 0 is stored inline: signal sets (and the labels of small models)
  // fit in it, so copying and destroying them allocates nothing. Words 1..
  // spill to the heap.
  std::uint64_t first_ = 0;
  std::vector<std::uint64_t> more_;
};

struct DynBitsetHash {
  std::size_t operator()(const DynBitset& b) const { return b.hash(); }
};

/// Fixed-width dense bitset over the index range [0, size). Unlike DynBitset
/// (a conceptually unbounded *set*), this is a per-state boolean vector: the
/// model checker stores satisfaction sets as one bit per automaton state
/// (8× denser than std::vector<char>, and word-parallel for the boolean
/// connectives). Bits past `size` are kept zero so operator== and count()
/// are value semantics.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(std::size_t size, bool value = false)
      : size_(size), words_((size + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    clearTail();
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[bit / 64] >> (bit % 64)) & std::uint64_t{1};
  }
  [[nodiscard]] bool operator[](std::size_t bit) const { return test(bit); }

  void set(std::size_t bit) {
    words_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  void reset(std::size_t bit) {
    words_[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
  }
  void assign(std::size_t bit, bool value) {
    value ? set(bit) : reset(bit);
  }

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool any() const;
  [[nodiscard]] bool none() const { return !any(); }

  /// In-place complement within [0, size).
  void flip();

  /// Bits [at, size) become src's bits [0, size − at), false past
  /// src.size().
  void placeAt(std::size_t at, const DenseBitset& src);

  DenseBitset& operator&=(const DenseBitset& o);
  DenseBitset& operator|=(const DenseBitset& o);

  bool operator==(const DenseBitset& o) const = default;

 private:
  void clearTail() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << (size_ % 64)) - 1;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace mui::util

template <>
struct std::hash<mui::util::DynBitset> {
  std::size_t operator()(const mui::util::DynBitset& b) const noexcept {
    return b.hash();
  }
};

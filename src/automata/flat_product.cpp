#include "automata/flat_product.hpp"

#include <algorithm>
#include <stdexcept>

namespace mui::automata {

std::size_t strideFor(const std::vector<const Automaton*>& interfaces) {
  std::size_t stride = 1;
  for (const Automaton* a : interfaces) {
    stride = std::max({stride, a->inputs().wordCount(),
                       a->outputs().wordCount()});
  }
  return stride;
}

void packWords(const SignalSet& s, std::size_t stride, Word* dst) {
  for (std::size_t w = 0; w < stride; ++w) dst[w] = s.word(w);
}

FlatComponent::FlatComponent(const Automaton& base, std::size_t stride)
    : base_(base), stride_(stride) {
  if (strideFor({&base}) > stride) {
    throw std::invalid_argument("FlatComponent: interface of '" +
                                base.name() + "' exceeds the word stride");
  }
}

// ---- AutomatonComponent ----------------------------------------------------

AutomatonComponent::AutomatonComponent(const Automaton& a, std::size_t stride)
    : FlatComponent(a, stride) {
  head_.reserve(a.stateCount() + 1);
  head_.push_back(0);
  for (StateId s = 0; s < a.stateCount(); ++s) {
    for (const auto& t : a.transitionsFrom(s)) {
      to_.push_back(t.to);
      words_.resize(words_.size() + 2 * stride);
      Word* dst = words_.data() + words_.size() - 2 * stride;
      packWords(t.label.in, stride, dst);
      packWords(t.label.out, stride, dst + stride);
    }
    head_.push_back(static_cast<std::uint32_t>(to_.size()));
  }
}

std::size_t AutomatonComponent::stateCount() const {
  return base().stateCount();
}

std::string AutomatonComponent::stateName(StateId s) const {
  return base().stateName(s);
}

const PropSet& AutomatonComponent::labels(StateId s) const {
  return base().labels(s);
}

std::vector<StateId> AutomatonComponent::initialStates() const {
  return base().initialStates();
}

void AutomatonComponent::edges(StateId s, std::vector<EdgeRef>& out) const {
  out.clear();
  for (std::uint32_t e = head_[s]; e < head_[s + 1]; ++e) {
    out.push_back({words_.data() + std::size_t{e} * 2 * stride(), to_[e]});
  }
}

// ---- FlatProduct -----------------------------------------------------------

FlatProduct FlatProduct::of(const Automaton& a) {
  FlatProduct p;
  p.owned_ = std::make_unique<AutomatonComponent>(a, strideFor({&a}));
  p.setComponents({p.owned_.get()});
  p.copySingle(a.stateCount());
  return p;
}

void FlatProduct::setComponents(std::vector<const FlatComponent*> comps) {
  comps_ = std::move(comps);
  stride_ = comps_.front()->stride();
  const std::size_t w2 = 2 * stride_;
  ifaces_.resize(comps_.size() * w2);
  for (std::size_t k = 0; k < comps_.size(); ++k) {
    packWords(comps_[k]->base().inputs(), stride_, &ifaces_[k * w2]);
    packWords(comps_[k]->base().outputs(), stride_,
              &ifaces_[k * w2 + stride_]);
  }
}

void FlatProduct::copySingle(std::size_t maxStates) {
  const FlatComponent& c = *comps_.front();
  const std::size_t n = std::min(c.stateCount(), maxStates);
  capped_ = c.stateCount() > n;
  std::vector<EdgeRef> edges;
  for (StateId s = 0; s < n; ++s) {
    origins_.push_back(s);
    c.edges(s, edges);
    for (const EdgeRef& e : edges) {
      if (e.to >= n) continue;
      to_.push_back(e.to);
      labels_.insert(labels_.end(), e.label, e.label + 2 * stride_);
      branch_.push_back(0);
    }
    head_.push_back(static_cast<std::uint32_t>(to_.size()));
  }
  for (const StateId q : c.initialStates()) {
    if (q < n) initial_.push_back(q);
  }
}

Interaction FlatProduct::edgeLabel(std::uint32_t e) const {
  const Word* w = edgeWords(e);
  return {SignalSet::fromWords(w, stride_),
          SignalSet::fromWords(w + stride_, stride_)};
}

util::DenseBitset FlatProduct::atomSat(util::NameId prop) const {
  const std::size_t n = stateCount();
  const std::size_t k = comps_.size();
  util::DenseBitset sat(n);
  std::vector<char> carries;
  for (std::size_t c = 0; c < k; ++c) {
    const FlatComponent& comp = *comps_[c];
    carries.assign(comp.stateCount(), 0);
    bool any = false;
    for (StateId s = 0; s < comp.stateCount(); ++s) {
      if (comp.labels(s).test(prop)) carries[s] = any = true;
    }
    if (!any) continue;
    for (StateId p = 0; p < n; ++p) {
      if (carries[origins_[p * k + c]]) sat.set(p);
    }
  }
  return sat;
}

std::string FlatProduct::stateName(StateId p) const {
  std::string out;
  for (std::size_t k = 0; k < comps_.size(); ++k) {
    if (k) out += '|';
    out += comps_[k]->stateName(origin(p, k));
  }
  return out;
}

bool FlatProduct::matches(std::size_t i, const Word* li, std::size_t k,
                          const Word* lk) const {
  const std::size_t w2 = 2 * stride_;
  const Word* ii = ifaces_.data() + i * w2;
  const Word* oi = ii + stride_;
  const Word* ik = ifaces_.data() + k * w2;
  const Word* ok = ik + stride_;
  for (std::size_t w = 0; w < stride_; ++w) {
    // (A_i ∩ O_k) = (B_k ∩ I_i) and (A_k ∩ O_i) = (B_i ∩ I_k).
    if ((li[w] & ok[w]) != (lk[stride_ + w] & ii[w])) return false;
    if ((lk[w] & oi[w]) != (li[stride_ + w] & ik[w])) return false;
  }
  return true;
}

Interaction FlatProduct::projectInteraction(const Interaction& x,
                                            std::size_t k) const {
  const Automaton& b = comps_[k]->base();
  return {x.in & b.inputs(), x.out & b.outputs()};
}

std::string FlatProduct::renderRun(const Run& run) const {
  return renderRun(run, [&](std::size_t i, std::size_t k, std::string& out) {
    out += comps_[k]->stateName(origin(run.states[i], k));
  });
}

std::string FlatProduct::renderRun(const Run& run,
                                   const StateAppender& appendState) const {
  std::vector<std::string> names;
  std::vector<SignalSet> ins, outs;
  for (const FlatComponent* c : comps_) {
    names.push_back(c->base().name());
    ins.push_back(c->base().inputs());
    outs.push_back(c->base().outputs());
  }
  return renderProductRun(run, *signalTable(), names, ins, outs,
                          appendState);
}

// ---- composeFlat -----------------------------------------------------------

namespace {

/// Open-addressing index from component-state rows to product states. The
/// rows live in the product's origins array, so the table stores ids only.
class RowIndex {
 public:
  explicit RowIndex(std::size_t width) : width_(width), slots_(64, kEmpty) {}

  /// The product state of `row`, or kEmpty. A new row's slot is reserved
  /// for `next` if `admit` is set (the caller then appends the row to
  /// `origins`).
  StateId findOrInsert(const StateId* row, const std::vector<StateId>& origins,
                       StateId next, bool admit) {
    if (2 * (std::size_t{next} + 1) > slots_.size()) grow(origins, next);
    std::size_t i = hash(row) & (slots_.size() - 1);
    while (slots_[i] != kEmpty) {
      if (std::equal(row, row + width_, origins.data() + slots_[i] * width_)) {
        return slots_[i];
      }
      i = (i + 1) & (slots_.size() - 1);
    }
    if (admit) slots_[i] = next;
    return kEmpty;
  }

  static constexpr StateId kEmpty = UINT32_MAX;

 private:
  [[nodiscard]] std::size_t hash(const StateId* row) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t k = 0; k < width_; ++k) {
      h = (h ^ row[k]) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
  }

  void grow(const std::vector<StateId>& origins, StateId count) {
    slots_.assign(slots_.size() * 2, kEmpty);
    for (StateId p = 0; p < count; ++p) {
      std::size_t i = hash(origins.data() + p * width_) & (slots_.size() - 1);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = p;
    }
  }

  std::size_t width_;
  std::vector<StateId> slots_;
};

}  // namespace

FlatProduct composeFlat(std::vector<const FlatComponent*> components,
                        std::size_t maxStates) {
  if (components.empty()) {
    throw std::invalid_argument("composeFlat: no components");
  }
  const Automaton& first = components.front()->base();
  SignalSet accIn = first.inputs();
  SignalSet accOut = first.outputs();
  for (std::size_t k = 1; k < components.size(); ++k) {
    const Automaton& b = components[k]->base();
    if (b.signalTable() != first.signalTable() ||
        b.propTable() != first.propTable()) {
      throw std::invalid_argument("compose: automata must share tables");
    }
    if (accIn.intersects(b.inputs()) || accOut.intersects(b.outputs())) {
      throw std::invalid_argument(
          "compose: not composable (I or O sets overlap)");
    }
    if (components[k]->stride() != components.front()->stride()) {
      throw std::invalid_argument("composeFlat: components differ in stride");
    }
    accIn |= b.inputs();
    accOut |= b.outputs();
  }

  FlatProduct p;
  p.setComponents(std::move(components));
  if (p.comps_.size() == 1) {
    // composeAll wraps a single component as is, unreachable states too.
    p.copySingle(maxStates);
    countProduct(p.stateCount());
    return p;
  }
  const std::size_t width = p.comps_.size();
  const std::size_t w2 = 2 * p.stride_;

  RowIndex index(width);
  std::vector<StateId> row(width);  // the row being built or expanded
  // The product state of `row`; kEmpty when it is new and over the bound.
  const auto ensure = [&]() {
    const auto next = static_cast<StateId>(p.origins_.size() / width);
    const bool admit = next < maxStates;
    const StateId found =
        index.findOrInsert(row.data(), p.origins_, next, admit);
    if (found != RowIndex::kEmpty) return found;
    if (!admit) {
      p.capped_ = true;
      return RowIndex::kEmpty;
    }
    p.origins_.insert(p.origins_.end(), row.begin(), row.end());
    return next;
  };

  // Q'' = Q_0 × ... × Q_{K-1}, lexicographically (the fold's order).
  std::vector<std::vector<StateId>> initials;
  for (const FlatComponent* c : p.comps_) {
    initials.push_back(c->initialStates());
  }
  const auto seed = [&](auto&& self, std::size_t k) -> void {
    if (k == width) {
      if (const StateId q = ensure(); q != RowIndex::kEmpty) {
        p.initial_.push_back(q);
      }
      return;
    }
    for (const StateId q : initials[k]) {
      row[k] = q;
      self(self, k + 1);
    }
  };
  seed(seed, 0);

  // Breadth-first: states are expanded in id order, so each state's edges
  // are appended contiguously and head_ grows in step. The joint label of
  // the edges chosen for components < k accumulates in acc[k], and
  // `branch` is the lowest component whose choice moved since the last
  // edge was appended.
  std::vector<std::vector<EdgeRef>> edges(width);
  std::size_t branch = 0;
  std::vector<const Word*> chosen(width);
  std::vector<Word> acc((width + 1) * w2, 0);
  std::vector<StateId> from(width);
  const auto extend = [&](auto&& self, std::size_t k) -> void {
    if (k == width) {
      const StateId to = ensure();
      if (to == RowIndex::kEmpty) return;
      p.to_.push_back(to);
      p.labels_.insert(p.labels_.end(), acc.begin() + width * w2,
                       acc.end());
      p.branch_.push_back(
          static_cast<std::uint8_t>(std::min<std::size_t>(branch, 255)));
      branch = width;
      return;
    }
    const Word* prev = acc.data() + k * w2;
    Word* next = acc.data() + (k + 1) * w2;
    for (const EdgeRef& e : edges[k]) {
      bool ok = true;
      for (std::size_t j = 0; j < k && ok; ++j) {
        ok = p.matches(j, chosen[j], k, e.label);
      }
      if (!ok) continue;
      branch = std::min(branch, k);
      chosen[k] = e.label;
      row[k] = e.to;
      for (std::size_t w = 0; w < w2; ++w) next[w] = prev[w] | e.label[w];
      self(self, k + 1);
    }
  };
  for (StateId s = 0; std::size_t{s} * width < p.origins_.size(); ++s) {
    std::copy_n(p.origins_.begin() + s * width, width, from.begin());
    for (std::size_t k = 0; k < width; ++k) {
      p.comps_[k]->edges(from[k], edges[k]);
    }
    branch = 0;
    extend(extend, 0);
    p.head_.push_back(static_cast<std::uint32_t>(p.to_.size()));
  }
  countProduct(p.stateCount());
  return p;
}

}  // namespace mui::automata

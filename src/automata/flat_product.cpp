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

util::DenseBitset FlatProduct::atomSat(util::NameId prop,
                                      bool region) const {
  const std::size_t n = regionBegin();
  const std::size_t k = comps_.size();
  util::DenseBitset sat(stateCount());
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
  if (region && region_ != nullptr) {
    const util::DenseBitset linked = region_->atomSat(prop);
    for (std::size_t r = 0; r < regionStates_; ++r) {
      if (linked[r]) sat.set(n + r);
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

namespace {

/// A target that composeFlat links to its region: the region state's id
/// with this bit set, until the product's own states are all numbered.
constexpr StateId kRegionLink = 0x80000000u;

/// Throws std::invalid_argument where composeAll does (no components,
/// unshared tables, overlapping I or O) and on components of different
/// strides.
void checkComposable(const std::vector<const FlatComponent*>& components) {
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
}

/// Appends `row` to `origins` as product state `next` unless `index`
/// already holds it; returns its state, or kEmpty when it is new and
/// `admit` is false.
StateId intern(RowIndex& index, std::vector<StateId>& origins,
               const StateId* row, std::size_t width, bool admit) {
  const auto next = static_cast<StateId>(origins.size() / width);
  const StateId found = index.findOrInsert(row, origins, next, admit);
  if (found != RowIndex::kEmpty || !admit) return found;
  origins.insert(origins.end(), row, row + width);
  return next;
}

/// Q'' = Q_0 × ... × Q_{K-1}, lexicographically (the fold's order): calls
/// ensure(row) on every initial row and keeps the states it names.
template <typename Ensure>
void seedInitial(const std::vector<const FlatComponent*>& comps,
                 std::vector<StateId>& initial, Ensure&& ensure) {
  const std::size_t width = comps.size();
  std::vector<std::vector<StateId>> initials;
  for (const FlatComponent* c : comps) initials.push_back(c->initialStates());
  std::vector<StateId> row(width);
  const auto seed = [&](auto&& self, std::size_t k) -> void {
    if (k == width) {
      if (const StateId q = ensure(row.data()); q != RowIndex::kEmpty) {
        initial.push_back(q);
      }
      return;
    }
    for (const StateId q : initials[k]) {
      row[k] = q;
      self(self, k + 1);
    }
  };
  seed(seed, 0);
}

}  // namespace

/// composeFlat's breadth-first step. States are expanded in id order, so
/// each state's edges are appended contiguously and head_ grows in step.
/// The joint label of the edges chosen for components < k accumulates in
/// acc_[k], and branch_ is the lowest component whose choice moved since
/// the last edge was appended.
class FlatProduct::Expander {
 public:
  explicit Expander(FlatProduct& p)
      : p_(p),
        width_(p.comps_.size()),
        w2_(2 * p.stride_),
        edges_(width_),
        chosen_(width_),
        acc_((width_ + 1) * w2_, 0),
        row_(width_) {}

  /// Appends the edges of state s, the first state not yet expanded.
  /// ensure(row) names the target of each edge: a state, or kEmpty to drop
  /// the edge.
  template <typename Ensure>
  void expand(StateId s, Ensure&& ensure) {
    // Copy the row first: ensure may grow the origins array.
    std::copy_n(p_.origins_.begin() + s * width_, width_, row_.begin());
    for (std::size_t k = 0; k < width_; ++k) {
      p_.comps_[k]->edges(row_[k], edges_[k]);
    }
    branch_ = 0;
    extend(0, ensure);
    p_.head_.push_back(static_cast<std::uint32_t>(p_.to_.size()));
  }

 private:
  template <typename Ensure>
  void extend(std::size_t k, Ensure& ensure) {
    if (k == width_) {
      const StateId to = ensure(row_.data());
      if (to == RowIndex::kEmpty) return;
      p_.to_.push_back(to);
      p_.labels_.insert(p_.labels_.end(), acc_.begin() + width_ * w2_,
                        acc_.end());
      p_.branch_.push_back(
          static_cast<std::uint8_t>(std::min<std::size_t>(branch_, 255)));
      branch_ = width_;
      return;
    }
    const Word* prev = acc_.data() + k * w2_;
    Word* next = acc_.data() + (k + 1) * w2_;
    for (const EdgeRef& e : edges_[k]) {
      bool ok = true;
      for (std::size_t j = 0; j < k && ok; ++j) {
        ok = p_.matches(j, chosen_[j], k, e.label);
      }
      if (!ok) continue;
      branch_ = std::min(branch_, k);
      chosen_[k] = e.label;
      row_[k] = e.to;
      for (std::size_t w = 0; w < w2_; ++w) next[w] = prev[w] | e.label[w];
      extend(k + 1, ensure);
    }
  }

  FlatProduct& p_;
  std::size_t width_;
  std::size_t w2_;
  std::vector<std::vector<EdgeRef>> edges_;
  std::vector<const Word*> chosen_;
  std::vector<Word> acc_;
  std::vector<StateId> row_;  // the row being expanded, then the target's
  std::size_t branch_ = 0;
};

FlatProduct composeFlat(std::vector<const FlatComponent*> components,
                        std::size_t maxStates) {
  checkComposable(components);
  FlatProduct p;
  p.setComponents(std::move(components));
  if (p.comps_.size() == 1) {
    // composeAll wraps a single component as is, unreachable states too.
    p.copySingle(maxStates);
    countProduct(p.stateCount());
    return p;
  }
  const std::size_t width = p.comps_.size();
  RowIndex index(width);
  // The product state of `row`; kEmpty when it is new and over the bound.
  const auto ensure = [&](const StateId* row) {
    const bool admit = p.origins_.size() / width < maxStates;
    const StateId q = intern(index, p.origins_, row, width, admit);
    if (q == RowIndex::kEmpty) p.capped_ = true;
    return q;
  };
  seedInitial(p.comps_, p.initial_, ensure);
  FlatProduct::Expander expander(p);
  for (StateId s = 0; std::size_t{s} * width < p.origins_.size(); ++s) {
    expander.expand(s, ensure);
  }
  countProduct(p.stateCount());
  return p;
}

// ---- ChaosRegion -----------------------------------------------------------

ChaosRegion::ChaosRegion(const FlatComponent& context,
                         const std::vector<const Automaton*>& interfaces,
                         const std::vector<std::vector<Interaction>>& alphabets,
                         const std::string& chaosProp) {
  if (interfaces.empty() || interfaces.size() != alphabets.size()) {
    throw std::invalid_argument(
        "ChaosRegion: expects a legacy and one alphabet per legacy");
  }
  const Automaton& ctx = context.base();
  chaotic_.reserve(interfaces.size());  // the components point into it
  std::vector<const FlatComponent*> comps{&context};
  for (std::size_t k = 0; k < interfaces.size(); ++k) {
    const Automaton& legacy = *interfaces[k];
    if (legacy.signalTable() != ctx.signalTable() ||
        legacy.propTable() != ctx.propTable()) {
      throw std::invalid_argument("compose: automata must share tables");
    }
    chaotic_.push_back(chaoticAutomaton(ctx.signalTable(), ctx.propTable(),
                                        legacy.inputs(), legacy.outputs(),
                                        alphabets[k], legacy.name(),
                                        chaosProp));
    legacies_.push_back(
        std::make_unique<AutomatonComponent>(chaotic_.back(), context.stride()));
    comps.push_back(legacies_.back().get());
  }
  checkComposable(comps);
  product_.setComponents(std::move(comps));
  index_ = std::make_unique<RowIndex>(product_.componentCount());
}

ChaosRegion::~ChaosRegion() = default;

StateId ChaosRegion::link(const StateId* row) {
  const std::size_t width = product_.componentCount();
  const auto first = static_cast<StateId>(stateCount());
  const auto ensure = [&](const StateId* r) {
    return intern(*index_, product_.origins_, r, width, true);
  };
  const StateId q = ensure(row);
  if (q < first) return q;
  // A new row: compose it with every row it reaches, breadth first.
  FlatProduct::Expander expander(product_);
  for (StateId s = first; std::size_t{s} * width < product_.origins_.size();
       ++s) {
    expander.expand(s, ensure);
  }
  return q;
}

FlatProduct composeFlat(std::vector<const FlatComponent*> components,
                        ChaosRegion& region) {
  checkComposable(components);
  const FlatProduct& linked = region.product_;
  const std::size_t width = components.size();
  if (width != linked.componentCount() ||
      components.front() != &linked.component(0)) {
    throw std::invalid_argument(
        "composeFlat: the components are not the region's context and "
        "legacies");
  }
  // Per closure, the state ids from which on it sits in chaos.
  std::vector<StateId> chaosFrom(width, 0);
  for (std::size_t k = 1; k < width; ++k) {
    const FlatComponent& c = *components[k];
    const Automaton& chaos = linked.component(k).base();
    if (c.chaosBegin() >= c.stateCount() ||
        c.base().inputs() != chaos.inputs() ||
        c.base().outputs() != chaos.outputs()) {
      throw std::invalid_argument(
          "composeFlat: component " + std::to_string(k) +
          " is not a closure of the region's legacy");
    }
    chaosFrom[k] = c.chaosBegin();
  }

  FlatProduct p;
  p.setComponents(std::move(components));
  const std::size_t regionBefore = region.stateCount();
  RowIndex index(width);
  std::vector<StateId> chaosRow(width);
  // The product state of `row`, or the region state it links to.
  const auto ensure = [&](const StateId* row) {
    bool chaos = true;
    for (std::size_t k = 1; k < width && chaos; ++k) {
      chaos = row[k] >= chaosFrom[k];
    }
    if (!chaos) return intern(index, p.origins_, row, width, true);
    chaosRow[0] = row[0];
    for (std::size_t k = 1; k < width; ++k) {
      chaosRow[k] = row[k] - chaosFrom[k];
    }
    return kRegionLink | region.link(chaosRow.data());
  };
  seedInitial(p.comps_, p.initial_, ensure);
  FlatProduct::Expander expander(p);
  for (StateId s = 0; std::size_t{s} * width < p.origins_.size(); ++s) {
    expander.expand(s, ensure);
  }

  // Number the region's states after the product's own, and walk the
  // region from the states the product links to count what it reaches.
  const StateId begin = p.regionBegin();
  p.region_ = &linked;
  p.regionStates_ = linked.stateCount();
  p.regionEdges_ = static_cast<std::uint32_t>(linked.edgeCount());
  p.regionBase_ = chaosFrom;
  p.regionReached_ = util::DenseBitset(p.regionStates_);
  std::vector<StateId> queue;
  const auto reach = [&](StateId r) {
    if (p.regionReached_[r]) return;
    p.regionReached_.set(r);
    queue.push_back(r);
  };
  for (std::vector<StateId>* ids : {&p.initial_, &p.to_}) {
    for (StateId& q : *ids) {
      if ((q & kRegionLink) == 0) continue;
      q &= ~kRegionLink;
      reach(q);
      q += begin;
    }
  }
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (std::uint32_t e = linked.edgeBegin(queue[i]);
         e < linked.edgeEnd(queue[i]); ++e) {
      reach(linked.edgeTarget(e));
    }
  }
  countProduct(begin + (region.stateCount() - regionBefore));
  return p;
}

}  // namespace mui::automata

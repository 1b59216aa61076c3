#include "ctl/checker.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace mui::ctl {

namespace {

/// Worklist pops across all distance passes. Hot loops count into a local
/// and flush once per pass, so the hot path stays atomic-free.
obs::Counter& popsCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_ctl_worklist_pops_total",
      "States popped from CTL fixpoint worklists");
  return c;
}

/// Distance label of a state the pass did not reach.
constexpr std::uint32_t kFar = std::numeric_limits<std::uint32_t>::max();

}  // namespace

SatSet deadlockStates(const automata::FlatProduct& g) {
  SatSet dead(g.stateCount());
  for (StateId s = 0; s < g.stateCount(); ++s) {
    if (g.edgeBegin(s) == g.edgeEnd(s)) dead.set(s);
  }
  return dead;
}

bool AFPositions::holds(StateId s, std::size_t j) const {
  if (bound_.bounded() && bound_.hi < bound_.lo) return false;  // empty
  if (j < bound_.lo) return below_[j][s];
  if (dist_[s] == kFar) return false;
  return !bound_.bounded() || (j <= bound_.hi && dist_[s] <= bound_.hi - j);
}

RegionMemo::RegionMemo(const automata::FlatProduct& region, FormulaPtr phi)
    : region_(&region), states_(region.stateCount()), phi_(std::move(phi)) {
  Checker checker(region);
  checker.record_ = this;
  checker.evaluate(phi_);
  deadlock_ = checker.deadlock_;
}

const RegionMemo::Labels& RegionMemo::at(const Formula* f) const {
  const auto it = nodes_.find(f);
  if (it == nodes_.end()) {
    throw std::logic_error("RegionMemo: '" + f->toString() +
                           "' is not a subformula of '" + phi_->toString() +
                           "'");
  }
  return it->second;
}

Checker::Checker(const automata::FlatProduct& g)
    : g_(g), own_(static_cast<StateId>(g.stateCount())) {
  index();
}

Checker::Checker(const Automaton& m)
    : owned_(std::make_unique<automata::FlatProduct>(
          automata::FlatProduct::of(m))),
      g_(*owned_),
      own_(static_cast<StateId>(g_.stateCount())) {
  index();
}

Checker::Checker(const automata::FlatProduct& g, const RegionMemo& memo)
    : g_(g), memo_(&memo), own_(g.regionBegin()) {
  if (g.region() == nullptr || g.region() != memo.region_) {
    throw std::invalid_argument(
        "Checker: the product does not link the memo's region");
  }
  index();
}

void Checker::index() {
  static obs::Counter& checkers = obs::Registry::global().counter(
      "mui_ctl_checkers_total", "CTL checkers constructed");
  static obs::Histogram& bits = obs::Registry::global().histogram(
      "mui_ctl_satset_bits", "Bit width of sat-set bitsets (= model states)",
      "states");
  checkers.inc();
  bits.observe(g_.stateCount());
  const std::size_t n = g_.stateCount();
  deadlock_ = SatSet(n);
  for (StateId s = 0; s < own_; ++s) {
    if (g_.edgeBegin(s) == g_.edgeEnd(s)) deadlock_.set(s);
  }
  if (memo_ != nullptr) deadlock_.placeAt(own_, memo_->deadlock_);
  succHead_.assign(std::size_t{own_} + 1, 0);
  succList_.reserve(own_ < n ? g_.edgeBegin(own_) : g_.edgeCount());
  std::vector<StateId> targets;
  for (StateId s = 0; s < own_; ++s) {
    targets.clear();
    for (std::uint32_t e = g_.edgeBegin(s); e < g_.edgeEnd(s); ++e) {
      targets.push_back(g_.edgeTarget(e));
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    succList_.insert(succList_.end(), targets.begin(), targets.end());
    succHead_[s + 1] = static_cast<std::uint32_t>(succList_.size());
  }
  // Invert the duplicate-free edge set: counting sort into CSR. Region
  // states get predecessors too, so that their labels reach the passes.
  predHead_.assign(n + 1, 0);
  for (const StateId t : succList_) ++predHead_[t + 1];
  for (std::size_t s = 0; s < n; ++s) predHead_[s + 1] += predHead_[s];
  predList_.resize(succList_.size());
  std::vector<std::uint32_t> cursor(predHead_.begin(), predHead_.end() - 1);
  for (StateId s = 0; s < own_; ++s) {
    forSucc(s, [&](StateId t) { predList_[cursor[t]++] = s; });
  }
  for (StateId t = own_; t < n; ++t) {
    if (predHead_[t] != predHead_[t + 1]) boundary_.push_back(t);
  }
}

SatSet Checker::atomSat(const std::string& name) {
  // Weakened formulas repeat the chaos atom once per literal.
  for (const auto& [atom, sat] : atoms_) {
    if (atom == name) return sat;
  }
  const auto id = g_.propTable()->lookup(name);
  if (!id && unknownAtomSet_.insert(name).second) {
    unknownAtoms_.push_back(name);
  }
  atoms_.emplace_back(name, id ? g_.atomSat(*id, memo_ == nullptr)
                               : SatSet(g_.stateCount()));
  return atoms_.back().second;
}

bool Checker::succIn(bool universal, StateId s, const SatSet& p) const {
  for (std::uint32_t i = succHead_[s]; i < succHead_[s + 1]; ++i) {
    if (p[succList_[i]] != universal) return !universal;
  }
  return universal;
}

SatSet Checker::next(bool universal, const SatSet& p) const {
  SatSet v(g_.stateCount());
  for (StateId s = 0; s < own_; ++s) {
    if (succIn(universal, s, p)) v.set(s);
  }
  return v;
}

SatSet Checker::stepBack(bool universal, const SatSet& later,
                         const SatSet* guard) const {
  SatSet v(g_.stateCount());
  for (StateId s = 0; s < own_; ++s) {
    if (deadlock_[s] || (guard != nullptr && !(*guard)[s])) continue;
    if (succIn(universal, s, later)) v.set(s);
  }
  return v;
}

// The positional semantics of a window [a, b]: sat_i(s) says whether the
// operator holds at s seen as position i of the window, and the operator's
// satisfaction set is sat_0. For F, sat_b = φ and, for i < b,
//   sat_i(s) = (i ≥ a ∧ φ(s)) ∨ (¬δ(s) ∧ all/some successors in sat_{i+1}),
// U adds "∧ φ(s)" to the continuation and reads ψ as its target, and G is
// the dual. For a ≤ i ≤ b, sat_i = {D ≤ b − i} by induction on b − i: a
// target state has D = 0, and an eligible non-target state satisfies
// sat_i iff all (A) / some (E) successors have D ≤ b − i − 1, i.e. iff
// 1 + max / min D ≤ b − i. So the pass stops at label b − a and the
// positions below a step back one pass each. For b = ∞, sat_a is the
// unbounded fixpoint, the same pass without a limit (D < ∞).
//
// FIFO order hands out labels in nondecreasing order: a state is pushed
// with 1 + the label being popped, and for a universal operator that pop
// is its last successor's, i.e. its maximum. Pending-successor counters
// make each edge count once; deadlock states are never decremented, so
// they join only as targets.
SatSet Checker::distances(bool universal, const SatSet& target,
                          const SatSet* guard, std::size_t limit,
                          std::vector<std::uint32_t>* dist,
                          const std::vector<std::uint32_t>* seed) {
  const std::size_t n = g_.stateCount();
  SatSet sat = target;
  std::vector<StateId> queue;
  queue.reserve(own_ + boundary_.size());
  for (StateId s = 0; s < own_; ++s) {
    if (target[s]) queue.push_back(s);
  }
  std::vector<std::uint32_t> pending;
  if (universal) {
    pending.resize(own_);
    for (StateId s = 0; s < own_; ++s) {
      pending[s] = static_cast<std::uint32_t>(outDegree(s));
    }
  }
  if (dist != nullptr) {
    dist->assign(n, kFar);
    for (const StateId s : queue) (*dist)[s] = 0;
  }
  // A linked region state joins the pass at its memoized label, as if the
  // pass had popped it there; only those with a predecessor matter.
  std::vector<std::pair<std::uint32_t, StateId>> joins;
  if (seed != nullptr) {
    const std::size_t covered = std::min(n - own_, seed->size());
    for (std::size_t r = 0; dist != nullptr && r < covered; ++r) {
      (*dist)[own_ + r] = (*seed)[r];
    }
    for (const StateId t : boundary_) {
      const std::size_t r = t - own_;
      if (r < covered && (*seed)[r] != kFar && (*seed)[r] < limit) {
        joins.emplace_back((*seed)[r], t);
      }
    }
    std::sort(joins.begin(), joins.end());
  }
  std::size_t joined = 0;
  std::size_t level = 0;  // label of the states being popped
  std::size_t head = 0;
  for (;;) {
    while (joined < joins.size() && joins[joined].first == level) {
      queue.push_back(joins[joined++].second);
    }
    const std::size_t levelEnd = queue.size();
    if (head == levelEnd) {
      if (joined == joins.size()) break;
      level = joins[joined].first;  // no state is labelled in between
      continue;
    }
    if (level >= limit) break;  // their predecessors would pass the limit
    for (; head < levelEnd; ++head) {
      forPred(queue[head], [&](StateId s) {
        if (sat[s] || (guard != nullptr && !(*guard)[s])) return;
        if (universal && --pending[s] != 0) return;
        sat.set(s);
        if (dist != nullptr) {
          (*dist)[s] = static_cast<std::uint32_t>(level + 1);
        }
        queue.push_back(s);
      });
    }
    ++level;
  }
  popsCounter().add(head);
  return sat;
}

SatSet Checker::windowStart(bool universal, Bound b, const SatSet& phi,
                            const SatSet* psi,
                            std::vector<std::uint32_t>* dist,
                            const Labels* seed) {
  SatSet v = distances(universal, psi != nullptr ? *psi : phi,
                       psi != nullptr ? &phi : nullptr,
                       b.bounded() ? b.hi - b.lo : Bound::kInf, dist,
                       seed != nullptr ? &seed->dist : nullptr);
  if (seed != nullptr) v.placeAt(own_, seed->positions[b.lo]);
  return v;
}

SatSet Checker::temporal(Op op, Bound b, const SatSet& phi, const SatSet* psi,
                         const Labels* seed, Labels* rec) {
  if (op == Op::AG || op == Op::EG) {
    // AG[a,b] φ = ¬EF[a,b] ¬φ and EG[a,b] φ = ¬AF[a,b] ¬φ, position by
    // position (formula.hpp: the weak semantics keeps the dualities).
    SatSet notPhi = phi;
    notPhi.flip();
    SatSet v = temporal(op == Op::AG ? Op::EF : Op::AF, b, notPhi, nullptr,
                        seed, rec);
    v.flip();
    return v;
  }
  // An empty window offers F/U no position to be fulfilled at.
  if (b.bounded() && b.hi < b.lo) return SatSet(g_.stateCount());
  const bool universal = op == Op::AF || op == Op::AU;
  SatSet cur = windowStart(universal, b, phi, psi,
                           rec != nullptr ? &rec->dist : nullptr, seed);
  if (rec != nullptr) rec->positions.assign(b.lo + 1, cur);
  const SatSet* guard = psi != nullptr ? &phi : nullptr;
  for (std::size_t i = b.lo; i-- > 0;) {
    cur = stepBack(universal, cur, guard);
    if (seed != nullptr) cur.placeAt(own_, seed->positions[i]);
    if (rec != nullptr) rec->positions[i] = cur;
  }
  return cur;
}

AFPositions Checker::afPositions(const FormulaPtr& af) {
  AFPositions out;
  const Bound b = af->bound;
  out.bound_ = b;
  const SatSet p = evaluate(af->lhs);
  if (b.bounded() && b.hi < b.lo) return out;
  const Labels* seed = memo_ != nullptr ? &memo_->at(af.get()) : nullptr;
  SatSet cur = windowStart(true, b, p, nullptr, &out.dist_, seed);
  out.below_.resize(b.lo);
  for (std::size_t j = b.lo; j-- > 0;) {
    cur = stepBack(true, cur, nullptr);
    if (seed != nullptr) cur.placeAt(own_, seed->positions[j]);
    out.below_[j] = cur;
  }
  return out;
}

SatSet Checker::evaluate(const FormulaPtr& f) {
  const Labels* seed = memo_ != nullptr ? &memo_->at(f.get()) : nullptr;
  Labels* rec = record_ != nullptr ? &record_->nodes_[f.get()] : nullptr;
  SatSet v = evaluateOwn(f, seed, rec);
  if (rec != nullptr) rec->sat = v;
  return v;
}

SatSet Checker::evaluateOwn(const FormulaPtr& f, const Labels* seed,
                            Labels* rec) {
  const std::size_t n = g_.stateCount();
  // Atoms and next-step operators label the product's own states only;
  // the region's come from the memo. The temporal operators place the
  // memo's labels at every window position, and the connectives combine
  // region labels that are the memo's already.
  const auto own = [&](SatSet v) {
    if (seed != nullptr) v.placeAt(own_, seed->sat);
    return v;
  };
  switch (f->op) {
    case Op::True:
      return SatSet(n, true);
    case Op::False:
      return SatSet(n);
    case Op::Atom:
      return own(atomSat(f->atom));
    case Op::Deadlock:
      return deadlock_;
    case Op::Not: {
      auto v = evaluate(f->lhs);
      v.flip();
      return v;
    }
    case Op::And: {
      auto a = evaluate(f->lhs);
      a &= evaluate(f->rhs);
      return a;
    }
    case Op::Or: {
      auto a = evaluate(f->lhs);
      a |= evaluate(f->rhs);
      return a;
    }
    case Op::Implies: {
      auto a = evaluate(f->lhs);
      a.flip();
      a |= evaluate(f->rhs);
      return a;
    }
    case Op::AX:
      return own(next(true, evaluate(f->lhs)));  // vacuous on deadlocks
    case Op::EX:
      return own(next(false, evaluate(f->lhs)));
    case Op::AF:
    case Op::EF:
    case Op::AG:
    case Op::EG:
      return temporal(f->op, f->bound, evaluate(f->lhs), nullptr, seed, rec);
    case Op::AU:
    case Op::EU: {
      const auto p = evaluate(f->lhs);
      const auto q = evaluate(f->rhs);
      return temporal(f->op, f->bound, p, &q, seed, rec);
    }
  }
  throw std::logic_error("Checker::evaluate: unknown operator");
}

bool Checker::holds(const FormulaPtr& f) {
  const auto sat = evaluate(f);
  for (StateId q : g_.initialStates()) {
    if (!sat[q]) return false;
  }
  return true;
}

}  // namespace mui::ctl

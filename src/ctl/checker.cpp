#include "ctl/checker.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

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

Checker::Checker(const automata::FlatProduct& g) : g_(g) { index(); }

Checker::Checker(const Automaton& m)
    : owned_(std::make_unique<automata::FlatProduct>(
          automata::FlatProduct::of(m))),
      g_(*owned_) {
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
  deadlock_ = deadlockStates(g_);
  succHead_.assign(n + 1, 0);
  succList_.reserve(g_.edgeCount());
  std::vector<StateId> targets;
  for (StateId s = 0; s < n; ++s) {
    targets.clear();
    for (std::uint32_t e = g_.edgeBegin(s); e < g_.edgeEnd(s); ++e) {
      targets.push_back(g_.edgeTarget(e));
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    succList_.insert(succList_.end(), targets.begin(), targets.end());
    succHead_[s + 1] = static_cast<std::uint32_t>(succList_.size());
  }
  // Invert the duplicate-free edge set: counting sort into CSR.
  predHead_.assign(n + 1, 0);
  for (const StateId t : succList_) ++predHead_[t + 1];
  for (std::size_t s = 0; s < n; ++s) predHead_[s + 1] += predHead_[s];
  predList_.resize(succList_.size());
  std::vector<std::uint32_t> cursor(predHead_.begin(), predHead_.end() - 1);
  for (StateId s = 0; s < n; ++s) {
    forSucc(s, [&](StateId t) { predList_[cursor[t]++] = s; });
  }
}

SatSet Checker::atomSat(const std::string& name) {
  const auto id = g_.propTable()->lookup(name);
  if (!id) {
    if (unknownAtomSet_.insert(name).second) unknownAtoms_.push_back(name);
    return SatSet(g_.stateCount());
  }
  return g_.atomSat(*id);
}

bool Checker::succIn(bool universal, StateId s, const SatSet& p) const {
  for (std::uint32_t i = succHead_[s]; i < succHead_[s + 1]; ++i) {
    if (p[succList_[i]] != universal) return !universal;
  }
  return universal;
}

SatSet Checker::next(bool universal, const SatSet& p) const {
  SatSet v(g_.stateCount());
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    if (succIn(universal, s, p)) v.set(s);
  }
  return v;
}

SatSet Checker::stepBack(bool universal, const SatSet& later,
                         const SatSet* guard) const {
  SatSet v(g_.stateCount());
  for (StateId s = 0; s < g_.stateCount(); ++s) {
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
                          std::vector<std::uint32_t>* dist) {
  const std::size_t n = g_.stateCount();
  SatSet sat = target;
  std::vector<StateId> queue;
  for (StateId s = 0; s < n; ++s) {
    if (target[s]) queue.push_back(s);
  }
  std::vector<std::uint32_t> pending;
  if (universal) {
    pending.resize(n);
    for (StateId s = 0; s < n; ++s) {
      pending[s] = static_cast<std::uint32_t>(outDegree(s));
    }
  }
  if (dist != nullptr) {
    dist->assign(n, kFar);
    for (const StateId s : queue) (*dist)[s] = 0;
  }
  std::size_t level = 0;  // label of the states being popped
  std::size_t levelEnd = queue.size();
  std::size_t head = 0;
  for (; head < queue.size(); ++head) {
    if (head == levelEnd) {
      ++level;
      levelEnd = queue.size();
    }
    if (level >= limit) break;  // their predecessors would pass the limit
    forPred(queue[head], [&](StateId s) {
      if (sat[s] || (guard != nullptr && !(*guard)[s])) return;
      if (universal && --pending[s] != 0) return;
      sat.set(s);
      if (dist != nullptr) (*dist)[s] = static_cast<std::uint32_t>(level + 1);
      queue.push_back(s);
    });
  }
  popsCounter().add(head);
  return sat;
}

SatSet Checker::windowStart(bool universal, Bound b, const SatSet& phi,
                            const SatSet* psi,
                            std::vector<std::uint32_t>* dist) {
  return distances(universal, psi != nullptr ? *psi : phi,
                   psi != nullptr ? &phi : nullptr,
                   b.bounded() ? b.hi - b.lo : Bound::kInf, dist);
}

SatSet Checker::temporal(Op op, Bound b, const SatSet& phi,
                         const SatSet* psi) {
  if (op == Op::AG || op == Op::EG) {
    // AG[a,b] φ = ¬EF[a,b] ¬φ and EG[a,b] φ = ¬AF[a,b] ¬φ, position by
    // position (formula.hpp: the weak semantics keeps the dualities).
    SatSet notPhi = phi;
    notPhi.flip();
    SatSet v = temporal(op == Op::AG ? Op::EF : Op::AF, b, notPhi, nullptr);
    v.flip();
    return v;
  }
  // An empty window offers F/U no position to be fulfilled at.
  if (b.bounded() && b.hi < b.lo) return SatSet(g_.stateCount());
  const bool universal = op == Op::AF || op == Op::AU;
  SatSet cur = windowStart(universal, b, phi, psi, nullptr);
  const SatSet* guard = psi != nullptr ? &phi : nullptr;
  for (std::size_t i = b.lo; i-- > 0;) cur = stepBack(universal, cur, guard);
  return cur;
}

AFPositions Checker::afPositions(const FormulaPtr& phi, Bound b) {
  AFPositions out;
  out.bound_ = b;
  const SatSet p = evaluate(phi);
  if (b.bounded() && b.hi < b.lo) return out;
  SatSet cur = windowStart(true, b, p, nullptr, &out.dist_);
  out.below_.resize(b.lo);
  for (std::size_t j = b.lo; j-- > 0;) {
    cur = stepBack(true, cur, nullptr);
    out.below_[j] = cur;
  }
  return out;
}

SatSet Checker::evaluate(const FormulaPtr& f) {
  const std::size_t n = g_.stateCount();
  switch (f->op) {
    case Op::True:
      return SatSet(n, true);
    case Op::False:
      return SatSet(n);
    case Op::Atom:
      return atomSat(f->atom);
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
      return next(true, evaluate(f->lhs));  // vacuous on deadlock states
    case Op::EX:
      return next(false, evaluate(f->lhs));
    case Op::AF:
    case Op::EF:
    case Op::AG:
    case Op::EG:
      return temporal(f->op, f->bound, evaluate(f->lhs), nullptr);
    case Op::AU:
    case Op::EU: {
      const auto p = evaluate(f->lhs);
      const auto q = evaluate(f->rhs);
      return temporal(f->op, f->bound, p, &q);
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

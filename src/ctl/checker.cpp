#include "ctl/checker.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mui::ctl {

namespace {

/// Worklist pops across all fixpoint computations. Hot loops count into a
/// local and flush once per fixpoint, so the hot path stays atomic-free.
obs::Counter& popsCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_ctl_worklist_pops_total",
      "States popped from CTL fixpoint worklists");
  return c;
}

}  // namespace

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
  deadlock_ = SatSet(n);
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
    if (targets.empty()) deadlock_.set(s);
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

namespace {
/// Seeds the worklist with every state currently in `sat`.
std::vector<StateId> statesOf(const SatSet& sat) {
  std::vector<StateId> work;
  work.reserve(sat.count());
  for (StateId s = 0; s < sat.size(); ++s) {
    if (sat[s]) work.push_back(s);
  }
  return work;
}
}  // namespace

// AF φ (least fixpoint): φ, or all successors already satisfy AF φ and at
// least one successor exists (a path ending without φ violates AF). Each
// state keeps a pending-successor counter; it joins the set when the last
// successor does.
SatSet Checker::fixAF(const SatSet& phi) {
  SatSet sat = phi;
  std::vector<std::uint32_t> pending(g_.stateCount());
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    pending[s] = static_cast<std::uint32_t>(outDegree(s));
  }
  std::vector<StateId> work = statesOf(sat);
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (sat[s]) return;
      if (--pending[s] == 0) {  // deadlock states have no incoming decrement
        sat.set(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

// EF φ: plain backward reachability of the φ states.
SatSet Checker::fixEF(const SatSet& phi) {
  SatSet sat = phi;
  std::vector<StateId> work = statesOf(sat);
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (!sat[s]) {
        sat.set(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

// AG φ (greatest fixpoint): φ here and at every successor transitively —
// equivalently ¬EF ¬φ, so one backward closure of the ¬φ states suffices;
// deadlock states satisfy the continuation vacuously.
SatSet Checker::fixAG(const SatSet& phi) {
  SatSet bad = phi;
  bad.flip();
  bad = fixEF(bad);
  bad.flip();
  return bad;
}

// EG φ (greatest fixpoint, weak): φ along some maximal path — the path may
// end in a deadlock. States are deleted when their last satisfying successor
// is deleted (live-successor counter).
SatSet Checker::fixEG(const SatSet& phi) {
  SatSet sat = phi;
  std::vector<std::uint32_t> live(g_.stateCount(), 0);
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    forSucc(s, [&](StateId t) {
      if (sat[t]) ++live[s];
    });
  }
  std::vector<StateId> work;
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    if (sat[s] && !deadlock_[s] && live[s] == 0) {
      sat.reset(s);
      work.push_back(s);
    }
  }
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (!sat[s] || deadlock_[s]) return;
      if (--live[s] == 0) {
        sat.reset(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

SatSet Checker::fixAU(const SatSet& phi, const SatSet& psi) {
  SatSet sat = psi;
  std::vector<std::uint32_t> pending(g_.stateCount());
  for (StateId s = 0; s < g_.stateCount(); ++s) {
    pending[s] = static_cast<std::uint32_t>(outDegree(s));
  }
  std::vector<StateId> work = statesOf(sat);
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (sat[s] || !phi[s]) return;  // ¬φ states can never join
      if (--pending[s] == 0) {
        sat.set(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

SatSet Checker::fixEU(const SatSet& phi, const SatSet& psi) {
  SatSet sat = psi;
  std::vector<StateId> work = statesOf(sat);
  std::uint64_t pops = 0;
  while (!work.empty()) {
    const StateId t = work.back();
    work.pop_back();
    ++pops;
    forPred(t, [&](StateId s) {
      if (!sat[s] && phi[s]) {
        sat.set(s);
        work.push_back(s);
      }
    });
  }
  popsCounter().add(pops);
  return sat;
}

// Positional evaluation of bounded (or lower-bounded) temporal operators.
// sat_i(s) answers "does the operator hold at s seen as position i of the
// window"; computed backwards from the window end. For hi == inf the value
// at position lo is the corresponding unbounded fixpoint. The result is
// sat_0. (`psi` is used only for AU/EU.)
SatSet Checker::boundedTemporal(Op op, const Bound& b, const SatSet& phi,
                                const SatSet& psi) {
  const std::size_t n = g_.stateCount();
  const bool universal = (op == Op::AF || op == Op::AG || op == Op::AU);
  const bool isG = (op == Op::AG || op == Op::EG);
  const bool isU = (op == Op::AU || op == Op::EU);

  // Empty window: G-type trivially true, F/U-type trivially false.
  if (b.bounded() && b.hi < b.lo) {
    return SatSet(n, isG);
  }

  // cur = sat at position i+1 while computing position i.
  SatSet cur(n);
  std::size_t start;  // first position computed going backwards is start-1
  if (!b.bounded()) {
    // Position lo == unbounded fixpoint; then walk lo-1 .. 0.
    switch (op) {
      case Op::AF:
        cur = fixAF(phi);
        break;
      case Op::EF:
        cur = fixEF(phi);
        break;
      case Op::AG:
        cur = fixAG(phi);
        break;
      case Op::EG:
        cur = fixEG(phi);
        break;
      case Op::AU:
        cur = fixAU(phi, psi);
        break;
      case Op::EU:
        cur = fixEU(phi, psi);
        break;
      default:
        throw std::logic_error("boundedTemporal: bad operator");
    }
    start = b.lo;
  } else {
    // Position hi: last chance for F/U; last constrained position for G.
    const SatSet& target = isU ? psi : phi;
    if (isG || b.hi >= b.lo) cur = target;
    start = b.hi;
  }

  SatSet next(n);
  for (std::size_t i = start; i-- > 0;) {
    const bool inWindow = i >= b.lo;
    for (StateId s = 0; s < n; ++s) {
      // Continuation through the successors.
      bool contAll = true, contAny = false;
      forSucc(s, [&](StateId t) {
        if (cur[t]) {
          contAny = true;
        } else {
          contAll = false;
        }
      });
      bool v;
      if (isG) {
        const bool here = !inWindow || phi[s];
        // Weak semantics: a path that ends imposes/offers nothing further.
        const bool cont = universal ? contAll  // vacuous on deadlock
                                    : (deadlock_[s] ? true : contAny);
        v = here && cont;
      } else if (isU) {
        const bool fulfilled = inWindow && psi[s];
        const bool cont =
            phi[s] && !deadlock_[s] && (universal ? contAll : contAny);
        v = fulfilled || cont;
      } else {  // F
        const bool fulfilled = inWindow && phi[s];
        const bool cont = !deadlock_[s] && (universal ? contAll : contAny);
        v = fulfilled || cont;
      }
      next.assign(s, v);
    }
    std::swap(cur, next);
  }
  return cur;
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
    case Op::AX: {
      const auto p = evaluate(f->lhs);
      SatSet v(n);
      for (StateId s = 0; s < n; ++s) {
        bool all = true;
        forSucc(s, [&](StateId t) { all = all && p[t]; });
        if (all) v.set(s);  // vacuously true on deadlock states
      }
      return v;
    }
    case Op::EX: {
      const auto p = evaluate(f->lhs);
      SatSet v(n);
      for (StateId s = 0; s < n; ++s) {
        bool any = false;
        forSucc(s, [&](StateId t) { any = any || p[t]; });
        if (any) v.set(s);
      }
      return v;
    }
    case Op::AF:
    case Op::EF:
    case Op::AG:
    case Op::EG: {
      const auto p = evaluate(f->lhs);
      if (f->bound.lo == 0 && !f->bound.bounded()) {
        switch (f->op) {
          case Op::AF:
            return fixAF(p);
          case Op::EF:
            return fixEF(p);
          case Op::AG:
            return fixAG(p);
          default:
            return fixEG(p);
        }
      }
      return boundedTemporal(f->op, f->bound, p, SatSet(n));
    }
    case Op::AU:
    case Op::EU: {
      const auto p = evaluate(f->lhs);
      const auto q = evaluate(f->rhs);
      if (f->bound.lo == 0 && !f->bound.bounded()) {
        return f->op == Op::AU ? fixAU(p, q) : fixEU(p, q);
      }
      return boundedTemporal(f->op, f->bound, p, q);
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

// Differential tests for the worklist checker: ctl::Checker (distance
// passes over a predecessor index, dense bitsets) against
// ctl::ReferenceChecker (the retained naive sweep implementation) on random
// models and random CCTL formulas, including the bounded operators.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/random.hpp"
#include "ctl/checker.hpp"
#include "ctl/formula.hpp"
#include "ctl/reference.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace mui {
namespace {

using automata::Automaton;
using automata::StateId;
using ctl::Bound;
using ctl::Formula;
using ctl::FormulaPtr;
using test::Tables;

using BoundGen = std::function<Bound(util::Rng&)>;

/// The bounds of the basic tests: [0, inf], [lo, lo+3] with lo < 3, or
/// [lo, inf] with lo < 4.
Bound narrowBound(util::Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return {};  // [0, inf]
    case 1: {
      const std::size_t lo = rng.below(3);
      return {lo, lo + rng.below(4)};
    }
    default:
      return {rng.below(4), Bound::kInf};
  }
}

FormulaPtr randomFormula(util::Rng& rng, std::size_t depth,
                         const BoundGen& boundGen = narrowBound) {
  if (depth == 0) {
    switch (rng.below(5)) {
      case 0:
        return Formula::mkAtom("p");
      case 1:
        return Formula::mkAtom("q");
      case 2:
        return Formula::mkTrue();
      case 3:
        return Formula::mkFalse();
      default:
        return Formula::mkDeadlock();
    }
  }
  const auto sub = [&] { return randomFormula(rng, depth - 1, boundGen); };
  const auto bound = [&] { return boundGen(rng); };
  switch (rng.below(12)) {
    case 0:
      return Formula::mkNot(sub());
    case 1:
      return Formula::mkAnd(sub(), sub());
    case 2:
      return Formula::mkOr(sub(), sub());
    case 3:
      return Formula::mkImplies(sub(), sub());
    case 4:
      return Formula::mkAX(sub());
    case 5:
      return Formula::mkEX(sub());
    case 6:
      return Formula::mkAF(sub(), bound());
    case 7:
      return Formula::mkEF(sub(), bound());
    case 8:
      return Formula::mkAG(sub(), bound());
    case 9:
      return Formula::mkEG(sub(), bound());
    case 10:
      return Formula::mkAU(sub(), sub(), bound());
    default:
      return Formula::mkEU(sub(), sub(), bound());
  }
}

/// A random model of `states` states with p and q each on about
/// `labelPct`% of them.
Automaton randomModel(Tables& t, std::uint64_t seed, std::size_t states,
                      std::uint64_t labelPct) {
  automata::RandomSpec spec;
  spec.states = states;
  spec.seed = seed;
  spec.name = "m";
  // Cover nondeterministic models and models with genuine deadlock states —
  // the weak-semantics corner the worklist counters must get right.
  spec.deterministic = seed % 2 == 0;
  spec.noLocalDeadlocks = seed % 3 != 0;
  Automaton a = automata::randomAutomaton(spec, t.signals, t.props);
  util::Rng rng(seed + 99);
  for (StateId s = 0; s < a.stateCount(); ++s) {
    if (rng.chance(labelPct, 100)) a.addLabel(s, "p");
    if (rng.chance(labelPct, 100)) a.addLabel(s, "q");
  }
  return a;
}

Automaton makeModel(Tables& t, std::uint64_t seed) {
  return randomModel(t, seed, 3 + seed % 17, 40);
}

/// A deep model: the chain q0 -> q1 -> ... -> q(n-1), whose last state
/// loops back to a random earlier state or, for every third seed,
/// deadlocks. Even seeds stay deterministic; odd seeds add a chord to a
/// random state from about a fifth of the states. p and q each label about
/// `labelPct`% of the states. Random automata have a diameter of a few
/// steps; these have labels up to n, so a window's cut-off shows.
Automaton chainModel(Tables& t, std::uint64_t seed, std::size_t n,
                     std::uint64_t labelPct) {
  Automaton a(t.signals, t.props, "m");
  a.addOutput("tick");
  a.addOutput("jump");
  const automata::Interaction tick = test::ia(*t.signals, {}, {"tick"});
  const automata::Interaction jump = test::ia(*t.signals, {}, {"jump"});
  for (std::size_t i = 0; i < n; ++i) a.addState("q" + std::to_string(i));
  a.markInitial(0);
  util::Rng rng(seed * 31 + 7);
  for (StateId s = 0; s + 1 < n; ++s) a.addTransition(s, tick, s + 1);
  if (seed % 3 != 0) {
    a.addTransition(static_cast<StateId>(n - 1), tick,
                    static_cast<StateId>(rng.below(n)));
  }
  if (seed % 2 == 1) {
    for (StateId s = 0; s < n; ++s) {
      if (rng.chance(20, 100)) {
        a.addTransition(s, jump, static_cast<StateId>(rng.below(n)));
      }
    }
  }
  for (StateId s = 0; s < n; ++s) {
    if (rng.chance(labelPct, 100)) a.addLabel(s, "p");
    if (rng.chance(labelPct, 100)) a.addLabel(s, "q");
  }
  return a;
}

/// Asserts state-by-state agreement of the two checkers on `f`.
void expectSameSat(const Automaton& a, ctl::Checker& fast,
                   ctl::ReferenceChecker& ref, const FormulaPtr& f,
                   std::uint64_t seed) {
  const auto fastSat = fast.evaluate(f);
  const auto refSat = ref.evaluate(f);
  ASSERT_EQ(fastSat.size(), refSat.size());
  for (StateId s = 0; s < a.stateCount(); ++s) {
    ASSERT_EQ(fastSat.test(s), static_cast<bool>(refSat[s]))
        << "seed " << seed << " formula " << f->toString() << " state " << s
        << " (" << a.stateName(s) << ")";
  }
}

TEST(CtlDifferential, WorklistMatchesReferenceOnRandomModels) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Tables t;
    const Automaton a = makeModel(t, seed);
    ctl::Checker fast(a);
    ctl::ReferenceChecker ref(a);
    for (StateId s = 0; s < a.stateCount(); ++s) {
      ASSERT_EQ(fast.isDeadlockState(s), ref.isDeadlockState(s))
          << "seed " << seed << " state " << s;
    }
    util::Rng rng(seed * 7919);
    for (int i = 0; i < 40; ++i) {
      expectSameSat(a, fast, ref, randomFormula(rng, 1 + rng.below(3)), seed);
    }
  }
}

// Windows far wider than the models' depth: the distance pass must cut off
// exactly at b − a, the positions below a must step back one at a time, AU
// must only label φ-states, and the AG/EG duals must keep the weak
// semantics at deadlocks. Random automata alternate with deep chains of
// 3–42 states; lower bounds reach one past the state count, and upper
// bounds up to a + 3n + 1, or infinity.
TEST(CtlDifferential, WideWindowsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    Tables t;
    const std::size_t n = 3 + seed % 40;
    const Automaton a = (seed / 2) % 2 == 0 ? randomModel(t, seed, n, 15)
                                            : chainModel(t, seed, n, 15);
    ctl::Checker fast(a);
    ctl::ReferenceChecker ref(a);
    const BoundGen wide = [n](util::Rng& rng) -> Bound {
      const std::size_t lo = rng.below(n + 2);
      if (rng.chance(1, 4)) return {lo, Bound::kInf};
      return {lo, lo + rng.below(3 * n + 2)};
    };
    util::Rng rng(seed * 6271);
    for (int i = 0; i < 30; ++i) {
      expectSameSat(a, fast, ref, randomFormula(rng, 1 + rng.below(2), wide),
                    seed);
    }
  }
}

TEST(CtlDifferential, HoldsAgreesOnInitialStates) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Tables t;
    const Automaton a = makeModel(t, seed);
    ctl::Checker fast(a);
    ctl::ReferenceChecker ref(a);
    util::Rng rng(seed * 104729);
    for (int i = 0; i < 20; ++i) {
      const FormulaPtr f = randomFormula(rng, 2);
      EXPECT_EQ(fast.holds(f), ref.holds(f)) << f->toString();
    }
  }
}

}  // namespace
}  // namespace mui

// Differential tests for the worklist checker: ctl::Checker (worklist
// fixpoints over a predecessor index, dense bitsets) against
// ctl::ReferenceChecker (the retained naive sweep implementation) on random
// models and random CCTL formulas, including the bounded operators.

#include <gtest/gtest.h>

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

FormulaPtr randomFormula(util::Rng& rng, std::size_t depth) {
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
  const auto sub = [&] { return randomFormula(rng, depth - 1); };
  const auto bound = [&]() -> Bound {
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
  };
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

Automaton makeModel(Tables& t, std::uint64_t seed) {
  automata::RandomSpec spec;
  spec.states = 3 + seed % 17;
  spec.seed = seed;
  spec.name = "m";
  // Cover nondeterministic models and models with genuine deadlock states —
  // the weak-semantics corner the worklist counters must get right.
  spec.deterministic = seed % 2 == 0;
  spec.noLocalDeadlocks = seed % 3 != 0;
  Automaton a = automata::randomAutomaton(spec, t.signals, t.props);
  util::Rng rng(seed + 99);
  for (StateId s = 0; s < a.stateCount(); ++s) {
    if (rng.chance(40, 100)) a.addLabel(s, "p");
    if (rng.chance(40, 100)) a.addLabel(s, "q");
  }
  return a;
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
      const FormulaPtr f = randomFormula(rng, 1 + rng.below(3));
      const auto fastSat = fast.evaluate(f);
      const auto refSat = ref.evaluate(f);
      ASSERT_EQ(fastSat.size(), refSat.size());
      for (StateId s = 0; s < a.stateCount(); ++s) {
        ASSERT_EQ(fastSat.test(s), static_cast<bool>(refSat[s]))
            << "seed " << seed << " formula " << f->toString() << " state "
            << s << " (" << a.stateName(s) << ")";
      }
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

#pragma once
// Black-box checking (Peled/Vardi/Yannakakis, paper Sec. 6): interleave L*
// learning with model checking of the hypothesis against the context, and
// fall back to W-method conformance testing when the check passes.
//
// This is the comparison baseline for experiment E2. Contrasts with the
// chaotic-closure loop:
//  - the hypothesis is an *under*-approximation, so a passing check proves
//    nothing until an (exponential) conformance suite also passes — and the
//    final verdict is only "correct up to the assumed state bound";
//  - hypothesis states carry no real state names, so properties over legacy
//    component states are out of reach (context-side properties and
//    deadlock freedom only).

#include <string>

#include "automata/automaton.hpp"
#include "learnlib/lstar.hpp"
#include "testing/legacy.hpp"

namespace mui::learnlib {

struct BbcConfig {
  /// CCTL property over *context* propositions (empty: deadlock freedom
  /// only).
  std::string property;
  bool requireDeadlockFree = true;
  /// Assumed upper bound on the component's state count — the W-method's
  /// soundness assumption (paper Sec. 6, "A has at most as many states as
  /// M").
  std::size_t stateBound = 12;
  std::size_t maxRounds = 1000;
  CeStrategy ceStrategy = CeStrategy::AllPrefixes;
};

enum class BbcVerdict {
  ProvenCorrectUpToBound,
  RealError,
  Inconclusive,
};

struct BbcResult {
  BbcVerdict verdict = BbcVerdict::Inconclusive;
  std::string explanation;
  std::uint64_t membershipQueries = 0;
  std::uint64_t periods = 0;
  std::size_t equivalenceSuites = 0;
  std::size_t rounds = 0;
  std::size_t hypothesisStates = 0;
};

class BlackBoxChecker {
 public:
  BlackBoxChecker(automata::Automaton context,
                  testing::LegacyComponent& legacy, BbcConfig config);

  BbcResult run();

 private:
  automata::Automaton context_;
  testing::LegacyComponent& legacy_;
  BbcConfig config_;
};

}  // namespace mui::learnlib

// Tests for the regular-inference baseline (paper Sec. 6): DFA utilities,
// Angluin's L* convergence against a perfect teacher and against the
// W-method conformance oracle, query accounting, and black-box checking
// verdicts — including agreement with the chaotic-closure verifier's ground
// truth.

#include <gtest/gtest.h>

#include "automata/compose.hpp"
#include "automata/random.hpp"
#include "ctl/counterexample.hpp"
#include "helpers.hpp"
#include "learnlib/bbc.hpp"
#include "learnlib/lstar.hpp"
#include "testing/legacy.hpp"
#include "util/rng.hpp"

namespace mui::learnlib {
namespace {

using test::Tables;

TEST(Dfa, BasicsAndAccessWords) {
  // a-cycle of length 2 with an absorbing reject sink on b from state 1.
  Dfa d(3, 2, 0);
  d.setAccepting(0, true);
  d.setAccepting(1, true);
  d.setTransition(0, 0, 1);
  d.setTransition(0, 1, 0);
  d.setTransition(1, 0, 0);
  d.setTransition(1, 1, 2);
  d.setTransition(2, 0, 2);
  d.setTransition(2, 1, 2);
  EXPECT_TRUE(d.accepts({0, 0}));
  EXPECT_TRUE(d.accepts({1, 1}));
  EXPECT_FALSE(d.accepts({0, 1}));
  EXPECT_FALSE(d.accepts({0, 1, 0}));  // sink absorbs
  const auto access = d.accessWords();
  EXPECT_TRUE(access[0].empty());
  EXPECT_EQ(access[1], (Word{0}));
  EXPECT_EQ(access[2], (Word{0, 1}));
}

TEST(Dfa, CharacterizationSetSeparatesStates) {
  Dfa d(3, 2, 0);
  d.setAccepting(0, true);
  d.setAccepting(1, true);
  d.setTransition(0, 0, 1);
  d.setTransition(0, 1, 0);
  d.setTransition(1, 0, 0);
  d.setTransition(1, 1, 2);
  d.setTransition(2, 0, 2);
  d.setTransition(2, 1, 2);
  const auto w = d.characterizationSet();
  // Every pair of states must be separated by some suffix.
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) {
      bool separated = false;
      for (const auto& suffix : w) {
        std::size_t x = a, y = b;
        for (Symbol s : suffix) {
          x = d.next(x, s);
          y = d.next(y, s);
        }
        separated = separated || (d.accepting(x) != d.accepting(y));
      }
      EXPECT_TRUE(separated) << a << " vs " << b;
    }
  }
}

TEST(Dfa, Equivalence) {
  Dfa a(1, 1, 0);
  a.setAccepting(0, true);
  a.setTransition(0, 0, 0);
  Dfa b(2, 1, 0);  // same language, redundant state
  b.setAccepting(0, true);
  b.setAccepting(1, true);
  b.setTransition(0, 0, 1);
  b.setTransition(1, 0, 0);
  EXPECT_TRUE(a.equivalent(b));
  b.setAccepting(1, false);
  EXPECT_FALSE(a.equivalent(b));
}

TEST(MembershipOracleTest, QueriesExecutableTracesAndCaches) {
  const test::Railcab rc;
  testing::AutomatonLegacy legacy(*rc.bind("rearShipped").legacy.hidden);
  const auto alphabet = automata::makeAlphabet(
      legacy.inputs(), legacy.outputs(),
      automata::InteractionMode::AtMostOneSignal);
  LegacyMembershipOracle oracle(legacy, alphabet);

  // Locate symbols.
  const auto symOf = [&](const automata::Interaction& x) {
    for (Symbol a = 0; a < alphabet.size(); ++a) {
      if (alphabet[a] == x) return a;
    }
    throw std::logic_error("symbol not found");
  };
  const Symbol idle = symOf({});
  automata::Interaction propose;
  propose.out.set(rc.model.signals->intern("convoyProposal"));
  const Symbol prop = symOf(propose);
  automata::Interaction start;
  start.in.set(rc.model.signals->intern("startConvoy"));
  const Symbol st = symOf(start);

  EXPECT_TRUE(oracle.member({}));
  EXPECT_TRUE(oracle.member({idle, prop, st}));
  EXPECT_FALSE(oracle.member({prop}));      // proposes only after the idle tick
  EXPECT_FALSE(oracle.member({st}));        // unsolicited startConvoy refused
  const auto queriesBefore = oracle.queries();
  EXPECT_TRUE(oracle.member({idle, prop, st}));  // cached
  EXPECT_EQ(oracle.queries(), queriesBefore);
}

class LStarConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LStarConvergence, LearnsTheHiddenLanguageExactly) {
  Tables t;
  automata::RandomSpec spec;
  spec.states = 5;
  spec.inputs = 2;
  spec.outputs = 1;
  spec.seed = GetParam();
  spec.name = "hid";
  const auto hidden = automata::randomAutomaton(spec, t.signals, t.props);
  const auto alphabet = automata::makeAlphabet(
      hidden.inputs(), hidden.outputs(),
      automata::InteractionMode::AtMostOneSignal);

  testing::AutomatonLegacy legacy(hidden);
  LegacyMembershipOracle oracle(legacy, alphabet);
  PerfectEquivalenceOracle teacher(hidden, alphabet);
  LStar learner(oracle, alphabet.size());
  const Dfa result = learner.learn(teacher);

  // The teacher finds no counterexample against the final hypothesis.
  EXPECT_FALSE(teacher.findCounterexample(result).has_value());
  EXPECT_GT(oracle.queries(), 0u);
  EXPECT_GE(learner.stats().equivalenceQueries, 1u);
  // Spot check on random words.
  util::Rng rng(GetParam() + 500);
  for (int i = 0; i < 200; ++i) {
    Word w;
    const std::size_t len = rng.below(7);
    for (std::size_t j = 0; j < len; ++j) {
      w.push_back(static_cast<Symbol>(rng.below(alphabet.size())));
    }
    EXPECT_EQ(result.accepts(w), oracle.member(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LStarConvergence,
                         ::testing::Range<std::uint64_t>(1, 9));

class RivestSchapire : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RivestSchapire, ConvergesLikeAllPrefixesWithASmallerTable) {
  Tables t;
  automata::RandomSpec spec;
  spec.states = 7;
  spec.inputs = 2;
  spec.outputs = 2;
  spec.seed = GetParam();
  spec.name = "hid";
  const auto hidden = automata::randomAutomaton(spec, t.signals, t.props);
  const auto alphabet = automata::makeAlphabet(
      hidden.inputs(), hidden.outputs(),
      automata::InteractionMode::AtMostOneSignal);

  const auto runWith = [&](CeStrategy strategy) {
    testing::AutomatonLegacy legacy(hidden);
    LegacyMembershipOracle oracle(legacy, alphabet);
    PerfectEquivalenceOracle teacher(hidden, alphabet);
    LStar learner(oracle, alphabet.size(), strategy);
    const Dfa result = learner.learn(teacher);
    EXPECT_FALSE(teacher.findCounterexample(result).has_value());
    return std::make_pair(learner.stats(), oracle.queries());
  };
  const auto [apStats, apQueries] = runWith(CeStrategy::AllPrefixes);
  const auto [rsStats, rsQueries] = runWith(CeStrategy::RivestSchapire);
  // Both converge to a correct model; Rivest–Schapire keeps the row set
  // (and usually the query count) no larger than Angluin's strategy.
  EXPECT_LE(rsStats.tableRows, apStats.tableRows);
  EXPECT_GT(rsQueries, 0u);
  (void)apQueries;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RivestSchapire,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(WMethod, DrivesLStarToTheCorrectModel) {
  const test::Railcab rc;
  const auto hidden = *rc.bind("rearShipped").legacy.hidden;
  const auto alphabet = automata::makeAlphabet(
      hidden.inputs(), hidden.outputs(),
      automata::InteractionMode::AtMostOneSignal);
  testing::AutomatonLegacy legacy(hidden);
  LegacyMembershipOracle oracle(legacy, alphabet);
  // Bound: 6 real states + rejecting sink.
  WMethodOracle conformance(oracle, 7);
  LStar learner(oracle, alphabet.size());
  const Dfa result = learner.learn(conformance);

  // Validate against the white-box teacher.
  PerfectEquivalenceOracle teacher(hidden, alphabet);
  EXPECT_FALSE(teacher.findCounterexample(result).has_value());
  // The whole component had to be learned — 6 states plus the sink.
  EXPECT_EQ(result.stateCount(), 7u);
}

TEST(WMethod, InsufficientStateBoundMissesDeepDifferences) {
  // The W-method's soundness assumption in action (paper Sec. 6: the
  // conformance suite is exhaustive only "up to the assumed state bound").
  // The hidden component accepts exactly a^i for i <= 3; a hypothesis with
  // one all-accepting state survives every suite word of length <= bound-1.
  Tables t;
  automata::Automaton hid2(t.signals, t.props, "deep2");
  hid2.addOutput("a2");
  const automata::Interaction doA2 = test::ia(*t.signals, {}, {"a2"});
  for (int i = 0; i <= 3; ++i) hid2.addState("d" + std::to_string(i));
  hid2.markInitial(0);
  for (automata::StateId s = 0; s < 3; ++s) {
    hid2.addTransition(s, doA2, s + 1);
  }
  const auto alphabet = automata::makeAlphabet(
      hid2.inputs(), hid2.outputs(),
      automata::InteractionMode::AtMostOneSignal);
  // Restrict to the single "emit a2" symbol: drop the idle interaction so
  // the language is exactly {a2^i : i <= 3}.
  std::vector<automata::Interaction> sigma;
  for (const auto& x : alphabet) {
    if (!x.idle()) sigma.push_back(x);
  }
  ASSERT_EQ(sigma.size(), 1u);

  {
    // Bound 3 (< 4 real states + sink): the suite never reaches a2^4, the
    // one-state all-accepting hypothesis survives — and is wrong.
    testing::AutomatonLegacy legacy(hid2);
    LegacyMembershipOracle oracle(legacy, sigma);
    WMethodOracle weak(oracle, 3);
    LStar learner(oracle, sigma.size());
    const Dfa result = learner.learn(weak);
    EXPECT_TRUE(result.accepts({0, 0, 0, 0}));   // claims a2^4 executable
    EXPECT_FALSE(oracle.member({0, 0, 0, 0}));  // it is not
  }
  {
    // A sufficient bound exposes the difference and forces the full model.
    testing::AutomatonLegacy legacy(hid2);
    LegacyMembershipOracle oracle(legacy, sigma);
    WMethodOracle strong(oracle, 5);
    LStar learner(oracle, sigma.size());
    const Dfa result = learner.learn(strong);
    EXPECT_FALSE(result.accepts({0, 0, 0, 0}));
    EXPECT_TRUE(result.accepts({0, 0, 0}));
    PerfectEquivalenceOracle teacher(hid2, sigma);
    EXPECT_FALSE(teacher.findCounterexample(result).has_value());
  }
}

TEST(Bbc, ShuttleVerdicts) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;

  BbcConfig cfg;
  cfg.stateBound = 7;
  testing::AutomatonLegacy good(*shipped.legacy.hidden);
  const auto okRes = BlackBoxChecker(front, good, cfg).run();
  EXPECT_EQ(okRes.verdict, BbcVerdict::ProvenCorrectUpToBound)
      << okRes.explanation;
  EXPECT_GT(okRes.membershipQueries, 0u);

  testing::AutomatonLegacy bad(*rc.bind("rearFaulty").legacy.hidden);
  BbcConfig cfgBad;
  cfgBad.stateBound = 4;
  const auto badRes = BlackBoxChecker(front, bad, cfgBad).run();
  EXPECT_EQ(badRes.verdict, BbcVerdict::RealError) << badRes.explanation;
}

class BbcAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BbcAgreement, MatchesGroundTruthOnRandomSystems) {
  Tables t;
  automata::RandomSpec spec;
  spec.states = 4;
  spec.inputs = 1;
  spec.outputs = 1;
  spec.seed = GetParam();
  spec.name = "lg";
  const auto hidden = automata::randomAutomaton(spec, t.signals, t.props);
  const auto context = automata::mirrored(
      automata::subAutomaton(hidden, 50, GetParam() + 9, "sub"), "ctx");

  const auto truth =
      ctl::verify(automata::compose(context, hidden).automaton, nullptr, {});

  testing::AutomatonLegacy legacy(hidden);
  BbcConfig cfg;
  cfg.stateBound = spec.states + 1;
  const auto res = BlackBoxChecker(context, legacy, cfg).run();
  ASSERT_NE(res.verdict, BbcVerdict::Inconclusive) << res.explanation;
  EXPECT_EQ(res.verdict == BbcVerdict::ProvenCorrectUpToBound, truth.holds)
      << res.explanation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BbcAgreement,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mui::learnlib

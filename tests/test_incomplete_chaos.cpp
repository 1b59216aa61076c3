// Tests for incomplete automata (Def. 6/7), learning (Def. 11/12), the
// chaotic closure (Def. 9), and Theorem 1: the real component always refines
// the chaotic closure of any observation-conforming learned model.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "automata/conformance.hpp"
#include "automata/random.hpp"
#include "automata/refine.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace mui::automata {
namespace {

using ARun = Run;
using test::Tables;
using test::ia;

TEST(Incomplete, ConsistencyOfTAndTBar) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "m");
  m.addOutput("a");
  const StateId s = m.addState("s");
  m.markInitial(s);
  const Interaction doA = ia(*t.signals, {}, {"a"});
  m.forbid(s, doA);
  // Def. 6: (s, A, B) may not be in both T and T̄.
  EXPECT_THROW(m.addTransition(s, doA, s), std::invalid_argument);
  EXPECT_TRUE(m.isForbidden(s, doA));
  EXPECT_TRUE(m.deterministic());

  IncompleteAutomaton m2(t.signals, t.props, "m2");
  m2.addOutput("a2");
  const StateId s2 = m2.addState("s");
  const Interaction doA2 = ia(*t.signals, {}, {"a2"});
  m2.addTransition(s2, doA2, s2);
  EXPECT_THROW(m2.forbid(s2, doA2), std::invalid_argument);
}

TEST(Incomplete, RunsTreatOnlyTBarAsDeadlock) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "m");
  m.addOutput("a");
  m.addOutput("b");
  const StateId s0 = m.addState("s0");
  const StateId s1 = m.addState("s1");
  m.markInitial(s0);
  const Interaction doA = ia(*t.signals, {}, {"a"});
  const Interaction doB = ia(*t.signals, {}, {"b"});
  m.addTransition(s0, doA, s1);
  m.forbid(s1, doB);

  ARun regular{{s0, s1}, {doA}, false};
  EXPECT_TRUE(m.admitsRun(regular));
  // Deadlock run only where T̄ says so (Def. 7).
  ARun blockedKnown{{s0, s1}, {doA, doB}, true};
  EXPECT_TRUE(m.admitsRun(blockedKnown));
  ARun blockedUnknown{{s0, s1}, {doA, doA}, true};  // doA at s1: merely unknown
  EXPECT_FALSE(m.admitsRun(blockedUnknown));
}

TEST(Incomplete, CompletenessXor) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "m");
  m.addOutput("a");
  const StateId s = m.addState("s");
  m.markInitial(s);
  const auto alpha =
      makeAlphabet(m.base().inputs(), m.base().outputs(),
                   InteractionMode::AtMostOneSignal);
  ASSERT_EQ(alpha.size(), 2u);  // idle and -/a
  EXPECT_FALSE(m.complete(alpha));
  m.addTransition(s, ia(*t.signals, {}, {"a"}), s);
  EXPECT_FALSE(m.complete(alpha));
  m.forbid(s, test::idle());
  EXPECT_TRUE(m.complete(alpha));
}

TEST(Incomplete, LearnRegularRunAddsStatesTransitionsInitial) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "legacy");
  m.addOutput("a");
  m.addOutput("b");
  const Interaction doA = ia(*t.signals, {}, {"a"});
  const Interaction doB = ia(*t.signals, {}, {"b"});

  ObservedRun run;
  run.stateNames = {"q0", "q1", "q0"};
  run.labels = {doA, doA};
  const auto d1 = m.learn(run);
  EXPECT_EQ(d1.newStates, 2u);
  EXPECT_EQ(d1.newTransitions, 2u);
  EXPECT_EQ(d1.newForbidden, 0u);
  EXPECT_TRUE(m.base().isInitial(*m.base().stateByName("q0")));
  // New states get hierarchical name labels for property checking.
  EXPECT_TRUE(t.props->lookup("legacy.q1").has_value());

  // Learning the same run again is a no-op (idempotence).
  const auto d2 = m.learn(run);
  EXPECT_FALSE(d2.any());

  // A blocked continuation learns a T̄ entry (Def. 12). The refused doB at
  // q1 must not clash with the known doA transition there.
  ObservedRun blocked;
  blocked.stateNames = {"q0", "q1"};
  blocked.labels = {doA, doB};
  blocked.blocked = true;
  const auto d3 = m.learn(blocked);
  EXPECT_EQ(d3.newForbidden, 1u);
  EXPECT_TRUE(
      m.isForbidden(*m.base().stateByName("q1"), doB));
  EXPECT_EQ(m.knowledge(), 2u + 2u + 1u);
}

TEST(Chaos, ClosureStructure) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "legacy");
  m.addInput("go");
  m.addOutput("done");
  const StateId s0 = m.addState("init");
  m.markInitial(s0);
  const auto alpha = makeAlphabet(m.base().inputs(), m.base().outputs(),
                                  InteractionMode::AtMostOneSignal);
  const Closure c = chaoticClosure(m, alpha);
  // Fig. 4(b): doubled known states plus s_all and s_delta.
  EXPECT_EQ(c.automaton.stateCount(), 2u * 1u + 2u);
  EXPECT_EQ(c.automaton.initialStates().size(), 2u);
  EXPECT_TRUE(c.automaton.stateByName("s_all").has_value());
  EXPECT_TRUE(c.automaton.stateByName("s_delta").has_value());
  EXPECT_TRUE(c.isChaos(c.sAll));
  EXPECT_TRUE(c.isChaos(c.sDelta));
  // (init, 0) has no outgoing transitions; (init, 1) reaches both chaos
  // states under every interaction; s_delta blocks everything.
  const StateId copy0 = *c.automaton.stateByName("init");
  const StateId copy1 = *c.automaton.stateByName("init'");
  EXPECT_TRUE(c.automaton.transitionsFrom(copy0).empty());
  EXPECT_EQ(c.automaton.transitionsFrom(copy1).size(), 2 * alpha.size());
  EXPECT_TRUE(c.automaton.transitionsFrom(c.sDelta).empty());
  EXPECT_EQ(c.automaton.transitionsFrom(c.sAll).size(), 2 * alpha.size());
  EXPECT_FALSE(c.isChaos(copy0));
  EXPECT_EQ(c.knownOrigin(copy1), s0);
  // Chaos states are labeled with the weakening proposition.
  const auto chaosId = t.props->lookup(kChaosProp);
  ASSERT_TRUE(chaosId.has_value());
  EXPECT_TRUE(c.automaton.labels(c.sAll).test(*chaosId));
  EXPECT_FALSE(c.automaton.labels(copy0).test(*chaosId));
}

TEST(Chaos, DeterministicStyleOmitsChaosEdgesForKnownInteractions) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "legacy");
  m.addOutput("a");
  const StateId s0 = m.addState("q0");
  const StateId s1 = m.addState("q1");
  m.markInitial(s0);
  const Interaction doA = ia(*t.signals, {}, {"a"});
  m.addTransition(s0, doA, s1);
  const auto alpha = makeAlphabet(m.base().inputs(), m.base().outputs(),
                                  InteractionMode::AtMostOneSignal);

  const Closure exact = chaoticClosure(m, alpha, ClosureStyle::PaperExact);
  const Closure det =
      chaoticClosure(m, alpha, ClosureStyle::DeterministicTarget);
  const StateId exQ0p = *exact.automaton.stateByName("q0'");
  const StateId detQ0p = *det.automaton.stateByName("q0'");
  // Paper-exact: doA from (q0,1) also reaches chaos; deterministic: not.
  EXPECT_TRUE(exact.automaton.hasTransitionTo(exQ0p, doA, exact.sAll));
  EXPECT_FALSE(det.automaton.hasTransitionTo(detQ0p, doA, det.sAll));
  // Idle is unknown at q0 in both styles: chaos edges present.
  EXPECT_TRUE(det.automaton.hasTransitionTo(detQ0p, test::idle(), det.sAll));
}

TEST(Chaos, ForbiddenInteractionsGetNoChaosEdges) {
  Tables t;
  IncompleteAutomaton m(t.signals, t.props, "legacy");
  m.addOutput("a");
  const StateId s0 = m.addState("q0");
  m.markInitial(s0);
  const Interaction doA = ia(*t.signals, {}, {"a"});
  m.forbid(s0, doA);
  const auto alpha = makeAlphabet(m.base().inputs(), m.base().outputs(),
                                  InteractionMode::AtMostOneSignal);
  const Closure c = chaoticClosure(m, alpha, ClosureStyle::PaperExact);
  const StateId q0p = *c.automaton.stateByName("q0'");
  EXPECT_FALSE(c.automaton.hasTransition(q0p, doA));
  EXPECT_TRUE(c.automaton.hasTransition(q0p, test::idle()));
}

// ---- Theorem 1 as a property test ------------------------------------------

// gtest names each case after a dump of this struct's bytes, so it has no
// padding: the explicit zero tail keeps the names the same in every build.
struct Thm1Param {
  std::uint64_t seed;
  ClosureStyle style;
  std::uint32_t zeroTail = 0;
};
static_assert(std::has_unique_object_representations_v<Thm1Param>);

class Theorem1 : public ::testing::TestWithParam<Thm1Param> {};

TEST_P(Theorem1, RealComponentRefinesChaosOfLearnedModel) {
  const std::uint64_t seed = GetParam().seed;
  const ClosureStyle style = GetParam().style;
  Tables t;
  RandomSpec spec;
  spec.states = 6;
  spec.densityPct = 45;
  spec.seed = seed;
  spec.name = "real";
  const Automaton real = randomAutomaton(spec, t.signals, t.props);
  const auto alpha = makeAlphabet(real.inputs(), real.outputs(),
                                  InteractionMode::AtMostOneSignal);

  // Learn a few random walks (with occasional observed refusals) from the
  // real component into an incomplete model.
  IncompleteAutomaton learned(t.signals, t.props, "real");
  learned.declareSignals(real.inputs(), real.outputs());
  // Seed the model with the (labeled) initial state via a zero-length run.
  learned.learn({{real.stateName(real.initialStates()[0])}, {}, false});
  util::Rng rng(seed * 77 + 5);
  for (int walk = 0; walk < 4; ++walk) {
    ObservedRun run;
    StateId cur = real.initialStates()[0];
    run.stateNames.push_back(real.stateName(cur));
    for (int step = 0; step < 5; ++step) {
      const auto& ts = real.transitionsFrom(cur);
      if (ts.empty()) break;
      const auto& tr = ts[rng.below(ts.size())];
      run.labels.push_back(tr.label);
      run.stateNames.push_back(real.stateName(tr.to));
      cur = tr.to;
    }
    // Half of the walks end with an observed refusal.
    if (walk % 2 == 1) {
      for (const auto& x : alpha) {
        if (!real.hasTransition(cur, x)) {
          run.labels.push_back(x);
          run.blocked = true;
          break;
        }
      }
    }
    learned.learn(run);
  }

  // The learned model is observation conforming (Def. 10)...
  const auto conf = checkObservationConformance(learned, real);
  ASSERT_TRUE(conf.conforms) << conf.reason;

  // ... so by Thm. 1 the real component refines its chaotic closure.
  const Closure c = chaoticClosure(learned, alpha, style);
  RefinementOptions opts;
  opts.wildcardProp = kChaosProp;
  const auto r = checkRefinement(real, c.automaton, alpha, opts);
  EXPECT_TRUE(r.holds) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStyles, Theorem1,
    ::testing::Values(Thm1Param{1, ClosureStyle::PaperExact},
                      Thm1Param{2, ClosureStyle::PaperExact},
                      Thm1Param{3, ClosureStyle::PaperExact},
                      Thm1Param{4, ClosureStyle::DeterministicTarget},
                      Thm1Param{5, ClosureStyle::DeterministicTarget},
                      Thm1Param{6, ClosureStyle::DeterministicTarget},
                      Thm1Param{7, ClosureStyle::DeterministicTarget},
                      Thm1Param{8, ClosureStyle::PaperExact}));

// ---- Lemma 2 as a property test ---------------------------------------------

class Lemma2 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma2, CompositionPreservesRefinement) {
  // Lemma 2: M2 ⊑ M2' implies M1 ‖ M2 ⊑ M1 ‖ M2'. We instantiate it with
  // the Thm.-1 pair (M2 = real component, M2' = chaos of a learned model)
  // and M1 = a context automaton, and check the products directly.
  const std::uint64_t seed = GetParam();
  Tables t;
  RandomSpec spec;
  spec.states = 5;
  spec.seed = seed;
  spec.name = "real";
  const Automaton real = randomAutomaton(spec, t.signals, t.props);
  const auto alpha = makeAlphabet(real.inputs(), real.outputs(),
                                  InteractionMode::AtMostOneSignal);

  // Learn a short walk into an incomplete model.
  IncompleteAutomaton learned(t.signals, t.props, "real");
  learned.declareSignals(real.inputs(), real.outputs());
  ObservedRun walk;
  StateId cur = real.initialStates()[0];
  walk.stateNames.push_back(real.stateName(cur));
  util::Rng rng(seed + 4);
  for (int step = 0; step < 4; ++step) {
    const auto& ts = real.transitionsFrom(cur);
    if (ts.empty()) break;
    const auto& tr = ts[rng.below(ts.size())];
    walk.labels.push_back(tr.label);
    walk.stateNames.push_back(real.stateName(tr.to));
    cur = tr.to;
  }
  learned.learn(walk);
  const Closure closure = chaoticClosure(learned, alpha);

  // Context: the mirror of the real component (always composable).
  const Automaton ctx = mirrored(real, "ctx");
  const auto prodReal = compose(ctx, real);
  const auto prodAbs = compose(ctx, closure.automaton);

  // Product alphabet for the refinement's deadlock condition.
  const auto prodAlpha =
      makeAlphabet(prodReal.automaton.inputs(), prodReal.automaton.outputs(),
                   InteractionMode::AtMostOneSignal);
  RefinementOptions opts;
  opts.wildcardProp = kChaosProp;
  const auto r = checkRefinement(prodReal.automaton, prodAbs.automaton,
                                 prodAlpha, opts);
  EXPECT_TRUE(r.holds) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma2, ::testing::Range<std::uint64_t>(1, 9));

TEST(Conformance, DetectsViolations) {
  Tables t;
  Automaton real(t.signals, t.props, "real");
  real.addOutput("a");
  real.addState("q0");
  real.addState("q1");
  real.markInitial(0);
  const Interaction doA = ia(*t.signals, {}, {"a"});
  real.addTransition(0, doA, 1);

  // Wrong transition target.
  IncompleteAutomaton bad1(t.signals, t.props, "real");
  bad1.addOutput("a");
  bad1.ensureState("q0");
  bad1.markInitial(0);
  bad1.addTransition(0, doA, 0);  // real goes to q1, not q0
  EXPECT_FALSE(checkObservationConformance(bad1, real).conforms);

  // Unknown state name.
  IncompleteAutomaton bad2(t.signals, t.props, "real");
  bad2.ensureState("ghost");
  bad2.markInitial(0);
  EXPECT_FALSE(checkObservationConformance(bad2, real).conforms);

  // T̄ entry the component actually supports.
  IncompleteAutomaton bad3(t.signals, t.props, "real");
  bad3.addOutput("a");
  bad3.ensureState("q0");
  bad3.markInitial(0);
  bad3.forbid(0, doA);
  EXPECT_FALSE(checkObservationConformance(bad3, real).conforms);

  // Non-initial state claimed initial.
  IncompleteAutomaton bad4(t.signals, t.props, "real");
  bad4.ensureState("q1");
  bad4.markInitial(0);
  EXPECT_FALSE(checkObservationConformance(bad4, real).conforms);

  // And a conforming model passes.
  IncompleteAutomaton good(t.signals, t.props, "real");
  good.addOutput("a");
  good.ensureState("q0");
  good.ensureState("q1");
  good.markInitial(0);
  good.addTransition(0, doA, 1);
  good.forbid(1, doA);  // q1 has no outgoing doA in real
  EXPECT_TRUE(checkObservationConformance(good, real).conforms);
}

}  // namespace
}  // namespace mui::automata

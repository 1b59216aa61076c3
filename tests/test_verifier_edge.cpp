// Edge cases and regression tests for the synthesis engine and its
// supporting machinery: the optimistic (copy-1-only) closure, QoS-channeled
// contexts, degenerate configurations, reporting, and driver corner cases.

#include <gtest/gtest.h>

#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "helpers.hpp"
#include "muml/channel.hpp"
#include "synthesis/report.hpp"
#include "synthesis/verifier.hpp"
#include "testing/driver.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"
#include "testing/runtime.hpp"

namespace mui::synthesis {
namespace {

using test::Tables;
using test::ia;

TEST(OptimisticClosure, Copy1OnlyStructure) {
  Tables t;
  automata::IncompleteAutomaton m(t.signals, t.props, "legacy");
  m.addOutput("a");
  const auto s0 = m.addState("q0");
  const auto s1 = m.addState("q1");
  m.markInitial(s0);
  const automata::Interaction doA = ia(*t.signals, {}, {"a"});
  m.addTransition(s0, doA, s1);
  m.forbid(s1, doA);
  const auto alphabet =
      automata::makeAlphabet(m.base().inputs(), m.base().outputs(),
                             automata::InteractionMode::AtMostOneSignal);
  const auto c = automata::chaoticClosure(
      m, alphabet, automata::ClosureStyle::DeterministicTarget,
      automata::ClosureCopies::Copy1Only);
  // One copy per known state (unprimed names) plus the two chaos states.
  EXPECT_EQ(c.automaton.stateCount(), 2u + 2u);
  EXPECT_TRUE(c.automaton.stateByName("q0").has_value());
  EXPECT_FALSE(c.automaton.stateByName("q0'").has_value());
  EXPECT_EQ(c.automaton.initialStates().size(), 1u);
  // Known transition kept; unknown idle goes to chaos; forbidden doA at q1
  // has no edge at all.
  const auto q0 = *c.automaton.stateByName("q0");
  const auto q1 = *c.automaton.stateByName("q1");
  EXPECT_TRUE(c.automaton.hasTransitionTo(q0, doA, q1));
  EXPECT_TRUE(c.automaton.hasTransitionTo(q0, {}, c.sAll));
  EXPECT_FALSE(c.automaton.hasTransition(q1, doA));
  // copy0 aliases copy1 in this variant.
  EXPECT_EQ(c.copy0[s0], c.copy1[s0]);
}

TEST(OptimisticClosure, BoundedLivenessNotBlamedOnIgnorance) {
  // Regression for the optimistic/pessimistic split (DESIGN.md §6.4b): a
  // pending AF-window obligation at the learning frontier must not be
  // reported as a real violation. The correct rear shuttle satisfies the
  // role invariant AG(wait -> AF[1,6] (default || convoy)); early learned
  // models end exactly at the `wait` frontier.
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  IntegrationConfig cfg;
  cfg.property =
      "AG (rearRole.noConvoy::wait -> AF[1,6] "
      "(rearRole.noConvoy::default || rearRole.convoy))";
  const auto res = IntegrationVerifier(front, legacy, cfg).run();
  EXPECT_EQ(res.verdict, Verdict::ProvenCorrect) << res.explanation;
}

TEST(OptimisticClosure, RealBoundedLivenessViolationStillFound) {
  // A component that can sit in `wait` forever genuinely violates the
  // response-time invariant: the front shuttle never answers because this
  // hidden behavior never proposes — instead we construct a rear that
  // proposes and then ignores the answer beyond the window via a detour.
  const test::Railcab rc;
  automata::Automaton hidden(rc.model.signals, rc.model.props, "rearRole");
  hidden.addInput("convoyProposalRejected");
  hidden.addInput("startConvoy");
  hidden.addInput("breakConvoyRejected");
  hidden.addInput("breakConvoyAccepted");
  hidden.addOutput("convoyProposal");
  hidden.addOutput("breakConvoyProposal");
  const auto def = hidden.addState("noConvoy::default");
  const auto wait = hidden.addState("noConvoy::wait");
  for (automata::StateId s = 0; s < hidden.stateCount(); ++s) {
    hidden.labelWithStateName(s);
  }
  hidden.markInitial(def);
  hidden.addTransition(def, ia(*rc.model.signals, {}, {"convoyProposal"}),
                       wait);
  // The defect: replies are *accepted* but looped back into wait — the
  // component never reaches default or convoy mode again.
  hidden.addTransition(wait, {}, wait);
  hidden.addTransition(
      wait, ia(*rc.model.signals, {"convoyProposalRejected"}, {}), wait);
  hidden.addTransition(wait, ia(*rc.model.signals, {"startConvoy"}, {}), wait);

  const auto front = rc.bind("rearShipped").scenario.context;
  testing::AutomatonLegacy legacy(hidden);
  IntegrationConfig cfg;
  cfg.property =
      "AG (rearRole.noConvoy::wait -> AF[1,6] "
      "(rearRole.noConvoy::default || rearRole.convoy))";
  const auto res = IntegrationVerifier(front, legacy, cfg).run();
  EXPECT_EQ(res.verdict, Verdict::RealError) << res.explanation;
}

TEST(QosContext, DelayBreaksTheSynchronousHandover) {
  // Miniature of experiment E9: the correct firmware verifies over the
  // direct connector but desynchronizes over a 1-tick radio link (the
  // breakConvoyAccepted message is in flight while the front shuttle is
  // already back in noConvoy mode).
  const test::Railcab rc;
  const auto front = rc.bind("rearShipped").scenario.context;
  const auto frontR = automata::renameSignals(
      front, {
                 {"convoyProposal", "convoyProposal_d"},
                 {"breakConvoyProposal", "breakConvoyProposal_d"},
                 {"convoyProposalRejected", "convoyProposalRejected_u"},
                 {"startConvoy", "startConvoy_u"},
                 {"breakConvoyRejected", "breakConvoyRejected_u"},
                 {"breakConvoyAccepted", "breakConvoyAccepted_u"},
             });
  const auto channel = muml::makeChannel(
      rc.model.signals, rc.model.props,
      {"radio",
       {
           {"convoyProposal", "convoyProposal_d"},
           {"breakConvoyProposal", "breakConvoyProposal_d"},
           {"convoyProposalRejected_u", "convoyProposalRejected"},
           {"startConvoy_u", "startConvoy"},
           {"breakConvoyRejected_u", "breakConvoyRejected"},
           {"breakConvoyAccepted_u", "breakConvoyAccepted"},
       },
       /*delay=*/1,
       /*capacity=*/2,
       /*lossy=*/false});
  const auto context = automata::composeAll({&frontR, &channel}).automaton;

  testing::FirmwareShuttleLegacy firmware(rc.model.signals, false);
  IntegrationConfig cfg;
  cfg.property = rc.constraint();
  const auto res = IntegrationVerifier(context, firmware, cfg).run();
  ASSERT_EQ(res.verdict, Verdict::RealError) << res.explanation;
  // The witness shows the rear still in convoy mode while the front left it.
  EXPECT_NE(res.counterexampleText.find("rearRole.convoy"),
            std::string::npos);
}

TEST(VerifierConfig, PropertyOnlyAndDeadlockOnly) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  // Deadlock check disabled: only the constraint is verified.
  {
    testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
    IntegrationConfig cfg;
    cfg.property = rc.constraint();
    cfg.requireDeadlockFree = false;
    const auto res = IntegrationVerifier(front, legacy, cfg).run();
    EXPECT_EQ(res.verdict, Verdict::ProvenCorrect) << res.explanation;
  }
  // Neither property nor deadlock requirement: vacuously proven at once.
  {
    testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
    IntegrationConfig cfg;
    cfg.requireDeadlockFree = false;
    const auto res = IntegrationVerifier(front, legacy, cfg).run();
    EXPECT_EQ(res.verdict, Verdict::ProvenCorrect);
    EXPECT_EQ(res.iterations, 1u);
    EXPECT_EQ(res.totalTestPeriods, 0u);
  }
}

TEST(VerifierConfig, StuckContextIsARealDeadlock) {
  // A context that refuses everything after one step: a real deadlock
  // regardless of the legacy behavior (the context model is authoritative).
  const test::Railcab rc;
  automata::Automaton ctx(rc.model.signals, rc.model.props, "ctx");
  ctx.addInput("convoyProposal");  // reads but never enables it
  ctx.addState("only");
  ctx.markInitial(0);
  testing::AutomatonLegacy legacy(*rc.bind("rearShipped").legacy.hidden);
  const auto res = IntegrationVerifier(ctx, legacy, {}).run();
  ASSERT_EQ(res.verdict, Verdict::RealError) << res.explanation;
  EXPECT_NE(res.explanation.find("deadlock"), std::string::npos);
}

TEST(Report, JournalAndSummary) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  IntegrationConfig cfg;
  cfg.property = rc.constraint();
  const auto res = IntegrationVerifier(front, legacy, cfg).run();
  const std::string journal = renderJournal(res);
  EXPECT_NE(journal.find("iter"), std::string::npos);
  EXPECT_NE(journal.find("deadlock"), std::string::npos);
  const std::string summary = renderSummary(res);
  EXPECT_NE(summary.find("proven"), std::string::npos);
  EXPECT_NE(summary.find("learned model"), std::string::npos);
  EXPECT_STREQ(verdictName(Verdict::RealError), "real-error");
}

TEST(DriverEdge, EmptyTestIsTriviallyConfirmed) {
  const test::Railcab rc;
  testing::AutomatonLegacy legacy(*rc.bind("rearShipped").legacy.hidden);
  testing::CounterexampleTestDriver driver(legacy, *rc.model.signals);
  const auto outcome = driver.execute({});
  EXPECT_EQ(outcome.kind, testing::TestOutcome::Kind::Confirmed);
  EXPECT_EQ(outcome.observed.stateNames.size(), 1u);
  EXPECT_TRUE(outcome.observed.labels.empty());
  EXPECT_EQ(driver.periodsDriven(), 0u);
}

TEST(DriverEdge, ReusableAcrossTests) {
  const test::Railcab rc;
  testing::AutomatonLegacy legacy(*rc.bind("rearShipped").legacy.hidden);
  testing::CounterexampleTestDriver driver(legacy, *rc.model.signals);
  const automata::Interaction idle{};
  const auto first = driver.execute({idle});
  const auto second = driver.execute({idle});  // reset() between runs
  EXPECT_EQ(first.observed.stateNames, second.observed.stateNames);
  EXPECT_EQ(driver.periodsDriven(), 4u);  // 2 tests × (record + replay)
}

TEST(RuntimeEdge, ResetRestartsTheSystem) {
  const test::Railcab rc;
  const auto front = rc.bind("rearShipped").scenario.context;
  // The faulty revision deadlocks quickly.
  testing::FirmwareShuttleLegacy fw(rc.model.signals, true);
  testing::PeriodicRuntime rt(front, fw, 7);
  testing::Recorder rec(testing::ProbeLevel::ReplayOnly);
  const auto firstRun = rt.run(60, rec);
  ASSERT_LT(firstRun, 60u);
  rt.reset();
  testing::Recorder rec2(testing::ProbeLevel::ReplayOnly);
  // After reset the system runs again from scratch (environment choices are
  // drawn from the ongoing RNG stream, so only the shape is deterministic:
  // the faulty firmware always wedges before the horizon).
  const auto secondRun = rt.run(60, rec2);
  EXPECT_GE(secondRun, 1u);
  EXPECT_LT(secondRun, 60u);
}

}  // namespace
}  // namespace mui::synthesis

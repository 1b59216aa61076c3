// Tests for the testing substrate: the black-box legacy interface, the
// hand-written legacy firmware, monitoring probe levels, the two-phase
// counterexample test driver (record + deterministic replay), the periodic
// runtime, and the composite-legacy wrapper.

#include <gtest/gtest.h>

#include "automata/conformance.hpp"
#include "helpers.hpp"
#include "testing/composite.hpp"
#include "testing/driver.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"
#include "testing/runtime.hpp"
#include "util/rng.hpp"

namespace mui::testing {
namespace {

using test::Tables;
using test::ia;

SignalSet one(const automata::SignalTableRef& t, const char* s) {
  return SignalSet::single(t->intern(s));
}

TEST(AutomatonLegacy, RejectsInputNondeterminism) {
  Tables t;
  automata::Automaton a(t.signals, t.props, "m");
  a.addOutput("x");
  a.addOutput("y");
  a.addState("s");
  a.markInitial(0);
  a.addTransition(0, ia(*t.signals, {}, {"x"}), 0);
  a.addTransition(0, ia(*t.signals, {}, {"y"}), 0);  // same input ∅
  EXPECT_THROW(AutomatonLegacy{a}, std::invalid_argument);
}

TEST(AutomatonLegacy, StepBlockResetClone) {
  const test::Railcab rc;
  AutomatonLegacy legacy(*rc.bind("rearShipped").legacy.hidden);
  EXPECT_EQ(legacy.currentStateName(), "noConvoy::default");
  // Idle tick arms the proposal.
  auto out = legacy.step({});
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
  out = legacy.step({});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, one(rc.model.signals, "convoyProposal"));
  EXPECT_EQ(legacy.currentStateName(), "noConvoy::wait");

  // Unsolicited startConvoy at wait is fine; but at default it is refused
  // and the state does not change.
  auto probe = legacy.clone();
  EXPECT_TRUE(probe->step(one(rc.model.signals, "startConvoy")).has_value());
  EXPECT_EQ(probe->currentStateName(), "convoy::default");
  EXPECT_EQ(legacy.currentStateName(), "noConvoy::wait");  // clone detached

  legacy.reset();
  EXPECT_EQ(legacy.currentStateName(), "noConvoy::default");
  EXPECT_FALSE(
      legacy.step(one(rc.model.signals, "startConvoy")).has_value());
  EXPECT_EQ(legacy.currentStateName(), "noConvoy::default");
}

class FirmwareEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(FirmwareEquivalence, FirmwareMatchesReferenceAutomaton) {
  // The hand-written legacy firmware and the reference automaton must be
  // behaviorally identical: same outputs, same refusals, same state names,
  // under thousands of random input sequences.
  const bool faulty = GetParam();
  const test::Railcab rc;
  AutomatonLegacy ref(*rc.bind(faulty ? "rearFaulty" : "rearShipped")
                           .legacy.hidden);
  FirmwareShuttleLegacy fw(rc.model.signals, faulty);
  ASSERT_TRUE(ref.inputs() == fw.inputs());
  ASSERT_TRUE(ref.outputs() == fw.outputs());

  const auto inputBits = ref.inputs().bits();
  util::Rng rng(faulty ? 11 : 22);
  for (int episode = 0; episode < 60; ++episode) {
    ref.reset();
    fw.reset();
    for (int step = 0; step < 40; ++step) {
      SignalSet in;
      if (rng.chance(45, 100)) {
        in.set(inputBits[rng.below(inputBits.size())]);
      }
      const auto a = ref.step(in);
      const auto b = fw.step(in);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        ASSERT_EQ(*a, *b);
        ASSERT_EQ(ref.currentStateName(), fw.currentStateName());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Revisions, FirmwareEquivalence,
                         ::testing::Values(false, true));

TEST(Recorder, ProbeLevelsAndRendering) {
  Recorder target(ProbeLevel::ReplayOnly);
  target.onCurrentState("noConvoy", 0);  // dropped on the target build
  target.onMessage("convoyProposal", "rearRole", true, 1);
  target.onTiming(1);  // dropped
  target.onMessage("convoyProposalRejected", "rearRole", false, 2);
  EXPECT_EQ(target.events().size(), 2u);
  const std::string t1 = target.render();
  EXPECT_EQ(t1,
            "[Message] name=\"convoyProposal\", portName=\"rearRole\", "
            "type=\"outgoing\"\n"
            "[Message] name=\"convoyProposalRejected\", portName=\"rearRole\", "
            "type=\"incoming\"\n");

  Recorder full(ProbeLevel::Full);
  full.onCurrentState("noConvoy", 0);
  full.onMessage("convoyProposal", "rearRole", true, 1);
  full.onTiming(1);
  const std::string t2 = full.render();
  EXPECT_NE(t2.find("[CurrentState] name=\"noConvoy\""), std::string::npos);
  EXPECT_NE(t2.find("[Timing] count=1"), std::string::npos);
}

struct DriverFixture {
  test::Railcab rc;
  AutomatonLegacy legacy;
  automata::Interaction idle;
  automata::Interaction propose;
  automata::Interaction reject;
  automata::Interaction start;

  DriverFixture()
      : legacy(*rc.bind("rearShipped").legacy.hidden),
        idle{},
        propose{{}, one(rc.model.signals, "convoyProposal")},
        reject{one(rc.model.signals, "convoyProposalRejected"), {}},
        start{one(rc.model.signals, "startConvoy"), {}} {}
};

TEST(Driver, ConfirmedRun) {
  DriverFixture f;
  CounterexampleTestDriver driver(f.legacy, *f.rc.model.signals);
  const auto outcome =
      driver.execute({f.idle, f.propose, f.start});
  EXPECT_EQ(outcome.kind, TestOutcome::Kind::Confirmed);
  EXPECT_EQ(outcome.executedSteps, 3u);
  ASSERT_TRUE(outcome.observed.wellFormed());
  EXPECT_FALSE(outcome.observed.blocked);
  EXPECT_EQ(outcome.observed.stateNames.back(), "convoy::default");
  EXPECT_FALSE(outcome.refusalRun.has_value());
  // The observed run is a real run of the hidden automaton.
  automata::IncompleteAutomaton learned(f.rc.model.signals, f.rc.model.props,
                                        "rearRole");
  learned.declareSignals(f.legacy.inputs(), f.legacy.outputs());
  learned.learn(outcome.observed);
  EXPECT_TRUE(automata::checkObservationConformance(learned, f.legacy.hidden())
                  .conforms);
  // Monitoring: states only in the replay log (probe levels, Listing 1.2
  // vs 1.3).
  EXPECT_EQ(outcome.targetLog.render().find("[CurrentState]"),
            std::string::npos);
  EXPECT_NE(outcome.replayLog.render().find("[CurrentState]"),
            std::string::npos);
  EXPECT_NE(outcome.replayLog.render().find(
                "[Message] name=\"convoyProposal\", portName=\"rearRole\", "
                "type=\"outgoing\""),
            std::string::npos);
}

TEST(Driver, DivergedRunLearnsActualAndRefused) {
  DriverFixture f;
  CounterexampleTestDriver driver(f.legacy, *f.rc.model.signals);
  // Expect the component to propose immediately; it actually idles first.
  const auto outcome = driver.execute({f.propose});
  EXPECT_EQ(outcome.kind, TestOutcome::Kind::Diverged);
  EXPECT_EQ(outcome.executedSteps, 1u);
  // Observed: the real (idle) step.
  ASSERT_EQ(outcome.observed.labels.size(), 1u);
  EXPECT_TRUE(outcome.observed.labels[0].out.empty());
  EXPECT_EQ(outcome.observed.stateNames[1], "noConvoy::ready");
  // Refusal: the expected proposal at the initial state (Def. 12 fact).
  ASSERT_TRUE(outcome.refusalRun.has_value());
  EXPECT_TRUE(outcome.refusalRun->blocked);
  EXPECT_EQ(outcome.refusalRun->stateNames.size(), 1u);
  EXPECT_EQ(outcome.refusalRun->labels[0], f.propose);
}

TEST(Driver, BlockedRun) {
  DriverFixture f;
  CounterexampleTestDriver driver(f.legacy, *f.rc.model.signals);
  // startConvoy at the initial state is refused outright.
  const auto outcome = driver.execute({f.start});
  EXPECT_EQ(outcome.kind, TestOutcome::Kind::Blocked);
  EXPECT_EQ(outcome.executedSteps, 0u);
  ASSERT_TRUE(outcome.observed.wellFormed());
  EXPECT_TRUE(outcome.observed.blocked);
  EXPECT_EQ(outcome.observed.stateNames.size(), 1u);
  EXPECT_EQ(outcome.observed.labels.size(), 1u);
  EXPECT_EQ(outcome.observed.labels[0], f.start);
  EXPECT_FALSE(outcome.refusalRun.has_value());
}

TEST(Driver, CountsPeriods) {
  DriverFixture f;
  CounterexampleTestDriver driver(f.legacy, *f.rc.model.signals);
  driver.execute({f.idle, f.propose, f.reject});
  // Phase 1: 3 steps; phase 2 replays them.
  EXPECT_EQ(driver.periodsDriven(), 6u);
}

TEST(Runtime, CorrectFirmwareRunsWithoutDeadlock) {
  const test::Railcab rc;
  const auto front = rc.bind("rearShipped").scenario.context;
  FirmwareShuttleLegacy fw(rc.model.signals, /*faultyRevision=*/false);
  PeriodicRuntime rt(front, fw, 7);
  Recorder rec(ProbeLevel::Full);
  EXPECT_EQ(rt.run(60, rec), 60u);
  // The run exercises the protocol: proposals went out.
  EXPECT_NE(rec.render().find("convoyProposal"), std::string::npos);
}

TEST(Runtime, FaultyFirmwareDeadlocksAgainstTheContext) {
  const test::Railcab rc;
  const auto front = rc.bind("rearShipped").scenario.context;
  FirmwareShuttleLegacy fw(rc.model.signals, /*faultyRevision=*/true);
  PeriodicRuntime rt(front, fw, 7);
  Recorder rec(ProbeLevel::ReplayOnly);
  // The faulty controller jumps to convoy mode and refuses the answer; the
  // front shuttle's answer deadline then wedges the system.
  EXPECT_LT(rt.run(60, rec), 60u);
}

TEST(Composite, JointStepAndRefusal) {
  const test::Railcab rc;
  auto l1 = std::make_unique<AutomatonLegacy>(
      *rc.bind("rearShipped").legacy.hidden);
  // A second, I/O-disjoint component.
  automata::Automaton b(rc.model.signals, rc.model.props, "aux");
  b.addInput("aux_in");
  b.addOutput("aux_out");
  b.addState("u0");
  b.addState("u1");
  b.markInitial(0);
  b.addTransition(0, ia(*rc.model.signals, {"aux_in"}, {"aux_out"}), 1);
  b.addTransition(1, {}, 1);
  auto l2 = std::make_unique<AutomatonLegacy>(b);

  std::vector<std::unique_ptr<LegacyComponent>> parts;
  parts.push_back(std::move(l1));
  parts.push_back(std::move(l2));
  CompositeLegacy comp(std::move(parts));

  EXPECT_EQ(comp.currentStateName(), "noConvoy::default|u0");
  // Joint step: shuttle idles, aux consumes its input and answers.
  const auto out = comp.step(one(rc.model.signals, "aux_in"));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, one(rc.model.signals, "aux_out"));
  EXPECT_EQ(comp.currentStateName(), "noConvoy::ready|u1");
  // If any part refuses, the joint step refuses and nothing moves.
  const auto blocked = comp.step(one(rc.model.signals, "startConvoy"));
  EXPECT_FALSE(blocked.has_value());
  EXPECT_EQ(comp.currentStateName(), "noConvoy::ready|u1");
}

TEST(Composite, RequiresDisjointInterfaces) {
  const test::Railcab rc;
  std::vector<std::unique_ptr<LegacyComponent>> parts;
  parts.push_back(std::make_unique<AutomatonLegacy>(
      *rc.bind("rearShipped").legacy.hidden));
  parts.push_back(
      std::make_unique<FirmwareShuttleLegacy>(rc.model.signals, false));
  EXPECT_THROW(CompositeLegacy{std::move(parts)}, std::invalid_argument);
}

}  // namespace
}  // namespace mui::testing

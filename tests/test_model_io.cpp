// Tests for signal renaming, the .muml writer (loader round-trips), and the
// pattern-to-integration-scenario builder.

#include <gtest/gtest.h>

#include "automata/compose.hpp"
#include "automata/refine.hpp"
#include "automata/rename.hpp"
#include "helpers.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "muml/writer.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"

namespace mui::muml {
namespace {

using test::Tables;
using test::ia;

TEST(Rename, RemapsSignalsEverywhere) {
  Tables t;
  automata::Automaton a(t.signals, t.props, "m");
  a.addInput("in1");
  a.addOutput("out1");
  a.addOutput("keep");
  a.addState("s0");
  a.addState("s1");
  a.markInitial(0);
  a.addTransition(0, ia(*t.signals, {"in1"}, {"out1", "keep"}), 1);
  const auto r = automata::renameSignals(
      a, {{"in1", "in1_d"}, {"out1", "out1_u"}});
  EXPECT_TRUE(r.inputs().test(*t.signals->lookup("in1_d")));
  EXPECT_FALSE(r.inputs().test(*t.signals->lookup("in1")));
  EXPECT_TRUE(r.outputs().test(*t.signals->lookup("out1_u")));
  EXPECT_TRUE(r.outputs().test(*t.signals->lookup("keep")));
  const auto& tr = r.transitionsFrom(0)[0];
  EXPECT_EQ(tr.label, ia(*t.signals, {"in1_d"}, {"out1_u", "keep"}));
}

TEST(Rename, Validation) {
  Tables t;
  automata::Automaton a(t.signals, t.props, "m");
  a.addInput("x");
  a.addInput("y");
  a.addState("s");
  a.markInitial(0);
  EXPECT_THROW(automata::renameSignals(a, {{"ghost", "g"}}),
               std::invalid_argument);
  // Collision with an existing signal is rejected.
  EXPECT_THROW(automata::renameSignals(a, {{"x", "y"}}),
               std::invalid_argument);
}

TEST(Rename, PreservesBehaviorModuloNames) {
  // Renaming then renaming back is the identity (up to table growth).
  Tables t;
  const Model m = loadModel(R"mm(
    automaton p {
      input a; output b;
      initial s0;
      s0 -> s1 : a / b;
      s1 -> s0 : ;
    }
  )mm");
  const auto& orig = m.automata.at("p");
  const auto there = automata::renameSignals(orig, {{"a", "a2"}, {"b", "b2"}});
  const auto back = automata::renameSignals(there, {{"a2", "a"}, {"b2", "b"}});
  const auto alpha = automata::makeAlphabet(
      orig.inputs(), orig.outputs(), automata::InteractionMode::AtMostOneSignal);
  EXPECT_TRUE(automata::checkRefinement(back, orig, alpha).holds);
  EXPECT_TRUE(automata::checkRefinement(orig, back, alpha).holds);
}

TEST(Writer, AutomatonRoundTrip) {
  const char* text = R"mm(
    automaton ping {
      input ack; output req;
      state extra labels custom.prop;
      initial idle;
      idle -> waiting : / req;
      waiting -> idle : ack / ;
      waiting -> waiting : ;
      idle -> extra : ack / req;
    }
  )mm";
  const Model m1 = loadModel(text);
  const std::string written = writeModel(m1);
  const Model m2 = loadModel(written);
  const auto& a1 = m1.automata.at("ping");
  const auto& a2 = m2.automata.at("ping");
  EXPECT_EQ(a1.stateCount(), a2.stateCount());
  EXPECT_EQ(a1.transitionCount(), a2.transitionCount());
  EXPECT_EQ(a1.initialStates().size(), a2.initialStates().size());
  // Custom labels survive; hierarchical auto-labels are regenerated.
  const auto s2 = *a2.stateByName("extra");
  EXPECT_TRUE(a2.labels(s2).test(*m2.props->lookup("custom.prop")));
  // Semantic identity: every transition present in both (by names/labels).
  for (automata::StateId s = 0; s < a1.stateCount(); ++s) {
    const auto s2id = *a2.stateByName(a1.stateName(s));
    for (const auto& t : a1.transitionsFrom(s)) {
      // Signals were interned in separate tables; compare via names.
      const std::string rendered = a1.interactionToString(t.label);
      bool found = false;
      for (const auto& t2 : a2.transitionsFrom(s2id)) {
        if (a2.interactionToString(t2.label) == rendered &&
            a2.stateName(t2.to) == a1.stateName(t.to)) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << rendered;
    }
  }
}

TEST(Writer, RtscAndPatternRoundTrip) {
  const char* text = R"mm(
    rtsc Responder {
      input req; output ack;
      clock c0;
      location idle;
      location busy invariant c0 <= 2;
      initial idle;
      idle -> busy : trigger req reset c0;
      busy -> idle : emit ack guard c0 >= 1;
    }
    rtsc Caller {
      input ack; output req;
      location quiet;
      initial quiet;
      quiet -> quiet : emit req;
      quiet -> quiet : trigger ack;
    }
    pattern PingPong {
      role caller uses Caller;
      role responder uses Responder invariant "AG (Responder.busy -> AF[1,3] Responder.idle)";
      connector channel delay 2 capacity 1 lossy routes req->req_d ack->ack_d;
      constraint "AG !deadlock";
    }
  )mm";
  const Model m1 = loadModel(text);
  const Model m2 = loadModel(writeModel(m1));

  // Statechart round-trip: identical compiled state spaces.
  Tables t1, t2;
  const auto c1 = m1.statecharts.at("Responder").compile(t1.signals, t1.props);
  const auto c2 = m2.statecharts.at("Responder").compile(t2.signals, t2.props);
  EXPECT_EQ(c1.stateCount(), c2.stateCount());
  EXPECT_EQ(c1.transitionCount(), c2.transitionCount());

  // Pattern round-trip.
  const auto& p1 = m1.patterns.at("PingPong");
  const auto& p2 = m2.patterns.at("PingPong");
  EXPECT_EQ(p1.constraint, p2.constraint);
  ASSERT_EQ(p2.roles.size(), 2u);
  EXPECT_EQ(p2.roles[1].invariant, p1.roles[1].invariant);
  EXPECT_EQ(p2.connector.kind, ConnectorSpec::Kind::Channel);
  EXPECT_EQ(p2.connector.channel.delay, 2u);
  EXPECT_TRUE(p2.connector.channel.lossy);
  ASSERT_EQ(p2.connector.channel.routes.size(), 2u);
  EXPECT_EQ(p2.connector.channel.routes[1].destination, "ack_d");

  // Idempotence: writing the reloaded model yields the same text.
  EXPECT_EQ(writeModel(m1), writeModel(m2));
}

TEST(Writer, RoundTripsQuotesAndBackslashesInEveryString) {
  // The loader reads `\x` as x, so the writer must escape `\` and `"` in
  // every string literal: adapter paths and args (an external's argv),
  // role invariants and pattern constraints.
  const char* text = R"mm(
    rtsc Caller { output req; location quiet; initial quiet;
                  quiet -> quiet : emit req; }
    rtsc Responder { input req; location idle; initial idle;
                     idle -> idle : trigger req; }
    pattern P {
      role caller uses Caller invariant "AG \"odd\\atom\"";
      role responder uses Responder;
      connector direct;
      constraint "say \"hi\" \\ twice \\\\";
    }
    legacy ext external "dir\\with \"quote\"/adapter" {
      input req;
      arg "say \"hi\""; arg "a\\b"; arg "two
lines"; arg "";
    }
  )mm";
  const Model m1 = loadModel(text);
  const auto& ext1 = m1.externals.at("ext");
  EXPECT_EQ(ext1.path, R"(dir\with "quote"/adapter)");
  const std::vector<std::string> args = {R"(say "hi")", R"(a\b)",
                                         "two\nlines", ""};
  EXPECT_EQ(ext1.args, args);
  const auto& p1 = m1.patterns.at("P");
  EXPECT_EQ(p1.roles[0].invariant, R"(AG "odd\atom")");
  EXPECT_EQ(p1.constraint, R"(say "hi" \ twice \\)");

  const std::string written = writeModel(m1);
  const Model m2 = loadModel(written);
  const auto& ext2 = m2.externals.at("ext");
  EXPECT_EQ(ext2.path, ext1.path) << written;
  EXPECT_EQ(ext2.args, ext1.args) << written;
  const auto& p2 = m2.patterns.at("P");
  EXPECT_EQ(p2.roles[0].invariant, p1.roles[0].invariant) << written;
  EXPECT_EQ(p2.constraint, p1.constraint) << written;
  EXPECT_EQ(writeModel(m2), written);
}

TEST(Writer, RejectsNonRepresentableNames) {
  Tables t;
  automata::Automaton a(t.signals, t.props, "m");
  a.addState("weird'name");
  a.markInitial(0);
  Model m;
  m.signals = t.signals;
  m.props = t.props;
  m.automata.emplace("m", a);
  EXPECT_THROW(writeModel(m), std::invalid_argument);
}

TEST(IntegrationScenarioTest, ShuttleFromPattern) {
  const test::Railcab rc;
  const auto& pattern = rc.model.patterns.at("DistanceCoordination");
  // The legacy component plays the rear role (index 1).
  const auto scenario =
      makeIntegrationScenario(pattern, 1, rc.model.signals, rc.model.props);
  // The context is the front role; the property conjoins the constraint and
  // both role invariants.
  EXPECT_NE(scenario.property.find("rearRole.convoy"), std::string::npos);
  EXPECT_NE(scenario.property.find("AF[1,3]"), std::string::npos);
  EXPECT_NE(scenario.property.find("AF[1,6]"), std::string::npos);

  testing::AutomatonLegacy good(*rc.bind("rearShipped").legacy.hidden);
  synthesis::IntegrationConfig cfg;
  cfg.property = scenario.property;
  const auto ok =
      synthesis::IntegrationVerifier(scenario.context, good, cfg).run();
  EXPECT_EQ(ok.verdict, synthesis::Verdict::ProvenCorrect) << ok.explanation;

  testing::AutomatonLegacy bad(*rc.bind("rearFaulty").legacy.hidden);
  const auto err =
      synthesis::IntegrationVerifier(scenario.context, bad, cfg).run();
  EXPECT_EQ(err.verdict, synthesis::Verdict::RealError) << err.explanation;
}

TEST(IntegrationScenarioTest, Validation) {
  const test::Railcab rc;
  EXPECT_THROW(makeIntegrationScenario(
                   rc.model.patterns.at("DistanceCoordination"), 7,
                   rc.model.signals, rc.model.props),
               std::out_of_range);
}

}  // namespace
}  // namespace mui::muml

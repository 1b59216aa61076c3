// Tests for the MECHATRONIC UML layer: channel connectors (QoS), the .muml
// loader, pattern verification, port-role refinement, and — crucially — the
// ground truth of the RailCab scenario that the integration loop must
// reproduce: the correct legacy integrates cleanly, the faulty one violates
// the pattern constraint.

#include <gtest/gtest.h>

#include "automata/compose.hpp"
#include "ctl/checker.hpp"
#include "ctl/parser.hpp"
#include "helpers.hpp"
#include "muml/channel.hpp"
#include "muml/loader.hpp"
#include "muml/verify.hpp"
#include "util/parse.hpp"

namespace mui::muml {
namespace {

using test::Tables;

TEST(Channel, DelayOneCapacityOneShape) {
  Tables t;
  const ChannelSpec spec{"ch", {{"m_src", "m_dst"}}, 1, 1, false};
  const auto ch = makeChannel(t.signals, t.props, spec);
  // States: empty and m@1.
  EXPECT_EQ(ch.stateCount(), 2u);
  const auto empty = *ch.stateByName("empty");
  const auto full = *ch.stateByName("m_src@1");
  EXPECT_TRUE(ch.isInitial(empty));
  EXPECT_TRUE(ch.hasTransitionTo(empty, test::ia(*t.signals, {"m_src"}, {}),
                                 full));
  // Due message: may be held or delivered (possibly accepting a new one).
  EXPECT_TRUE(ch.hasTransitionTo(full, {}, full));
  EXPECT_TRUE(ch.hasTransitionTo(full, test::ia(*t.signals, {}, {"m_dst"}),
                                 empty));
  EXPECT_TRUE(ch.hasTransitionTo(
      full, test::ia(*t.signals, {"m_src"}, {"m_dst"}), full));
  // Capacity 1: a full channel refuses a second send without delivery.
  EXPECT_FALSE(ch.hasTransitionTo(full, test::ia(*t.signals, {"m_src"}, {}),
                                  full));
}

TEST(Channel, DelayDefersDelivery) {
  Tables t;
  const ChannelSpec spec{"ch", {{"a_src", "a_dst"}}, 3, 1, false};
  const auto ch = makeChannel(t.signals, t.props, spec);
  ctl::Checker checker(ch);
  // After a send, delivery becomes possible exactly after `delay` ticks —
  // never earlier (lower-bound QoS).
  EXPECT_TRUE(checker.holds(ctl::parseFormula(
      "AG (ch.a_src@1 -> !EF[0,1] ch.empty)")));
  EXPECT_TRUE(checker.holds(ctl::parseFormula(
      "AG (ch.a_src@1 -> EF[2,2] ch.empty)")));
}

TEST(Channel, LossyChannelsCanDropInFlight) {
  Tables t;
  const ChannelSpec lossless{"ch", {{"x_src", "x_dst"}}, 2, 1, false};
  const auto a = makeChannel(t.signals, t.props, lossless);
  Tables t2;
  const ChannelSpec lossy{"ch", {{"x_src", "x_dst"}}, 2, 1, true};
  const auto b = makeChannel(t2.signals, t2.props, lossy);
  // The lossy channel has extra silent transitions back to empty.
  EXPECT_GT(b.transitionCount(), a.transitionCount());
  const auto full = *b.stateByName("x_src@1");
  EXPECT_TRUE(b.hasTransitionTo(full, {}, *b.stateByName("empty")));
}

TEST(Channel, EndToEndThroughComposition) {
  // sender -> channel -> receiver: the message arrives after the delay.
  Tables t;
  automata::Automaton snd(t.signals, t.props, "snd");
  snd.addOutput("m_src");
  snd.addState("s0");
  snd.addState("s1");
  snd.markInitial(0);
  snd.addTransition(0, test::ia(*t.signals, {}, {"m_src"}), 1);
  snd.addTransition(1, {}, 1);

  automata::Automaton rcv(t.signals, t.props, "rcv");
  rcv.addInput("m_dst");
  rcv.addState("r0");
  rcv.addState("r1");
  rcv.markInitial(0);
  rcv.labelWithStateName(1);
  rcv.addTransition(0, {}, 0);
  rcv.addTransition(0, test::ia(*t.signals, {"m_dst"}, {}), 1);
  rcv.addTransition(1, {}, 1);

  const auto ch =
      makeChannel(t.signals, t.props, {"ch", {{"m_src", "m_dst"}}, 2, 1, false});
  const auto prod = automata::composeAll({&snd, &ch, &rcv});
  ctl::Checker checker(prod.automaton);
  // Transit spans `delay` ticks including the send tick: the send fires at
  // tick 1 (message age 1), and delivery is possible once the age reaches
  // the delay — here at tick 2, never earlier.
  EXPECT_TRUE(checker.holds(ctl::parseFormula("EF rcv.r1")));
  EXPECT_FALSE(checker.holds(ctl::parseFormula("EF[0,1] rcv.r1")));
  EXPECT_TRUE(checker.holds(ctl::parseFormula("EF[2,2] rcv.r1")));
}

TEST(Loader, ParsesAutomatonRtscAndPattern) {
  const Model m = loadModel(R"mm(
    # a tiny ping automaton
    automaton ping {
      input ack; output req;
      initial idle;
      idle -> waiting : / req;
      waiting -> idle : ack / ;
      waiting -> waiting : ;
    }

    rtsc Responder {
      input req; output ack;
      clock c;
      location idle;
      location busy invariant c <= 2;
      initial idle;
      idle -> busy : trigger req reset c;
      busy -> idle : emit ack guard c >= 1;
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
      connector direct;
      constraint "AG !deadlock";
    }
  )mm");
  ASSERT_EQ(m.automata.size(), 1u);
  ASSERT_EQ(m.statecharts.size(), 2u);
  ASSERT_EQ(m.patterns.size(), 1u);
  const auto& ping = m.automata.at("ping");
  EXPECT_EQ(ping.stateCount(), 2u);
  EXPECT_EQ(ping.transitionCount(), 3u);
  EXPECT_TRUE(ping.isInitial(*ping.stateByName("idle")));
  const auto& responder = m.statecharts.at("Responder");
  EXPECT_EQ(responder.locationCount(), 2u);
  EXPECT_EQ(responder.clockCount(), 1u);
  EXPECT_EQ(m.patterns.at("PingPong").roles.size(), 2u);
}

TEST(Loader, Errors) {
  EXPECT_THROW(loadModel("automaton a { initial s; } automaton a {}"),
               std::invalid_argument);
  EXPECT_THROW(loadModel("rtsc R { idle -> idle : ; }"),
               std::invalid_argument);  // unknown location
  EXPECT_THROW(loadModel("pattern P { role r uses Nope; }"),
               std::invalid_argument);
  EXPECT_THROW(loadModel("blargh x {}"), util::ParseError);
  EXPECT_THROW(loadModel("rtsc R { location l; initial l; l -> l : guard c <= 1; }"),
               std::invalid_argument);  // unknown clock
}

TEST(Loader, ErrorsCarrySourceFileAndLine) {
  // Semantic errors (duplicate names, unknown references) point at the
  // offending line of the named source.
  try {
    loadModel("automaton a { initial s; }\nautomaton a { initial s; }\n",
              "dup.muml");
    FAIL() << "expected SemanticError";
  } catch (const util::SemanticError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dup.muml:2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate automaton 'a'"), std::string::npos) << msg;
  }
  // Syntax errors carry the same source:line:col prefix.
  try {
    loadModel("blargh x {}", "bad.muml");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("bad.muml:1:1:"), std::string::npos)
        << e.what();
  }
  // Without a source name the legacy "(line L, col C)" suffix remains.
  try {
    loadModel("blargh x {}");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("(line 1, col 1)"), std::string::npos)
        << e.what();
  }
}

TEST(Loader, LoadModelFileReportsMissingPath) {
  try {
    loadModelFile("/no/such/model.muml");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/model.muml"),
              std::string::npos)
        << e.what();
  }
}

TEST(Loader, ChannelConnectorAttributes) {
  const Model m = loadModel(R"mm(
    rtsc A { output m_src; location l; initial l; l -> l : emit m_src; }
    rtsc B { input m_dst; location l; initial l; l -> l : trigger m_dst; }
    pattern P {
      role a uses A;
      role b uses B;
      connector channel delay 2 capacity 1 lossy routes m_src->m_dst;
      constraint "AG true";
    }
  )mm");
  const auto& c = m.patterns.at("P").connector;
  EXPECT_EQ(c.kind, ConnectorSpec::Kind::Channel);
  EXPECT_EQ(c.channel.delay, 2u);
  EXPECT_TRUE(c.channel.lossy);
  ASSERT_EQ(c.channel.routes.size(), 1u);
  EXPECT_EQ(c.channel.routes[0].source, "m_src");
  EXPECT_EQ(c.channel.routes[0].destination, "m_dst");
}

TEST(Loader, DuplicateTransitionsAreDedupedAndRecorded) {
  const Model m = loadModel(
      "automaton a { input go; initial s0;\n"
      "  s0 -> s0 : go / ;\n"
      "  s0 -> s0 : go / ;\n"
      "}\n",
      "dup.muml");
  const auto& a = m.automata.at("a");
  EXPECT_EQ(a.transitionCount(), 1u);  // kept one copy, loaded without error
  ASSERT_EQ(m.source.duplicateTransitions.size(), 1u);
  const auto& dup = m.source.duplicateTransitions.front();
  EXPECT_EQ(dup.automaton, "a");
  EXPECT_NE(dup.text.find("s0 -> s0"), std::string::npos) << dup.text;
  // The recorded location points at the *second* occurrence.
  EXPECT_EQ(dup.loc.file, "dup.muml");
  EXPECT_EQ(dup.loc.line, 3u);
}

TEST(Loader, DistinctTransitionsAreNotRecordedAsDuplicates) {
  const Model m = loadModel(
      "automaton a { input go; initial s0; s0 -> s0 : go / ; s0 -> s0 : ; }");
  EXPECT_EQ(m.automata.at("a").transitionCount(), 2u);
  EXPECT_TRUE(m.source.duplicateTransitions.empty());
}

TEST(Loader, AllowStatementsRecordScopedSuppressions) {
  const Model m = loadModel(R"mm(
    automaton a { allow MUI003 MUI006; initial s0; s0 -> s0 : ; }
    rtsc R { allow MUI003; input x; location l; initial l; l -> l : trigger x; }
    pattern P { role r uses R; allow MUI004; connector direct; }
  )mm");
  EXPECT_TRUE(m.source.allows("a", "MUI003"));
  EXPECT_TRUE(m.source.allows("a", "MUI006"));
  EXPECT_FALSE(m.source.allows("a", "MUI001"));
  EXPECT_TRUE(m.source.allows("R", "MUI003"));
  EXPECT_TRUE(m.source.allows("P", "MUI004"));
  EXPECT_FALSE(m.source.allows("someoneElse", "MUI003"));
}

TEST(Loader, DefinitionLocationsAreRecorded) {
  const Model m = loadModel(
      "automaton a { initial s0; s0 -> s0 : ; }\n"
      "rtsc R { location l; initial l; l -> l : ; }\n",
      "loc.muml");
  ASSERT_TRUE(m.source.automata.count("a"));
  EXPECT_EQ(m.source.automata.at("a").file, "loc.muml");
  EXPECT_EQ(m.source.automata.at("a").line, 1u);
  ASSERT_TRUE(m.source.statecharts.count("R"));
  EXPECT_EQ(m.source.statecharts.at("R").line, 2u);
}

// ---- The RailCab ground truth ----------------------------------------------

TEST(Shuttle, PatternVerifies) {
  // Fig. 1: the DistanceCoordination pattern itself is correct — constraint,
  // both role invariants, and deadlock freedom hold for the role protocols.
  const test::Railcab rc;
  const auto result =
      verifyPattern(rc.model.patterns.at("DistanceCoordination"),
                    rc.model.signals, rc.model.props);
  EXPECT_TRUE(result.constraintHolds);
  EXPECT_TRUE(result.deadlockFree);
  ASSERT_EQ(result.roleInvariants.size(), 2u);
  EXPECT_TRUE(result.roleInvariants[0].second)
      << "front role invariant violated";
  EXPECT_TRUE(result.roleInvariants[1].second)
      << "rear role invariant violated";
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.details.holds);
}

TEST(Shuttle, CorrectLegacyGroundTruth) {
  // Composing the *hidden* correct legacy behavior directly with the context
  // satisfies constraint and deadlock freedom — the integration loop must
  // end in ProvenCorrect for it (Thm. 2).
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  const auto& legacy = *shipped.legacy.hidden;
  ASSERT_TRUE(legacy.deterministic());
  const auto prod = automata::compose(front, legacy);
  ctl::VerifyOptions opts;
  const auto r = ctl::verify(
      prod.automaton, ctl::parseFormula(rc.constraint()), opts);
  EXPECT_TRUE(r.holds) << (r.counterexamples.empty()
                               ? ""
                               : prod.renderRun(r.cex().run));
}

TEST(Shuttle, FaultyLegacyGroundTruth) {
  // The faulty legacy violates the pattern constraint when composed with the
  // context: rear in convoy mode while front rejected the proposal.
  const test::Railcab rc;
  const auto faulty = rc.bind("rearFaulty");
  const auto& front = faulty.scenario.context;
  const auto& legacy = *faulty.legacy.hidden;
  ASSERT_TRUE(legacy.deterministic());
  const auto prod = automata::compose(front, legacy);
  ctl::VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = ctl::verify(
      prod.automaton, ctl::parseFormula(rc.constraint()), opts);
  ASSERT_FALSE(r.holds);
  EXPECT_EQ(r.cex().kind, ctl::Counterexample::Kind::Property);
  // Listing 1.4: the violating state pairs rear convoy with front noConvoy.
  const std::string text = prod.renderRun(r.cex().run);
  EXPECT_NE(text.find("convoy"), std::string::npos);
}

TEST(Shuttle, PortRefinement) {
  const test::Railcab rc;
  const auto& rearRole = rc.model.patterns.at("DistanceCoordination").roles[1];

  // The faulty legacy is not even a trace refinement of the rear role: it
  // reaches convoy mode on a trace where the role is still in noConvoy
  // (condition 1), independent of refusals.
  Port faulty{"rearPort", "rearRole",
              *rc.bind("rearFaulty").legacy.hidden};
  const auto bad =
      checkPortRefinement(faulty, rearRole, rc.model.signals, rc.model.props,
                          automata::InteractionMode::AtMostOneSignal, true);
  EXPECT_FALSE(bad.holds);
  EXPECT_NE(bad.reason.find("condition 1"), std::string::npos) << bad.reason;

  // The correct legacy follows the role's traces (condition 1 holds); its
  // only Def.-4 deviation is the committed internal schedule (it refuses
  // interactions the role merely *may* take), surfacing as condition 2.
  Port good{"rearPort", "rearRole",
            *rc.bind("rearShipped").legacy.hidden};
  const auto traceOnly =
      checkPortRefinement(good, rearRole, rc.model.signals, rc.model.props,
                          automata::InteractionMode::AtMostOneSignal, true);
  EXPECT_TRUE(traceOnly.holds) << traceOnly.reason;
  const auto full =
      checkPortRefinement(good, rearRole, rc.model.signals, rc.model.props);
  EXPECT_FALSE(full.holds);
  EXPECT_NE(full.reason.find("condition 2"), std::string::npos) << full.reason;
}

}  // namespace
}  // namespace mui::muml

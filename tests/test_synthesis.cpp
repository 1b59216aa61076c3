// End-to-end tests of the iterative behavior-synthesis engine (the paper's
// core contribution): the RailCab scenario verdicts, journal invariants
// (strict learning progress, Thm. 2), partial learning, the key
// verdict-vs-ground-truth agreement property on random closed systems, and
// the multi-legacy extension.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <type_traits>

#include "automata/compose.hpp"
#include "automata/conformance.hpp"
#include "automata/flat_product.hpp"
#include "automata/random.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/parser.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "synthesis/initial.hpp"
#include "synthesis/report.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"

namespace mui::synthesis {
namespace {

using test::Tables;

TEST(InitialSynthesis, BuildsTrivialModel) {
  const test::Railcab rc;
  testing::AutomatonLegacy legacy(*rc.bind("rearShipped").legacy.hidden);
  const auto m = initialModel(legacy, rc.model.signals, rc.model.props);
  EXPECT_EQ(m.base().stateCount(), 1u);
  EXPECT_EQ(m.base().transitionCount(), 0u);
  EXPECT_EQ(m.forbiddenCount(), 0u);
  EXPECT_EQ(m.base().stateName(0), "noConvoy::default");
  EXPECT_TRUE(m.base().isInitial(0));
  EXPECT_TRUE(m.base().inputs() == legacy.inputs());
  EXPECT_TRUE(m.base().outputs() == legacy.outputs());
  // Labeled hierarchically for the pattern constraint.
  EXPECT_TRUE(rc.model.props->lookup("rearRole.noConvoy").has_value());
}

IntegrationConfig shuttleConfig(const test::Railcab& rc,
                                bool keepTraces = false) {
  IntegrationConfig cfg;
  cfg.property = rc.constraint();
  cfg.keepTraces = keepTraces;
  return cfg;
}

TEST(Shuttle, CorrectLegacyProvenCorrect) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  IntegrationVerifier verifier(front, legacy, shuttleConfig(rc));
  const auto res = verifier.run();
  EXPECT_EQ(res.verdict, Verdict::ProvenCorrect) << res.explanation;
  ASSERT_FALSE(res.journal.empty());
  EXPECT_TRUE(res.journal.back().checkPassed);

  // The learned model is observation conforming to the hidden behavior
  // (Def. 10) — the invariant behind Thm. 1 at every iteration.
  ASSERT_EQ(res.learnedModels.size(), 1u);
  const auto conf = automata::checkObservationConformance(
      res.learnedModels[0], legacy.hidden());
  EXPECT_TRUE(conf.conforms) << conf.reason;

  // Strict progress (Thm. 2): every non-final iteration learned something.
  for (std::size_t i = 0; i + 1 < res.journal.size(); ++i) {
    EXPECT_GT(res.journal[i].learnedFacts, 0u) << "iteration " << i;
  }
  EXPECT_GT(res.totalTestPeriods, 0u);
}

TEST(Shuttle, FaultyLegacyRealErrorViaFastConflictDetection) {
  const test::Railcab rc;
  const auto faulty = rc.bind("rearFaulty");
  const auto& front = faulty.scenario.context;
  testing::AutomatonLegacy legacy(*faulty.legacy.hidden);
  IntegrationVerifier verifier(front, legacy, shuttleConfig(rc, true));
  const auto res = verifier.run();
  ASSERT_EQ(res.verdict, Verdict::RealError) << res.explanation;
  // Listing 1.4: the conflict is detected within the synthesized behavior.
  EXPECT_NE(res.explanation.find("learned"), std::string::npos);
  // The witness pairs rear convoy mode with front noConvoy mode.
  EXPECT_NE(res.counterexampleText.find("convoy"), std::string::npos);
  EXPECT_NE(res.counterexampleText.find("noConvoy"), std::string::npos);
  // The journal contains rendered counterexamples and monitor logs
  // (Listings 1.1-1.3 artifacts).
  bool sawMonitorText = false;
  for (const auto& rec : res.journal) {
    if (rec.monitorText.find("[CurrentState]") != std::string::npos) {
      sawMonitorText = true;
    }
  }
  EXPECT_TRUE(sawMonitorText);
}

TEST(Shuttle, FirmwareLegacyBehavesLikeReference) {
  // The hand-written firmware drives to the same verdicts as the reference
  // automata (correct -> proven, faulty -> real error).
  const test::Railcab rc;
  const auto front = rc.bind("rearShipped").scenario.context;
  testing::FirmwareShuttleLegacy good(rc.model.signals, false);
  EXPECT_EQ(IntegrationVerifier(front, good, shuttleConfig(rc)).run().verdict,
            Verdict::ProvenCorrect);
  testing::FirmwareShuttleLegacy bad(rc.model.signals, true);
  EXPECT_EQ(IntegrationVerifier(front, bad, shuttleConfig(rc)).run().verdict,
            Verdict::RealError);
}

TEST(Shuttle, IterationLimitVerdict) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  auto cfg = shuttleConfig(rc);
  cfg.maxIterations = 1;
  const auto res = IntegrationVerifier(front, legacy, cfg).run();
  EXPECT_EQ(res.verdict, Verdict::IterationLimit);
}

TEST(Shuttle, UnsupportedPropertyShape) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  IntegrationConfig cfg;
  cfg.property = "EF ghost_state";  // fails; EF has no exact witness
  const auto res = IntegrationVerifier(front, legacy, cfg).run();
  EXPECT_EQ(res.verdict, Verdict::Unsupported);
}

// ---- Verdict agreement with ground truth on random closed systems ----------

// gtest names each case after a dump of this struct's bytes, so it has no
// padding: the explicit zero tail keeps the names the same in every build.
struct AgreementCase {
  std::uint64_t seed;
  std::uint64_t contextKeepPct;  // how much of the legacy the context uses
  bool injectProperty;
  std::uint8_t zeroTail[7] = {};
};
static_assert(std::has_unique_object_representations_v<AgreementCase>);

class VerdictAgreement : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(VerdictAgreement, MatchesDirectModelChecking) {
  const auto param = GetParam();
  Tables t;
  automata::RandomSpec spec;
  spec.states = 6;
  spec.inputs = 2;
  spec.outputs = 2;
  spec.densityPct = 40;
  spec.seed = param.seed;
  spec.name = "lg";
  const automata::Automaton hidden =
      automata::randomAutomaton(spec, t.signals, t.props);

  // Context: the I/O-mirrored twin of a random sub-behavior — it exercises
  // only part of the component, like a real integration context.
  const automata::Automaton context = automata::mirrored(
      automata::subAutomaton(hidden, param.contextKeepPct, param.seed + 5,
                             "lg_sub"),
      "ctx");

  IntegrationConfig cfg;
  if (param.injectProperty) {
    // Forbid the component's last state (reachable or not, per seed).
    cfg.property =
        "AG !lg.lg_q" + std::to_string(spec.states - 1);
  }

  // Ground truth: model check the context against the *hidden* automaton.
  const auto truth = ctl::verify(
      automata::compose(context, hidden).automaton,
      cfg.property.empty() ? nullptr : ctl::parseFormula(cfg.property), {});

  testing::AutomatonLegacy legacy(hidden);
  const auto res = IntegrationVerifier(context, legacy, cfg).run();
  ASSERT_TRUE(res.verdict == Verdict::ProvenCorrect ||
              res.verdict == Verdict::RealError)
      << res.explanation;
  EXPECT_EQ(res.verdict == Verdict::ProvenCorrect, truth.holds)
      << "seed " << param.seed << ": " << res.explanation;

  // Soundness invariant (Thm. 1): whatever was learned conforms.
  EXPECT_TRUE(automata::checkObservationConformance(res.learnedModels[0],
                                                    hidden)
                  .conforms);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VerdictAgreement,
    ::testing::Values(
        AgreementCase{1, 70, false}, AgreementCase{2, 70, false},
        AgreementCase{3, 40, false}, AgreementCase{4, 40, false},
        AgreementCase{5, 100, false}, AgreementCase{6, 100, true},
        AgreementCase{7, 70, true}, AgreementCase{8, 40, true},
        AgreementCase{9, 55, true}, AgreementCase{10, 85, false},
        AgreementCase{11, 85, true}, AgreementCase{12, 25, false}));

TEST(PartialLearning, RestrictedContextLearnsLessThanTheWholeComponent) {
  // The paper's headline benefit: with a restrictive context, the verdict
  // arrives after learning only part of the component.
  Tables t;
  automata::RandomSpec spec;
  spec.states = 12;
  spec.inputs = 2;
  spec.outputs = 2;
  spec.densityPct = 35;
  spec.seed = 31;
  spec.name = "lg";
  const automata::Automaton hidden =
      automata::randomAutomaton(spec, t.signals, t.props);
  const automata::Automaton context = automata::mirrored(
      automata::subAutomaton(hidden, 15, 99, "lg_sub"), "ctx");
  testing::AutomatonLegacy legacy(hidden);
  const auto res = IntegrationVerifier(context, legacy, {}).run();
  ASSERT_TRUE(res.verdict == Verdict::ProvenCorrect ||
              res.verdict == Verdict::RealError);
  const auto& learned = res.learnedModels[0].base();
  EXPECT_LT(learned.transitionCount(), hidden.transitionCount());
}

// ---- Multi-legacy extension (paper Sec. 7) ---------------------------------

TEST(MultiLegacy, TwoComponentsAgainstAJointContext) {
  Tables t;
  automata::RandomSpec specA;
  specA.states = 4;
  specA.inputs = 1;
  specA.outputs = 1;
  specA.seed = 3;
  specA.name = "la";
  automata::RandomSpec specB = specA;
  specB.seed = 4;
  specB.name = "lb";
  const auto hiddenA = automata::randomAutomaton(specA, t.signals, t.props);
  const auto hiddenB = automata::randomAutomaton(specB, t.signals, t.props);

  // Joint context: the composition of both mirrors.
  const auto mirrorA = automata::mirrored(hiddenA, "ca");
  const auto mirrorB = automata::mirrored(hiddenB, "cb");
  const auto context =
      automata::composeAll({&mirrorA, &mirrorB}).automaton;

  // Ground truth with both hidden components.
  const auto truth = ctl::verify(
      automata::composeAll({&context, &hiddenA, &hiddenB}).automaton, nullptr,
      {});

  testing::AutomatonLegacy legacyA(hiddenA);
  testing::AutomatonLegacy legacyB(hiddenB);
  IntegrationVerifier verifier(context, {&legacyA, &legacyB}, {});
  const auto res = verifier.run();
  ASSERT_TRUE(res.verdict == Verdict::ProvenCorrect ||
              res.verdict == Verdict::RealError)
      << res.explanation;
  EXPECT_EQ(res.verdict == Verdict::ProvenCorrect, truth.holds)
      << res.explanation;
  EXPECT_EQ(res.learnedModels.size(), 2u);
  EXPECT_TRUE(automata::checkObservationConformance(res.learnedModels[0],
                                                    hiddenA)
                  .conforms);
  EXPECT_TRUE(automata::checkObservationConformance(res.learnedModels[1],
                                                    hiddenB)
                  .conforms);
}

TEST(Strategies, SearchAndBatchVariantsAgreeOnTheVerdict) {
  // E7: depth-first search and multiple counterexamples per check are
  // performance knobs, not semantics — verdicts must not change.
  const test::Railcab rc;
  for (const bool faulty : {false, true}) {
    const auto binding = rc.bind(faulty ? "rearFaulty" : "rearShipped");
    const auto& front = binding.scenario.context;
    const auto& hidden = *binding.legacy.hidden;
    const Verdict expected =
        faulty ? Verdict::RealError : Verdict::ProvenCorrect;

    auto dfs = shuttleConfig(rc);
    dfs.search = ctl::CexSearch::DepthFirst;
    testing::AutomatonLegacy l1(hidden);
    EXPECT_EQ(IntegrationVerifier(front, l1, dfs).run().verdict, expected);

    auto batch = shuttleConfig(rc);
    batch.counterexamplesPerCheck = 4;
    testing::AutomatonLegacy l2(hidden);
    EXPECT_EQ(IntegrationVerifier(front, l2, batch).run().verdict, expected);

    auto exact = shuttleConfig(rc);
    exact.closureStyle = automata::ClosureStyle::PaperExact;
    testing::AutomatonLegacy l3(hidden);
    const auto res = IntegrationVerifier(front, l3, exact).run();
    // PaperExact may stall without progress (see DESIGN.md §6), but must
    // never produce a *wrong* verdict.
    if (res.verdict == Verdict::ProvenCorrect ||
        res.verdict == Verdict::RealError) {
      EXPECT_EQ(res.verdict, expected);
    }
  }
}

// ---- Pinned loop rounds ----------------------------------------------------

/// `count` random legacies "l0", "l1", ... from consecutive seeds and the
/// composition of their mirrors as the joint context, as
/// MultiLegacy.TwoComponentsAgainstAJointContext builds them.
struct MirroredLegacies {
  Tables t;
  std::vector<automata::Automaton> hidden;
  automata::Automaton context;

  MirroredLegacies(std::size_t count, std::uint64_t seed)
      : hidden(legacies(count, seed)), context(jointMirror()) {}

  std::vector<automata::Automaton> legacies(std::size_t count,
                                            std::uint64_t seed) const {
    std::vector<automata::Automaton> out;
    for (std::size_t k = 0; k < count; ++k) {
      automata::RandomSpec spec;
      spec.states = 4;
      spec.inputs = 1;
      spec.outputs = 1;
      spec.seed = seed + k;
      spec.name = "l" + std::to_string(k);
      out.push_back(automata::randomAutomaton(spec, t.signals, t.props));
    }
    return out;
  }

  [[nodiscard]] automata::Automaton jointMirror() const {
    std::vector<automata::Automaton> mirrors;
    for (std::size_t k = 0; k < hidden.size(); ++k) {
      mirrors.push_back(
          automata::mirrored(hidden[k], "c" + std::to_string(k)));
    }
    std::vector<const automata::Automaton*> parts;
    for (const auto& m : mirrors) parts.push_back(&m);
    return automata::composeAll(parts).automaton;
  }
};

/// Runs the loop on `context` and fresh legacies over `hidden` under the
/// default configuration, three counterexamples per check and depth-first
/// search, and appends the verdict, one line per round and every rendered
/// counterexample to `text`.
void recordLoopRounds(const std::string& scenario,
                      const automata::Automaton& context,
                      const std::vector<const automata::Automaton*>& hidden,
                      const std::string& property, std::string& text) {
  for (const char* variant : {"default", "cex3", "dfs"}) {
    IntegrationConfig cfg;
    cfg.property = property;
    cfg.keepTraces = true;
    if (std::string(variant) == "cex3") cfg.counterexamplesPerCheck = 3;
    if (std::string(variant) == "dfs") cfg.search = ctl::CexSearch::DepthFirst;
    std::vector<std::unique_ptr<testing::AutomatonLegacy>> owned;
    std::vector<testing::LegacyComponent*> legacies;
    for (const automata::Automaton* h : hidden) {
      owned.push_back(std::make_unique<testing::AutomatonLegacy>(*h));
      legacies.push_back(owned.back().get());
    }
    const auto res = IntegrationVerifier(context, legacies, cfg).run();
    text += scenario + " " + variant + ": " + verdictName(res.verdict) +
            " after " + std::to_string(res.iterations) + " iterations\n";
    for (const auto& rec : res.journal) {
      text += "  round " + std::to_string(rec.iteration) + ": productStates " +
              std::to_string(rec.productStates) + " statesNew " +
              std::to_string(rec.productStatesNew) + " closureStates " +
              std::to_string(rec.closureStates) + " cexKind " +
              (rec.checkPassed      ? "-"
               : rec.cexWasDeadlock ? "deadlock"
                                    : "property") +
              " cexLength " + std::to_string(rec.cexLength) +
              " learnedFacts " + std::to_string(rec.learnedFacts) +
              " testPeriods " + std::to_string(rec.testPeriods) + "\n";
      std::istringstream cex(rec.cexText);
      for (std::string line; std::getline(cex, line);) {
        text += "    " + line + "\n";
      }
    }
  }
}

/// The loop's rounds on two- and three-legacy scenarios and on the RailCab,
/// each under the default configuration, three counterexamples per check
/// and depth-first search: verdict, iterations, per round the product and
/// closure sizes, the counterexample's kind and length, the learned facts
/// and test periods, and every rendered counterexample. Regenerate (from
/// the repo root) with:
///   MUI_REGENERATE_GOLDENS=1 build/tests/mui_tests
///       --gtest_filter=SynthesisGolden.LoopRounds
TEST(SynthesisGolden, LoopRounds) {
  std::string text;
  for (const std::size_t count : {2, 3}) {
    for (const std::uint64_t seed : {3, 7, 11}) {
      const MirroredLegacies w(count, seed);
      std::vector<const automata::Automaton*> hidden;
      for (const auto& h : w.hidden) hidden.push_back(&h);
      const std::string scenario = std::to_string(count) + " legacies seed " +
                                   std::to_string(seed);
      recordLoopRounds(scenario, w.context, hidden, "", text);
      recordLoopRounds(scenario + " AG !l1.l1_q3", w.context, hidden,
                       "AG !l1.l1_q3", text);
    }
  }
  const test::Railcab rc;
  for (const char* legacy : {"rearShipped", "rearFaulty"}) {
    const auto binding = rc.bind(legacy);
    recordLoopRounds(std::string("railcab ") + legacy,
                     binding.scenario.context, {&*binding.legacy.hidden},
                     rc.constraint(), text);
  }
  test::expectGoldenLines("loop_rounds.txt", text);
}

/// The loop composes each round's learned states and every state of the
/// chaos region once per run: over the rounds of the two- and
/// three-legacy scenarios, mui_compose_product_states_new_total grows by
/// the learned states of each round's product plus the region states that
/// any round reaches. The expectation is counted on the full products of
/// the models each round checks (the models after r rounds are those of a
/// run stopped after r iterations).
TEST(SynthesisLoop, ComposesTheChaosRegionOncePerRun) {
  obs::Counter& built = obs::Registry::global().counter(
      "mui_compose_product_states_new_total", "Product states built");
  std::size_t rounds = 0;
  for (const std::size_t count : {2, 3}) {
    for (const std::uint64_t seed : {3, 7, 11}) {
      for (const char* property : {"", "AG !l1.l1_q3"}) {
        const MirroredLegacies w(count, seed);
        SCOPED_TRACE(std::to_string(count) + " legacies seed " +
                     std::to_string(seed) + " '" + property + "'");
        const auto run = [&](std::size_t maxIterations) {
          std::vector<std::unique_ptr<testing::AutomatonLegacy>> owned;
          std::vector<testing::LegacyComponent*> legacies;
          for (const auto& h : w.hidden) {
            owned.push_back(std::make_unique<testing::AutomatonLegacy>(h));
            legacies.push_back(owned.back().get());
          }
          IntegrationConfig cfg;
          cfg.property = property;
          cfg.maxIterations = maxIterations;
          return IntegrationVerifier(w.context, legacies, cfg).run();
        };
        const std::uint64_t before = built.value();
        const IntegrationResult res = run(100000);
        const std::uint64_t got = built.value() - before;
        ASSERT_GT(res.iterations, 1u);

        std::vector<std::vector<automata::Interaction>> alphabets;
        for (const auto& h : w.hidden) {
          alphabets.push_back(automata::makeAlphabet(
              h.inputs(), h.outputs(),
              automata::InteractionMode::AtMostOneSignal));
        }
        std::size_t learned = 0;
        std::set<std::vector<automata::StateId>> region;
        for (std::size_t r = 0; r < res.iterations; ++r) {
          const IntegrationResult upTo = run(r);
          std::vector<const automata::Automaton*> interfaces{&w.context};
          for (const auto& m : upTo.learnedModels) {
            interfaces.push_back(&m.base());
          }
          const std::size_t stride = automata::strideFor(interfaces);
          const automata::AutomatonComponent ctx(w.context, stride);
          std::vector<automata::VirtualClosure> views;
          std::vector<const automata::FlatComponent*> parts{&ctx};
          for (std::size_t k = 0; k < count; ++k) {
            views.emplace_back(upTo.learnedModels[k], alphabets[k],
                               automata::ClosureStyle::DeterministicTarget,
                               stride);
          }
          for (const auto& v : views) parts.push_back(&v);
          const automata::FlatProduct full = automata::composeFlat(parts);
          for (automata::StateId p = 0; p < full.stateCount(); ++p) {
            std::vector<automata::StateId> row{full.origin(p, 0)};
            for (std::size_t k = 0; k < count; ++k) {
              const automata::StateId q = full.origin(p, k + 1);
              if (!views[k].isChaos(q)) break;
              row.push_back(q - views[k].sAll());
            }
            if (row.size() == count + 1) {
              region.insert(row);
            } else {
              ++learned;
            }
          }
        }
        EXPECT_EQ(got, learned + region.size());
        rounds += res.iterations;
      }
    }
  }
  EXPECT_GT(rounds, 50u);
}

}  // namespace
}  // namespace mui::synthesis

// The semantic static-analysis tier (analysis/semantic.hpp): verdict
// pre-solving differentially against the concrete model checker, the MUI1xx
// rules over the shipped models and purpose-built fixtures, `allow`
// suppression, and the SARIF rendering of related-location chains —
// including the invalid-UTF-8 regression for the centralized JSON escaper.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/render.hpp"
#include "analysis/semantic.hpp"
#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "fuzz/scenario.hpp"
#include "helpers.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"

namespace {

using namespace mui;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Loads a shipped model under its repo-relative virtual path so source
/// locations (and therefore SARIF output) are machine-independent.
muml::Model loadShipped(const std::string& name) {
  return muml::loadModel(readFile(std::string(MUI_MODELS_DIR) + "/" + name),
                         "models/" + name);
}

std::size_t countRule(const analysis::Report& report, const char* ruleId) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics) {
    if (d.ruleId == ruleId) ++n;
  }
  return n;
}

const analysis::Diagnostic* findDiag(const analysis::Report& report,
                                     const char* ruleId,
                                     const std::string& subject) {
  for (const auto& d : report.diagnostics) {
    if (d.ruleId == ruleId && d.subject == subject) return &d;
  }
  return nullptr;
}

// ---- Pre-solving: definitive verdicts on the shipped models ----------------

struct PresolveCase {
  const char* hidden;
  const char* property;  // nullptr = the scenario's derived property
  analysis::PresolveVerdict expected;
};

analysis::PresolveOutcome presolveWatchdogDevice(const muml::Model& model,
                                                 const char* hidden,
                                                 const char* propertyOverride) {
  const auto binding =
      muml::bindIntegration(model, "Watchdog", "device", hidden);
  return analysis::presolveIntegration(
      binding.scenario.context, *binding.legacy.hidden,
      propertyOverride != nullptr ? propertyOverride
                                  : binding.scenario.property);
}

TEST(Presolve, DecidesTheWatchdogCampaignStatically) {
  const muml::Model model = loadShipped("watchdog.muml");
  const PresolveCase cases[] = {
      // The derived property conjoins the device role's bounded AF response
      // invariant — outside the AG-safety fragment, so the good devices
      // fall through to the refinement loop...
      {"deviceCompliant", nullptr, analysis::PresolveVerdict::Skipped},
      {"deviceSlow", nullptr, analysis::PresolveVerdict::Skipped},
      // ...but one violated AG conjunct refutes the whole conjunction.
      {"deviceCrawl", nullptr, analysis::PresolveVerdict::Refuted},
      {"deviceMute", nullptr, analysis::PresolveVerdict::Refuted},
      {"deviceDeaf", nullptr, analysis::PresolveVerdict::Refuted},
      // The pure AG constraint is decidable both ways.
      {"deviceCompliant", "AG !monitor.escalated",
       analysis::PresolveVerdict::Proved},
      {"deviceCrawl", "AG !monitor.escalated",
       analysis::PresolveVerdict::Refuted},
  };
  for (const auto& c : cases) {
    const auto outcome = presolveWatchdogDevice(model, c.hidden, c.property);
    EXPECT_EQ(outcome.verdict, c.expected)
        << c.hidden << " / " << (c.property ? c.property : "<derived>")
        << ": " << outcome.explanation;
    if (c.expected == analysis::PresolveVerdict::Proved) {
      EXPECT_EQ(outcome.ruleId, analysis::kStaticallyProven);
      EXPECT_GT(outcome.productStates, 0u);
    }
    if (c.expected == analysis::PresolveVerdict::Refuted) {
      EXPECT_EQ(outcome.ruleId, analysis::kGuaranteedViolation);
      EXPECT_NE(outcome.explanation.find("real error"), std::string::npos);
    }
  }
}

/// The in-process mirror of fuzz oracle O6, swept over every (pattern, role,
/// composable automaton) combination of both shipped models: a definitive
/// pre-solve verdict must agree with ctl::verify on the concrete product.
TEST(Presolve, AgreesWithConcreteVerificationOnShippedModels) {
  std::size_t definitive = 0;
  for (const char* name : {"watchdog.muml", "railcab.muml"}) {
    const muml::Model model = loadShipped(name);
    for (const auto& [patternName, pattern] : model.patterns) {
      for (std::size_t r = 0; r < pattern.roles.size(); ++r) {
        const auto scenario = muml::makeIntegrationScenario(
            pattern, r, model.signals, model.props);
        for (const auto& [candName, cand] : model.automata) {
          const automata::Automaton stub =
              automata::withInstanceName(cand, pattern.roles[r].name);
          if (!scenario.context.composableWith(stub)) continue;
          const auto pre = analysis::presolveIntegration(
              scenario.context, stub, scenario.property);
          if (pre.verdict == analysis::PresolveVerdict::Skipped) continue;
          ++definitive;
          const ctl::FormulaPtr phi =
              scenario.property.empty()
                  ? nullptr
                  : ctl::parseFormula(scenario.property);
          const bool truth =
              ctl::verify(automata::compose(stub, scenario.context).automaton,
                          phi, {})
                  .holds;
          EXPECT_EQ(pre.verdict == analysis::PresolveVerdict::Proved, truth)
              << name << " " << patternName << "/"
              << pattern.roles[r].name << " hidden=" << candName << ": "
              << pre.explanation;
        }
      }
    }
  }
  EXPECT_GT(definitive, 0u) << "the sweep never produced a definitive "
                               "verdict — the pre-solver is vacuous";
}

TEST(Presolve, NeverThrowsOnGarbageProperty) {
  const muml::Model model = loadShipped("watchdog.muml");
  const auto outcome =
      presolveWatchdogDevice(model, "deviceCompliant", "AG (((");
  EXPECT_EQ(outcome.verdict, analysis::PresolveVerdict::Skipped);
  EXPECT_NE(outcome.explanation.find("parse"), std::string::npos);
}

// ---- Pre-solving under a state cap -----------------------------------------
//
// SemanticOptions::stateCap admits the first `stateCap` product states in
// breadth-first order; edges to any further state are dropped, and the
// admitted states are still expanded. A violation inside that prefix still
// refutes; anything that needs the whole product is skipped.

analysis::PresolveOutcome presolveCapped(const char* modelFile,
                                         const char* pattern,
                                         const char* role, const char* hidden,
                                         const char* propertyOverride,
                                         std::size_t cap) {
  const muml::Model model = loadShipped(modelFile);
  const auto binding = muml::bindIntegration(model, pattern, role, hidden);
  analysis::SemanticOptions opts;
  opts.stateCap = cap;
  return analysis::presolveIntegration(
      binding.scenario.context, *binding.legacy.hidden,
      propertyOverride != nullptr ? propertyOverride
                                  : binding.scenario.property,
      opts);
}

std::string capMessage(std::size_t cap) {
  return "state cap (" + std::to_string(cap) +
         ") exceeded before a definitive verdict";
}

TEST(Presolve, StateCapRefutesAViolationInsideTheAdmittedPrefix) {
  // deviceCrawl's product has 8 states; the violation sits at depth 3,
  // inside the first 6.
  EXPECT_EQ(presolveCapped("watchdog.muml", "Watchdog", "device",
                           "deviceCrawl", nullptr, 50000)
                .productStates,
            8u);
  const auto crawl = presolveCapped("watchdog.muml", "Watchdog", "device",
                                    "deviceCrawl", nullptr, 6);
  EXPECT_EQ(crawl.verdict, analysis::PresolveVerdict::Refuted);
  EXPECT_EQ(crawl.ruleId, analysis::kGuaranteedViolation);
  EXPECT_EQ(crawl.productStates, 6u);
  EXPECT_EQ(crawl.explanation,
            "presolved: real error - reachable state 'escalated@2|busy3' "
            "(depth 3) violates 'AG (!(monitor.escalated))'");

  const auto faulty =
      presolveCapped("railcab.muml", "DistanceCoordination", "rearRole",
                     "rearFaulty", nullptr, 4);
  EXPECT_EQ(faulty.verdict, analysis::PresolveVerdict::Refuted);
  EXPECT_EQ(faulty.productStates, 4u);
  EXPECT_EQ(faulty.explanation,
            "presolved: real error - reachable state "
            "'noConvoy::answer@0|convoy::default' (depth 2) violates "
            "'AG (!((rearRole.convoy && frontRole.noConvoy)))'");

  // One state short of the witness: nothing to refute, nothing to prove.
  const auto shorter = presolveCapped("watchdog.muml", "Watchdog", "device",
                                      "deviceCrawl", nullptr, 5);
  EXPECT_EQ(shorter.verdict, analysis::PresolveVerdict::Skipped);
  EXPECT_EQ(shorter.explanation, capMessage(5));
}

TEST(Presolve, StateCapSkipsASafePropertyTheCapCutsShort) {
  // rearShipped's product has 22 states and satisfies the AG constraint.
  const char* safe = "AG !(rearRole.convoy && frontRole.noConvoy)";
  for (const std::size_t cap : {1u, 6u, 21u}) {
    const auto out = presolveCapped("railcab.muml", "DistanceCoordination",
                                    "rearRole", "rearShipped", safe, cap);
    EXPECT_EQ(out.verdict, analysis::PresolveVerdict::Skipped) << cap;
    EXPECT_EQ(out.explanation, capMessage(cap));
    EXPECT_EQ(out.productStates, cap);
  }
  const auto whole = presolveCapped("railcab.muml", "DistanceCoordination",
                                    "rearRole", "rearShipped", safe, 22);
  EXPECT_EQ(whole.verdict, analysis::PresolveVerdict::Proved);
  EXPECT_EQ(whole.productStates, 22u);
}

TEST(Presolve, StateCapSkipsDeadlockFreedomAlthoughCutStatesHaveNoEdges) {
  // States whose successors all lie past the cap keep no edges; they must
  // not be taken for deadlocks.
  for (const std::size_t cap : {1u, 6u, 21u}) {
    const auto out = presolveCapped("railcab.muml", "DistanceCoordination",
                                    "rearRole", "rearShipped", "", cap);
    EXPECT_EQ(out.verdict, analysis::PresolveVerdict::Skipped) << cap;
    EXPECT_EQ(out.explanation, capMessage(cap));
    EXPECT_EQ(out.productStates, cap);
  }
  const auto whole = presolveCapped("railcab.muml", "DistanceCoordination",
                                    "rearRole", "rearShipped", "", 22);
  EXPECT_EQ(whole.verdict, analysis::PresolveVerdict::Proved);
  EXPECT_EQ(whole.explanation,
            "presolved: proven - deadlock freedom holds on all 22 reachable "
            "product states");
}

/// A one-role pattern: its role composition is the role automaton wrapped
/// as is (3 states), with a silent cycle s1 ↔ s2 that cannot be left.
constexpr const char* kSpinModel = R"(
rtsc spinRole {
  output tick;
  location s0;
  location s1;
  location s2;
  initial s0;
  s0 -> s1 : emit tick;
  s1 -> s2 : ;
  s2 -> s1 : ;
}
pattern Solo {
  role r uses spinRole;
  connector direct;
}
)";

TEST(Presolve, StateCapRunSemanticKeepsRefutationsAndDropsCappedFindings) {
  const muml::Model watchdog = loadShipped("watchdog.muml");
  const auto full = analysis::runSemantic(watchdog);
  ASSERT_NE(findDiag(full, analysis::kLivelockScc, "deviceMute"), nullptr);

  // Cap 6: deviceMute's 10-state product is cut, so its livelock goes; the
  // three refutations lie inside their prefixes and keep their messages.
  // The 6-state role composition is not over the cap and keeps MUI104.
  analysis::SemanticOptions six;
  six.stateCap = 6;
  const auto capped6 =
      analysis::runSemantic(watchdog, analysis::RuleSet::all(), six);
  for (const char* bad : {"deviceCrawl", "deviceMute", "deviceDeaf"}) {
    const auto* d = findDiag(capped6, analysis::kGuaranteedViolation, bad);
    const auto* ref = findDiag(full, analysis::kGuaranteedViolation, bad);
    ASSERT_NE(d, nullptr) << bad;
    ASSERT_NE(ref, nullptr) << bad;
    EXPECT_EQ(d->message, ref->message) << bad;
  }
  EXPECT_EQ(countRule(capped6, analysis::kLivelockScc), 0u);
  EXPECT_NE(findDiag(capped6, analysis::kDeadTransition, "Watchdog"),
            nullptr);

  // Cap 5 cuts the role composition too: no MUI104 for it.
  analysis::SemanticOptions five;
  five.stateCap = 5;
  const auto capped5 =
      analysis::runSemantic(watchdog, analysis::RuleSet::all(), five);
  EXPECT_EQ(countRule(capped5, analysis::kDeadTransition), 0u);
  EXPECT_EQ(countRule(capped5, analysis::kLivelockScc), 0u);
  EXPECT_NE(findDiag(capped5, analysis::kGuaranteedViolation, "deviceDeaf"),
            nullptr);

  // A one-role pattern over the cap: no livelock finding either.
  const muml::Model spin = muml::loadModel(kSpinModel, "spin.muml");
  EXPECT_NE(findDiag(analysis::runSemantic(spin), analysis::kLivelockScc,
                     "Solo"),
            nullptr);
  analysis::SemanticOptions three;
  three.stateCap = 3;
  EXPECT_NE(findDiag(analysis::runSemantic(spin, analysis::RuleSet::all(),
                                           three),
                     analysis::kLivelockScc, "Solo"),
            nullptr);
  analysis::SemanticOptions two;
  two.stateCap = 2;
  EXPECT_EQ(countRule(analysis::runSemantic(spin, analysis::RuleSet::all(),
                                            two),
                      analysis::kLivelockScc),
            0u);
}

// ---- The MUI1xx rules over the shipped models ------------------------------

TEST(Semantic, WatchdogFindings) {
  const muml::Model model = loadShipped("watchdog.muml");
  const auto report = analysis::runSemantic(model);

  // The three faulty devices pre-solve to real-error (MUI102), each with a
  // dominator must-pass chain and the iteration-0 chaos note.
  for (const char* bad : {"deviceCrawl", "deviceMute", "deviceDeaf"}) {
    const auto* d = findDiag(report, analysis::kGuaranteedViolation, bad);
    ASSERT_NE(d, nullptr) << bad;
    EXPECT_EQ(d->severity, analysis::Severity::Note);
    EXPECT_FALSE(d->related.empty()) << bad;
    bool hasChaosNote = false;
    for (const auto& note : d->related) {
      if (note.message.find("chaotic closure") != std::string::npos) {
        hasChaosNote = true;
      }
    }
    EXPECT_TRUE(hasChaosNote) << bad;
  }

  // deviceMute spins silently in escalated‖dead forever: a livelock SCC.
  EXPECT_NE(findDiag(report, analysis::kLivelockScc, "deviceMute"), nullptr);

  // The monitor's escalated self-loop never fires in the two-role protocol
  // composition (the compliant protocol device always answers in time).
  EXPECT_GE(countRule(report, analysis::kDeadTransition), 1u);

  // The good devices must NOT be flagged as guaranteed violations.
  EXPECT_EQ(findDiag(report, analysis::kGuaranteedViolation,
                     "deviceCompliant"),
            nullptr);
  EXPECT_EQ(findDiag(report, analysis::kGuaranteedViolation, "deviceSlow"),
            nullptr);
}

TEST(Semantic, RuleSetDisablingRemovesFindings) {
  const muml::Model model = loadShipped("watchdog.muml");
  auto rules = analysis::RuleSet::all();
  rules.disable(analysis::kGuaranteedViolation);
  rules.disable(analysis::kLivelockScc);
  const auto report = analysis::runSemantic(model, rules);
  EXPECT_EQ(countRule(report, analysis::kGuaranteedViolation), 0u);
  EXPECT_EQ(countRule(report, analysis::kLivelockScc), 0u);
}

// ---- Purpose-built fixtures: MUI101 proofs, MUI105 gaps, suppression -------

/// A pattern whose context declares a signal (`halt`) that no reachable
/// context transition ever emits, plus a stub that triggers on it: the
/// composition is deadlock-free (MUI101 proves it — there is no constraint,
/// so the obligation is ¬δ alone) but the halt handling is flow-dead
/// (MUI105 + MUI104).
constexpr const char* kFlowGapModel = R"(
rtsc aRole {
  output go; output halt;
  location s0;
  initial s0;
  s0 -> s0 : emit go;
}
rtsc bRole {
  input go; input halt;
  location t0;
  initial t0;
  t0 -> t0 : trigger go;
}
pattern Ping {
  role a uses aRole;
  role b uses bRole;
  connector direct;
}
automaton bStub {
  input go; input halt;
  initial t0;
  t0 -> t0 : go / ;
  t0 -> t1 : halt / ;
  t1 -> t1 : ;
}
)";

TEST(Semantic, ProvesAndFlagsFlowGapsOnFixture) {
  const muml::Model model = muml::loadModel(kFlowGapModel, "flowgap.muml");
  const auto report = analysis::runSemantic(model);

  const auto* proof = findDiag(report, analysis::kStaticallyProven, "bStub");
  ASSERT_NE(proof, nullptr);
  EXPECT_NE(proof->message.find("deadlock freedom"), std::string::npos);
  EXPECT_FALSE(proof->related.empty());

  const auto* gap = findDiag(report, analysis::kInterfaceGap, "bStub");
  ASSERT_NE(gap, nullptr);
  EXPECT_NE(gap->message.find("halt"), std::string::npos);

  // The halt transition of the stub fires in no reachable product step.
  EXPECT_NE(findDiag(report, analysis::kDeadTransition, "bStub"), nullptr);
}

TEST(Semantic, AllowClausesSuppressSemanticFindings) {
  std::string text = kFlowGapModel;
  const std::string marker = "input go; input halt;\n  initial t0;";
  const auto pos = text.find(marker);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + marker.size() - std::string("initial t0;").size(),
              "allow MUI101; allow MUI104; allow MUI105;\n  ");
  const muml::Model model = muml::loadModel(text, "flowgap.muml");
  const auto report = analysis::runSemantic(model);
  EXPECT_EQ(countRule(report, analysis::kStaticallyProven), 0u);
  EXPECT_EQ(findDiag(report, analysis::kInterfaceGap, "bStub"), nullptr);
  EXPECT_GE(report.suppressed, 3u);
}

// ---- Rendering: related chains and the invalid-UTF-8 regression ------------

TEST(SemanticRender, RelatedNotesAppearInTextAndSarif) {
  const muml::Model model = loadShipped("watchdog.muml");
  const auto report = analysis::runSemantic(model);
  const std::string text = analysis::renderText(report);
  EXPECT_NE(text.find("note: every path to the violation passes through"),
            std::string::npos);
  const std::string sarif = analysis::writeSarif(report);
  EXPECT_NE(sarif.find("\"relatedLocations\""), std::string::npos);
}

TEST(SemanticRender, SarifSurvivesInvalidUtf8StateNames) {
  // State names straight out of a hostile model file: an overlong sequence,
  // a lone continuation byte, an embedded quote and a control character.
  const std::string evil = std::string("state\xC0\xAF\"\x01\x80name");
  analysis::Report report;
  analysis::Diagnostic d;
  d.ruleId = analysis::kGuaranteedViolation;
  d.severity = analysis::Severity::Note;
  d.subject = evil;
  d.message = "witness '" + evil + "' violates the constraint";
  d.related.push_back({"every path passes through '" + evil + "'", {}});
  report.diagnostics.push_back(d);

  const std::string sarif = analysis::writeSarif(report);
  // The escaper replaces ill-formed sequences with U+FFFD escapes and never
  // lets raw control bytes or unescaped quotes through.
  EXPECT_NE(sarif.find("\\ufffd"), std::string::npos);
  EXPECT_EQ(sarif.find('\x01'), std::string::npos);
  EXPECT_EQ(sarif.find('\xC0'), std::string::npos);
  EXPECT_EQ(sarif.find("state\xC0"), std::string::npos);
  EXPECT_NE(sarif.find("\\\""), std::string::npos);
}

// ---- Crash-freedom over the corpus and golden SARIF snapshots --------------

TEST(Semantic, AnalyzesEveryCorpusReproducerWithoutCrashing) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(MUI_CORPUS_DIR)) {
    if (entry.path().extension() != ".muml") continue;
    ++seen;
    const muml::Model model =
        muml::loadModel(readFile(entry.path().string()),
                        entry.path().filename().string());
    const auto report = analysis::runSemantic(model);
    (void)analysis::writeSarif(report);
    (void)analysis::renderText(report);
  }
  EXPECT_GT(seen, 0u) << "corpus directory is empty";
}

/// Full `mui analyze`-equivalent SARIF for the shipped models, pinned as
/// golden files. Regenerate (from the repo root) with:
///   build/tools/mui analyze models/watchdog.muml --format json
///       > tests/golden/watchdog.analysis.sarif   (same for railcab)
void expectGoldenSarif(const std::string& modelFile,
                       const std::string& goldenFile) {
  const muml::Model model = loadShipped(modelFile);
  analysis::Report report = analysis::run(model);
  analysis::Report semantic = analysis::runSemantic(model);
  for (auto& d : semantic.diagnostics) {
    report.diagnostics.push_back(std::move(d));
  }
  const std::string golden =
      readFile(std::string(MUI_GOLDEN_DIR) + "/" + goldenFile);
  EXPECT_EQ(analysis::writeSarif(report), golden)
      << "SARIF drift for " << modelFile
      << " — if intentional, regenerate tests/golden/" << goldenFile;
}

TEST(SemanticGolden, WatchdogSarifSnapshot) {
  expectGoldenSarif("watchdog.muml", "watchdog.analysis.sarif");
}

TEST(SemanticGolden, RailcabSarifSnapshot) {
  expectGoldenSarif("railcab.muml", "railcab.analysis.sarif");
}

/// presolveIntegration on the seeded fuzz scenarios 1-200, at the default
/// cap and at cap 5: verdict, rule, product size and explanation (witness
/// names and depths included), one line per run. Regenerate (from the repo
/// root) with:
///   MUI_REGENERATE_GOLDENS=1 build/tests/mui_tests
///       --gtest_filter=SemanticGolden.PresolveOnFuzzScenarios
TEST(SemanticGolden, PresolveOnFuzzScenarios) {
  std::string text;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const fuzz::Scenario s = fuzz::generateScenario(seed);
    for (const std::size_t cap :
         {analysis::SemanticOptions{}.stateCap, std::size_t{5}}) {
      analysis::SemanticOptions opts;
      opts.stateCap = cap;
      const auto pre =
          analysis::presolveIntegration(s.context, s.hidden, s.property, opts);
      text += "seed " + std::to_string(seed) + " cap " + std::to_string(cap) +
              ": " + analysis::presolveVerdictName(pre.verdict) + " " +
              (pre.ruleId.empty() ? "-" : pre.ruleId) + " states " +
              std::to_string(pre.productStates) + ": " + pre.explanation +
              "\n";
    }
  }
  test::expectGoldenLines("presolve_fuzz.txt", text);
}

}  // namespace

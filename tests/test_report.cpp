// synthesis/report.hpp: verdict names, and golden-string tests pinning the
// exact journal/summary rendering (the examples and the batch report lean
// on this shape staying stable).

#include <gtest/gtest.h>

#include <string>

#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/report.hpp"
#include "synthesis/verifier.hpp"
#include "testing/subprocess.hpp"

namespace {

using namespace mui;
using synthesis::IntegrationResult;
using synthesis::IterationRecord;
using synthesis::Verdict;

TEST(VerdictName, CoversEveryVerdict) {
  EXPECT_STREQ(synthesis::verdictName(Verdict::ProvenCorrect), "proven");
  EXPECT_STREQ(synthesis::verdictName(Verdict::RealError), "real-error");
  EXPECT_STREQ(synthesis::verdictName(Verdict::IterationLimit), "iter-limit");
  EXPECT_STREQ(synthesis::verdictName(Verdict::Unsupported), "unsupported");
  EXPECT_STREQ(synthesis::verdictName(Verdict::Cancelled), "cancelled");
}

/// A fabricated two-iteration run: a deadlock counterexample in iteration
/// 1, a passing check in iteration 2.
IntegrationResult provenRun() {
  IntegrationResult res;
  res.verdict = Verdict::ProvenCorrect;
  res.explanation = "closed model satisfies the property";
  res.iterations = 2;
  res.totalTestPeriods = 4;
  res.totalLearnedFacts = 2;

  IterationRecord it1;
  it1.iteration = 1;
  it1.modelStates = 1;
  it1.closureStates = 2;
  it1.productStates = 6;
  it1.cexWasDeadlock = true;
  it1.cexLength = 3;
  it1.testPeriods = 4;
  it1.learnedFacts = 2;
  res.journal.push_back(it1);

  IterationRecord it2;
  it2.iteration = 2;
  it2.modelStates = 3;
  it2.modelTransitions = 2;
  it2.modelForbidden = 1;
  it2.closureStates = 4;
  it2.productStates = 12;
  it2.checkPassed = true;
  res.journal.push_back(it2);
  return res;
}

TEST(RenderJournal, GoldenProvenRun) {
  const std::string expected =
      "iter  model S/T/F  closure S  product S  cex       cex len  "
      "test periods  learned\n"
      "----  -----------  ---------  ---------  --------  -------  "
      "------------  -------\n"
      "1     1/0/0        2          6          deadlock  3        "
      "4             2\n"
      "2     3/2/1        4          12         -         0        "
      "0             0\n";
  EXPECT_EQ(synthesis::renderJournal(provenRun()), expected);
}

TEST(RenderSummary, GoldenProvenRun) {
  EXPECT_EQ(synthesis::renderSummary(provenRun()),
            "verdict: proven (closed model satisfies the property) after 2 "
            "iterations, 4 test periods, 2 learned facts; learned model(s): "
            "0 states, 0 transitions, 0 refusals\n");
}

TEST(RenderSummary, GoldenRealErrorRunWithUnknownAtoms) {
  IntegrationResult res;
  res.verdict = Verdict::RealError;
  res.explanation = "realizable property violation";
  res.iterations = 3;
  res.totalTestPeriods = 5;
  res.totalLearnedFacts = 4;
  res.unknownAtoms = {"device.typo"};
  EXPECT_EQ(synthesis::renderSummary(res),
            "verdict: real-error (realizable property violation) after 3 "
            "iterations, 5 test periods, 4 learned facts; learned model(s): "
            "0 states, 0 transitions, 0 refusals\n"
            "WARNING: property atoms matching no proposition: device.typo\n");
}

TEST(RenderJournal, PropertyCexRowSaysProperty) {
  IntegrationResult res;
  IterationRecord rec;
  rec.iteration = 1;
  rec.cexWasDeadlock = false;
  rec.cexLength = 2;
  res.journal.push_back(rec);
  EXPECT_NE(synthesis::renderJournal(res).find("property"), std::string::npos);
}

// Smoke over a real run: the shipped watchdog scenario with the compliant
// device renders a journal with the pinned header and a proven summary.
TEST(Report, RealWatchdogRunRendersProven) {
  const auto model =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  auto binding =
      muml::bindIntegration(model, "Watchdog", "device", "deviceCompliant");
  const auto legacy =
      mui::testing::makeLegacy(model, std::move(binding.legacy));
  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  const auto res =
      synthesis::runIntegration(binding.scenario.context, *legacy, cfg);
  ASSERT_EQ(res.verdict, Verdict::ProvenCorrect);
  EXPECT_EQ(synthesis::renderJournal(res).rfind("iter  model S/T/F", 0), 0u);
  EXPECT_EQ(synthesis::renderSummary(res).rfind("verdict: proven (", 0), 0u);
}

}  // namespace

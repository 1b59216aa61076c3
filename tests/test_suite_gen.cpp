// Tests for systematic component-test generation (paper abstract): the
// integration loop records every executed counterexample test; the suite
// acts as a regression oracle for the component.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "util/parse.hpp"
#include "synthesis/test_suite.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"

namespace mui::synthesis {
namespace {

using test::Tables;

ComponentTestSuite recordFromCorrectRun(const test::Railcab& rc) {
  testing::FirmwareShuttleLegacy firmware(rc.model.signals, false);
  IntegrationConfig cfg;
  cfg.property = rc.constraint();
  cfg.recordTests = true;
  const auto res = IntegrationVerifier(rc.bind("rearShipped").scenario.context,
                                       firmware, cfg)
                       .run();
  EXPECT_EQ(res.verdict, Verdict::ProvenCorrect);
  EXPECT_EQ(res.recordedTests.size(), 1u);
  return res.recordedTests[0];
}

TEST(TestSuiteGen, RecordsEveryExecutedTest) {
  const test::Railcab rc;
  const auto suite = recordFromCorrectRun(rc);
  ASSERT_GT(suite.size(), 0u);
  // Names carry the iteration and the counterexample kind.
  EXPECT_NE(suite.tests[0].name.find("iter"), std::string::npos);
  // Rendering mentions the monitored states.
  const std::string text = renderSuite(suite, *rc.model.signals);
  EXPECT_NE(text.find("noConvoy"), std::string::npos);
}

TEST(TestSuiteGen, SameRevisionPassesTheSuite) {
  const test::Railcab rc;
  const auto suite = recordFromCorrectRun(rc);
  testing::FirmwareShuttleLegacy again(rc.model.signals, false);
  const auto run = runSuite(suite, again, *rc.model.signals);
  EXPECT_TRUE(run.allPassed())
      << (run.failures.empty() ? "" : run.failures[0]);
  EXPECT_EQ(run.passed, suite.size());
}

TEST(TestSuiteGen, RegressionIsDetected) {
  // The faulty revision must fail the suite recorded from the shipped one —
  // without re-running verification.
  const test::Railcab rc;
  const auto suite = recordFromCorrectRun(rc);
  testing::FirmwareShuttleLegacy regressed(rc.model.signals, true);
  const auto run = runSuite(suite, regressed, *rc.model.signals);
  EXPECT_FALSE(run.allPassed());
  EXPECT_LT(run.passed, suite.size());
  // The failure message points at the first divergence.
  ASSERT_FALSE(run.failures.empty());
  EXPECT_NE(run.failures[0].find("iter"), std::string::npos);
}

TEST(TestSuiteGen, AutomatonBackedComponentsWorkToo) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  IntegrationConfig cfg;
  cfg.property = rc.constraint();
  cfg.recordTests = true;
  const auto res =
      IntegrationVerifier(shipped.scenario.context, legacy, cfg).run();
  ASSERT_EQ(res.verdict, Verdict::ProvenCorrect);
  const auto& suite = res.recordedTests[0];
  // The reference automaton implements the same behavior as the firmware:
  // it passes the suite recorded from its own run...
  testing::AutomatonLegacy again(*shipped.legacy.hidden);
  EXPECT_TRUE(runSuite(suite, again, *rc.model.signals).allPassed());
  // ... and the firmware (behaviorally identical) passes it as well.
  testing::FirmwareShuttleLegacy fw(rc.model.signals, false);
  EXPECT_TRUE(runSuite(suite, fw, *rc.model.signals).allPassed());
}

TEST(TestSuiteGen, SerializationRoundTrip) {
  const test::Railcab rc;
  const auto suite = recordFromCorrectRun(rc);
  const std::string text = writeSuite(suite, *rc.model.signals);
  const auto parsed = parseSuite(text, *rc.model.signals);
  ASSERT_EQ(parsed.size(), suite.size());
  // Structural identity...
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(parsed.tests[i].name, suite.tests[i].name);
    EXPECT_EQ(parsed.tests[i].expectedKind, suite.tests[i].expectedKind);
    EXPECT_EQ(parsed.tests[i].steps.size(), suite.tests[i].steps.size());
    for (std::size_t j = 0; j < suite.tests[i].steps.size(); ++j) {
      EXPECT_EQ(parsed.tests[i].steps[j], suite.tests[i].steps[j]);
    }
    EXPECT_EQ(parsed.tests[i].expected.stateNames,
              suite.tests[i].expected.stateNames);
    EXPECT_EQ(parsed.tests[i].expected.blocked,
              suite.tests[i].expected.blocked);
  }
  // ... and idempotence of the writer.
  EXPECT_EQ(writeSuite(parsed, *rc.model.signals), text);
  // The reloaded suite is as discriminating as the original.
  testing::FirmwareShuttleLegacy good(rc.model.signals, false);
  EXPECT_TRUE(runSuite(parsed, good, *rc.model.signals).allPassed());
  testing::FirmwareShuttleLegacy bad(rc.model.signals, true);
  EXPECT_FALSE(runSuite(parsed, bad, *rc.model.signals).allPassed());
}

TEST(TestSuiteGen, ParseErrors) {
  Tables t;
  EXPECT_THROW(parseSuite("garbage", *t.signals), util::ParseError);
  EXPECT_THROW(parseSuite("suite-test \"x\" kind=confirmed\nweird\nend",
                          *t.signals),
               util::ParseError);
  // A blocked test whose observed run is malformed.
  EXPECT_THROW(
      parseSuite("suite-test \"x\" kind=blocked\nend", *t.signals),
      util::ParseError);
}

}  // namespace
}  // namespace mui::synthesis

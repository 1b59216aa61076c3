// Golden end-to-end tests over the shipped models: the full
// verify-test-learn loop on railcab.muml and watchdog.muml must reach the
// recorded verdict in exactly the recorded number of iterations. The loop is
// deterministic (seeded test drivers, ordered worklists), so any drift in
// iteration count or verdict means a behavioral change in the engine — these
// tests pin the numbers the way golden files pin rendered output.

#include <gtest/gtest.h>

#include <string>

#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/verifier.hpp"
#include "testing/subprocess.hpp"

namespace mui {
namespace {

struct Golden {
  synthesis::Verdict verdict;
  std::size_t iterations;
  std::uint64_t testPeriods;
  std::size_t learnedFacts;
};

Golden runGolden(const std::string& modelFile, const std::string& patternName,
                 const std::string& roleName, const std::string& hiddenName) {
  const muml::Model model =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/" + modelFile);
  muml::IntegrationBinding binding =
      muml::bindIntegration(model, patternName, roleName, hiddenName);
  const auto legacy = testing::makeLegacy(model, std::move(binding.legacy));

  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  cfg.runId = modelFile + ":" + hiddenName;
  const auto res = synthesis::runIntegration(binding.scenario.context, *legacy,
                                             std::move(cfg));
  return {res.verdict, res.iterations, res.totalTestPeriods,
          res.totalLearnedFacts};
}

TEST(GoldenModels, RailcabRearShippedProvenInSevenIterations) {
  const Golden g = runGolden("railcab.muml", "DistanceCoordination",
                             "rearRole", "rearShipped");
  EXPECT_EQ(g.verdict, synthesis::Verdict::ProvenCorrect);
  EXPECT_EQ(g.iterations, 7u);
  EXPECT_EQ(g.testPeriods, 92u);
  EXPECT_EQ(g.learnedFacts, 19u);
}

TEST(GoldenModels, RailcabRearFaultyRealErrorInThreeIterations) {
  const Golden g = runGolden("railcab.muml", "DistanceCoordination",
                             "rearRole", "rearFaulty");
  EXPECT_EQ(g.verdict, synthesis::Verdict::RealError);
  EXPECT_EQ(g.iterations, 3u);
  EXPECT_EQ(g.testPeriods, 10u);
  EXPECT_EQ(g.learnedFacts, 6u);
}

TEST(GoldenModels, WatchdogDeviceCompliantProvenInThreeIterations) {
  const Golden g =
      runGolden("watchdog.muml", "Watchdog", "device", "deviceCompliant");
  EXPECT_EQ(g.verdict, synthesis::Verdict::ProvenCorrect);
  EXPECT_EQ(g.iterations, 3u);
  EXPECT_EQ(g.testPeriods, 12u);
  EXPECT_EQ(g.learnedFacts, 5u);
}

TEST(GoldenModels, WatchdogDeviceCrawlRealErrorInFourIterations) {
  const Golden g =
      runGolden("watchdog.muml", "Watchdog", "device", "deviceCrawl");
  EXPECT_EQ(g.verdict, synthesis::Verdict::RealError);
  EXPECT_EQ(g.iterations, 4u);
  EXPECT_EQ(g.testPeriods, 14u);
  EXPECT_EQ(g.learnedFacts, 9u);
}

// The loop must be run-to-run deterministic for the golden numbers above to
// be meaningful: two fresh runs of the same scenario agree exactly.
TEST(GoldenModels, RepeatRunsAreDeterministic) {
  const Golden a = runGolden("watchdog.muml", "Watchdog", "device",
                             "deviceCompliant");
  const Golden b = runGolden("watchdog.muml", "Watchdog", "device",
                             "deviceCompliant");
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.testPeriods, b.testPeriods);
  EXPECT_EQ(a.learnedFacts, b.learnedFacts);
}

}  // namespace
}  // namespace mui

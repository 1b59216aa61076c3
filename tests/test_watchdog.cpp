// A second complete domain scenario, driven entirely from the shipped
// .muml model file (models/watchdog.muml): a watchdog/heartbeat pattern
// with four legacy device variants. Exercises the whole pipeline — file
// loading, pattern verification, the scenario builder, instance rebinding,
// and the integration loop — the same path the `mui` CLI takes.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ctl/checker.hpp"
#include "ctl/parser.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "muml/verify.hpp"
#include "synthesis/verifier.hpp"
#include "testing/subprocess.hpp"

namespace mui {
namespace {

#ifndef MUI_MODELS_DIR
#error "MUI_MODELS_DIR must point at the repository's models/ directory"
#endif

muml::Model loadWatchdogModel() {
  const std::string path = std::string(MUI_MODELS_DIR) + "/watchdog.muml";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return muml::loadModel(buf.str());
}

TEST(Watchdog, PatternVerifies) {
  const auto model = loadWatchdogModel();
  const auto& pattern = model.patterns.at("Watchdog");
  const auto res = muml::verifyPattern(pattern, model.signals, model.props);
  EXPECT_TRUE(res.constraintHolds);
  EXPECT_TRUE(res.deadlockFree);
  EXPECT_TRUE(res.ok());
}

TEST(Watchdog, MonitorTimingIsAsSpecified) {
  // The compiled monitor pings within 4 ticks of idling and escalates
  // exactly 2 ticks into an unanswered wait.
  const auto model = loadWatchdogModel();
  const auto monitor =
      model.statecharts.at("monitorRole").compile(model.signals, model.props);
  ctl::Checker checker(monitor);
  EXPECT_TRUE(checker.holds(
      ctl::parseFormula("AG (monitorRole.idle -> AF[1,4] "
                        "(monitorRole.waiting || monitorRole.escalated))")));
  // In the open automaton the pong is always possible, so escalation is
  // avoidable...
  EXPECT_TRUE(checker.holds(
      ctl::parseFormula("EG !monitorRole.escalated")));
  // ... but a silent partner forces it (witnessed by EF).
  EXPECT_TRUE(checker.holds(ctl::parseFormula("EF monitorRole.escalated")));
}

struct WatchdogCase {
  const char* device;
  synthesis::Verdict expected;
};

// Names each case after its device. Without this printer the discovered
// test names dump the struct's raw bytes, a string pointer and padding
// among them, so they changed with every build.
void PrintTo(const WatchdogCase& c, std::ostream* os) { *os << c.device; }

class WatchdogIntegration : public ::testing::TestWithParam<WatchdogCase> {};

TEST_P(WatchdogIntegration, VerdictsMatchTheDeviceQuality) {
  const auto [deviceName, expected] = GetParam();
  const auto model = loadWatchdogModel();
  auto binding =
      muml::bindIntegration(model, "Watchdog", "device", deviceName);
  const auto legacy = testing::makeLegacy(model, std::move(binding.legacy));
  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  const auto res =
      synthesis::IntegrationVerifier(binding.scenario.context, *legacy, cfg)
          .run();
  EXPECT_EQ(res.verdict, expected)
      << deviceName << ": " << res.explanation << "\n"
      << res.counterexampleText;
}

INSTANTIATE_TEST_SUITE_P(
    Devices, WatchdogIntegration,
    ::testing::Values(
        WatchdogCase{"deviceCompliant", synthesis::Verdict::ProvenCorrect},
        // Two ticks of latency still meet the monitor's window: the timeout
        // only wins when no pong is offered at the deadline.
        WatchdogCase{"deviceSlow", synthesis::Verdict::ProvenCorrect},
        WatchdogCase{"deviceCrawl", synthesis::Verdict::RealError},
        WatchdogCase{"deviceMute", synthesis::Verdict::RealError},
        WatchdogCase{"deviceDeaf", synthesis::Verdict::RealError}));

TEST(Watchdog, CrawlDeviceWitnessShowsTheEscalation) {
  const auto model = loadWatchdogModel();
  auto binding =
      muml::bindIntegration(model, "Watchdog", "device", "deviceCrawl");
  const auto legacy = testing::makeLegacy(model, std::move(binding.legacy));
  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  const auto res =
      synthesis::IntegrationVerifier(binding.scenario.context, *legacy, cfg)
          .run();
  ASSERT_EQ(res.verdict, synthesis::Verdict::RealError);
  // The counterexample reaches the degraded monitor mode or pinpoints the
  // missed response deadline.
  EXPECT_TRUE(res.counterexampleText.find("escalated") != std::string::npos ||
              res.explanation.find("deadlock") != std::string::npos)
      << res.counterexampleText << res.explanation;
}

}  // namespace
}  // namespace mui

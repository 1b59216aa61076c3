// Integrating real "legacy code": the hand-written shuttle controller
// firmware (switch-based C-style code, no model) is first exercised in its
// environment by the periodic runtime — producing the minimal Listing-1.2
// recording the paper advocates for target systems — and then passed through
// the full verification/testing/learning loop.
//
// The front shuttle (the context) and the pattern constraint come from
// models/railcab.muml.
//
// Build & run:  ./build/examples/legacy_firmware

#include <cstdio>

#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/report.hpp"
#include "synthesis/test_suite.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy_shuttle.hpp"
#include "testing/runtime.hpp"

int main() {
  using namespace mui;

  const muml::Model model =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/railcab.muml");
  const automata::SignalTableRef& signals = model.signals;
  const automata::Automaton front =
      muml::bindIntegration(model, "DistanceCoordination", "rearRole",
                            "rearShipped")
          .scenario.context;

  // ---- Phase A: run the firmware "in the field" with minimal probes. ------
  std::printf("== Executing the firmware against the front shuttle "
              "(30 periods, replay-only probes) ==\n\n");
  testing::FirmwareShuttleLegacy firmware(signals, /*faultyRevision=*/false);
  testing::PeriodicRuntime runtime(front, firmware, /*seed=*/2024);
  testing::Recorder targetLog(testing::ProbeLevel::ReplayOnly);
  const auto periods = runtime.run(30, targetLog);
  std::printf("executed %llu periods; recorded %zu replay events "
              "(Listing 1.2 style):\n\n%s\n",
              static_cast<unsigned long long>(periods),
              targetLog.events().size(), targetLog.render().c_str());

  // ---- Phase B: the integration loop on the same firmware. ----------------
  std::printf("== Verifying the integration ==\n\n");
  firmware.reset();
  synthesis::IntegrationConfig cfg;
  cfg.property = model.patterns.at("DistanceCoordination").constraint;
  cfg.recordTests = true;
  synthesis::IntegrationVerifier verifier(front, firmware, cfg);
  const auto result = verifier.run();

  std::printf("%s", synthesis::renderSummary(result).c_str());
  std::printf("\nper-iteration journal:\n%s",
              synthesis::renderJournal(result).c_str());

  // ---- Phase C: the generated component tests as a regression oracle. -----
  const auto& suite = result.recordedTests[0];
  std::printf("\n== Generated component test suite (%zu tests) ==\n\n%s",
              suite.size(),
              synthesis::renderSuite(suite, *signals).c_str());

  testing::FirmwareShuttleLegacy next(signals, /*faultyRevision=*/false);
  const auto pass = synthesis::runSuite(suite, next, *signals);
  std::printf("replaying the suite on the same revision : %zu/%zu passed\n",
              pass.passed, suite.size());
  testing::FirmwareShuttleLegacy regressed(signals, /*faultyRevision=*/true);
  const auto fail = synthesis::runSuite(suite, regressed, *signals);
  std::printf("replaying the suite on the old revision  : %zu/%zu passed",
              fail.passed, suite.size());
  if (!fail.failures.empty()) {
    std::printf("  (first failure: %s)", fail.failures[0].c_str());
  }
  std::printf("\n");
  return result.verdict == synthesis::Verdict::ProvenCorrect ? 0 : 1;
}

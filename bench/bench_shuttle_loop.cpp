// The quantitative side of the paper's running example (Figs. 2/6/7,
// Listings 1.1-1.5): per-iteration metrics of the verification/testing/
// learning loop on the RailCab scenario — for the faulty firmware (fast
// conflict detection, Listing 1.4) and the correct firmware (proof without
// learning the whole component, Lemma 5). The qualitative artifacts (DOT
// figures, listing texts) are produced by examples/shuttle_convoy.

#include <cstdio>

#include "bench_util.hpp"
#include "synthesis/report.hpp"
#include "testing/legacy_shuttle.hpp"

namespace {

using namespace mui;

void runAndReport(const char* title, bool faulty) {
  const bench::Railcab rc;
  const auto front = rc.bind("rearShipped").scenario.context;
  testing::FirmwareShuttleLegacy legacy(rc.model.signals, faulty);

  synthesis::IntegrationConfig cfg;
  cfg.property = rc.constraint();
  bench::Stopwatch watch;
  const auto res = synthesis::IntegrationVerifier(front, legacy, cfg).run();
  const double ms = watch.ms();

  std::printf("--- %s ---\n", title);
  std::printf("%s", synthesis::renderJournal(res).c_str());
  std::printf("%s(%.1f ms)\n\n", synthesis::renderSummary(res).c_str(), ms);
}

}  // namespace

int main() {
  bench::printHeader(
      "RailCab running example: loop metrics (paper Figs. 2/6/7)",
      "Model S/T/F = learned states/transitions/forbidden entries before "
      "the round's check. The faulty firmware is convicted as soon as the "
      "conflict lies inside the synthesized part; the correct firmware is "
      "proven once the closure survives the check.");
  runAndReport("faulty firmware revision (Fig. 6 / Listing 1.4)", true);
  runAndReport("shipped firmware (Fig. 7 / Listing 1.5)", false);
  return 0;
}

// E5 — deterministic replay and the probe effect (paper Sec. 5): event
// volume per probe level on the target (the paper's motivation for
// minimizing probes), replay determinism validation, and the recording/
// replay overhead per executed period.

#include <cstdio>

#include "bench_util.hpp"
#include "testing/driver.hpp"
#include "testing/legacy_shuttle.hpp"
#include "testing/runtime.hpp"

int main() {
  using namespace mui;

  bench::printHeader(
      "E5: monitoring probe levels and deterministic replay",
      "The target build records only messages + periods (Listing 1.2); the "
      "replay build adds state and timing probes (Listing 1.3) without "
      "perturbing the execution — the driver cross-checks every replayed "
      "output against the recording.");

  const bench::Railcab rc;
  const automata::SignalTableRef& signals = rc.model.signals;
  const auto front = rc.bind("rearShipped").scenario.context;

  util::TextTable table({"periods", "replay-only events", "full events",
                         "events/period (target)", "events/period (replay)",
                         "run ms"});
  for (const std::uint64_t periods : {50u, 200u, 1000u, 5000u}) {
    testing::FirmwareShuttleLegacy fwA(signals, false);
    testing::PeriodicRuntime rtA(front, fwA, 99);
    testing::Recorder minimal(testing::ProbeLevel::ReplayOnly);
    bench::Stopwatch watch;
    const auto ranA = rtA.run(periods, minimal);
    const double ms = watch.ms();

    testing::FirmwareShuttleLegacy fwB(signals, false);
    testing::PeriodicRuntime rtB(front, fwB, 99);
    testing::Recorder full(testing::ProbeLevel::Full);
    const auto ranB = rtB.run(periods, full);

    table.row({std::to_string(ranA),
               std::to_string(minimal.events().size()),
               std::to_string(full.events().size()),
               util::fmt(minimal.events().size() / double(ranA), 2),
               util::fmt(full.events().size() / double(ranB), 2),
               util::fmt(ms, 2)});
  }
  std::printf("%s\n", table.str().c_str());

  // Replay determinism: execute a long counterexample-style test; phase 2
  // must reproduce phase 1 exactly (the driver throws otherwise).
  std::printf("replay determinism check: ");
  testing::FirmwareShuttleLegacy fw(signals, false);
  testing::CounterexampleTestDriver driver(fw, *signals);
  std::vector<automata::Interaction> steps;
  automata::Interaction propose;
  propose.out.set(signals->intern("convoyProposal"));
  automata::Interaction reject;
  reject.in.set(signals->intern("convoyProposalRejected"));
  for (int i = 0; i < 300; ++i) {
    steps.push_back({});
    steps.push_back(propose);
    steps.push_back(reject);
  }
  const auto outcome = driver.execute(steps);
  std::printf("%s (%zu steps, %llu periods driven, %zu replay events)\n",
              outcome.kind == testing::TestOutcome::Kind::Confirmed
                  ? "PASSED"
                  : "unexpected outcome",
              outcome.executedSteps,
              static_cast<unsigned long long>(driver.periodsDriven()),
              outcome.replayLog.events().size());
  return 0;
}

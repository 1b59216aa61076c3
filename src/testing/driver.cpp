#include "testing/driver.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mui::testing {

namespace {

struct ReplayMetrics {
  obs::Counter& tests;
  obs::Counter& steps;
  obs::Counter& confirmed;
  obs::Counter& diverged;
  obs::Counter& blocked;

  static const ReplayMetrics& get() {
    static ReplayMetrics m{
        obs::Registry::global().counter("mui_replay_tests_total",
                                        "Counterexample tests executed"),
        obs::Registry::global().counter(
            "mui_replay_steps_total",
            "Legacy-component periods driven during tests"),
        obs::Registry::global().counter("mui_replay_confirmed_total",
                                        "Tests that confirmed the trace"),
        obs::Registry::global().counter("mui_replay_diverged_total",
                                        "Tests where the component diverged"),
        obs::Registry::global().counter("mui_replay_blocked_total",
                                        "Tests where the component blocked"),
    };
    return m;
  }
};

}  // namespace

void CounterexampleTestDriver::logMessages(Recorder& rec,
                                           const SignalSet& signals,
                                           bool outgoing,
                                           std::uint64_t period) const {
  signals.forEach([&](std::size_t s) {
    rec.onMessage(signals_.name(static_cast<util::NameId>(s)), legacy_.name(),
                  outgoing, period);
  });
}

TestOutcome CounterexampleTestDriver::execute(
    const std::vector<automata::Interaction>& expectedSteps) {
  const obs::ObsSpan span("replay", expectedSteps.size());
  const std::uint64_t periodsBefore = periods_;
  TestOutcome out;

  // ---- Phase 1: execute on the "target" with minimal probes. -------------
  const RunResult target = legacy_.run(expectedSteps, RunPhase::Target);
  const std::size_t replaySteps = target.outputs.size();
  const bool diverged =
      replaySteps > 0 && !(target.outputs.back() ==
                           expectedSteps[replaySteps - 1].out);
  if (replaySteps > expectedSteps.size() ||
      (target.refused && (diverged || replaySteps == expectedSteps.size())) ||
      (!target.refused && !diverged && replaySteps < expectedSteps.size())) {
    throw std::logic_error("legacy '" + legacy_.name() +
                           "' broke the stop rule of a test run");
  }
  for (std::size_t k = 0; k < replaySteps; ++k) {
    logMessages(out.targetLog, expectedSteps[k].in, /*outgoing=*/false, k + 1);
    logMessages(out.targetLog, target.outputs[k], /*outgoing=*/true, k + 1);
  }
  out.executedSteps = replaySteps;
  if (target.refused) {
    out.kind = TestOutcome::Kind::Blocked;
    logMessages(out.targetLog, expectedSteps[replaySteps].in,
                /*outgoing=*/false, replaySteps + 1);
  } else if (diverged) {
    out.kind = TestOutcome::Kind::Diverged;
  }
  periods_ += replaySteps + (target.refused ? 1 : 0);

  // ---- Phase 2: deterministic replay with full instrumentation. ----------
  RunResult replay = legacy_.run(
      std::span(expectedSteps).first(replaySteps), RunPhase::Replay);
  periods_ += replaySteps;
  if (replay.refused || replay.outputs != target.outputs ||
      replay.states.size() != replaySteps + 1) {
    throw std::logic_error(
        "deterministic replay diverged from the recorded execution "
        "(probe effect or nondeterministic component)");
  }
  out.replayLog.onCurrentState(replay.states[0], 0);
  out.observed.labels.reserve(replaySteps + 1);
  for (std::size_t k = 0; k < replaySteps; ++k) {
    const auto& inputs = expectedSteps[k].in;
    logMessages(out.replayLog, inputs, /*outgoing=*/false, k + 1);
    logMessages(out.replayLog, replay.outputs[k], /*outgoing=*/true, k + 1);
    out.replayLog.onTiming(k + 1);
    out.replayLog.onCurrentState(replay.states[k + 1], k + 1);
    out.observed.labels.push_back({inputs, replay.outputs[k]});
  }
  out.observed.stateNames = std::move(replay.states);

  // ---- Assemble the learnable runs. ---------------------------------------
  switch (out.kind) {
    case TestOutcome::Kind::Confirmed:
      break;  // regular observed run as-is
    case TestOutcome::Kind::Blocked:
      // Append the refused interaction (Def. 12): states == labels.
      out.observed.labels.push_back(expectedSteps[out.executedSteps]);
      out.observed.blocked = true;
      break;
    case TestOutcome::Kind::Diverged: {
      // The observed run ends with the *actual* output (Def. 11); the
      // *expected* interaction is additionally refused at the divergence
      // state because the component is deterministic (Def. 12).
      automata::ObservedRun refusal;
      const std::size_t divergeIdx = out.executedSteps - 1;
      refusal.stateNames.assign(out.observed.stateNames.begin(),
                                out.observed.stateNames.begin() +
                                    static_cast<std::ptrdiff_t>(divergeIdx) +
                                    1);
      refusal.labels.assign(out.observed.labels.begin(),
                            out.observed.labels.begin() +
                                static_cast<std::ptrdiff_t>(divergeIdx));
      refusal.labels.push_back(expectedSteps[divergeIdx]);
      refusal.blocked = true;
      out.refusalRun = std::move(refusal);
      break;
    }
  }
  if (!out.observed.wellFormed()) {
    throw std::logic_error("test driver produced a malformed observed run");
  }
  const ReplayMetrics& m = ReplayMetrics::get();
  m.tests.inc();
  m.steps.add(periods_ - periodsBefore);
  switch (out.kind) {
    case TestOutcome::Kind::Confirmed:
      m.confirmed.inc();
      break;
    case TestOutcome::Kind::Diverged:
      m.diverged.inc();
      break;
    case TestOutcome::Kind::Blocked:
      m.blocked.inc();
      break;
  }
  return out;
}

}  // namespace mui::testing

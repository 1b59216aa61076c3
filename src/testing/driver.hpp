#pragma once
// Counterexample-based testing (paper Sec. 5).
//
// The driver executes the legacy-side projection of a model-checker
// counterexample against the real component in two phases, mirroring the
// paper's deterministic-replay methodology:
//
//   Phase 1 (target): run with ReplayOnly probes — only messages and period
//   numbers are recorded (Listing 1.2), keeping the probe effect minimal.
//
//   Phase 2 (host): deterministically replay the recorded inputs with Full
//   instrumentation — state and timing probes enabled (Listing 1.3/1.5).
//   The replay cross-checks that outputs are reproduced identically; a
//   mismatch would indicate a probe effect or nondeterminism and raises.
//
// Each phase is one LegacyComponent::run, so an adapter that speaks
// protocol v2 sees two exchanges per test however long the test is.
//
// The outcome distinguishes the three cases of Sec. 4.2/4.3: the trace is
// Confirmed (candidate real counterexample), the component Diverged with a
// different output (a new regular run to learn, Def. 11, plus a justified
// refusal of the expected interaction, Def. 12 — the component is
// deterministic), or it Blocked outright (a refusal to learn, Def. 12).

#include <optional>
#include <vector>

#include "automata/run.hpp"
#include "testing/legacy.hpp"
#include "testing/monitor.hpp"

namespace mui::testing {

struct TestOutcome {
  enum class Kind { Confirmed, Diverged, Blocked };
  Kind kind = Kind::Confirmed;

  /// Steps successfully executed (for Diverged this includes the diverging
  /// step, which did execute — with a different output).
  std::size_t executedSteps = 0;

  /// The state-enriched run actually observed (regular for
  /// Confirmed/Diverged, blocked for Blocked). Input to learn() (Def. 11/12).
  automata::ObservedRun observed;

  /// For Diverged: the expected interaction is also refused at the
  /// divergence state (determinism), yielding an additional Def.-12 fact.
  std::optional<automata::ObservedRun> refusalRun;

  Recorder targetLog{ProbeLevel::ReplayOnly};  // phase 1 (Listing 1.2)
  Recorder replayLog{ProbeLevel::Full};        // phase 2 (Listing 1.3/1.5)
};

class CounterexampleTestDriver {
 public:
  CounterexampleTestDriver(LegacyComponent& legacy,
                           const automata::SignalTable& signals)
      : legacy_(legacy), signals_(signals) {}

  /// Executes the projected counterexample (one expected interaction per
  /// period) against the component.
  TestOutcome execute(const std::vector<automata::Interaction>& expectedSteps);

  /// Total periods driven on the component so far (test effort metric).
  [[nodiscard]] std::uint64_t periodsDriven() const { return periods_; }

 private:
  void logMessages(Recorder& rec, const SignalSet& signals, bool outgoing,
                   std::uint64_t period) const;

  LegacyComponent& legacy_;
  const automata::SignalTable& signals_;
  std::uint64_t periods_ = 0;
};

}  // namespace mui::testing

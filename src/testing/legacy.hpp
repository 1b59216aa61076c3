#pragma once
// The black-box legacy component interface (paper Sec. 1/3).
//
// A legacy component is reactive and input-deterministic: in each period it
// is fed the set of input signals arriving in that period and either
// produces its unique output set (advancing its hidden state) or *refuses*
// the inputs (a blocked interaction — the raw material of T̄, Def. 12).
//
// The interface description (I/O signal sets) is known from the
// architectural model; the hidden state is observable only through the
// white-box probe `currentStateName()`, which the harness consults only at
// the Full instrumentation level (deterministic replay, paper Sec. 5).

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "automata/automaton.hpp"

namespace mui::testing {

using automata::SignalSet;

/// The two phases of a counterexample test (paper Sec. 5).
enum class RunPhase {
  /// The target run (Listing 1.2): stops after the first output that
  /// differs from the expected one, and probes no state.
  Target,
  /// The host replay (Listing 1.3): expects nothing, and probes the state
  /// before the first step and after each accepted one.
  Replay,
};

/// What one LegacyComponent::run observed.
struct RunResult {
  /// The outputs of the accepted steps, in order.
  std::vector<SignalSet> outputs;
  /// The step after the last accepted one was refused.
  bool refused = false;
  /// Replay only: outputs.size() + 1 state names, the state before the
  /// first step and after each accepted one.
  std::vector<std::string> states;
};

class LegacyComponent {
 public:
  virtual ~LegacyComponent() = default;

  /// Returns to the initial state.
  virtual void reset() = 0;

  /// Executes one period with the given inputs. Returns the produced output
  /// signals, or std::nullopt if the component refuses the inputs (the
  /// state is then unchanged).
  virtual std::optional<SignalSet> step(const SignalSet& inputs) = 0;

  /// White-box state probe (Full instrumentation only).
  [[nodiscard]] virtual std::string currentStateName() const = 0;

  /// One test from the initial state: resets, then feeds `steps[k].in`
  /// period by period and stops at the first refusal or, in the Target
  /// phase, after the first output other than `steps[k].out`. The default
  /// drives reset(), step() and, in the Replay phase, one
  /// currentStateName() per accepted step; an adapter that speaks protocol
  /// v2 answers the whole run in one exchange (SubprocessLegacy).
  virtual RunResult run(std::span<const automata::Interaction> steps,
                        RunPhase phase);

  /// Structural interface description (always known, paper Sec. 3).
  [[nodiscard]] virtual const SignalSet& inputs() const = 0;
  [[nodiscard]] virtual const SignalSet& outputs() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Independent copy in the current state (used by the periodic runtime to
  /// probe candidate synchronizations without committing).
  [[nodiscard]] virtual std::unique_ptr<LegacyComponent> clone() const = 0;
};

/// Wraps a deterministic automaton as a legacy component. Throws
/// std::invalid_argument if the automaton is not input-deterministic (two
/// transitions from one state consuming the same input set) or has no
/// unique initial state.
class AutomatonLegacy final : public LegacyComponent {
 public:
  explicit AutomatonLegacy(automata::Automaton hidden);

  void reset() override;
  std::optional<SignalSet> step(const SignalSet& inputs) override;
  [[nodiscard]] std::string currentStateName() const override;
  [[nodiscard]] const SignalSet& inputs() const override;
  [[nodiscard]] const SignalSet& outputs() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<LegacyComponent> clone() const override;

  /// The hidden model — for tests and ground-truth comparisons only.
  [[nodiscard]] const automata::Automaton& hidden() const { return hidden_; }

 private:
  automata::Automaton hidden_;
  automata::StateId current_ = 0;
};

}  // namespace mui::testing

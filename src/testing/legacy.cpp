#include "testing/legacy.hpp"

#include <stdexcept>

namespace mui::testing {

RunResult LegacyComponent::run(std::span<const automata::Interaction> steps,
                               RunPhase phase) {
  const bool probe = phase == RunPhase::Replay;
  RunResult r;
  r.outputs.reserve(steps.size());
  if (probe) r.states.reserve(steps.size() + 1);
  reset();
  if (probe) r.states.push_back(currentStateName());
  for (const automata::Interaction& expected : steps) {
    auto produced = step(expected.in);
    if (!produced) {
      r.refused = true;
      break;
    }
    r.outputs.push_back(std::move(*produced));
    if (probe) r.states.push_back(currentStateName());
    if (!probe && !(r.outputs.back() == expected.out)) break;
  }
  return r;
}

AutomatonLegacy::AutomatonLegacy(automata::Automaton hidden)
    : hidden_(std::move(hidden)) {
  if (hidden_.initialStates().size() != 1) {
    throw std::invalid_argument(
        "AutomatonLegacy: need exactly one initial state");
  }
  // Input-determinism: the response to any input set must be unique.
  for (automata::StateId s = 0; s < hidden_.stateCount(); ++s) {
    const auto& ts = hidden_.transitionsFrom(s);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        if (ts[i].label.in == ts[j].label.in) {
          throw std::invalid_argument(
              "AutomatonLegacy: not input-deterministic at state '" +
              hidden_.stateName(s) + "'");
        }
      }
    }
  }
  current_ = hidden_.initialStates()[0];
}

void AutomatonLegacy::reset() { current_ = hidden_.initialStates()[0]; }

std::optional<SignalSet> AutomatonLegacy::step(const SignalSet& inputs) {
  for (const auto& t : hidden_.transitionsFrom(current_)) {
    if (t.label.in == inputs) {
      current_ = t.to;
      return t.label.out;
    }
  }
  return std::nullopt;  // refused
}

std::string AutomatonLegacy::currentStateName() const {
  return hidden_.stateName(current_);
}

const SignalSet& AutomatonLegacy::inputs() const { return hidden_.inputs(); }
const SignalSet& AutomatonLegacy::outputs() const { return hidden_.outputs(); }
std::string AutomatonLegacy::name() const { return hidden_.name(); }

std::unique_ptr<LegacyComponent> AutomatonLegacy::clone() const {
  return std::make_unique<AutomatonLegacy>(*this);
}

}  // namespace mui::testing

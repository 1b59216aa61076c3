#pragma once
// A periodic runtime coupling a legacy component with an environment
// automaton in lockstep periods — the "execute the system in the real
// environment" half of the paper's replay methodology (Sec. 5). Used by the
// examples to produce Listing-1.2-style target recordings, and by tests to
// cross-validate operational execution against the composition semantics.

#include <cstdint>

#include "automata/automaton.hpp"
#include "testing/legacy.hpp"
#include "testing/monitor.hpp"
#include "util/rng.hpp"

namespace mui::testing {

class PeriodicRuntime {
 public:
  /// `environment` plays the context role; nondeterministic environment
  /// choices are resolved pseudo-randomly from `seed`.
  PeriodicRuntime(const automata::Automaton& environment,
                  LegacyComponent& legacy, std::uint64_t seed);

  /// Executes up to `periods` lockstep periods, logging the legacy
  /// component's messages (and, under Full probes, states/timing) into
  /// `recorder`. Stops early when no joint step is possible (system
  /// deadlock). Returns the number of periods executed.
  std::uint64_t run(std::uint64_t periods, Recorder& recorder);

  void reset();

 private:
  const automata::Automaton& env_;
  LegacyComponent& legacy_;
  util::Rng rng_;
  automata::StateId envState_;
  std::uint64_t period_ = 0;
};

}  // namespace mui::testing

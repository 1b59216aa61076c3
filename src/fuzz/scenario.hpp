#pragma once
// Seeded scenario fabrication for the property-based fuzzing subsystem.
//
// A scenario is one complete integration problem drawn from a seed: a hidden
// concrete legacy behavior ("legacy", input-deterministic per Sec. 4.3), a
// composable context ("ctx"), and a CCTL property over their state
// propositions. The six metamorphic oracles (oracles.hpp) then attack the
// paper's guarantees on it — the chaotic closure is a safe over-approximation
// (Thm. 1), verdicts transfer (Lemma 5), counterexamples admit no false
// negatives (Lemma 6) — plus the implementation-level equivalences (worklist
// vs reference checker, verdict invariance under bisimulation quotient and
// state renaming, pre-solve vs the concrete ground truth, the lean product
// engine vs the reference composer).
//
// Everything here is deterministic in the seed: generating the same seed
// twice yields structurally identical automata and the same property text,
// which is what makes `mui fuzz --seed S` campaigns and checked-in
// reproducers replayable.

#include <cstdint>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "ctl/formula.hpp"
#include "util/rng.hpp"

namespace mui::fuzz {

/// Size knobs for scenario generation. The defaults keep automata tiny
/// (2–5 states, 1–2 signals each way) so that a 200-run campaign finishes in
/// seconds while still covering deadlocks, refusals, and partial contexts.
struct ScenarioSpec {
  std::size_t minStates = 2;
  std::size_t maxStates = 5;
  std::size_t maxInputs = 2;
  std::size_t maxOutputs = 2;
};

/// One self-contained fuzz scenario over its own pair of fresh tables.
struct Scenario {
  automata::SignalTableRef signals;
  automata::SignalTableRef props;
  automata::Automaton hidden;   // the concrete legacy behavior ("legacy")
  automata::Automaton context;  // the composable context ("ctx")
  std::string property;         // ACTL text; empty = deadlock freedom only
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t totalStates() const {
    return hidden.stateCount() + context.stateCount();
  }
};

/// Fabricates the scenario for `seed`. The context is drawn from four
/// families: the full mirror of the hidden behavior (exercises everything),
/// the mirror of a random sub-automaton (partial exercise — the common
/// integration situation), an independently generated behavior over the same
/// interface, and a mutated mirror (faulty counterpart).
Scenario generateScenario(std::uint64_t seed, const ScenarioSpec& spec = {});

/// The deduplicated state propositions of both scenario automata, in
/// deterministic (interning) order — the atom vocabulary for properties.
std::vector<std::string> scenarioAtoms(const Scenario& s);

/// Random property in the counterexample-supported ACTL fragment
/// (counterexample.hpp): invariants AG ψ, bounded leads-to
/// AG(p → AF[a,b] q), top-level AF, and conjunctions thereof.
std::string randomActlProperty(util::Rng& rng,
                               const std::vector<std::string>& atoms);

/// Random full-CCTL formula (both path quantifiers, bounded and unbounded
/// operators, deadlock atom) of the given depth — the O1/O5 differential
/// workload.
ctl::FormulaPtr randomCctlFormula(util::Rng& rng,
                                  const std::vector<std::string>& atoms,
                                  std::size_t depth);

/// Canonical structural fingerprint of an automaton: states sorted by name
/// with their label sets and initial markers, transitions sorted by
/// (source, label, target) rendering. Two automata over the same tables have
/// equal fingerprints iff they are isomorphic modulo state ids.
std::string canonicalText(const automata::Automaton& a);

}  // namespace mui::fuzz

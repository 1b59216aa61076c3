#pragma once
// The semantic static-analysis tier (rules MUI101+) — a flow-sensitive,
// whole-integration analyzer layered above the syntactic lint (MUI001-010).
//
// Where the MUI0xx rules look at each entity in isolation, this tier reasons
// about the *composition* the verification loop would explore: it builds the
// synchronous product (Def. 3) of the pattern context with a concrete legacy
// stand-in (and, for the chaos diagnostics, with a VirtualClosure of the
// iteration-0 model) with the loop's own composer, automata::composeFlat,
// evaluates formulas on that CSR product with the loop's own checker,
// ctl::Checker, takes witnesses and their depths from the loop's shortest
// counterexample search, ctl::searchPaths, computes Tarjan SCCs and a
// dominator-style must-pass analysis, and derives verdict-level facts from
// them:
//
//   MUI101 statically-proven property   every reachable product state
//          satisfies the AG-safety property and none deadlocks — the
//          integration verdict is pre-solved to *proven*, with a per-conjunct
//          proof artifact.
//   MUI102 guaranteed violation/chaos reachability   a property violation or
//          deadlock is reachable in the composition (pessimistic verdict
//          statically known: *real error*), with the dominator chain every
//          counterexample must pass through; the diagnostic also reports
//          when the iteration-0 chaotic closure already reaches chaos, i.e.
//          the loop cannot conclude without learning.
//   MUI103 divergence/livelock SCC   a reachable non-trivial SCC whose
//          transitions exchange no signals and which has no exit — the
//          composition can spin forever without progress.
//   MUI104 dead transition under composition   a component transition that
//          is locally enabled but fires in no reachable product step.
//   MUI105 interface coverage gap   flow-sensitive send/receive coverage
//          between legacy stub and context, beyond MUI004's declared-name
//          matching: a trigger no reachable context transition ever emits,
//          or an emission no reachable context transition ever consumes.
//
// Two entry points share the substrates:
//
//   presolveIntegration() — the engine's pre-solve stage (engine/runner.cpp,
//   also reached through the serve dispatch path): decides φ ∧ ¬δ for the
//   supported AG-safety fragment directly on the composed product and
//   short-circuits the refinement loop when definitive. Soundness is
//   differential-tested against the worklist checker by fuzz oracle O6.
//
//   runSemantic() — the `mui analyze` surface: every pattern × role × (model
//   automaton composable as that role's legacy stand-in) combination is
//   analyzed, producing MUI1xx diagnostics with related-location chains.
//
// Every product is composed under SemanticOptions::stateCap: once it holds
// that many states, edges to further states are dropped (the admitted states
// are still expanded) and FlatProduct::capped() is set. A cut product keeps
// the unbounded one's first states, so a violation among them still refutes;
// proofs, deadlock findings, MUI103 and MUI104 need the whole product and
// are withheld.
//
// Findings honor the same `allow MUIxxx;` suppression clauses and RuleSet
// disabling as the syntactic tier. analysis::run never emits MUI1xx rules;
// the tiers stay separate so the cheap lint pre-flight keeps its cost.

#include <cstddef>
#include <string>

#include "analysis/diagnostic.hpp"
#include "analysis/rules.hpp"
#include "automata/automaton.hpp"
#include "muml/model.hpp"

namespace mui::analysis {

struct SemanticOptions {
  /// Product-state budget per composition. When a composition exceeds the
  /// cap, proofs (MUI101) are withheld — only refutations found inside the
  /// admitted prefix remain definitive.
  std::size_t stateCap = 50000;
  /// Cap on related-location notes attached per diagnostic (dominator
  /// chains, per-conjunct proof artifacts).
  std::size_t maxRelated = 8;
};

/// Verdict of the static pre-solve stage.
enum class PresolveVerdict {
  Proved,   // φ ∧ ¬δ holds on the composition (MUI101)
  Refuted,  // a violation or deadlock is reachable (MUI102)
  Skipped,  // outside the supported fragment / over budget / not composable
};

/// "proved" / "refuted" / "skipped" (metrics + journal vocabulary).
const char* presolveVerdictName(PresolveVerdict v);

struct PresolveOutcome {
  PresolveVerdict verdict = PresolveVerdict::Skipped;
  /// MUI101 for Proved, MUI102 for Refuted, empty for Skipped.
  std::string ruleId;
  /// Human-readable justification (witness state / per-conjunct summary for
  /// definitive verdicts, the reason for skipping otherwise).
  std::string explanation;
  /// Reachable product states explored.
  std::size_t productStates = 0;
};

/// Statically decides the integration verdict of `context ‖ hidden` against
/// the CCTL `property` text (empty = deadlock freedom only) as ctl::verify
/// would on the concrete composition: ctl::Checker evaluates the
/// propositional body of each unbounded AG conjunct at every product state
/// and each top-level propositional conjunct at the initial states (unknown
/// atoms are false), and a refutation's witness is the end of
/// ctl::searchPaths' shortest run to a violating or deadlocked state, at
/// that run's length. Returns Skipped — never a wrong verdict — when the
/// property leaves that fragment, the automata are not composable, or the
/// state cap is hit before a refutation is found. Never throws.
PresolveOutcome presolveIntegration(const automata::Automaton& context,
                                    const automata::Automaton& hidden,
                                    const std::string& property,
                                    const SemanticOptions& opts = {});

/// Runs the semantic tier over a whole model: per pattern, the full role
/// composition (MUI103/MUI104), and per pattern × role × composable model
/// automaton, the integration-level rules (MUI101/MUI102/MUI104/MUI105).
/// Diagnostics carry related-location chains rendered into SARIF by
/// writeSarif. Compilation failures of ill-formed patterns are skipped
/// (the syntactic tier reports those).
Report runSemantic(const muml::Model& model,
                   const RuleSet& rules = RuleSet::all(),
                   const SemanticOptions& opts = {});

}  // namespace mui::analysis

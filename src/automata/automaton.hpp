#pragma once
// The automaton model of paper Def. 1/2, extended with a state labeling
// (Sec. 2.1): M = (S, I, O, T, L, Q).
//
// Time semantics: each transition takes exactly one time unit (paper Sec. 2),
// so CCTL time bounds translate to transition counts.
//
// Automata that interact share a SignalTable (for I/O signal identity) and a
// proposition table (for labels); composition checks this.

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/run.hpp"
#include "automata/signals.hpp"

namespace mui::automata {

struct Transition {
  StateId from;
  Interaction label;
  StateId to;

  bool operator==(const Transition&) const = default;
};

class Automaton {
 public:
  /// `name` is the instance name used to qualify states in renderings and
  /// auto-generated propositions (e.g. "frontRole").
  Automaton(SignalTableRef signals, SignalTableRef props,
            std::string name = {});

  /// Convenience: creates fresh shared tables.
  static Automaton withFreshTables(std::string name = {});

  // ---- Construction -------------------------------------------------------

  /// Adds a state; names must be unique within the automaton.
  StateId addState(const std::string& stateName);

  /// Adds the state if not present; returns its id either way.
  StateId ensureState(const std::string& stateName);

  void markInitial(StateId s);

  /// Declares a signal in I (resp. O), interning it in the shared table.
  util::NameId addInput(const std::string& signal);
  util::NameId addOutput(const std::string& signal);

  /// Declares whole signal sets at once (used by composition and closure
  /// constructions, where I/O sets are derived rather than built up).
  void declareSignals(const SignalSet& ins, const SignalSet& outs) {
    inputs_ |= ins;
    outputs_ |= outs;
  }

  /// Labels state `s` with atomic proposition `prop`.
  void addLabel(StateId s, const std::string& prop);

  /// Unions a whole proposition set into state `s` (Def. 3 label union).
  void addLabels(StateId s, const PropSet& props);

  /// Labels state `s` with its hierarchically decomposed qualified name:
  /// for automaton name "rearRole" and state "noConvoy::wait" this adds
  /// propositions "rearRole.noConvoy" and "rearRole.noConvoy::wait". This is
  /// the convention that lets the paper's constraints (e.g.
  /// `rearRole.convoy`) refer to component states.
  void labelWithStateName(StateId s);

  /// Renames the instance and replaces every state's labels with its
  /// hierarchical qualified name under the new instance (the old labels are
  /// dropped). Transitions and states are kept as they are.
  void renameInstance(std::string name);

  /// Adds transition (from, A, B, to); validates A ⊆ I and B ⊆ O.
  /// Duplicate transitions are ignored.
  void addTransition(StateId from, Interaction label, StateId to);

  // ---- Accessors -----------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t stateCount() const { return stateNames_.size(); }
  [[nodiscard]] std::size_t transitionCount() const;
  [[nodiscard]] const std::string& stateName(StateId s) const;
  [[nodiscard]] std::optional<StateId> stateByName(
      const std::string& stateName) const;
  [[nodiscard]] const PropSet& labels(StateId s) const;
  [[nodiscard]] const std::vector<Transition>& transitionsFrom(
      StateId s) const;
  [[nodiscard]] const std::vector<StateId>& initialStates() const {
    return initial_;
  }
  [[nodiscard]] bool isInitial(StateId s) const;

  [[nodiscard]] const SignalSet& inputs() const { return inputs_; }
  [[nodiscard]] const SignalSet& outputs() const { return outputs_; }
  [[nodiscard]] const SignalTableRef& signalTable() const { return signals_; }
  [[nodiscard]] const SignalTableRef& propTable() const { return props_; }

  /// hasTransition / hasTransitionTo / successors are O(1) hash lookups in
  /// the per-state interaction index (the replay/testing hot path queries
  /// them once per period; they used to scan transitionsFrom linearly).
  [[nodiscard]] bool hasTransition(StateId from, const Interaction& x) const;
  [[nodiscard]] bool hasTransitionTo(StateId from, const Interaction& x,
                                     StateId to) const;
  [[nodiscard]] std::vector<StateId> successors(StateId from,
                                                const Interaction& x) const;

  /// Interactions enabled at `s` (duplicate-free, in first-occurrence order).
  [[nodiscard]] std::vector<Interaction> enabledInteractions(StateId s) const;

  // ---- Analysis ------------------------------------------------------------

  /// Composability per paper Sec. 2: I ∩ I' = ∅ and O ∩ O' = ∅, over a
  /// shared signal table.
  [[nodiscard]] bool composableWith(const Automaton& other) const;

  /// Orthogonality: composable and additionally I ∩ O' = ∅ and O ∩ I' = ∅.
  [[nodiscard]] bool orthogonalTo(const Automaton& other) const;

  /// Per-state reachability from the initial states.
  [[nodiscard]] std::vector<bool> reachableStates() const;

  /// Copy restricted to reachable states. If `oldToNew` is non-null it
  /// receives the state renumbering (UINT32_MAX for removed states).
  [[nodiscard]] Automaton prunedToReachable(
      std::vector<StateId>* oldToNew = nullptr) const;

  /// Determinism of a concrete automaton: at most one successor per
  /// (state, interaction).
  [[nodiscard]] bool deterministic() const;

  /// True iff `run` is a run of this automaton (including the deadlock
  /// condition for deadlock runs, judged against this automaton's
  /// transitions).
  [[nodiscard]] bool admitsRun(const Run& run) const;

  /// Validates internal consistency (used by tests).
  void checkInvariants() const;

  /// Graphviz rendering (regenerates the paper's automaton figures).
  [[nodiscard]] std::string toDot() const;

  /// Human-readable one-line-per-transition dump.
  [[nodiscard]] std::string toText() const;

  [[nodiscard]] std::string interactionToString(const Interaction& x) const {
    return automata::toString(x, *signals_);
  }

 private:
  SignalTableRef signals_;
  SignalTableRef props_;
  std::string name_;
  SignalSet inputs_;
  SignalSet outputs_;
  std::vector<std::string> stateNames_;
  std::unordered_map<std::string, StateId> stateIds_;
  std::vector<PropSet> labels_;
  std::vector<std::vector<Transition>> trans_;
  /// Per-state interaction index: label → successor states in insertion
  /// order. Maintained by addTransition; mirrors trans_ exactly.
  std::vector<std::unordered_map<Interaction, std::vector<StateId>,
                                 InteractionHash>>
      byLabel_;
  std::vector<StateId> initial_;
};

}  // namespace mui::automata

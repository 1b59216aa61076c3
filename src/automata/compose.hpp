#pragma once
// Synchronous parallel composition M ‖ M' (paper Def. 3).
//
// A product transition combines one transition from every component per time
// step; the local matching condition (A ∩ O') = B' and (A' ∩ O) = B enforces
// synchronous communication (sending and receiving happen within the same
// step). Only reachable product states are kept, as required by Def. 3.

#include <functional>
#include <string>
#include <vector>

#include "automata/automaton.hpp"

namespace mui::automata {

/// A composed automaton plus the bookkeeping needed to project product states
/// and runs back onto the components (used for counterexample rendering and
/// for projecting a counterexample onto the legacy component, paper Sec. 4.2).
struct Product {
  Automaton automaton;
  /// Instance name of every component, in composition order.
  std::vector<std::string> componentNames;
  /// State names of every component (componentStateNames[k][s]).
  std::vector<std::vector<std::string>> componentStateNames;
  /// Component inputs/outputs, for projecting interactions.
  std::vector<SignalSet> componentInputs;
  std::vector<SignalSet> componentOutputs;
  /// origins[p][k] = state of component k in product state p.
  std::vector<std::vector<StateId>> origins;

  /// Projects a product interaction onto component k: (A'' ∩ I_k, B'' ∩ O_k).
  [[nodiscard]] Interaction projectInteraction(const Interaction& x,
                                               std::size_t k) const;

  /// Projects a product run onto component k (state ids are component k's).
  [[nodiscard]] Run projectRun(const Run& run, std::size_t k) const;

  /// Renders a product run in the paper's Listing 1.1 style: alternating
  /// state lines ("inst.state, inst.state") and interaction lines
  /// ("inst.sig!, inst.sig?").
  [[nodiscard]] std::string renderRun(const Run& run) const;
};

/// Binary composition per Def. 3. Throws std::invalid_argument if the
/// automata are not composable (shared tables, I ∩ I' = ∅, O ∩ O' = ∅).
Product compose(const Automaton& a, const Automaton& b);

/// n-ary composition: fold of binary compositions with flattened origins.
/// Requires at least one component.
Product composeAll(const std::vector<const Automaton*>& components);

/// Counts one composed product of `states` states in the mui_compose_*
/// metrics (composeAll and composeFlat both report here).
void countProduct(std::size_t states);

/// Names component k's state at position i of a run: appendState(i, k,
/// out) appends it to `out`.
using StateAppender =
    std::function<void(std::size_t, std::size_t, std::string&)>;

/// The Listing 1.1 rendering behind Product::renderRun and
/// FlatProduct::renderRun.
std::string renderProductRun(const Run& run, const SignalTable& signals,
                             const std::vector<std::string>& componentNames,
                             const std::vector<SignalSet>& componentInputs,
                             const std::vector<SignalSet>& componentOutputs,
                             const StateAppender& appendState);

}  // namespace mui::automata

#pragma once
// Explicit-state CCTL model checker over the discrete-time automaton model —
// the RAVEN-replacing substrate (DESIGN.md §2).
//
// Evaluation computes the satisfaction set of every subformula over all
// states; the verdict is taken over the initial states. Maximal paths may be
// finite (ending in a deadlock state); see formula.hpp for the resulting
// weak bounded semantics. One transition = one time unit, so bounds count
// transitions.
//
// The unbounded fixpoints run as worklist algorithms over a precomputed
// predecessor index (CSR over the duplicate-free edge set): least fixpoints
// propagate satisfaction backwards from the seed set, universal operators
// keep a pending-successor counter per state, greatest fixpoints delete
// states whose continuation died. Every edge is visited a constant number of
// times, so each operator costs O(S + E) instead of the O(S · diameter)
// Gauss–Seidel sweeps of the retained reference implementation
// (ctl/reference.hpp). Satisfaction sets are dense bitsets (one bit per
// state, word-parallel boolean connectives).
//
// The checker reads one graph type, automata::FlatProduct: the state
// count, the edges, the initial states, and atoms through the origins. A
// product of the lean composer is checked as it is; an Automaton enters as
// its one-component product.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/flat_product.hpp"
#include "ctl/formula.hpp"
#include "util/bitset.hpp"

namespace mui::ctl {

using automata::Automaton;
using automata::StateId;

/// Per-state satisfaction set: bit s = "state s satisfies the formula".
using SatSet = util::DenseBitset;

class Checker {
 public:
  /// Checks `g`, which must outlive the checker.
  explicit Checker(const automata::FlatProduct& g);
  /// Checks `m` as its one-component product (FlatProduct::of).
  explicit Checker(const Automaton& m);

  /// Satisfaction set (per state) of `f`.
  SatSet evaluate(const FormulaPtr& f);

  /// True iff every initial state satisfies `f`.
  bool holds(const FormulaPtr& f);

  /// δ per state: no outgoing transition.
  [[nodiscard]] bool isDeadlockState(StateId s) const {
    return deadlock_[s];
  }

  /// All deadlock states at once (counterexample search targets this set).
  [[nodiscard]] const SatSet& deadlockSet() const { return deadlock_; }

  /// Atoms that named no proposition of the model (treated as false);
  /// surfaced so property typos do not silently verify.
  [[nodiscard]] const std::vector<std::string>& unknownAtoms() const {
    return unknownAtoms_;
  }


 private:
  /// Builds the forward and backward CSR and the deadlock set.
  void index();
  SatSet atomSat(const std::string& name);

  // Unbounded fixpoints (worklist, O(S + E) each).
  SatSet fixAF(const SatSet& phi);
  SatSet fixEF(const SatSet& phi);
  SatSet fixAG(const SatSet& phi);
  SatSet fixEG(const SatSet& phi);
  SatSet fixAU(const SatSet& phi, const SatSet& psi);
  SatSet fixEU(const SatSet& phi, const SatSet& psi);

  // Positional (bounded / lower-bounded) evaluation; see checker.cpp.
  SatSet boundedTemporal(Op op, const Bound& b, const SatSet& phi,
                         const SatSet& psi);

  // CSR slices over the duplicate-free successor/predecessor lists.
  [[nodiscard]] std::size_t outDegree(StateId s) const {
    return succHead_[s + 1] - succHead_[s];
  }
  template <typename F>
  void forSucc(StateId s, F&& f) const {
    for (std::uint32_t i = succHead_[s]; i < succHead_[s + 1]; ++i) {
      f(succList_[i]);
    }
  }
  template <typename F>
  void forPred(StateId s, F&& f) const {
    for (std::uint32_t i = predHead_[s]; i < predHead_[s + 1]; ++i) {
      f(predList_[i]);
    }
  }

  std::unique_ptr<automata::FlatProduct> owned_;  // the Automaton case
  const automata::FlatProduct& g_;
  // Duplicate-free edge set in CSR form, forwards and backwards.
  std::vector<std::uint32_t> succHead_;  // size n+1
  std::vector<StateId> succList_;
  std::vector<std::uint32_t> predHead_;  // size n+1
  std::vector<StateId> predList_;
  SatSet deadlock_;
  std::vector<std::string> unknownAtoms_;
  std::unordered_set<std::string> unknownAtomSet_;
};

}  // namespace mui::ctl

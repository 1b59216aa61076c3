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
// Every temporal operator runs as one worklist pass over a precomputed
// predecessor index (CSR over the duplicate-free edge set). F and U are
// distance labellings: target states (φ for F, ψ for U) get D = 0, an
// eligible state (one with a successor, and a φ-state for U) gets 1 + the
// maximum (A) or minimum (E) D over its successors, every other state
// D = ∞. Universal operators keep a pending-successor counter per state;
// a FIFO queue hands the labels out in nondecreasing order, so a bounded
// window [a, b] stops the pass once the labels pass b − a. G is the dual:
// AG[a,b] φ = ¬EF[a,b] ¬φ and EG[a,b] φ = ¬AF[a,b] ¬φ. Window positions
// below a take one AX/EX pass each. An operator costs O(a·(S + E) + S + E)
// whatever its upper bound, against the O(S · diameter) Gauss–Seidel sweeps
// of the retained reference implementation (ctl/reference.hpp).
// Satisfaction sets are dense bitsets (one bit per state, word-parallel
// boolean connectives).
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

/// δ per state: the states of `g` whose edge range is empty.
SatSet deadlockStates(const automata::FlatProduct& g);

/// AF[a,b] φ at every position of its window: the counterexample search
/// walks a ¬AF witness forward through these (ctl/counterexample.hpp).
class AFPositions {
 public:
  /// True iff AF[a,b] φ holds at s seen as position j of the window, i.e.
  /// iff AF[a−j, b−j] φ (lower bound clamped at 0) holds at s.
  [[nodiscard]] bool holds(StateId s, std::size_t j) const;

 private:
  friend class Checker;
  Bound bound_;
  std::vector<SatSet> below_;        // positions 0 .. a−1
  std::vector<std::uint32_t> dist_;  // positions ≥ a: D ≤ b − j
};

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

  /// AF[b] φ position by position: one distance pass plus one pass per
  /// position below b.lo, whose b.lo satisfaction sets it keeps.
  AFPositions afPositions(const FormulaPtr& phi, Bound b);

  /// δ per state: no outgoing transition.
  [[nodiscard]] bool isDeadlockState(StateId s) const {
    return deadlock_[s];
  }

  /// Atoms that named no proposition of the model (treated as false);
  /// surfaced so property typos do not silently verify.
  [[nodiscard]] const std::vector<std::string>& unknownAtoms() const {
    return unknownAtoms_;
  }

 private:
  /// Builds the forward and backward CSR and the deadlock set.
  void index();
  SatSet atomSat(const std::string& name);

  /// True iff all (universal) or some successors of s lie in `p`.
  [[nodiscard]] bool succIn(bool universal, StateId s, const SatSet& p) const;
  /// AX p (universal; vacuous on deadlock states) or EX p.
  SatSet next(bool universal, const SatSet& p) const;
  /// One window position before the window opens: the F/U operator holds
  /// at s iff s may continue (not a deadlock, in `guard` if given) and all
  /// (universal) or some successors hold one position later (`later`).
  SatSet stepBack(bool universal, const SatSet& later,
                  const SatSet* guard) const;
  /// The F/U distance labelling (header comment) of `target`; eligible
  /// states must lie in `guard` if one is given. Returns {D ≤ limit};
  /// `dist`, if given, receives every label ≤ limit (the maximum value
  /// elsewhere).
  SatSet distances(bool universal, const SatSet& target, const SatSet* guard,
                   std::size_t limit, std::vector<std::uint32_t>* dist);
  /// F (psi == nullptr: target φ) or U (guard φ, target ψ) over window b:
  /// the satisfaction set at position b.lo, i.e. {D ≤ b.hi − b.lo}.
  SatSet windowStart(bool universal, Bound b, const SatSet& phi,
                     const SatSet* psi, std::vector<std::uint32_t>* dist);
  /// Any bounded or unbounded F/G/U operator (psi only for U).
  SatSet temporal(Op op, Bound b, const SatSet& phi, const SatSet* psi);

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

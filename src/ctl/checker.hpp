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
//
// A product that links a chaos region (automata::ChaosRegion) is checked
// over its own states only. No edge leaves the region, so a region state's
// sat-sets and distance labels are the same in every product that links
// it: a RegionMemo computes them once per formula on the region, and the
// product's passes take them as given. A region state joins a distance
// pass at its memoized label, so the product's own states get the labels
// a pass over the whole product gives them.

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
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

/// A Checker's labels of every subformula of one formula on a chaos
/// region's product (automata::ChaosRegion::product()): the sat-set and,
/// for a temporal operator, the distance labels and window-position sets
/// of its F/U pass (of the dual F pass for G). It covers the region's
/// states when it was built; states added since read false and
/// unreachable, so rebuild it once the region grew.
class RegionMemo {
 public:
  /// Evaluates `phi` on `region`, which must outlive the memo.
  RegionMemo(const automata::FlatProduct& region, FormulaPtr phi);

  /// The region states covered.
  [[nodiscard]] std::size_t stateCount() const { return states_; }

 private:
  friend class Checker;
  struct Labels {
    SatSet sat;
    std::vector<std::uint32_t> dist;  // the F/U pass's labels
    std::vector<SatSet> positions;    // its sat-sets at positions 0 .. lo
  };
  /// The labels of `f`; throws std::logic_error unless f is a subformula
  /// of the memo's formula.
  [[nodiscard]] const Labels& at(const Formula* f) const;

  const automata::FlatProduct* region_;
  std::size_t states_;
  FormulaPtr phi_;  // keeps the keys of nodes_ alive
  SatSet deadlock_;
  std::unordered_map<const Formula*, Labels> nodes_;
};

class Checker {
 public:
  /// Checks `g`, which must outlive the checker.
  explicit Checker(const automata::FlatProduct& g);
  /// Checks `m` as its one-component product (FlatProduct::of).
  explicit Checker(const Automaton& m);
  /// Checks `g`, which links the chaos region `memo` was built on, over
  /// g's own states: the region's labels are the memo's. Evaluates the
  /// subformulas of the memo's formula only (std::logic_error otherwise).
  /// Throws std::invalid_argument if g links no region or another one.
  Checker(const automata::FlatProduct& g, const RegionMemo& memo);

  /// Satisfaction set (per state) of `f`.
  SatSet evaluate(const FormulaPtr& f);

  /// True iff every initial state satisfies `f`.
  bool holds(const FormulaPtr& f);

  /// af = AF[b] φ position by position: one distance pass plus one pass
  /// per position below b.lo, whose b.lo satisfaction sets it keeps.
  AFPositions afPositions(const FormulaPtr& af);

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
  friend class RegionMemo;
  using Labels = RegionMemo::Labels;

  /// Builds the forward and backward CSR of the states the passes label
  /// and the deadlock set.
  void index();
  SatSet atomSat(const std::string& name);
  /// evaluate() below the region: the product's own states.
  SatSet evaluateOwn(const FormulaPtr& f, const Labels* seed, Labels* rec);

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
  /// elsewhere). `seed` holds the linked region's labels of the same pass.
  SatSet distances(bool universal, const SatSet& target, const SatSet* guard,
                   std::size_t limit, std::vector<std::uint32_t>* dist,
                   const std::vector<std::uint32_t>* seed);
  /// F (psi == nullptr: target φ) or U (guard φ, target ψ) over window b:
  /// the satisfaction set at position b.lo, i.e. {D ≤ b.hi − b.lo}.
  SatSet windowStart(bool universal, Bound b, const SatSet& phi,
                     const SatSet* psi, std::vector<std::uint32_t>* dist,
                     const Labels* seed);
  /// Any bounded or unbounded F/G/U operator (psi only for U). `seed`
  /// holds the linked region's labels of the operator, and `rec`, if
  /// given, receives the pass's labels.
  SatSet temporal(Op op, Bound b, const SatSet& phi, const SatSet* psi,
                  const Labels* seed, Labels* rec);

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
  const RegionMemo* memo_ = nullptr;  // the linked region's labels
  RegionMemo* record_ = nullptr;      // a memo being built on g
  StateId own_;                       // the states the passes label
  std::vector<StateId> boundary_;     // region states with a predecessor
  // Duplicate-free edge set in CSR form, forwards and backwards.
  std::vector<std::uint32_t> succHead_;  // size n+1
  std::vector<StateId> succList_;
  std::vector<std::uint32_t> predHead_;  // size n+1
  std::vector<StateId> predList_;
  SatSet deadlock_;
  std::vector<std::pair<std::string, SatSet>> atoms_;  // evaluated atoms
  std::vector<std::string> unknownAtoms_;
  std::unordered_set<std::string> unknownAtomSet_;
};

}  // namespace mui::ctl

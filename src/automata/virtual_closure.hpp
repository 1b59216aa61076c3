#pragma once
// chaos(M) (paper Def. 9) as a view for the lean product engine
// (flat_product.hpp): the closure's successors are enumerated on demand
// from the incomplete automaton and the alphabet instead of being built
// into an Automaton every refinement round.
//
// The view keeps chaoticClosure's state numbering, names, labels, initial
// states and per-state edge order (chaos.hpp), so a product over it equals
// composeAll over chaoticClosure(...).automaton:
//   - ClosureCopies::Both: (s, 0) = 2s, (s, 1) = 2s+1, s_∀ = 2n, s_δ = 2n+1;
//   - ClosureCopies::Copy1Only: (s, 1) = s, s_∀ = n, s_δ = n+1.
// Construction only packs the known transitions and computes, per known
// state, which alphabet interactions continue into chaos (the chaos
// mask); it costs O(|T| + |S|·|alphabet|) and allocates no names.

#include <string>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/flat_product.hpp"
#include "automata/incomplete.hpp"

namespace mui::automata {

class VirtualClosure final : public FlatComponent {
 public:
  /// The view of chaoticClosure(m, alphabet, style, copies, chaosProp) at
  /// word stride `stride`; interns `chaosProp` as chaoticClosure does.
  /// `alphabet` must be duplicate-free, as makeAlphabet returns it. Throws
  /// std::invalid_argument if an alphabet interaction lies outside m's
  /// interface. `m` must outlive the view. Learning may extend it
  /// meanwhile (existing states keep their ids, names and labels); the
  /// view keeps the transitions and the chaos mask it was built with.
  VirtualClosure(const IncompleteAutomaton& m,
                 const std::vector<Interaction>& alphabet, ClosureStyle style,
                 ClosureCopies copies, std::size_t stride,
                 const std::string& chaosProp = kChaosProp);

  [[nodiscard]] std::size_t stateCount() const override {
    return copies_ * known_ + 2;
  }
  [[nodiscard]] std::string stateName(StateId c) const override;
  [[nodiscard]] const PropSet& labels(StateId c) const override;
  [[nodiscard]] std::vector<StateId> initialStates() const override;
  void edges(StateId c, std::vector<EdgeRef>& out) const override;

  [[nodiscard]] StateId sAll() const {
    return static_cast<StateId>(copies_ * known_);
  }
  [[nodiscard]] StateId sDelta() const { return sAll() + 1; }
  [[nodiscard]] bool isChaos(StateId c) const { return c >= sAll(); }
  /// Known-model state behind a copy state; 0 for the chaos states (as
  /// Closure::knownOrigin).
  [[nodiscard]] StateId knownOrigin(StateId c) const {
    return isChaos(c) ? 0 : static_cast<StateId>(c / copies_);
  }
  /// The (s, 1) copy of known state s.
  [[nodiscard]] StateId copy1(StateId s) const {
    return static_cast<StateId>(s * copies_ + copies_ - 1);
  }

 private:
  const IncompleteAutomaton& m_;
  std::size_t known_;   // |S| of the known model
  std::size_t copies_;  // 2 for Both, 1 for Copy1Only
  PropSet chaosLabels_;
  std::vector<std::uint32_t> knownHead_;  // CSR over T, size |S|+1
  std::vector<StateId> knownTo_;
  std::vector<Word> knownWords_;          // 2·stride words per edge
  std::vector<Word> alphabetWords_;       // 2·stride words per interaction
  std::vector<std::uint32_t> chaosHead_;  // chaos mask as CSR, size |S|+1
  std::vector<std::uint32_t> chaosAlpha_; // alphabet indices
};

}  // namespace mui::automata

#pragma once
// chaos(M) (paper Def. 9) as views for the lean product engine
// (flat_product.hpp).
//
// VirtualClosure is the optimistic closure, chaoticClosure(..., Copy1Only):
// its successors are enumerated on demand from the incomplete automaton and
// the alphabet instead of being built into an Automaton every refinement
// round. It keeps chaoticClosure's state numbering ((s, 1) = s, s_∀ = n,
// s_δ = n+1), names, labels, initial states and per-state edge order
// (chaos.hpp), so a product over it equals composeAll over the Copy1Only
// closure. Construction only packs the known transitions and computes, per
// known state, which alphabet interactions continue into chaos (the chaos
// mask); it costs O(|T| + |S|·|alphabet|) and allocates no names.
//
// DoubledProduct is Def. 9's two-copy (pessimistic) product seen through
// the copy-1 one, so deadlock freedom is decided without composing it: the
// two copies of a known state differ only in that (s, 0) has no chaos
// edges, and every known edge reaches both (t, 0) and (t, 1).

#include <cstdint>
#include <string>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/flat_product.hpp"
#include "automata/incomplete.hpp"

namespace mui::automata {

class VirtualClosure final : public FlatComponent {
 public:
  /// The view of chaoticClosure(m, alphabet, style, Copy1Only, chaosProp)
  /// at word stride `stride`; interns `chaosProp` as chaoticClosure does.
  /// `alphabet` must be duplicate-free, as makeAlphabet returns it. Throws
  /// std::invalid_argument if an alphabet interaction lies outside m's
  /// interface. `m` must outlive the view. Learning may extend it
  /// meanwhile (existing states keep their ids, names and labels); the
  /// view keeps the transitions and the chaos mask it was built with.
  VirtualClosure(const IncompleteAutomaton& m,
                 const std::vector<Interaction>& alphabet, ClosureStyle style,
                 std::size_t stride,
                 const std::string& chaosProp = kChaosProp);

  [[nodiscard]] std::size_t stateCount() const override { return known_ + 2; }
  [[nodiscard]] std::string stateName(StateId c) const override;
  [[nodiscard]] const PropSet& labels(StateId c) const override;
  [[nodiscard]] std::vector<StateId> initialStates() const override;
  void edges(StateId c, std::vector<EdgeRef>& out) const override;
  [[nodiscard]] StateId chaosBegin() const override { return sAll(); }

  [[nodiscard]] StateId sAll() const { return static_cast<StateId>(known_); }
  [[nodiscard]] StateId sDelta() const { return sAll() + 1; }
  [[nodiscard]] bool isChaos(StateId c) const { return c >= sAll(); }

 private:
  const IncompleteAutomaton& m_;
  std::size_t known_;  // |S| of the known model
  PropSet chaosLabels_;
  std::vector<std::uint32_t> knownHead_;  // CSR over T, size |S|+1
  std::vector<StateId> knownTo_;
  std::vector<Word> knownWords_;          // 2·stride words per edge
  std::vector<Word> alphabetWords_;       // 2·stride words per interaction
  std::vector<std::uint32_t> chaosHead_;  // chaos mask as CSR, size |S|+1
  std::vector<std::uint32_t> chaosAlpha_; // alphabet indices
};

/// Def. 9's pessimistic product, the context composed with every legacy's
/// two-copy closure chaoticClosure(M_l, ..., Both), as a view over `copy1`,
/// the context (component 0) composed with the legacies' VirtualClosures
/// (components 1..K) by composeFlat without a bound, over a ChaosRegion or
/// not. A linked region state that `copy1` does not reach is no node.
///
/// A node is a copy-1 product state plus the copy bit of each legacy that
/// sits at a known state; a legacy in chaos has no copy bit. Every node is
/// reachable, so stateCount() is the pessimistic product's size. Nodes,
/// initial nodes and successors come in the order composeFlat gives the
/// pessimistic product:
///   - initial nodes: for each initial row, legacy k's copies 0 and 1 in
///     turn, legacy 1 outermost;
///   - successors of a node, per edge of its state: a legacy at a known
///     state s moving to a known state t reaches (t, b) and then (t, 1−b),
///     where b is its copy bit; one moving into chaos takes the edge only
///     from (s, 1); a legacy in chaos keeps its own edges. With several
///     legacies, edges are ordered by (context edge, legacy-1 edge, its
///     copy, legacy-2 edge, its copy, ...), read off FlatProduct::edgeBranch.
class DoubledProduct {
 public:
  struct Node {
    StateId state;          // the copy-1 product state
    std::uint32_t copies;   // bit k-1: legacy k sits at the (s, 1) copy
  };
  /// One successor: the node and the copy-1 product edge it follows.
  struct Step {
    Node to;
    std::uint32_t edge;
  };

  /// `closures[k]` is component k+1 of `copy1`. Throws
  /// std::invalid_argument if copy1 was capped, has other components, or
  /// composes more than 32 legacies.
  DoubledProduct(const FlatProduct& copy1,
                 const std::vector<VirtualClosure>& closures);

  [[nodiscard]] const FlatProduct& product() const { return p_; }
  /// Σ over reached copy-1 states of 2^(legacies at a known state).
  [[nodiscard]] std::size_t stateCount() const { return states_; }
  /// A number of the node below slotCount(), distinct per node.
  [[nodiscard]] std::size_t index(Node n) const {
    return (std::size_t{n.state} << (sAll_.size() - 1)) | n.copies;
  }
  [[nodiscard]] std::size_t slotCount() const {
    return p_.stateCount() << (sAll_.size() - 1);
  }
  [[nodiscard]] std::vector<Node> initialNodes() const;
  /// Replaces `out` with the successors of n, in order.
  void successors(Node n, std::vector<Step>& out) const;
  [[nodiscard]] bool deadlocked(Node n) const;
  /// Whether some node is deadlocked: some reached state whose every edge
  /// takes a legacy from a known state into chaos (its all-copy-0 node is
  /// stuck).
  [[nodiscard]] bool anyDeadlock() const;
  /// "ctx|a'|s_all": copy-1 states of known legacy states are primed, as
  /// chaoticClosure names them.
  [[nodiscard]] std::string stateName(Node n) const;
  /// FlatProduct::renderRun with copies[i] as the copy bits at run
  /// position i.
  [[nodiscard]] std::string renderRun(
      const Run& run, const std::vector<std::uint32_t>& copies) const;

 private:
  [[nodiscard]] bool known(StateId p, std::size_t k) const {
    return p_.origin(p, k) < sAll_[k];
  }
  /// Bit k-1: legacy k sits at a known state (none do in the region).
  [[nodiscard]] std::uint32_t knownMask(StateId p) const {
    return p < knownMask_.size() ? knownMask_[p] : 0;
  }
  void expand(Node n, std::size_t k, std::uint32_t lo, std::uint32_t hi,
              std::uint32_t copies, std::vector<Step>& out) const;

  const FlatProduct& p_;
  std::vector<StateId> sAll_;              // per component; 0 for the context
  std::vector<std::size_t> initialCount_;  // per component
  std::vector<std::uint32_t> knownMask_;   // per copy-1 state before the
                                           // linked region
  std::size_t states_ = 0;
};

}  // namespace mui::automata

#pragma once
// The lean product engine: a flat CSR product graph (paper Def. 3), the
// N-ary breadth-first composer that builds it, and the one graph type the
// CCTL checker and the counterexample search read (ctl/checker.hpp).
//
// composeAll (compose.hpp) builds a general Automaton per product: a name
// string and a hash-map entry per state, a per-state interaction index, a
// label union per state, and DynBitset temporaries for every matching test.
// The refinement loop needs none of that. Here a product state is a row of
// component states (the origins, one n×K array), an edge stores its target
// and its joint label (A, B) as raw signal words at a per-product stride,
// and atoms and state names are read through the origins on demand.
//
// Composable components have pairwise disjoint I and O sets, so the
// matching condition of composeAll's binary fold splits into one condition
// per component pair, and a lexicographic N-ary BFS numbers the states and
// orders the edges exactly as the fold does. composeAll stays as the
// reference; fuzz oracle O7 checks that the two agree.
//
// A chaos region (ChaosRegion) is the part of the refinement loop's
// products in which every legacy sits at Def. 8's s_∀ or s_δ. It does not
// depend on what is learned, so the loop composes it once per job and each
// round's product links it instead of composing it again.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "util/bitset.hpp"

namespace mui::automata {

using Word = std::uint64_t;

/// One outgoing edge of a component state. `label` points at 2·stride
/// words: A ⊆ I in [0, stride), B ⊆ O in [stride, 2·stride).
struct EdgeRef {
  const Word* label;
  StateId to;
};

/// Words needed to hold every input and output set of `interfaces` (at
/// least one).
std::size_t strideFor(const std::vector<const Automaton*>& interfaces);

/// Packs `s` into `stride` words at `dst`.
void packWords(const SignalSet& s, std::size_t stride, Word* dst);

/// One component of a flat product: what composition, checking and
/// rendering read of it. Its name, interface and tables are those of
/// base(); states, names, labels and edges come from the subclass.
class FlatComponent {
 public:
  virtual ~FlatComponent() = default;
  FlatComponent& operator=(const FlatComponent&) = delete;
  FlatComponent& operator=(FlatComponent&&) = delete;

  [[nodiscard]] const Automaton& base() const { return base_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }

  [[nodiscard]] virtual std::size_t stateCount() const = 0;
  [[nodiscard]] virtual std::string stateName(StateId s) const = 0;
  [[nodiscard]] virtual const PropSet& labels(StateId s) const = 0;
  [[nodiscard]] virtual std::vector<StateId> initialStates() const = 0;
  /// Replaces `out` with the edges of `s`, in insertion order.
  virtual void edges(StateId s, std::vector<EdgeRef>& out) const = 0;
  /// The component's chaos states are chaosBegin() (s_∀) and the state
  /// after it (s_δ): names, labels and edges are those of
  /// chaoticAutomaton's states 0 and 1 over the component's alphabet.
  /// stateCount() when the component has none.
  [[nodiscard]] virtual StateId chaosBegin() const {
    return static_cast<StateId>(stateCount());
  }

 protected:
  /// Throws std::invalid_argument if base()'s interface needs more than
  /// `stride` words.
  FlatComponent(const Automaton& base, std::size_t stride);
  FlatComponent(const FlatComponent&) = default;
  FlatComponent(FlatComponent&&) = default;

 private:
  const Automaton& base_;
  std::size_t stride_;
};

/// A concrete automaton as a flat component: its transitions with labels
/// packed once at the stride. The automaton must outlive the component.
class AutomatonComponent final : public FlatComponent {
 public:
  AutomatonComponent(const Automaton& a, std::size_t stride);

  [[nodiscard]] std::size_t stateCount() const override;
  [[nodiscard]] std::string stateName(StateId s) const override;
  [[nodiscard]] const PropSet& labels(StateId s) const override;
  [[nodiscard]] std::vector<StateId> initialStates() const override;
  void edges(StateId s, std::vector<EdgeRef>& out) const override;

 private:
  std::vector<std::uint32_t> head_;  // size n+1
  std::vector<StateId> to_;
  std::vector<Word> words_;  // 2·stride words per edge
};

class ChaosRegion;
class RowIndex;

/// A composed product in CSR form. Edge labels are raw words; they become
/// Interactions only when a run is built (edgeLabel).
///
/// A product composed over a ChaosRegion links the region: its own states
/// come first, and the region's states follow from regionBegin() on, in
/// the region's order, with their edges, edge labels and branch levels.
/// Their origins read as the product's components number them (s_∀ at
/// each closure's chaosBegin()). The region's states the product does not
/// reach still count in stateCount(), not in fullStateCount(). Such a
/// product stays valid while its region grows.
class FlatProduct {
 public:
  /// The one-component product of `a`: all of its states, reachable or
  /// not, in its own numbering (what composeAll({&a}) builds). The product
  /// keeps a reference to `a`.
  static FlatProduct of(const Automaton& a);

  [[nodiscard]] std::size_t stateCount() const {
    return head_.size() - 1 + regionStates_;
  }
  [[nodiscard]] std::size_t edgeCount() const {
    return to_.size() + regionEdges_;
  }
  /// The first linked region state: stateCount() unless the product was
  /// composed over a ChaosRegion.
  [[nodiscard]] StateId regionBegin() const {
    return static_cast<StateId>(head_.size() - 1);
  }
  /// The region's product, or null.
  [[nodiscard]] const FlatProduct* region() const { return region_; }
  /// The size of the product composeFlat builds without a region: the
  /// product's own states and the region states they reach.
  [[nodiscard]] std::size_t fullStateCount() const {
    return regionBegin() + regionReached_.count();
  }
  /// Whether linked region state s (s ≥ regionBegin()) is reached from the
  /// initial states.
  [[nodiscard]] bool regionReached(StateId s) const {
    return regionReached_[s - regionBegin()];
  }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t componentCount() const { return comps_.size(); }
  [[nodiscard]] const FlatComponent& component(std::size_t k) const {
    return *comps_[k];
  }
  /// State of component k in product state p.
  [[nodiscard]] StateId origin(StateId p, std::size_t k) const {
    const std::size_t width = comps_.size();
    if (p < regionBegin()) return origins_[p * width + k];
    return regionBase_[k] + region_->origins_[(p - regionBegin()) * width + k];
  }
  [[nodiscard]] const std::vector<StateId>& initialStates() const {
    return initial_;
  }
  /// Whether composeFlat's bound dropped a state: the unbounded product is
  /// larger than this one.
  [[nodiscard]] bool capped() const { return capped_; }
  [[nodiscard]] const SignalTableRef& signalTable() const {
    return comps_.front()->base().signalTable();
  }
  [[nodiscard]] const SignalTableRef& propTable() const {
    return comps_.front()->base().propTable();
  }

  /// Edges of s are [edgeBegin(s), edgeEnd(s)), in insertion order.
  [[nodiscard]] std::uint32_t edgeBegin(StateId s) const {
    if (s < regionBegin()) return head_[s];
    return learnedEdges() + region_->head_[s - regionBegin()];
  }
  [[nodiscard]] std::uint32_t edgeEnd(StateId s) const {
    if (s < regionBegin()) return head_[s + 1];
    return learnedEdges() + region_->head_[s - regionBegin() + 1];
  }
  [[nodiscard]] StateId edgeTarget(std::uint32_t e) const {
    if (e < learnedEdges()) return to_[e];
    return regionBegin() + region_->to_[e - learnedEdges()];
  }
  [[nodiscard]] const Word* edgeWords(std::uint32_t e) const {
    const std::size_t w2 = 2 * stride_;
    if (e < learnedEdges()) return labels_.data() + e * w2;
    return region_->labels_.data() + (e - learnedEdges()) * w2;
  }
  [[nodiscard]] Interaction edgeLabel(std::uint32_t e) const;
  /// The first component whose edge choice differs between edge e and the
  /// edge before it in its state's range (0 for a state's first edge).
  /// Edges that share their choices for components 0..k-1 are contiguous,
  /// so this marks where each component's choice begins and ends.
  [[nodiscard]] std::size_t edgeBranch(std::uint32_t e) const {
    if (e < learnedEdges()) return branch_[e];
    return region_->branch_[e - learnedEdges()];
  }

  /// States carrying proposition `prop` (Def. 3: L''(p) is the union of
  /// the components' labels at p's origins). With `region` false, linked
  /// region states read false.
  [[nodiscard]] util::DenseBitset atomSat(util::NameId prop,
                                          bool region = true) const;

  /// "a|b|c": the component state names, as composeAll names the state.
  [[nodiscard]] std::string stateName(StateId p) const;

  /// Def. 3's matching condition between an edge label `li` of component i
  /// and an edge label `lk` of component k.
  [[nodiscard]] bool matches(std::size_t i, const Word* li, std::size_t k,
                             const Word* lk) const;

  /// Projects a product interaction onto component k: (A'' ∩ I_k,
  /// B'' ∩ O_k).
  [[nodiscard]] Interaction projectInteraction(const Interaction& x,
                                               std::size_t k) const;

  /// Product::renderRun's Listing 1.1 rendering, byte for byte.
  [[nodiscard]] std::string renderRun(const Run& run) const;
  /// The same rendering with the state names that `appendState` gives.
  [[nodiscard]] std::string renderRun(const Run& run,
                                      const StateAppender& appendState) const;

 private:
  friend FlatProduct composeFlat(std::vector<const FlatComponent*>,
                                 std::size_t);
  friend FlatProduct composeFlat(std::vector<const FlatComponent*>,
                                 ChaosRegion&);
  friend class ChaosRegion;
  class Expander;

  /// Sets the components and packs their interfaces at their stride.
  void setComponents(std::vector<const FlatComponent*> comps);
  /// The single component's states, edges and initials, as they are, up
  /// to its first `maxStates` states.
  void copySingle(std::size_t maxStates);
  /// Edges of the product's own states; the linked region's follow.
  [[nodiscard]] std::uint32_t learnedEdges() const {
    return static_cast<std::uint32_t>(to_.size());
  }

  std::vector<const FlatComponent*> comps_;
  std::unique_ptr<FlatComponent> owned_;  // of(): the wrapped automaton
  std::size_t stride_ = 1;
  std::vector<Word> ifaces_;  // per component: I words, then O words
  std::vector<StateId> origins_;  // n×K
  std::vector<std::uint32_t> head_{0};
  std::vector<StateId> to_;
  std::vector<Word> labels_;  // 2·stride words per edge
  std::vector<std::uint8_t> branch_;  // per edge, see edgeBranch
  std::vector<StateId> initial_;
  bool capped_ = false;
  // The linked chaos region (composeFlat over a ChaosRegion): its product,
  // the states and edges linked, per component the offset of its origins
  // (s_∀ for a closure, 0 for the context), and which states are reached.
  const FlatProduct* region_ = nullptr;
  std::size_t regionStates_ = 0;
  std::uint32_t regionEdges_ = 0;
  std::vector<StateId> regionBase_;
  util::DenseBitset regionReached_;
};

/// Def. 8's chaos region of one integration job: the context composed with
/// chaoticAutomaton(I_k, O_k, alphabet_k) for every legacy k, over the rows
/// that composeFlat(components, region) links to it, and every row they
/// reach. A row holds a context state and, per legacy, 0 (s_∀) or 1 (s_δ).
/// No edge leaves the region and nothing in it depends on what was
/// learned, so one region serves every round of a job, whatever the
/// closure style. It grows on demand: a new row is composed together with
/// every row it reaches, breadth first, so the ids, edges and labels of
/// its states never change.
class ChaosRegion {
 public:
  /// `context` is component 0 of the products that will link the region,
  /// and legacy k has the interface of `interfaces[k]` and the alphabet
  /// `alphabets[k]`, as its VirtualClosure has. Interns `chaosProp`.
  /// Throws std::invalid_argument where composeFlat does. `context` must
  /// outlive the region.
  ChaosRegion(const FlatComponent& context,
              const std::vector<const Automaton*>& interfaces,
              const std::vector<std::vector<Interaction>>& alphabets,
              const std::string& chaosProp = kChaosProp);
  ~ChaosRegion();
  ChaosRegion(const ChaosRegion&) = delete;
  ChaosRegion& operator=(const ChaosRegion&) = delete;
  ChaosRegion(ChaosRegion&&) = delete;
  ChaosRegion& operator=(ChaosRegion&&) = delete;

  /// The region as a product without initial states: its states in the
  /// order they were linked, a legacy's origin 0 at s_∀ and 1 at s_δ.
  [[nodiscard]] const FlatProduct& product() const { return product_; }
  [[nodiscard]] std::size_t stateCount() const {
    return product_.stateCount();
  }

 private:
  friend FlatProduct composeFlat(std::vector<const FlatComponent*>,
                                 ChaosRegion&);
  /// The region state of `row`; a new row is composed with what it
  /// reaches.
  StateId link(const StateId* row);

  std::vector<Automaton> chaotic_;
  std::vector<std::unique_ptr<AutomatonComponent>> legacies_;
  FlatProduct product_;
  std::unique_ptr<RowIndex> index_;
};

/// Def. 3 over all components at once: the same states, numbering, edges,
/// edge order, origins and labels as composeAll over the same automata,
/// and the same mui_compose_* metrics. Throws std::invalid_argument where
/// composeAll does (no components, unshared tables, overlapping I or O)
/// and on components of different strides. The components must outlive
/// the product.
///
/// Once the product holds `maxStates` states, edges to further states
/// (initial ones included) are dropped and capped() is set; the admitted
/// states are still expanded. The result is the unbounded product's first
/// `maxStates` states with their edges to those states, in the same order.
FlatProduct composeFlat(
    std::vector<const FlatComponent*> components,
    std::size_t maxStates = std::numeric_limits<std::size_t>::max());

/// composeFlat over the region's context (component 0) and closures with
/// chaos states (FlatComponent::chaosBegin), one per legacy of the region,
/// linking every row in which each closure sits at a chaos state to
/// `region` instead of composing it; the region grows by the rows it did
/// not hold yet. Up to renumbering, the product's states reachable from
/// its initial states, with their names, origins, labels and edges in
/// order, are what the unbounded composeFlat over the same components
/// builds. The mui_compose_* metrics count the product's own states plus
/// the region's new ones. Throws std::invalid_argument where composeFlat
/// does, and when the components are not the region's context and
/// closures of its legacies' interfaces.
FlatProduct composeFlat(std::vector<const FlatComponent*> components,
                        ChaosRegion& region);

}  // namespace mui::automata

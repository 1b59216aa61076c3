#pragma once
// The chaotic automaton (paper Def. 8) and the chaotic closure (Def. 9).
//
// chaos(M) is the safe over-approximation at the heart of the approach: it
// extends an incomplete behavioral model M of the legacy component with
// "anything could happen" continuations (s_∀ accepts everything, s_δ refuses
// everything), so that the real component always *refines* chaos(M)
// (Thm. 1) and verification verdicts transfer (Lemma 5).

#include <string>
#include <vector>

#include "automata/incomplete.hpp"

namespace mui::automata {

/// Default name of the fresh proposition p' labeling the chaotic states
/// (paper Sec. 2.7: instead of doubling chaos states per proposition subset,
/// formulas are weakened with p ↦ p ∨ p_chaos).
inline constexpr const char* kChaosProp = "p_chaos";

/// Which chaos continuations the closure adds from the (s, 1) copies.
enum class ClosureStyle {
  /// Literal Def. 9: chaos edges for every (A, B) ∉ T̄ — including
  /// interactions already in T.
  PaperExact,
  /// Chaos edges only for (A, B) ∉ T̄ ∧ (A, B) not enabled in T at s.
  /// Exploits the determinism of the legacy component (paper Sec. 4.3): a
  /// known (s, A, B) has a unique known successor, so no chaotic
  /// continuation is possible for it. This keeps Thm. 1 valid for
  /// deterministic components and guarantees that every counterexample
  /// entering chaos does so via a genuinely unknown interaction — the
  /// strict-progress property behind Thm. 2's termination (DESIGN.md §6).
  DeterministicTarget,
};

/// The chaotic closure chaos(M) with bookkeeping to map closure states back
/// to the known model.
struct Closure {
  /// How a closure state originated (Def. 9's construction).
  enum class Kind : std::uint8_t {
    Copy0,      // (s, 0): no further extension assumed — unknowns deadlock
    Copy1,      // (s, 1): all extensions assumed — unknowns lead to chaos
    ChaosAll,   // s_∀
    ChaosDelta  // s_δ
  };
  struct Origin {
    Kind kind;
    StateId knownState;  // valid for Copy0/Copy1
  };

  Automaton automaton;
  StateId sAll = 0;
  StateId sDelta = 0;
  std::vector<Origin> origins;  // indexed by closure state
  /// Twin maps: copy0[s] / copy1[s] are the closure states (s, 0) / (s, 1)
  /// of known-model state s. The copy-1 twin carries the chaos edges and is
  /// used when enumerating the component's *possible* moves.
  std::vector<StateId> copy0;
  std::vector<StateId> copy1;

  [[nodiscard]] bool isChaos(StateId s) const {
    const Kind k = origins[s].kind;
    return k == Kind::ChaosAll || k == Kind::ChaosDelta;
  }
  /// Known-model state behind a Copy0/Copy1 closure state. Paper Sec. 4.2:
  /// runs treat (s, i) as equivalent to s.
  [[nodiscard]] StateId knownOrigin(StateId s) const {
    return origins[s].knownState;
  }
};

/// The maximal chaotic automaton of Def. 8 over the given interface, with
/// both states initial and both labeled `chaosProp`.
Automaton chaoticAutomaton(const SignalTableRef& signals,
                           const SignalTableRef& props, const SignalSet& ins,
                           const SignalSet& outs,
                           const std::vector<Interaction>& alphabet,
                           const std::string& name = "chaos",
                           const std::string& chaosProp = kChaosProp);

/// Which copies of the known states the closure contains.
enum class ClosureCopies {
  /// Literal Def. 9: both (s, 0) (unknown interactions deadlock — the
  /// pessimistic reading needed for deadlock-freedom checking) and (s, 1)
  /// (unknown interactions lead to chaos).
  Both,
  /// Only the (s, 1) copies: unknown continuations all go to chaos, which
  /// satisfies every weakened literal. Verifying a property on this
  /// *optimistic* closure ensures any all-known counterexample is forced by
  /// the visited states alone — i.e. real — even for bounded-liveness
  /// obligations whose witnesses need a path suffix. Dying paths here stem
  /// only from *verified* refusals (T̄), never from ignorance. Sound for
  /// property checking when deadlock freedom is established against the
  /// Both-closure (see synthesis/verifier.hpp).
  Copy1Only,
};

/// The chaotic closure of Def. 9. `alphabet` stands for ℘(I) × ℘(O) (see
/// InteractionMode). State naming: (s, 0) keeps the known state's name,
/// (s, 1) is primed ("name'"), and the chaos states are "s_all" / "s_delta"
/// as in the paper's listings. With ClosureCopies::Copy1Only the (s, 1)
/// copies keep the unprimed names (there is no twin to distinguish from).
Closure chaoticClosure(const IncompleteAutomaton& m,
                       const std::vector<Interaction>& alphabet,
                       ClosureStyle style = ClosureStyle::DeterministicTarget,
                       ClosureCopies copies = ClosureCopies::Both,
                       const std::string& chaosProp = kChaosProp);

}  // namespace mui::automata

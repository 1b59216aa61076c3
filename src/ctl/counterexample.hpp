#pragma once
// Counterexample generation for the verification step (paper Sec. 4.1).
//
// For the ACTL patterns used by MECHATRONIC UML constraints — invariants
// AG ψ, bounded leads-to AG(p → AF[a,b] q), bounded/unbounded AF at top
// level, conjunctions thereof — the generator produces a concrete run of the
// model witnessing the violation (Listing 1.1 style). A ¬AF[a,b] suffix
// takes, at each step, the first edge in insertion order whose target
// violates the AF seen from the next window position; the positions are
// read off one distance labelling (Checker::afPositions). Deadlock freedom
// ¬δ is checked as a reachability question and witnessed by a shortest path
// to a stuck state; the deadlock-only check (phi == nullptr) builds no
// Checker, since the deadlock set is the product's empty edge ranges. The
// refinement loop decides ¬δ on Def. 9's pessimistic product without
// composing it, by the same search over the optimistic product's doubled
// view (verifyDeadlockFree). For formulas outside this fragment a non-exact
// witness (the violating initial state) is returned and flagged.

#include <optional>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/flat_product.hpp"
#include "automata/run.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/checker.hpp"
#include "ctl/formula.hpp"

namespace mui::ctl {

struct Counterexample {
  enum class Kind { Property, Deadlock };
  Kind kind = Kind::Property;
  automata::Run run;
  /// Runs of verifyDeadlockFree only: per run position, the copy bits of
  /// the legacies (DoubledProduct::Node::copies); empty otherwise.
  std::vector<std::uint32_t> copies;
  /// False when only an approximate witness could be constructed (formula
  /// shape outside the supported ACTL fragment).
  bool pathExact = true;
  std::string note;
};

/// Counterexample search order — experiment E7 compares these (paper Sec. 7
/// suggests "specific strategies ... to derive counterexamples (e.g., the
/// shortest one)").
enum class CexSearch {
  Shortest,   // BFS: shortest violating run
  DepthFirst  // DFS: first violating run found depth-first (often longer)
};

/// Finds up to k runs from the initial states of `m` to distinct states of
/// `target`. In Shortest order the search is a BFS from the initial states
/// along each state's edges in order, so the first run ends in the first
/// target that BFS dequeues, and its length is that state's BFS depth.
std::vector<automata::Run> searchPaths(const automata::FlatProduct& m,
                                       const SatSet& target, std::size_t k,
                                       CexSearch order);

struct VerifyOptions {
  bool requireDeadlockFree = true;
  /// Maximum number of counterexamples to produce (E7: handing the testing
  /// step several counterexamples per verification round).
  std::size_t maxCounterexamples = 1;
  CexSearch search = CexSearch::Shortest;
  /// Correlation id tagging this check's trace span (obs/ulid.hpp); the
  /// integration loop passes its job ulid so per-check time shows up under
  /// the right job in a merged timeline. Empty = untagged.
  std::string traceId;
};

struct VerifyResult {
  bool holds = false;
  std::vector<Counterexample> counterexamples;  // empty iff holds
  std::size_t stateCount = 0;  // model size (FlatProduct::fullStateCount)
  std::vector<std::string> unknownAtoms;

  [[nodiscard]] const Counterexample& cex() const {
    return counterexamples.front();
  }
};

/// Checks m ⊨ φ ∧ ¬δ (the ¬δ conjunct iff requireDeadlockFree) and produces
/// counterexamples on failure. Property violations are searched before
/// deadlocks only if the property fails; otherwise deadlock reachability is
/// reported. Pass phi == nullptr to check deadlock freedom alone (no
/// Checker is built then). Runs and notes name m's own states and edge
/// labels.
VerifyResult verify(const automata::FlatProduct& m, const FormulaPtr& phi,
                    const VerifyOptions& opts = {});

/// verify() with the labels of m's linked chaos region taken from `memo`
/// (built on that region for phi) when it is not null: the same result,
/// with only m's own states checked.
VerifyResult verify(const automata::FlatProduct& m, const RegionMemo* memo,
                    const FormulaPtr& phi, const VerifyOptions& opts = {});

/// verify() on m's one-component product (FlatProduct::of).
VerifyResult verify(const automata::Automaton& m, const FormulaPtr& phi,
                    const VerifyOptions& opts = {});

/// verify(pess, nullptr, opts) for the pessimistic product `pess` that `v`
/// views, without composing it: the same holds, stateCount, runs and notes
/// (opts.requireDeadlockFree is not read). A run's states are v's copy-1
/// product states and its copy bits are in Counterexample::copies; render
/// it with DoubledProduct::renderRun.
VerifyResult verifyDeadlockFree(const automata::DoubledProduct& v,
                                const VerifyOptions& opts = {});

}  // namespace mui::ctl

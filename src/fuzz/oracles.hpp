#pragma once
// The six metamorphic oracles of the fuzzing subsystem. Each one turns a
// guarantee of the paper — or an internal implementation equivalence — into
// an executable check over a generated scenario:
//
//   O1  The worklist ctl::Checker and the naive ctl::ReferenceChecker agree
//       state-by-state on the composed model, for the scenario property and
//       a batch of random CCTL formulas (plus the deadlock predicate).
//   O2  Thm. 1 safety: the hidden behavior and every consistent refinement
//       of a partially learned model M0 refine chaos(M0); and when
//       chaos(M0) ∥ context ⊨ weaken(φ), every such refinement composed
//       with the context satisfies φ (Lemma 5 transfer).
//   O3  Verdict soundness: runIntegration's ProvenCorrect implies the
//       concrete composition satisfies φ ∧ ¬δ (Lemma 5), and RealError
//       implies it does not (Lemma 6 — replayed counterexamples admit no
//       false negatives).
//   O5  CCTL verdicts are invariant under bisimulation minimization and
//       under state renaming/reordering (automata::shuffledCopy).
//   O6  Pre-solve soundness: when analysis::presolveIntegration returns a
//       definitive verdict (Proved/Refuted) for the scenario, it agrees
//       with ctl::verify on the concrete composition; Skipped is always
//       acceptable.
//   O7  The lean product engine equals the reference: for partially
//       learned models of the legacy and both ClosureStyles, the virtual
//       closure matches chaoticClosure's copy-1 closure and
//       composeFlat(ctx, view) matches composeAll({ctx, chaos(M)}) state
//       by state (numbering, initials, edges in order, origins, names,
//       every atom), and ctl::verify returns identical results on both.
//       composeFlat under a random bound c is the unbounded product's
//       first c states, and capped() says whether the bound cut it. The
//       deadlock search over the doubled view of the lean product returns
//       what ctl::verify returns on composeAll over Def. 9's two-copy
//       closure (doubledViewDiff). The product composed over one chaos
//       region, kept across the learning stages as the loop keeps one per
//       job, equals composeAll's up to renumbering; a Checker seeded by
//       the region's memo (rebuilt when the region grew) labels every state
//       as a plain Checker does, and ctl::verify and the doubled view
//       answer on it as on composeAll's product.
//
// checkOracle never reports flaky results: everything derives from the
// scenario seed. Violations carry the exposing formula so the shrinker
// (shrink.hpp) can pin it while minimizing the automata.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/counterexample.hpp"
#include "fuzz/scenario.hpp"

namespace mui::fuzz {

enum class OracleId {
  O1CheckerAgreement,
  O2ChaosSafety,
  O3VerdictSound,
  O5VerdictInvariance,
  O6PresolveSound,
  O7LeanProduct,
};

/// "O1" .. "O3", "O5" .. "O7".
const char* toString(OracleId id);
std::optional<OracleId> oracleFromString(std::string_view text);
/// All six, in numeric order.
std::vector<OracleId> allOracles();
/// One-line catalog entry (usage text and docs/FUZZING.md).
const char* describeOracle(OracleId id);

/// Intentional fault injection — the self-test proving the harness can
/// catch and shrink a checker bug (see tests/test_fuzz_oracles.cpp and the
/// `--inject-bug` CLI flag). The bug corrupts the oracle's *observation* of
/// the checker, never the production checker itself.
enum class BugInjection {
  None,
  /// O1 sees every deadlock state as satisfying a top-level AF formula —
  /// the classic "vacuous liveness at a stuck state" checker bug.
  O1DeadlockAF,
  /// O7 keeps reading a region memo that was not rebuilt after the chaos
  /// region grew, so the states added since read false.
  O7StaleRegion,
};
std::optional<BugInjection> bugInjectionFromString(std::string_view text);
/// "none", "o1-deadlock-af", "o7-stale-region" — inverse of
/// bugInjectionFromString.
const char* toString(BugInjection b);

struct OracleOptions {
  BugInjection injectBug = BugInjection::None;
  /// Check only the scenario's own property; skip the random differential
  /// formulas. The shrinker sets this after pinning the exposing formula
  /// into Scenario::property.
  bool propertyOnly = false;
  /// Random CCTL formulas per scenario for O1/O5.
  std::size_t formulasPerScenario = 4;
  /// Consistent refinements per scenario for O2.
  std::size_t variantsPerScenario = 3;
  /// Iteration budget for O3's integration loop.
  std::size_t maxIterations = 1000;
};

struct OracleResult {
  bool ok = true;
  std::string detail;          // human-readable violation description
  std::string failingFormula;  // formula text that exposed it, if any
};

/// Runs one oracle on the scenario. Exceptions escape to the caller — the
/// campaign layer treats them as crash findings and shrinks them like
/// ordinary violations.
OracleResult checkOracle(OracleId id, const Scenario& s,
                         const OracleOptions& opts = {});

/// What differs between ctl::verify(pess, nullptr, opts), where `pess` is
/// composeAll of the context and the two-copy closures `both`, and
/// ctl::verifyDeadlockFree(view, opts), where `view` doubles the product of
/// the context and the same models' VirtualClosures; "" when nothing does.
/// Runs compare per position as the context state and each legacy's
/// closure state and copy bit, then as labels, notes and renderings.
std::string doubledViewDiff(const automata::Product& pess,
                            const std::vector<const automata::Closure*>& both,
                            const automata::DoubledProduct& view,
                            const ctl::VerifyOptions& opts);

}  // namespace mui::fuzz

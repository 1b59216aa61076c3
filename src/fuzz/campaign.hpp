#pragma once
// Fuzzing campaigns: N seeded scenarios × the selected oracles, optionally
// in parallel on the engine thread pool, with crash isolation per scenario
// (an oracle that throws becomes a finding, not a dead campaign).
//
// Determinism contract (tested by tests/test_fuzz_oracles.cpp and the CI
// determinism gate): the campaign report and its rendered summary depend
// only on (seed, runs, oracle selection, oracle options). Scenario i always
// uses seed `base + i`, findings are aggregated in scenario order whatever
// the worker interleaving was, and the summary contains no wall-clock data.
// A time budget only truncates the *number* of scenarios executed — each
// scenario runs to completion — so budget-limited campaigns are prefixes of
// unlimited ones.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"

namespace mui::obs {
class Journal;
}  // namespace mui::obs

namespace mui::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t runs = 100;
  /// Worker threads; 1 = run inline on the caller, 0 = hardware concurrency.
  std::size_t jobs = 1;
  /// Wall-clock budget in seconds; 0 = unlimited. Checked between
  /// scenarios, never inside one.
  std::uint64_t timeBudgetSec = 0;
  /// Directory for reproducer files; empty = do not write any.
  std::string outDir;
  /// Oracles to run; empty = all six.
  std::vector<OracleId> oracles;
  OracleOptions oracle;
  /// Shrink failing scenarios before reporting (off: raw scenario).
  bool shrink = true;
  /// Optional journal for fuzz_start / fuzz_finding / fuzz_summary events.
  obs::Journal* journal = nullptr;
};

struct FuzzFinding {
  std::uint64_t scenarioSeed = 0;
  OracleId oracle = OracleId::O1CheckerAgreement;
  bool crashed = false;
  std::string detail;          // violation/crash text (after shrinking)
  std::string failingFormula;  // pinned property, if any
  std::size_t shrunkStates = 0;  // total states of the minimized scenario
  std::string reproducer;        // reproducer file text
  std::string path;              // file path when outDir was set
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::size_t runs = 0;      // requested
  std::size_t executed = 0;  // actually run (== runs unless budget hit)
  std::vector<OracleId> oracles;
  std::map<std::string, std::size_t> checks;      // oracle name -> checks run
  std::map<std::string, std::size_t> violations;  // oracle name -> failures
  std::vector<FuzzFinding> findings;              // scenario order
  std::size_t crashes = 0;
  bool budgetExhausted = false;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

FuzzReport runCampaign(const FuzzOptions& opts);

/// Deterministic human-readable summary (the `mui fuzz` stdout report).
std::string renderFuzzSummary(const FuzzReport& r);

}  // namespace mui::fuzz

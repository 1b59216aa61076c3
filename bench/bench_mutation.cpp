// E11 — mutation adequacy: seed structural defects into the correct rear
// shuttle behavior and measure how the approach deals with them, each
// mutant cross-checked against ground truth (model checking the mutant
// directly against the context):
//
//   killed     — the loop returns RealError, ground truth agrees: the
//                defect matters in this context and was found;
//   equivalent — the loop proves the integration, ground truth agrees: the
//                defect is unobservable in this context (the integration
//                genuinely still works — not a miss!);
//   escaped    — verdict and ground truth disagree (soundness violation;
//                must be zero).
//
// The recorded regression suite (from the unmutated component's run) is
// evaluated on the same mutants for comparison with plain regression
// testing.

#include <cstdio>

#include "automata/compose.hpp"
#include "bench_util.hpp"
#include "ctl/parser.hpp"
#include "synthesis/test_suite.hpp"
#include "testing/legacy.hpp"
#include "testing/mutation.hpp"

namespace {

using namespace mui;

const char* opName(testing::MutationOp op) {
  switch (op) {
    case testing::MutationOp::DeleteTransition:
      return "delete-transition";
    case testing::MutationOp::DropOutputs:
      return "drop-outputs";
    case testing::MutationOp::RedirectTarget:
      return "redirect-target";
  }
  return "?";
}

}  // namespace

int main() {
  bench::printHeader(
      "E11: mutation adequacy of the integration loop",
      "Structural mutants of the correct rear-shuttle behavior vs the front "
      "context (pattern constraint + deadlock freedom). Survivors are "
      "verified context-equivalent by ground truth; escapes must be zero. "
      "suite-kill = mutants failing the regression suite recorded from the "
      "unmutated component.");

  const bench::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  const auto& original = *shipped.legacy.hidden;
  // Full requirement: pattern constraint plus both role invariants — the
  // liveness part is what distinguishes a silenced component from a
  // harmless variation.
  const std::string& property = shipped.scenario.property;

  // The regression suite from the unmutated run.
  synthesis::ComponentTestSuite suite;
  {
    testing::AutomatonLegacy legacy(original);
    synthesis::IntegrationConfig cfg;
    cfg.property = property;
    cfg.recordTests = true;
    suite = synthesis::IntegrationVerifier(front, legacy, cfg)
                .run()
                .recordedTests[0];
  }

  util::TextTable table({"operator", "mutants", "killed", "equivalent",
                         "escaped", "suite-kill", "avg iters", "avg periods"});
  constexpr int kMutantsPerOp = 15;
  for (const auto op : {testing::MutationOp::DeleteTransition,
                        testing::MutationOp::DropOutputs,
                        testing::MutationOp::RedirectTarget}) {
    int made = 0, killed = 0, equivalent = 0, escaped = 0, suiteKilled = 0;
    std::size_t iters = 0;
    std::uint64_t periods = 0;
    for (int seed = 1; made < kMutantsPerOp && seed <= 4 * kMutantsPerOp;
         ++seed) {
      const auto mutant = testing::mutateAutomaton(
          original, op, static_cast<std::uint64_t>(seed));
      if (!mutant) break;
      ++made;

      // Ground truth on the mutant itself.
      const bool truthHolds =
          ctl::verify(automata::compose(front, mutant->first).automaton,
                      ctl::parseFormula(property), {})
              .holds;

      testing::AutomatonLegacy legacy(mutant->first);
      synthesis::IntegrationConfig cfg;
      cfg.property = property;
      const auto res =
          synthesis::IntegrationVerifier(front, legacy, cfg).run();
      iters += res.iterations;
      periods += res.totalTestPeriods;
      const bool proven = res.verdict == synthesis::Verdict::ProvenCorrect;
      if (proven == truthHolds) {
        (proven ? equivalent : killed) += 1;
      } else {
        ++escaped;
        std::printf("ESCAPE (%s seed %d): %s\n", opName(op), seed,
                    mutant->second.describe(original).c_str());
      }

      testing::AutomatonLegacy forSuite(mutant->first);
      if (!synthesis::runSuite(suite, forSuite, *rc.model.signals).allPassed()) {
        ++suiteKilled;
      }
    }
    table.row({opName(op), std::to_string(made), std::to_string(killed),
               std::to_string(equivalent), std::to_string(escaped),
               std::to_string(suiteKilled),
               util::fmt(made ? double(iters) / made : 0, 1),
               util::fmt(made ? double(periods) / made : 0, 1)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: killed + equivalent = all mutants; escaped must stay 0 "
      "(every verdict is cross-checked against direct model checking of "
      "the mutant). Survivors are *context-equivalent* defects — the "
      "paper's point that only the behavior the collaboration reaches "
      "matters. The recorded regression suite flags ANY behavioral change, "
      "including the harmless ones (suite-kill >= killed): it cannot "
      "separate harmful from harmless deviations, whereas the loop proves "
      "the survivors harmless.\n");
  return 0;
}

// The RailCab shuttle scenario — the paper's running example, regenerating
// its figures and listings:
//
//   Fig. 1   the DistanceCoordination pattern (printed + verified)
//   Fig. 3   the chaotic automaton (DOT)
//   Fig. 4   the trivial initial model and its chaotic closure (DOT)
//   Fig. 5   the known context behavior (frontRole, DOT)
//   L. 1.1   the first counterexample of the verification step
//   L. 1.2   the minimal (replay-only) target recording
//   L. 1.3   the fully instrumented deterministic replay
//   Fig. 6   the synthesized behavior conflicting with the environment
//   L. 1.4   the conflict counterexample within the synthesized part
//   L. 1.5   a successful learning step (correct firmware)
//   Fig. 7   the correct synthesized behavior w.r.t. the context
//
// Everything comes from models/railcab.muml: the pattern, its roles, and the
// front role as the context of the legacy rear shuttle.
//
// Build & run:  ./build/examples/shuttle_convoy

#include <cstdio>

#include "automata/chaos.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "muml/verify.hpp"
#include "synthesis/initial.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"

namespace {

using namespace mui;

void banner(const char* title) {
  std::printf("\n==== %s "
              "=====================================================\n\n",
              title);
}

synthesis::IntegrationResult runScenario(const char* title,
                                         testing::LegacyComponent& legacy,
                                         const automata::Automaton& front,
                                         const std::string& constraint) {
  banner(title);
  synthesis::IntegrationConfig cfg;
  cfg.property = constraint;
  cfg.keepTraces = true;
  synthesis::IntegrationVerifier verifier(front, legacy, cfg);
  const auto result = verifier.run();

  // Show the first and the richest counterexample with their monitor logs
  // (Listings 1.1-1.3).
  const synthesis::IterationRecord* first = nullptr;
  const synthesis::IterationRecord* richest = nullptr;
  for (const auto& rec : result.journal) {
    if (rec.cexText.empty()) continue;
    if (!first) first = &rec;
    if (!richest || rec.cexLength > richest->cexLength) richest = &rec;
  }
  if (first) {
    std::printf("Counterexample of verification round %zu "
                "(Listing 1.1 style):\n%s\n",
                first->iteration, first->cexText.c_str());
    std::printf("Monitoring (Listings 1.2/1.3 style):\n%s\n",
                first->monitorText.c_str());
  }
  if (richest && richest != first) {
    std::printf("Longest counterexample, round %zu (Listing 1.1 style):\n"
                "%s\n",
                richest->iteration, richest->cexText.c_str());
    std::printf("Monitoring:\n%s\n", richest->monitorText.c_str());
  }

  std::printf("verdict     : %s\n",
              result.verdict == synthesis::Verdict::ProvenCorrect
                  ? "PROVEN CORRECT (Lemma 5)"
                  : result.verdict == synthesis::Verdict::RealError
                        ? "REAL INTEGRATION ERROR (Lemma 6)"
                        : "inconclusive");
  std::printf("explanation : %s\n", result.explanation.c_str());
  std::printf("iterations  : %zu, test periods: %llu, learned facts: %zu\n",
              result.iterations,
              static_cast<unsigned long long>(result.totalTestPeriods),
              result.totalLearnedFacts);
  if (!result.counterexampleText.empty()) {
    std::printf("\nFinal counterexample (Listing 1.4 style):\n%s\n",
                result.counterexampleText.c_str());
  }
  std::printf("\nSynthesized behavioral model (Fig. 6/7):\n%s\n",
              result.learnedModels[0].base().toText().c_str());
  return result;
}

}  // namespace

int main() {
  // ---- Fig. 1: the DistanceCoordination pattern. ---------------------------
  banner("DistanceCoordination pattern (Fig. 1)");
  const muml::Model model =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/railcab.muml");
  const auto& pattern = model.patterns.at("DistanceCoordination");
  std::printf("pattern    : %s\n", pattern.name.c_str());
  std::printf("constraint : %s\n", pattern.constraint.c_str());
  for (const auto& role : pattern.roles) {
    std::printf("role %-10s invariant: %s\n", role.name.c_str(),
                role.invariant.c_str());
  }
  {
    automata::SignalTableRef signals =
        std::make_shared<automata::SignalTable>();
    automata::SignalTableRef props = std::make_shared<automata::SignalTable>();
    const auto pv = muml::verifyPattern(pattern, signals, props);
    std::printf("\npattern verification: constraint %s, deadlock-free %s, "
                "role invariants %s (product: %zu states)\n",
                pv.constraintHolds ? "OK" : "VIOLATED",
                pv.deadlockFree ? "OK" : "VIOLATED",
                pv.ok() ? "OK" : "VIOLATED",
                pv.composed.automaton.stateCount());
  }

  // The legacy plays the rear role; the front role is its context. Every
  // scenario shares the model's tables.
  const automata::SignalTableRef& signals = model.signals;
  const automata::SignalTableRef& props = model.props;
  const automata::Automaton front =
      muml::bindIntegration(model, pattern.name, "rearRole", "rearShipped")
          .scenario.context;

  // ---- Fig. 5: the context. ------------------------------------------------
  banner("Known context behavior: frontRole (Fig. 5, DOT)");
  std::printf("%s", front.toDot().c_str());

  // ---- Fig. 3 / Fig. 4: chaos and the initial closure. ----------------------
  banner("Chaotic automaton over the rear interface (Fig. 3, DOT)");
  testing::FirmwareShuttleLegacy probe(signals, false);
  const auto alphabet = automata::makeAlphabet(
      probe.inputs(), probe.outputs(),
      automata::InteractionMode::AtMostOneSignal);
  std::printf("%s", automata::chaoticAutomaton(signals, props, probe.inputs(),
                                               probe.outputs(), alphabet)
                        .toDot()
                        .c_str());

  banner("Initial model and its chaotic closure (Fig. 4, DOT)");
  const auto m0 = synthesis::initialModel(probe, signals, props);
  std::printf("Trivial initial model (Fig. 4a):\n%s\n",
              m0.base().toText().c_str());
  std::printf("Chaotic closure (Fig. 4b):\n%s",
              automata::chaoticClosure(m0, alphabet).automaton.toDot().c_str());

  // ---- The faulty firmware: fast conflict detection. ------------------------
  testing::FirmwareShuttleLegacy faulty(signals, /*faultyRevision=*/true);
  const auto bad = runScenario(
      "Integrating the FAULTY legacy firmware (Fig. 6, Listings 1.1-1.4)",
      faulty, front, pattern.constraint);

  // ---- The shipped firmware: proven correct. --------------------------------
  testing::FirmwareShuttleLegacy correct(signals, /*faultyRevision=*/false);
  const auto good = runScenario(
      "Integrating the CORRECT legacy firmware (Fig. 7, Listing 1.5)", correct,
      front, pattern.constraint);

  return (bad.verdict == synthesis::Verdict::RealError &&
          good.verdict == synthesis::Verdict::ProvenCorrect)
             ? 0
             : 1;
}

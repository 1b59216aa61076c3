#pragma once
// The iterative behavior-synthesis engine (paper Fig. 2, Secs. 3-4).
//
// Loop per iteration i:
//   1. Set up the chaotic closures chaos(M_l^i) of the learned models
//      (Def. 9) as virtual closures and compose them with the context
//      (Def. 3) into flat products (automata/flat_product.hpp). The chaos
//      region, where every legacy sits in Def. 8's chaotic automaton, is
//      composed once per run and linked by every round's product.
//   2. Model check the weakened property plus deadlock freedom (Sec. 4.1,
//      Lemma 5). Success proves the integration correct for the real
//      system — without having learned the rest of the legacy component.
//   3. Otherwise project the counterexample onto the legacy component(s)
//      and test it with deterministic replay (Sec. 4.2, Sec. 5):
//        - a property counterexample that stays entirely in learned states
//          is a *real* integration error (fast conflict detection,
//          Listing 1.4; no test needed — observation conformance already
//          guarantees realizability);
//        - a deadlock whose context offers are all verifiably refused (T̄)
//          is a *real* deadlock;
//        - anything else yields new observations, which the learning step
//          merges into M_l^{i+1} (Defs. 11/12, Lemma 7) — strictly
//          increasing knowledge, which bounds the number of iterations for
//          finite deterministic components (Thm. 2 discussion, Sec. 4.4).
//
// The engine supports multiple legacy components (paper Sec. 7 future
// work): every legacy gets its own model/closure, counterexamples are
// projected per component, and deadlock offers are computed from the joint
// moves of the respective other components.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/flat_product.hpp"
#include "automata/incomplete.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/counterexample.hpp"
#include "synthesis/test_suite.hpp"
#include "testing/driver.hpp"
#include "testing/legacy.hpp"

namespace mui::obs {
class Journal;
class JobProgress;
}  // namespace mui::obs

namespace mui::synthesis {

struct IntegrationConfig {
  /// CCTL property text (empty: deadlock freedom only). Must be over the
  /// propositions of the context and the legacy state names.
  std::string property;
  bool requireDeadlockFree = true;
  automata::ClosureStyle closureStyle =
      automata::ClosureStyle::DeterministicTarget;
  ctl::CexSearch search = ctl::CexSearch::Shortest;
  /// Counterexamples requested per verification round (paper Sec. 7
  /// suggests deriving several; experiment E7 measures the effect).
  std::size_t counterexamplesPerCheck = 1;
  std::size_t maxIterations = 100000;
  /// Keep rendered counterexample/monitor texts in the journal (examples
  /// use this to reproduce the paper's listings; benches leave it off).
  bool keepTraces = false;
  /// Replace the context by its bisimulation quotient before the loop —
  /// shrinks every product the checker sees; counterexample rendering then
  /// shows class-representative state names.
  bool minimizeContext = false;
  /// Record every executed component test (stimulus + observed outcome) as
  /// a regression suite (paper abstract: "systematic generation of
  /// component tests"); see test_suite.hpp.
  bool recordTests = false;
  /// Cooperative cancellation hook, polled between the phases of every
  /// iteration (before closures, after the verification step, and between
  /// counterexample tests). Returning true stops the loop with
  /// Verdict::Cancelled. Leave empty for an uninterruptible run. The
  /// callable is invoked from the thread executing run(); the batch engine
  /// uses it for per-job deadlines (src/engine/runner.cpp).
  std::function<bool()> cancelRequested;
  /// Structured run journal (obs/journal.hpp): when set, the loop emits one
  /// JSONL event per iteration plus run_start/verdict events, labeled with
  /// `runId`. The journal must outlive run(); it may be shared between
  /// concurrent runs (it locks internally).
  obs::Journal* journal = nullptr;
  /// Label for journal events and the run's trace span (e.g. the job name);
  /// defaults to the context automaton's name when empty.
  std::string runId;
  /// Job correlation id (obs/ulid.hpp): tags every journal event and trace
  /// span of this run so a merged client+daemon timeline can attribute them
  /// to one job. Empty = untagged (journal events then omit "ulid").
  std::string ulid;
  /// Live progress sink (obs/progress.hpp): the loop publishes its current
  /// phase and iteration count for the daemon's /jobs endpoint. Null = no
  /// live introspection. Must outlive run().
  obs::JobProgress* progress = nullptr;
};

enum class Verdict {
  ProvenCorrect,   // Lemma 5: property + ¬δ hold for the real integration
  RealError,       // Lemma 6 / Listing 1.4: a realizable violation exists
  IterationLimit,  // budget exhausted (cannot happen for finite components
                   // with DeterministicTarget closures before completeness)
  Unsupported,     // property shape outside the counterexample fragment, or
                   // no learning progress (possible with PaperExact style)
  Cancelled,       // config.cancelRequested fired (deadline or external stop)
  AdapterFailure,  // an out-of-process legacy (testing::SubprocessLegacy)
                   // crashed, hung, or broke protocol beyond its recovery
                   // budget — the component could not be observed, so no
                   // integration verdict exists (distinct from EngineError:
                   // the harness itself is fine)
};

struct IterationRecord {
  std::size_t iteration = 0;
  // Learned-model sizes (summed over legacies) before this iteration's check.
  std::size_t modelStates = 0;
  std::size_t modelTransitions = 0;
  std::size_t modelForbidden = 0;
  /// Summed sizes of the closures the checked abstractions use: 2|S|+2
  /// per legacy when ¬δ is checked (Def. 9), |S|+2 otherwise.
  std::size_t closureStates = 0;
  /// The pessimistic product's size when ¬δ is checked, else the
  /// optimistic one's.
  std::size_t productStates = 0;
  bool checkPassed = false;
  bool cexWasDeadlock = false;
  std::size_t cexLength = 0;
  std::size_t learnedFacts = 0;      // knowledge delta during this iteration
  std::uint64_t testPeriods = 0;     // legacy periods driven this iteration
  /// States of the round's abstractions: the pessimistic (Def. 9) product
  /// when ¬δ is checked plus the optimistic one when a property is. Only
  /// the optimistic product is composed (see IntegrationVerifier::run).
  std::size_t productStatesNew = 0;
  /// Wall-clock phase breakdown of this iteration, in milliseconds.
  double closureMs = 0;  // chaotic closures (Def. 9)
  double composeMs = 0;  // products with the context (Def. 3)
  double checkMs = 0;    // CCTL checks + counterexample extraction
  double testMs = 0;     // projection, replay testing, learning
  std::string cexText;               // rendered (keepTraces only)
  std::string monitorText;           // replay log (keepTraces only)
};

struct IntegrationResult {
  Verdict verdict = Verdict::IterationLimit;
  std::string explanation;
  /// RealError: the witness run rendered in Listing-1.1 style.
  std::string counterexampleText;
  std::vector<IterationRecord> journal;
  /// Final learned model per legacy component.
  std::vector<automata::IncompleteAutomaton> learnedModels;
  std::size_t iterations = 0;
  std::uint64_t totalTestPeriods = 0;
  std::size_t totalLearnedFacts = 0;
  /// Totals of the per-iteration phase metrics (see IterationRecord).
  std::size_t totalProductStatesNew = 0;
  /// Always 0: every product is composed from scratch. Kept, like the
  /// journal's `statesReused`/`productStatesReused` fields, until a journal
  /// schema v3 drops them.
  std::size_t totalProductStatesReused = 0;
  double totalClosureMs = 0;
  double totalComposeMs = 0;
  double totalCheckMs = 0;
  double totalTestMs = 0;
  /// Atoms of the property that named no proposition of the composed model
  /// (typo or wrong instance prefix — they evaluate to false silently).
  std::vector<std::string> unknownAtoms;
  /// Regression suite per legacy component (recordTests only).
  std::vector<ComponentTestSuite> recordedTests;
};

class IntegrationVerifier {
 public:
  /// Multi-legacy constructor. The context automaton and the legacy
  /// components must share the signal universe; components must be pairwise
  /// composable with the context and each other.
  IntegrationVerifier(automata::Automaton context,
                      std::vector<testing::LegacyComponent*> legacies,
                      IntegrationConfig config);

  /// Single-legacy convenience.
  IntegrationVerifier(automata::Automaton context,
                      testing::LegacyComponent& legacy,
                      IntegrationConfig config);

  IntegrationResult run();

 private:
  struct CexHandling {
    bool realError = false;
    bool learnedAnything = false;
    std::string errorText;
  };

  /// `product` composes the context (component 0) with `closures`, the
  /// copy-1 closures; a deadlock run's copy bits are not read.
  CexHandling handleCounterexample(
      const ctl::Counterexample& cex, const automata::FlatProduct& product,
      const std::vector<automata::VirtualClosure>& closures,
      IterationRecord& record);

  /// Legacy-k interactions required by some joint move of all *other*
  /// components at product state `p` (deduplicated). Other legacies move
  /// from their copy-1 state so their *possible* (chaotic) moves count — a
  /// real deadlock must be unescapable for every behavior the others might
  /// still reveal.
  std::vector<automata::Interaction> jointOffers(
      const automata::FlatProduct& product, automata::StateId p,
      std::size_t legacyIdx) const;

  bool applyOutcome(std::size_t legacyIdx, const testing::TestOutcome& outcome);

  automata::Automaton context_;
  std::vector<testing::LegacyComponent*> legacies_;
  IntegrationConfig config_;
  std::vector<automata::IncompleteAutomaton> models_;
  std::vector<std::vector<automata::Interaction>> alphabets_;
  std::size_t stride_ = 1;  // signal words per label in every product
  std::vector<ComponentTestSuite> suites_;  // recordTests only
};

/// Re-entrant one-shot entry point: builds a fresh verifier and runs it.
/// Safe to call from many threads concurrently as long as each call gets
/// its own legacy instance and its own context/config (a verifier keeps no
/// global state; the signal tables referenced by `context` must not be
/// shared with a concurrently running call). The batch engine drives every
/// job through this function.
IntegrationResult runIntegration(automata::Automaton context,
                                 testing::LegacyComponent& legacy,
                                 IntegrationConfig config);

}  // namespace mui::synthesis

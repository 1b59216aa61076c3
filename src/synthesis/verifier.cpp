#include "synthesis/verifier.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "automata/minimize.hpp"
#include "ctl/formula.hpp"
#include "ctl/parser.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "synthesis/initial.hpp"
#include "synthesis/report.hpp"
#include "testing/subprocess.hpp"

namespace mui::synthesis {

namespace {
constexpr std::size_t kNoChaos = static_cast<std::size_t>(-1);
}

IntegrationVerifier::IntegrationVerifier(
    automata::Automaton context,
    std::vector<testing::LegacyComponent*> legacies, IntegrationConfig config)
    : context_(std::move(context)),
      legacies_(std::move(legacies)),
      config_(std::move(config)) {
  if (legacies_.empty()) {
    throw std::invalid_argument("IntegrationVerifier: no legacy components");
  }
  if (config_.minimizeContext) {
    context_ = automata::minimizeBisimulation(context_);
  }
  std::vector<const automata::Automaton*> interfaces{&context_};
  for (auto* legacy : legacies_) {
    models_.push_back(
        initialModel(*legacy, context_.signalTable(), context_.propTable()));
    alphabets_.push_back(
        automata::makeAlphabet(legacy->inputs(), legacy->outputs(),
                               automata::InteractionMode::AtMostOneSignal));
  }
  for (const auto& m : models_) interfaces.push_back(&m.base());
  stride_ = automata::strideFor(interfaces);
  suites_.resize(legacies_.size());
}

IntegrationVerifier::IntegrationVerifier(automata::Automaton context,
                                         testing::LegacyComponent& legacy,
                                         IntegrationConfig config)
    : IntegrationVerifier(std::move(context), std::vector{&legacy},
                          std::move(config)) {}

IntegrationResult IntegrationVerifier::run() {
  IntegrationResult res;

  const std::string runId =
      config_.runId.empty() ? context_.name() : config_.runId;
  const obs::ObsSpan runSpan("integration:" + runId, config_.ulid);
  obs::Journal* const journal = config_.journal;
  obs::JobProgress* const progress = config_.progress;
  // Every event of this run opens with the run label and, when the run is
  // correlated, its job ulid (journal schema v2).
  const auto baseFields = [&] {
    util::json::Object o;
    o.s("run", runId);
    if (!config_.ulid.empty()) o.s("ulid", config_.ulid);
    return o;
  };
  if (journal != nullptr) {
    journal->event("run_start",
                   baseFields()
                       .u("legacies", legacies_.size())
                       .s("property", config_.property)
                       .u("maxIterations", config_.maxIterations)
                       .b("incrementalCompose", false));
  }

  ctl::FormulaPtr phi;
  if (!config_.property.empty()) {
    // Sec. 2.7 weakening: chaotic states satisfy every literal, so the
    // over-approximation never produces spurious *property* witnesses.
    phi = ctl::weakenForChaos(ctl::parseFormula(config_.property));
  }

  const auto totalKnowledge = [&] {
    std::size_t n = 0;
    for (const auto& m : models_) n += m.knowledge();
    return n;
  };

  // Cooperative cancellation: polled between the phases of each iteration so
  // a deadline interrupts even a single long iteration at the next phase
  // boundary (model checking itself is not interruptible).
  bool wasCancelled = false;
  const auto cancelled = [&] {
    wasCancelled =
        wasCancelled || (config_.cancelRequested && config_.cancelRequested());
    return wasCancelled;
  };

  // Which abstractions the configuration actually needs: no property means
  // the optimistic product would be checked against nothing, and deadlock
  // freedom off means the pessimistic product would be, too. The one
  // composed product serves both.
  const bool needOpt = phi != nullptr;
  const bool needPess = config_.requireDeadlockFree;
  // The context is component 0 of every product; its labels are packed once.
  const automata::AutomatonComponent context(context_, stride_);
  // The chaos region, context × {s_∀, s_δ} per legacy, is the same in every
  // round: each round's product links it, and it is composed once, as far
  // as the rounds reach into it. The property's labels on it are computed
  // again only when it grew.
  std::optional<automata::ChaosRegion> region;
  if (needOpt || needPess) {
    std::vector<const automata::Automaton*> interfaces;
    for (const auto& m : models_) interfaces.push_back(&m.base());
    region.emplace(context, interfaces, alphabets_);
  }
  std::optional<ctl::RegionMemo> memo;

  const auto accumulate = [&res](const IterationRecord& rec) {
    res.totalProductStatesNew += rec.productStatesNew;
    res.totalClosureMs += rec.closureMs;
    res.totalComposeMs += rec.composeMs;
    res.totalCheckMs += rec.checkMs;
    res.totalTestMs += rec.testMs;
  };

  const auto emitIteration = [&](const IterationRecord& rec) {
    if (journal == nullptr) return;
    std::string cexKind;
    if (!rec.checkPassed) {
      cexKind = rec.cexWasDeadlock ? "deadlock" : "property";
    }
    journal->event("iteration",
                   baseFields()
                       .u("iter", rec.iteration)
                       .u("modelStates", rec.modelStates)
                       .u("modelTransitions", rec.modelTransitions)
                       .u("modelForbidden", rec.modelForbidden)
                       .u("closureStates", rec.closureStates)
                       .u("productStates", rec.productStates)
                       .u("statesNew", rec.productStatesNew)
                       .u("statesReused", 0)
                       .b("checkPassed", rec.checkPassed)
                       .s("cexKind", cexKind)
                       .u("cexLength", rec.cexLength)
                       .u("learnedFacts", rec.learnedFacts)
                       .u("testPeriods", rec.testPeriods)
                       .f("closureMs", rec.closureMs)
                       .f("composeMs", rec.composeMs)
                       .f("checkMs", rec.checkMs)
                       .f("testMs", rec.testMs));
  };

  for (std::size_t iter = 0; iter < config_.maxIterations && !cancelled();
       ++iter) {
    const obs::ObsSpan iterSpan("iteration", iter, config_.ulid);
    if (progress != nullptr) progress->setIteration(iter + 1);
    IterationRecord rec;
    rec.iteration = iter;
    for (const auto& m : models_) {
      rec.modelStates += m.base().stateCount();
      rec.modelTransitions += m.base().transitionCount();
      rec.modelForbidden += m.forbiddenCount();
    }

    using Clock = std::chrono::steady_clock;
    auto mark = Clock::now();
    const auto lapMs = [&mark] {
      const auto now = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(now - mark).count();
      mark = now;
      return ms;
    };

    // 1. Closures and the composition with the context. Two abstractions
    // are checked per round:
    //  - the *pessimistic* product (Def. 9 verbatim, both copies) decides
    //    deadlock freedom — unknown interactions may be refusals;
    //  - the *optimistic* product (copy-1 only) decides the property —
    //    unknown continuations end in chaos, which satisfies every
    //    weakened literal, so a surviving violation is forced by the
    //    visited (learned) states alone and is therefore real. The
    //    combination is sound: once the pessimistic ¬δ check passes, the
    //    real system has no unlearned refusals on reachable paths, and
    //    ACTL properties transfer through the optimistic abstraction.
    // Only the optimistic product is composed: the pessimistic one is its
    // doubled view (automata::DoubledProduct). The closures are views
    // (automata/virtual_closure.hpp): setting one up packs the learned
    // transitions and the chaos mask; the composer then enumerates their
    // successors on demand.
    std::vector<automata::VirtualClosure> closures;
    {
      const obs::ObsSpan span("closure", config_.ulid);
      if (progress != nullptr) progress->setPhase("closure");
      closures.reserve(models_.size());
      for (std::size_t k = 0; k < models_.size() && (needPess || needOpt);
           ++k) {
        closures.emplace_back(models_[k], alphabets_[k], config_.closureStyle,
                              stride_);
        // Def. 9's closure has 2|S|+2 states; the copy-1 one has |S|+2.
        rec.closureStates += closures.back().stateCount() +
                             (needPess ? models_[k].base().stateCount() : 0);
      }
    }
    rec.closureMs = lapMs();

    std::optional<automata::FlatProduct> product;
    std::optional<automata::DoubledProduct> pessimistic;
    {
      const obs::ObsSpan span("compose", config_.ulid);
      if (progress != nullptr) progress->setPhase("compose");
      if (!closures.empty()) {
        std::vector<const automata::FlatComponent*> parts{&context};
        for (const auto& c : closures) parts.push_back(&c);
        product = automata::composeFlat(std::move(parts), *region);
      }
      if (needPess) pessimistic.emplace(*product, closures);
    }
    if (needPess) rec.productStatesNew += pessimistic->stateCount();
    if (needOpt) rec.productStatesNew += product->fullStateCount();
    rec.productStates = needPess  ? pessimistic->stateCount()
                        : needOpt ? product->fullStateCount()
                                  : 0;
    rec.composeMs = lapMs();

    // 2. Verification step (Sec. 4.1).
    ctl::VerifyResult propRes{true, {}, 0, {}};
    ctl::VerifyResult dlRes{true, {}, 0, {}};
    {
      const obs::ObsSpan span("check", config_.ulid);
      if (progress != nullptr) progress->setPhase("check");
      ctl::VerifyOptions vo;
      vo.maxCounterexamples = config_.counterexamplesPerCheck;
      vo.search = config_.search;
      vo.traceId = config_.ulid;
      vo.requireDeadlockFree = false;
      if (needOpt) {
        if (!memo || memo->stateCount() != region->stateCount()) {
          memo.emplace(region->product(), phi);
        }
        propRes = ctl::verify(*product, &*memo, phi, vo);
      }
      if (needPess) dlRes = ctl::verifyDeadlockFree(*pessimistic, vo);
    }
    rec.checkPassed = propRes.holds && dlRes.holds;
    rec.checkMs = lapMs();
    // Atoms can become known as states are learned: report the final round's
    // view, not the union over all rounds.
    res.unknownAtoms.clear();
    for (const auto& atom : propRes.unknownAtoms) {
      if (atom != automata::kChaosProp) res.unknownAtoms.push_back(atom);
    }

    if (rec.checkPassed) {
      accumulate(rec);
      emitIteration(rec);
      res.journal.push_back(std::move(rec));
      res.verdict = Verdict::ProvenCorrect;
      res.explanation =
          "the abstraction satisfies the property and deadlock freedom; by "
          "Lemma 5 the real integration is correct";
      break;
    }
    if (cancelled()) break;  // don't start testing past the deadline

    // 3./4. Testing and learning steps per counterexample — property
    // counterexamples first (fast conflict detection), then deadlocks.
    const std::size_t knowledgeBefore = totalKnowledge();
    const auto& firstCex =
        !propRes.holds ? propRes.cex() : dlRes.cex();
    rec.cexWasDeadlock =
        firstCex.kind == ctl::Counterexample::Kind::Deadlock;
    rec.cexLength = firstCex.run.length();
    bool realError = false;
    bool unsupported = false;
    // Deadlock runs name the pessimistic product's states: copy-1 states
    // of known legacy states are primed.
    const auto render = [&](const ctl::Counterexample& cex) {
      return cex.copies.empty() ? product->renderRun(cex.run)
                                : pessimistic->renderRun(cex.run, cex.copies);
    };
    const auto process = [&](const ctl::VerifyResult& vres) {
      for (const auto& cex : vres.counterexamples) {
        if (cancelled()) return;
        if (config_.keepTraces) {
          rec.cexText += render(cex);
          rec.cexText += "--\n";
        }
        if (!cex.pathExact) {
          unsupported = true;
          continue;
        }
        const auto handling =
            handleCounterexample(cex, *product, closures, rec);
        if (handling.realError) {
          res.verdict = Verdict::RealError;
          res.explanation = handling.errorText;
          res.counterexampleText = render(cex);
          realError = true;
          return;
        }
      }
    };
    bool adapterFailed = false;
    {
      const obs::ObsSpan span("test", config_.ulid);
      if (progress != nullptr) progress->setPhase("test");
      // Containment boundary for out-of-process legacies: a subprocess
      // adapter that crashes, hangs, or garbles beyond its recovery budget
      // aborts the run with the distinct AdapterFailure verdict instead of
      // tearing down the harness (the component could not be observed, so
      // neither Lemma 5 nor Lemma 6 applies).
      try {
        if (!propRes.holds) process(propRes);
        if (!realError && !dlRes.holds) process(dlRes);
      } catch (const testing::AdapterFailure& e) {
        res.verdict = Verdict::AdapterFailure;
        res.explanation = e.what();
        adapterFailed = true;
      } catch (const testing::JobDeadlineExceeded&) {
        wasCancelled = true;  // the job's deadline passed inside an exchange
      }
    }
    rec.testMs = lapMs();
    rec.learnedFacts = totalKnowledge() - knowledgeBefore;
    res.totalLearnedFacts += rec.learnedFacts;
    res.totalTestPeriods += rec.testPeriods;
    const bool progressed = rec.learnedFacts > 0;
    accumulate(rec);
    emitIteration(rec);
    res.journal.push_back(std::move(rec));
    if (adapterFailed) break;
    if (realError) break;
    if (wasCancelled) break;
    if (!progressed) {
      res.verdict = Verdict::Unsupported;
      res.explanation =
          unsupported
              ? "counterexample shape outside the supported ACTL fragment"
              : "no learning progress (use ClosureStyle::DeterministicTarget "
                "for guaranteed progress)";
      break;
    }
  }

  res.iterations = res.journal.size();
  res.learnedModels = models_;
  if (config_.recordTests) res.recordedTests = suites_;
  if (wasCancelled && res.verdict != Verdict::RealError &&
      res.verdict != Verdict::ProvenCorrect &&
      res.verdict != Verdict::AdapterFailure) {
    res.verdict = Verdict::Cancelled;
    res.explanation =
        "stopped by the cancellation hook before reaching a verdict";
  } else if (res.verdict == Verdict::IterationLimit) {
    res.explanation = "iteration budget exhausted";
  }

  static obs::Counter& iterations = obs::Registry::global().counter(
      "mui_integration_iterations_total", "Verify-test-learn iterations run");
  static obs::Counter& learned = obs::Registry::global().counter(
      "mui_integration_learned_facts_total",
      "Facts (states+transitions+refusals) learned across all runs");
  static obs::Counter& periods = obs::Registry::global().counter(
      "mui_integration_test_periods_total",
      "Legacy periods driven by counterexample tests across all runs");
  iterations.add(res.iterations);
  learned.add(res.totalLearnedFacts);
  periods.add(res.totalTestPeriods);

  if (journal != nullptr) {
    journal->event("verdict",
                   baseFields()
                       .s("verdict", verdictName(res.verdict))
                       .s("explanation", res.explanation)
                       .u("iterations", res.iterations)
                       .u("learnedFacts", res.totalLearnedFacts)
                       .u("testPeriods", res.totalTestPeriods)
                       .u("productStatesNew", res.totalProductStatesNew)
                       .u("productStatesReused", 0)
                       .f("closureMs", res.totalClosureMs)
                       .f("composeMs", res.totalComposeMs)
                       .f("checkMs", res.totalCheckMs)
                       .f("testMs", res.totalTestMs));
  }
  return res;
}

IntegrationResult runIntegration(automata::Automaton context,
                                 testing::LegacyComponent& legacy,
                                 IntegrationConfig config) {
  return IntegrationVerifier(std::move(context), legacy, std::move(config))
      .run();
}

IntegrationVerifier::CexHandling IntegrationVerifier::handleCounterexample(
    const ctl::Counterexample& cex, const automata::FlatProduct& product,
    const std::vector<automata::VirtualClosure>& closures,
    IterationRecord& rec) {
  const automata::Run& run = cex.run;

  // Positions where each legacy's closure side first enters chaos.
  std::vector<std::size_t> chaosAt(legacies_.size(), kNoChaos);
  for (std::size_t pos = 0; pos < run.states.size(); ++pos) {
    for (std::size_t k = 0; k < legacies_.size(); ++k) {
      if (chaosAt[k] != kNoChaos) continue;
      const automata::StateId cs = product.origin(run.states[pos], k + 1);
      if (closures[k].isChaos(cs)) chaosAt[k] = pos;
    }
  }
  const bool anyChaos =
      std::any_of(chaosAt.begin(), chaosAt.end(),
                  [](std::size_t p) { return p != kNoChaos; });

  const auto projectSteps = [&](std::size_t k) {
    std::vector<automata::Interaction> steps;
    steps.reserve(run.labels.size());
    for (const auto& l : run.labels) {
      steps.push_back(product.projectInteraction(l, k + 1));
    }
    return steps;
  };

  const auto runTest = [&](std::size_t k,
                           std::vector<automata::Interaction> steps) {
    testing::CounterexampleTestDriver driver(*legacies_[k],
                                             *context_.signalTable());
    auto outcome = driver.execute(steps);
    rec.testPeriods += driver.periodsDriven();
    if (config_.recordTests) {
      ComponentTest test;
      test.name = "iter" + std::to_string(rec.iteration) + "/" +
                  (cex.kind == ctl::Counterexample::Kind::Deadlock
                       ? "deadlock"
                       : "property") +
                  "#" + std::to_string(suites_[k].tests.size());
      test.steps = std::move(steps);
      test.expectedKind = outcome.kind;
      test.expected = outcome.observed;
      suites_[k].tests.push_back(std::move(test));
    }
    if (config_.keepTraces) {
      rec.monitorText += "# target recording (legacy " +
                         legacies_[k]->name() + ")\n" +
                         outcome.targetLog.render();
      rec.monitorText += "# deterministic replay (full probes)\n" +
                         outcome.replayLog.render();
    }
    return outcome;
  };

  CexHandling out;

  if (!anyChaos) {
    if (cex.kind == ctl::Counterexample::Kind::Property) {
      // Listing 1.4: the violation lies entirely within learned behavior;
      // observation conformance (Def. 10) makes it realizable — a proof of
      // conflict without further testing.
      out.realError = true;
      out.errorText =
          "property violation within the learned (synthesized) behavior — "
          "realizable by observation conformance (fast conflict detection)";
      return out;
    }

    // Deadlock among learned states: decide by testing the unknown context
    // offers at the stuck state.
    const automata::StateId p = run.states.back();

    bool anyUnknown = false;
    bool anyEscape = false;
    for (std::size_t k = 0; k < legacies_.size(); ++k) {
      const automata::StateId sk = product.origin(p, k + 1);
      for (const auto& x : jointOffers(product, p, k)) {
        if (models_[k].base().hasTransition(sk, x)) {
          // The offer is already known to be accepted. This happens when a
          // previous counterexample of the same batch taught it (the stuck
          // state is stale), or — with several legacies — when the combo
          // hinges on another legacy's still-unknown part. Either way the
          // deadlock is not confirmed.
          anyEscape = true;
          continue;
        }
        if (models_[k].isForbidden(sk, x)) continue;  // verified refusal
        anyUnknown = true;
        auto steps = projectSteps(k);
        steps.push_back(x);
        const auto outcome = runTest(k, std::move(steps));
        out.learnedAnything |= applyOutcome(k, outcome);
      }
    }
    if (out.learnedAnything) return out;
    if (!anyUnknown && !anyEscape) {
      out.realError = true;
      out.errorText =
          "reachable deadlock: every interaction the context offers at the "
          "final state is verifiably refused by the legacy component(s)";
      return out;
    }
    return out;  // unresolved here; the next iteration re-checks
  }

  // The counterexample enters chaos: test every legacy that does, over the
  // full projected interaction sequence; learning merges the observations.
  for (std::size_t k = 0; k < legacies_.size(); ++k) {
    if (chaosAt[k] == kNoChaos) continue;
    const auto outcome = runTest(k, projectSteps(k));
    out.learnedAnything |= applyOutcome(k, outcome);
  }
  return out;
}

std::vector<automata::Interaction> IntegrationVerifier::jointOffers(
    const automata::FlatProduct& product, automata::StateId p,
    std::size_t legacyIdx) const {
  const std::size_t stride = product.stride();
  std::vector<automata::Word> legacyIn(stride), legacyOut(stride);
  automata::packWords(legacies_[legacyIdx]->inputs(), stride, legacyIn.data());
  automata::packWords(legacies_[legacyIdx]->outputs(), stride,
                      legacyOut.data());

  // The participating components other than the legacy, and their edges at
  // p (another legacy's closure at its copy-1 state, so its chaotic —
  // possible-but-unknown — moves participate in the offers).
  std::vector<std::size_t> others;
  std::vector<std::vector<automata::EdgeRef>> edges;
  for (std::size_t i = 0; i < product.componentCount(); ++i) {
    if (i == legacyIdx + 1) continue;
    others.push_back(i);
    product.component(i).edges(product.origin(p, i), edges.emplace_back());
  }

  std::vector<automata::Interaction> offers;
  std::vector<automata::Word> x(2 * stride);
  std::vector<const automata::Word*> chosen(others.size(), nullptr);

  const auto emit = [&] {
    // The legacy's side of the joint move: it reads what the others write
    // to it and writes what they read from it.
    std::fill(x.begin(), x.end(), 0);
    for (const automata::Word* l : chosen) {
      for (std::size_t w = 0; w < stride; ++w) {
        x[w] |= l[stride + w] & legacyIn[w];
        x[stride + w] |= l[w] & legacyOut[w];
      }
    }
    automata::Interaction offer{
        automata::SignalSet::fromWords(x.data(), stride),
        automata::SignalSet::fromWords(x.data() + stride, stride)};
    if (std::find(offers.begin(), offers.end(), offer) == offers.end()) {
      offers.push_back(std::move(offer));
    }
  };

  const auto recurse = [&](auto&& self, std::size_t idx) -> void {
    if (idx == others.size()) {
      emit();
      return;
    }
    for (const automata::EdgeRef& e : edges[idx]) {
      bool ok = true;
      for (std::size_t j = 0; j < idx && ok; ++j) {
        ok = product.matches(others[j], chosen[j], others[idx], e.label);
      }
      if (!ok) continue;
      chosen[idx] = e.label;
      self(self, idx + 1);
    }
  };
  recurse(recurse, 0);
  return offers;
}

bool IntegrationVerifier::applyOutcome(std::size_t legacyIdx,
                                       const testing::TestOutcome& outcome) {
  const obs::ObsSpan span("learn", config_.ulid);
  bool any = models_[legacyIdx].learn(outcome.observed).any();
  if (outcome.refusalRun) {
    any = models_[legacyIdx].learn(*outcome.refusalRun).any() || any;
  }
  return any;
}

}  // namespace mui::synthesis

#include "engine/runner.hpp"

#include <chrono>
#include <stdexcept>

#include <memory>

#include "analysis/analyze.hpp"
#include "analysis/semantic.hpp"
#include "obs/metrics.hpp"
#include "engine/thread_pool.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "obs/journal.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/subprocess.hpp"

namespace mui::engine {

namespace {

using Clock = std::chrono::steady_clock;

JobStatus statusOf(synthesis::Verdict v) {
  switch (v) {
    case synthesis::Verdict::ProvenCorrect:
      return JobStatus::Proven;
    case synthesis::Verdict::RealError:
      return JobStatus::RealError;
    case synthesis::Verdict::IterationLimit:
      return JobStatus::IterationLimit;
    case synthesis::Verdict::Unsupported:
      return JobStatus::Unsupported;
    case synthesis::Verdict::Cancelled:
      return JobStatus::Timeout;
    case synthesis::Verdict::AdapterFailure:
      return JobStatus::AdapterFailure;
  }
  return JobStatus::EngineError;
}

void countPresolve(analysis::PresolveVerdict v) {
  static obs::Counter& proved = obs::Registry::global().counter(
      "mui_presolve_proved_total",
      "jobs pre-solved to proven by the semantic analyzer");
  static obs::Counter& refuted = obs::Registry::global().counter(
      "mui_presolve_refuted_total",
      "jobs pre-solved to real-error by the semantic analyzer");
  static obs::Counter& skipped = obs::Registry::global().counter(
      "mui_presolve_skipped_total",
      "jobs the semantic pre-solver passed to the refinement loop");
  switch (v) {
    case analysis::PresolveVerdict::Proved:
      proved.inc();
      break;
    case analysis::PresolveVerdict::Refuted:
      refuted.inc();
      break;
    case analysis::PresolveVerdict::Skipped:
      skipped.inc();
      break;
  }
}

}  // namespace

JobResult runJob(const Job& job, TextCache& texts, ResultCache& results,
                 const RunnerOptions& options) {
  const obs::ObsSpan span("job:" + job.name, job.ulid);
  JobResult out;
  out.job = job;
  out.worker = ThreadPool::currentWorkerName();
  obs::JobProgress* const progress = options.progress;
  if (progress != nullptr) progress->setPhase("load");
  const auto start = Clock::now();
  const auto elapsedMs = [&start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const auto finish = [&]() -> JobResult& {
    out.wallMs = elapsedMs();
    if (progress != nullptr) {
      progress->setPhase("done");
      progress->setIteration(out.iterations);
      if (out.cacheHit) {
        progress->setDisposition("cache-hit");
      } else if (out.presolved) {
        progress->setDisposition("presolved");
      } else {
        progress->setDisposition("loop");
      }
    }
    if (options.journal != nullptr) {
      util::json::Object fields;
      fields.s("run", job.name);
      if (!job.ulid.empty()) fields.s("ulid", job.ulid);
      fields.s("model", job.modelPath)
          .s("status", jobStatusName(out.status))
          .s("worker", out.worker)
          .b("cacheHit", out.cacheHit)
          .b("presolved", out.presolved)
          .f("wallMs", out.wallMs)
          .u("iterations", out.iterations)
          .u("learnedFacts", out.learnedFacts)
          .u("testPeriods", out.testPeriods);
      options.journal->event("job", fields);
    }
    return out;
  };

  const std::uint64_t timeoutMs =
      job.timeoutMs != 0 ? job.timeoutMs : options.defaultTimeoutMs;
  const auto deadlineText = [timeoutMs] {
    return "deadline of " + std::to_string(timeoutMs) + " ms exceeded";
  };
  try {
    const std::string text = texts.get(job.modelPath);

    // Content key of everything that determines the job's outcome; see the
    // ResultCache contract in cache.hpp.
    const JobKey key = makeJobKey(text, job, timeoutMs);
    ResultCache::Claim claim;  // released on every path that stores nothing
    if (auto hit = results.claim(key, claim)) {
      out.status = hit->status;
      out.explanation = hit->explanation;
      out.iterations = hit->iterations;
      out.testPeriods = hit->testPeriods;
      out.learnedFacts = hit->learnedFacts;
      out.cacheHit = true;
      return finish();
    }

    const muml::Model model = muml::loadModel(text, job.modelPath);

    // Lint pre-flight: a model that fails the error-severity rules (unknown
    // formula atoms, missing initial states, clashing composition alphabets)
    // can only yield vacuous or spurious verdicts — fail the job fast with
    // the diagnostics instead of spending verification time on it.
    if (options.lintPreflight) {
      if (progress != nullptr) progress->setPhase("lint");
      const auto lint =
          analysis::run(model, analysis::RuleSet::errorsOnly());
      if (lint.hasErrors()) {
        const auto messages = lint.errorMessages();
        std::string what = "lint: " + messages.front();
        if (messages.size() > 1) {
          what += " (+" + std::to_string(messages.size() - 1) +
                  " more error-level finding(s))";
        }
        out.status = JobStatus::EngineError;
        out.explanation = std::move(what);
        return finish();
      }
    }

    // Full semantic diagnostic tier (--semantic): like the lint pre-flight
    // but flow-sensitive, gating on error-level MUI1xx findings.
    if (options.semanticDiagnostics) {
      const auto semantic = analysis::runSemantic(model);
      if (options.journal != nullptr) {
        util::json::Object fields;
        fields.s("run", job.name);
        if (!job.ulid.empty()) fields.s("ulid", job.ulid);
        fields.u("findings", semantic.diagnostics.size())
            .u("errors", semantic.count(analysis::Severity::Error))
            .u("suppressed", semantic.suppressed);
        options.journal->event("analyze", fields);
      }
      if (semantic.hasErrors()) {
        out.status = JobStatus::EngineError;
        out.explanation = "semantic: " + semantic.errorMessages().front();
        return finish();
      }
    }

    muml::IntegrationBinding binding = muml::bindIntegration(
        model, job.pattern, job.legacyRole, job.hidden);
    const muml::IntegrationScenario& scenario = binding.scenario;
    const std::string property =
        job.formula.empty() ? scenario.property : job.formula;

    // An out-of-process legacy: the hidden behavior lives in an adapter
    // binary (docs/ADAPTERS.md). The semantic pre-solve needs a concrete
    // hidden automaton, so the job always goes through the refinement loop;
    // results are never cached because the binary's content is not part of
    // the JobKey (see the ResultCache contract in cache.hpp), so its
    // duplicates need not wait for it either.
    const bool external = binding.legacy.external != nullptr;
    if (external) claim.release();

    // Semantic pre-solve: for properties inside the AG-safety fragment the
    // verdict is decidable by plain forward reachability on the concrete
    // composition — no closure, no learning, no testing. Definitive outcomes
    // short-circuit the refinement loop and are cached under the same
    // content key a loop result would use (fuzz oracle O6 checks that the
    // two paths agree).
    if (!external && options.semanticPresolve) {
      if (progress != nullptr) progress->setPhase("presolve");
      const analysis::PresolveOutcome pre = analysis::presolveIntegration(
          scenario.context, *binding.legacy.hidden, property);
      countPresolve(pre.verdict);
      if (options.journal != nullptr) {
        util::json::Object fields;
        fields.s("run", job.name);
        if (!job.ulid.empty()) fields.s("ulid", job.ulid);
        fields.s("verdict", analysis::presolveVerdictName(pre.verdict))
            .s("rule", pre.ruleId)
            .u("productStates", pre.productStates);
        options.journal->event("presolve", fields);
      }
      if (pre.verdict != analysis::PresolveVerdict::Skipped) {
        out.status = pre.verdict == analysis::PresolveVerdict::Proved
                         ? JobStatus::Proven
                         : JobStatus::RealError;
        out.explanation = pre.explanation;
        out.presolved = true;
        results.store(key, CachedOutcome{out.status, out.explanation,
                                         out.iterations, out.testPeriods,
                                         out.learnedFacts});
        return finish();
      }
    }

    const auto deadline = timeoutMs != 0
                              ? testing::deadlineAfter(start, timeoutMs)
                              : Clock::time_point::max();
    const std::unique_ptr<testing::LegacyComponent> legacy =
        testing::makeLegacy(model, std::move(binding.legacy), options.journal,
                            job.ulid, deadline);

    synthesis::IntegrationConfig cfg;
    cfg.property = property;
    cfg.journal = options.journal;
    cfg.runId = job.name;
    cfg.ulid = job.ulid;
    cfg.progress = progress;
    if (job.maxIterations != 0) cfg.maxIterations = job.maxIterations;
    if (timeoutMs != 0) {
      cfg.cancelRequested = [deadline] { return Clock::now() >= deadline; };
    }

    const auto res =
        synthesis::runIntegration(scenario.context, *legacy, std::move(cfg));
    out.status = statusOf(res.verdict);
    out.explanation = res.verdict == synthesis::Verdict::Cancelled
                          ? deadlineText()
                          : res.explanation;
    out.iterations = res.iterations;
    out.testPeriods = res.totalTestPeriods;
    out.learnedFacts = res.totalLearnedFacts;
    out.closureMs = res.totalClosureMs;
    out.composeMs = res.totalComposeMs;
    out.checkMs = res.totalCheckMs;
    out.testMs = res.totalTestMs;
    out.productStatesNew = res.totalProductStatesNew;

    if (out.status != JobStatus::Timeout &&
        out.status != JobStatus::EngineError && !external) {
      results.store(key, CachedOutcome{out.status, out.explanation,
                                       out.iterations, out.testPeriods,
                                       out.learnedFacts});
    }
  } catch (const testing::JobDeadlineExceeded&) {
    // The deadline passed inside an adapter exchange before the loop ran
    // (the initial hello or probe).
    out.status = JobStatus::Timeout;
    out.explanation = deadlineText();
  } catch (const testing::AdapterFailure& e) {
    // Adapter death before the loop even starts (spawn failure, broken
    // handshake during the initial reset/probe) carries the same distinct
    // status as an in-loop containment abort.
    out.status = JobStatus::AdapterFailure;
    out.explanation = e.what();
  } catch (const std::exception& e) {
    out.status = JobStatus::EngineError;
    out.explanation = e.what();
  } catch (...) {
    out.status = JobStatus::EngineError;
    out.explanation = "unknown exception";
  }
  if (out.status == JobStatus::EngineError && !out.worker.empty()) {
    // Crash isolation: say which worker the job died on.
    out.explanation = "[" + out.worker + "] " + out.explanation;
  }
  return finish();
}

}  // namespace mui::engine

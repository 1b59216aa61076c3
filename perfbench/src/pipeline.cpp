#include <cmath>
#include <sstream>

#include "analysis/analyze.hpp"
#include "analysis/semantic.hpp"
#include "automata/rename.hpp"
#include "harness.hpp"
#include "muml/external.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/verifier.hpp"
#include "testing/subprocess.hpp"

namespace perfbench {

using mui::engine::Job;

// ---- report ---------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Report::json() const {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
      << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

// ---- verdict gate ---------------------------------------------------------

VerdictGate::VerdictGate(const Campaign& campaign) : campaign_(campaign) {}

bool VerdictGate::check(std::size_t job, const std::string& status,
                        long long iterations, long long testPeriods) {
  const Expected& e = campaign_.expected[job];
  std::string why;
  if (status != e.status) {
    why = "status " + status + ", expected " + e.status;
  } else if (iterations != e.iterations || testPeriods != e.testPeriods) {
    why = "iterations/test periods " + std::to_string(iterations) + "/" +
          std::to_string(testPeriods) + ", expected " +
          std::to_string(e.iterations) + "/" + std::to_string(e.testPeriods);
  }
  if (why.empty()) return true;
  fail(job, why);
  return false;
}

void VerdictGate::fail(std::size_t job, const std::string& why) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (mismatches_.size() < 20) {
    mismatches_.push_back(campaign_.jobs[job].name + ": " + why);
  }
}

std::vector<std::string> VerdictGate::mismatches() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return mismatches_;
}

// ---- traced pipeline ------------------------------------------------------

namespace {

const char* statusOf(mui::synthesis::Verdict v) {
  using mui::synthesis::Verdict;
  switch (v) {
    case Verdict::ProvenCorrect:
      return "proven";
    case Verdict::RealError:
      return "real-error";
    case Verdict::IterationLimit:
      return "iteration-limit";
    case Verdict::Unsupported:
      return "unsupported";
    case Verdict::Cancelled:
      return "timeout";
    case Verdict::AdapterFailure:
      return "adapter-failure";
  }
  return "engine-error";
}

mui::engine::CachedOutcome cached(const PipelineOutcome& o) {
  mui::engine::CachedOutcome c;
  c.status = *mui::engine::jobStatusFromName(o.status);
  c.iterations = static_cast<std::size_t>(o.iterations);
  c.testPeriods = static_cast<std::uint64_t>(o.testPeriods);
  c.learnedFacts = o.learnedFacts;
  return c;
}

}  // namespace

PipelineOutcome runPipeline(const Job& job, mui::engine::TextCache& texts,
                            mui::engine::ResultCache& results,
                            SpanBuffer* spans, std::uint32_t jobNo) {
  namespace engine = mui::engine;
  PipelineOutcome out;
  const ScopedSpan root(spans, "job", jobNo);
  try {
    std::string text;
    {
      const ScopedSpan s(spans, "engine.text_get", jobNo);
      text = texts.get(job.modelPath);
    }
    engine::JobKey key;
    {
      const ScopedSpan s(spans, "engine.job_key", jobNo);
      key = engine::makeJobKey(text, job, job.timeoutMs);
    }
    std::optional<engine::CachedOutcome> hit;
    {
      const ScopedSpan s(spans, "engine.cache_lookup", jobNo);
      hit = results.lookup(key);
    }
    if (hit) {
      out.status = engine::jobStatusName(hit->status);
      out.iterations = static_cast<long long>(hit->iterations);
      out.testPeriods = static_cast<long long>(hit->testPeriods);
      out.learnedFacts = hit->learnedFacts;
      out.cacheHit = true;
      return out;
    }
    std::optional<mui::muml::Model> model;
    {
      const ScopedSpan s(spans, "muml.load", jobNo);
      model.emplace(mui::muml::loadModel(text, job.modelPath));
    }
    {
      const ScopedSpan s(spans, "analysis.lint", jobNo);
      const auto lint =
          mui::analysis::run(*model, mui::analysis::RuleSet::errorsOnly());
      if (lint.hasErrors()) {
        out.status = "engine-error";
        return out;
      }
    }
    const auto& pattern = model->patterns.at(job.pattern);
    std::size_t role = 0;
    while (pattern.roles.at(role).name != job.legacyRole) ++role;
    const auto ext = model->externals.find(job.hidden);
    out.external = ext != model->externals.end();

    std::optional<mui::muml::IntegrationScenario> scenario;
    {
      const ScopedSpan s(spans, "muml.scenario", jobNo);
      scenario.emplace(mui::muml::makeIntegrationScenario(
          pattern, role, model->signals, model->props));
    }
    out.contextStates = scenario->context.stateCount();
    const std::string property =
        job.formula.empty() ? scenario->property : job.formula;

    std::unique_ptr<mui::testing::LegacyComponent> legacy;
    if (out.external) {
      const ScopedSpan s(spans, "testing.create", jobNo);
      mui::muml::checkExternalInterface(ext->second, pattern.roles[role],
                                        model->source, model->signals);
      legacy = std::make_unique<mui::testing::SubprocessLegacy>(
          mui::testing::configFromExternal(*model, ext->second));
      // The adapter spawns lazily on its first exchange; a side-effect-free
      // probe here makes creation include the spawn and the handshake.
      (void)legacy->currentStateName();
    } else {
      const auto hidden = mui::automata::withInstanceName(
          model->automata.at(job.hidden), pattern.roles[role].name);
      {
        const ScopedSpan s(spans, "analysis.presolve", jobNo);
        const auto pre = mui::analysis::presolveIntegration(scenario->context,
                                                            hidden, property);
        out.presolveRan = true;
        out.presolveStates = pre.productStates;
        if (pre.verdict != mui::analysis::PresolveVerdict::Skipped) {
          out.presolved = true;
          out.status = pre.verdict == mui::analysis::PresolveVerdict::Proved
                           ? "proven"
                           : "real-error";
        }
      }
      if (out.presolved) {
        const ScopedSpan s(spans, "engine.cache_store", jobNo);
        results.store(key, cached(out));
        return out;
      }
      const ScopedSpan s(spans, "testing.create", jobNo);
      legacy = std::make_unique<mui::testing::AutomatonLegacy>(hidden);
    }

    if (spans != nullptr) {
      legacy = std::make_unique<TimedLegacy>(std::move(legacy), out.legacy);
    }
    mui::synthesis::IntegrationConfig cfg;
    cfg.property = property;
    cfg.runId = job.name;
    if (job.maxIterations != 0) cfg.maxIterations = job.maxIterations;
    mui::synthesis::IntegrationResult res;
    {
      const ScopedSpan s(spans, "synthesis.loop", jobNo);
      res = mui::synthesis::runIntegration(scenario->context, *legacy,
                                           std::move(cfg));
    }
    out.loop = true;
    out.status = statusOf(res.verdict);
    out.iterations = static_cast<long long>(res.iterations);
    out.testPeriods = static_cast<long long>(res.totalTestPeriods);
    out.learnedFacts = res.totalLearnedFacts;
    out.closureMs = res.totalClosureMs;
    out.composeMs = res.totalComposeMs;
    out.checkMs = res.totalCheckMs;
    out.testMs = res.totalTestMs;
    out.statesNew = res.totalProductStatesNew;
    out.statesReused = res.totalProductStatesReused;
    {
      // An adapter's teardown (quit, then reap) is part of the job.
      const ScopedSpan s(spans, "testing.destroy", jobNo);
      legacy.reset();
    }
    if (!out.external && out.status != "timeout") {
      const ScopedSpan s(spans, "engine.cache_store", jobNo);
      results.store(key, cached(out));
    }
  } catch (const mui::testing::AdapterFailure&) {
    out.status = "adapter-failure";
  } catch (const std::exception&) {
    out.status = "engine-error";
  }
  return out;
}

}  // namespace perfbench

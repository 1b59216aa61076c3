// Per-layer metrics of a traced run. Layers are the program's src/ modules;
// each span the pipeline records is named "<layer>.<call>", and the loop's
// closure / compose / check / test totals come from the public
// IntegrationResult (the numbers the program reports itself).

#include <algorithm>
#include <map>

#include "harness.hpp"

namespace perfbench {

void addAbsentMetrics(
    Report& report,
    const std::vector<std::pair<const char*, const char*>>& metrics) {
  for (const auto& [name, unit] : metrics) report.metric(name, 0, unit);
}

void addLayerMetrics(Report& r, const std::vector<const SpanBuffer*>& buffers,
                     const std::vector<PipelineOutcome>& outcomes,
                     double overheadPct) {
  std::map<std::string, std::vector<double>> durMs;
  std::map<std::string, double> selfByLayer;
  double jobMs = 0, unattributedMs = 0;
  for (const SpanBuffer* b : buffers) {
    const std::vector<double> self = selfMs(*b);
    const auto& spans = b->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name = s.name;
      durMs[name].push_back(s.ms());
      if (name == "job") {
        jobMs += s.ms();
        unattributedMs += self[i];
        continue;
      }
      const std::string layer = name.substr(0, name.find('.'));
      if (name != "synthesis.loop") {
        selfByLayer[layer] += self[i];
        continue;
      }
      // Split the loop span by the program's own phase totals and the
      // decorator's exchange time (which the test phase contains).
      const PipelineOutcome& o = outcomes.at(s.job);
      const double exchange = o.legacy.totalMs();
      selfByLayer["automata"] += o.closureMs + o.composeMs;
      selfByLayer["ctl"] += o.checkMs;
      selfByLayer["testing"] += exchange;
      selfByLayer["synthesis"] +=
          s.ms() - o.closureMs - o.composeMs - o.checkMs - exchange;
    }
  }
  const auto p50us = [&](const char* name) {
    return median(durMs[name]) * 1e3;
  };
  const auto p50ms = [&](const char* name) { return median(durMs[name]); };
  const auto share = [&](const char* layer) {
    return jobMs > 0 ? selfByLayer[layer] / jobMs : 0.0;
  };

  std::size_t hits = 0, presolved = 0, presolveRan = 0, loops = 0,
              external = 0, withScenario = 0;
  double contextStates = 0, presolveStates = 0;
  double loopMs = 0, iterations = 0, periods = 0, facts = 0, testMs = 0,
         otherMs = 0, closureMs = 0, composeMs = 0, checkMs = 0;
  double statesNew = 0, statesReused = 0;
  LegacyStats legacy;
  const auto& loopDur = durMs["synthesis.loop"];
  for (const PipelineOutcome& o : outcomes) {
    hits += o.cacheHit;
    presolved += o.presolved;
    presolveRan += o.presolveRan;
    external += o.external;
    if (o.contextStates > 0) {
      ++withScenario;
      contextStates += static_cast<double>(o.contextStates);
    }
    if (o.presolveRan) presolveStates += static_cast<double>(o.presolveStates);
    legacy.merge(o.legacy);
    if (!o.loop) continue;
    ++loops;
    iterations += static_cast<double>(o.iterations);
    periods += static_cast<double>(o.testPeriods);
    facts += static_cast<double>(o.learnedFacts);
    testMs += o.testMs;
    closureMs += o.closureMs;
    composeMs += o.composeMs;
    checkMs += o.checkMs;
    statesNew += static_cast<double>(o.statesNew);
    statesReused += static_cast<double>(o.statesReused);
  }
  for (const double d : loopDur) loopMs += d;
  otherMs = loopMs - closureMs - composeMs - checkMs - testMs;
  const auto perLoop = [&](double total) {
    return loops > 0 ? total / static_cast<double>(loops) : 0.0;
  };
  const double jobs = static_cast<double>(std::max<std::size_t>(1, outcomes.size()));
  const double lookups = static_cast<double>(durMs["engine.cache_lookup"].size());

  r.metric("engine.text_get_us", p50us("engine.text_get"), "us");
  r.metric("engine.job_key_us", p50us("engine.job_key"), "us");
  r.metric("engine.cache_lookup_us", p50us("engine.cache_lookup"), "us");
  r.metric("engine.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  r.metric("engine.cache_hits", static_cast<double>(hits), "count");
  r.metric("engine.cache_lookups", lookups, "count");
  r.metric("engine.cache_store_us", p50us("engine.cache_store"), "us");
  r.metric("engine.self_share", share("engine"), "ratio");
  r.metric("muml.load_ms", p50ms("muml.load"), "ms");
  r.metric("muml.scenario_ms", p50ms("muml.scenario"), "ms");
  r.metric("muml.context_states",
           withScenario > 0 ? contextStates / static_cast<double>(withScenario) : 0,
           "count");
  r.metric("muml.self_share", share("muml"), "ratio");
  r.metric("analysis.lint_ms", p50ms("analysis.lint"), "ms");
  r.metric("analysis.presolve_ms", p50ms("analysis.presolve"), "ms");
  r.metric("analysis.presolve_decided_ratio",
           presolveRan > 0 ? static_cast<double>(presolved) / static_cast<double>(presolveRan) : 0,
           "ratio");
  r.metric("analysis.presolve_states",
           presolveRan > 0 ? presolveStates / static_cast<double>(presolveRan) : 0,
           "count");
  r.metric("analysis.self_share", share("analysis"), "ratio");
  r.metric("synthesis.loop_ms", perLoop(loopMs), "ms");
  r.metric("synthesis.iterations", perLoop(iterations), "count");
  r.metric("synthesis.test_periods", perLoop(periods), "count");
  r.metric("synthesis.learned_facts", perLoop(facts), "count");
  r.metric("synthesis.test_ms", perLoop(testMs), "ms");
  r.metric("synthesis.loop_other_ms", perLoop(otherMs), "ms");
  r.metric("synthesis.self_share", share("synthesis"), "ratio");
  r.metric("automata.closure_ms", perLoop(closureMs), "ms");
  r.metric("automata.compose_ms", perLoop(composeMs), "ms");
  r.metric("automata.states_new", perLoop(statesNew), "count");
  r.metric("automata.states_reused", perLoop(statesReused), "count");
  r.metric("automata.reuse_ratio",
           statesNew + statesReused > 0 ? statesReused / (statesNew + statesReused) : 0,
           "ratio");
  r.metric("automata.self_share", share("automata"), "ratio");
  r.metric("ctl.check_ms", perLoop(checkMs), "ms");
  r.metric("ctl.self_share", share("ctl"), "ratio");
  const auto& create = durMs["testing.create"];
  double createMs = 0;
  for (const double d : create) createMs += d;
  r.metric("testing.create_ms",
           create.empty() ? 0 : createMs / static_cast<double>(create.size()), "ms");
  const auto& destroy = durMs["testing.destroy"];
  double destroyMs = 0;
  for (const double d : destroy) destroyMs += d;
  r.metric("testing.destroy_ms",
           destroy.empty() ? 0 : destroyMs / static_cast<double>(destroy.size()),
           "ms");
  r.metric("testing.step_calls", perLoop(static_cast<double>(legacy.steps)), "count");
  std::vector<double> stepUs(legacy.stepUs.begin(), legacy.stepUs.end());
  r.metric("testing.step_us_p50", quantile(stepUs, 0.5), "us");
  r.metric("testing.step_us_p99", quantile(stepUs, 0.99), "us");
  r.metric("testing.refused_ratio",
           legacy.steps > 0 ? static_cast<double>(legacy.refused) / static_cast<double>(legacy.steps) : 0,
           "ratio");
  r.metric("testing.reset_calls", perLoop(static_cast<double>(legacy.resets)), "count");
  r.metric("testing.clone_calls", perLoop(static_cast<double>(legacy.clones)), "count");
  r.metric("testing.adapter_failures", static_cast<double>(legacy.failures), "count");
  r.metric("testing.self_share", share("testing"), "ratio");
  r.metric("mix.hit_share", hits / jobs, "ratio");
  r.metric("mix.presolved_share", presolved / jobs, "ratio");
  r.metric("mix.loop_share", static_cast<double>(loops) / jobs, "ratio");
  r.metric("mix.external_share", external / jobs, "ratio");
  r.metric("job.unattributed_share", jobMs > 0 ? unattributedMs / jobMs : 0, "ratio");
  r.metric("trace.overhead_pct", overheadPct, "%");
  r.metric("trace.jobs", static_cast<double>(outcomes.size()), "count");

  const auto histogram = stepHistogram(legacy.stepUs);
  std::string h = "testing.step histogram (log2 us buckets):";
  for (std::size_t i = 0; i < histogram.size(); ++i) {
    h += " [" + std::to_string(1u << i) + "us)=" + std::to_string(histogram[i]);
  }
  r.note(h);
}

}  // namespace perfbench

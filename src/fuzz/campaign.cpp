#include "fuzz/campaign.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "engine/thread_pool.hpp"
#include "fuzz/reproducer.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace mui::fuzz {

namespace {

/// Everything one scenario produced, aggregated in index order afterwards.
struct ScenarioOutcome {
  bool executed = false;
  std::size_t checksRun = 0;  // oracle checks (== oracle count when executed)
  std::vector<FuzzFinding> findings;
};

FuzzFinding makeFinding(std::uint64_t scenarioSeed, OracleId oracle,
                        const Scenario& scenario, const OracleOptions& opts,
                        bool crashed, std::string detail,
                        std::string failingFormula, bool shrink,
                        std::size_t* checksSpent) {
  FuzzFinding f;
  f.scenarioSeed = scenarioSeed;
  f.oracle = oracle;
  f.crashed = crashed;
  f.detail = std::move(detail);
  f.failingFormula = std::move(failingFormula);

  Scenario minimal = scenario;
  if (shrink) {
    try {
      ShrinkOutcome s = shrinkScenario(scenario, oracle, opts);
      if (checksSpent) *checksSpent += s.attempts;
      minimal = std::move(s.scenario);
      f.crashed = s.crashed;
      if (!s.failure.empty()) f.detail = s.failure;
      if (!minimal.property.empty()) f.failingFormula = minimal.property;
    } catch (const std::exception& e) {
      // Shrinking itself must never lose the finding.
      f.detail += " [shrink failed: " + std::string(e.what()) + "]";
    }
  }
  f.shrunkStates = minimal.totalStates();
  const std::string injectBug = opts.injectBug == BugInjection::None
                                    ? std::string()
                                    : toString(opts.injectBug);
  f.reproducer = writeReproducer(
      Reproducer{oracle, scenarioSeed, std::move(minimal), injectBug});
  return f;
}

ScenarioOutcome runScenario(std::uint64_t scenarioSeed,
                            const std::vector<OracleId>& oracles,
                            const OracleOptions& oracleOpts, bool shrink) {
  ScenarioOutcome out;
  out.executed = true;
  Scenario scenario = generateScenario(scenarioSeed);
  for (const OracleId id : oracles) {
    ++out.checksRun;
    bool failed = false;
    bool crashed = false;
    std::string detail;
    std::string formula;
    try {
      const OracleResult r = checkOracle(id, scenario, oracleOpts);
      failed = !r.ok;
      detail = r.detail;
      formula = r.failingFormula;
    } catch (const std::exception& e) {
      failed = true;
      crashed = true;
      detail = std::string("crash: ") + e.what();
    } catch (...) {
      failed = true;
      crashed = true;
      detail = "crash: non-standard exception";
    }
    if (failed) {
      out.findings.push_back(makeFinding(scenarioSeed, id, scenario,
                                         oracleOpts, crashed,
                                         std::move(detail), std::move(formula),
                                         shrink, &out.checksRun));
    }
  }
  return out;
}

std::string reproFileName(const FuzzFinding& f) {
  return std::string("repro_") + toString(f.oracle) + "_" +
         std::to_string(f.scenarioSeed) + ".muml";
}

}  // namespace

FuzzReport runCampaign(const FuzzOptions& opts) {
  static obs::Counter& scenariosTotal = obs::Registry::global().counter(
      "mui_fuzz_scenarios_total", "Fuzz scenarios executed");
  static obs::Counter& checksTotal = obs::Registry::global().counter(
      "mui_fuzz_oracle_checks_total", "Fuzz oracle checks executed");
  static obs::Counter& violationsTotal = obs::Registry::global().counter(
      "mui_fuzz_violations_total", "Fuzz oracle violations found");

  const std::vector<OracleId> oracles =
      opts.oracles.empty() ? allOracles() : opts.oracles;

  FuzzReport report;
  report.seed = opts.seed;
  report.runs = opts.runs;
  report.oracles = oracles;
  for (const OracleId id : oracles) {
    report.checks[toString(id)] = 0;
    report.violations[toString(id)] = 0;
  }

  if (opts.journal) {
    std::string names;
    for (const OracleId id : oracles) {
      if (!names.empty()) names += ",";
      names += toString(id);
    }
    opts.journal->event("fuzz_start", util::json::Object{}
                                          .u("seed", opts.seed)
                                          .u("runs", opts.runs)
                                          .s("oracles", names));
  }

  const auto start = std::chrono::steady_clock::now();
  const auto expired = [&] {
    if (opts.timeBudgetSec == 0) return false;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return elapsed >= std::chrono::seconds(opts.timeBudgetSec);
  };

  std::vector<ScenarioOutcome> outcomes(opts.runs);
  const auto runOne = [&](std::size_t i) {
    if (expired()) return;  // truncation: this scenario never starts
    outcomes[i] = runScenario(opts.seed + i, oracles, opts.oracle,
                              opts.shrink);
  };

  if (opts.jobs == 1 || opts.runs <= 1) {
    for (std::size_t i = 0; i < opts.runs; ++i) runOne(i);
  } else {
    engine::ThreadPool pool(opts.jobs);
    for (std::size_t i = 0; i < opts.runs; ++i) {
      pool.submit([&, i] {
        try {
          runOne(i);
        } catch (...) {
          // ThreadPool tasks must not throw; a scenario that somehow
          // escapes its own isolation is dropped (outcomes[i] stays
          // unexecuted) rather than killing the campaign.
        }
      });
    }
    pool.wait();
  }

  // Index-ordered aggregation: identical reports whatever the interleaving.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioOutcome& o = outcomes[i];
    if (!o.executed) continue;
    ++report.executed;
    for (const OracleId id : oracles) ++report.checks[toString(id)];
    for (const FuzzFinding& f : o.findings) {
      ++report.violations[toString(f.oracle)];
      if (f.crashed) ++report.crashes;
      report.findings.push_back(f);
    }
  }
  report.budgetExhausted = report.executed < report.runs;

  scenariosTotal.add(report.executed);
  for (const auto& kv : report.checks) checksTotal.add(kv.second);
  violationsTotal.add(report.findings.size());

  if (!opts.outDir.empty() && !report.findings.empty()) {
    std::filesystem::create_directories(opts.outDir);
    for (FuzzFinding& f : report.findings) {
      const std::filesystem::path p =
          std::filesystem::path(opts.outDir) / reproFileName(f);
      std::ofstream out(p);
      out << f.reproducer;
      f.path = p.string();
    }
  }

  if (opts.journal) {
    for (const FuzzFinding& f : report.findings) {
      opts.journal->event("fuzz_finding",
                          util::json::Object{}
                              .u("scenario_seed", f.scenarioSeed)
                              .s("oracle", toString(f.oracle))
                              .b("crashed", f.crashed)
                              .u("shrunk_states", f.shrunkStates)
                              .s("detail", f.detail));
    }
    opts.journal->event("fuzz_summary",
                        util::json::Object{}
                            .u("seed", report.seed)
                            .u("runs", report.runs)
                            .u("executed", report.executed)
                            .u("violations", report.findings.size())
                            .u("crashes", report.crashes)
                            .b("budget_exhausted", report.budgetExhausted));
  }
  return report;
}

std::string renderFuzzSummary(const FuzzReport& r) {
  std::ostringstream out;
  out << "fuzz campaign: seed=" << r.seed << " runs=" << r.runs
      << " executed=" << r.executed << "\n";
  for (const OracleId id : r.oracles) {
    const std::string name = toString(id);
    out << "  " << name << ": checks=" << r.checks.at(name)
        << " violations=" << r.violations.at(name) << "  ("
        << describeOracle(id) << ")\n";
  }
  for (const FuzzFinding& f : r.findings) {
    out << "FINDING " << toString(f.oracle) << " seed=" << f.scenarioSeed
        << (f.crashed ? " [crash]" : "")
        << " shrunk-states=" << f.shrunkStates;
    if (!f.path.empty()) out << " repro=" << f.path;
    out << "\n    " << f.detail << "\n";
  }
  if (r.budgetExhausted) {
    out << "time budget exhausted after " << r.executed << "/" << r.runs
        << " scenarios\n";
  }
  if (r.clean()) {
    out << "clean: no oracle violations\n";
  } else {
    out << "violations=" << r.findings.size() << " crashes=" << r.crashes
        << "\n";
  }
  return out.str();
}

}  // namespace mui::fuzz

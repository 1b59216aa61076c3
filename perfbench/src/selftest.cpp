// Self-tests of the benchmark's own machinery (not of the program):
//   1. the same seed gives byte-identical campaigns, for every workload;
//   2. the watchdog closed form agrees with the reference checker;
//   3. the TimedLegacy decorator changes nothing: on every job of a
//      batch_adapter campaign, the loop over AutomatonLegacy and over the
//      adapter-backed SubprocessLegacy, each bare and decorated, gives one
//      verdict, one iteration count and one test-period count, and they
//      are the generator's.
// It also reports, without failing, a known defect of the program that the
// decorator check exposed: engine::runJob binds an in-process hidden
// automaton to its role's instance name but not an external legacy, so a
// role invariant over the legacy's states is vacuous for the external.

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "automata/rename.hpp"
#include "engine/runner.hpp"
#include "harness.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/verifier.hpp"
#include "testing/subprocess.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Every file of a written campaign, concatenated with its name.
std::string campaignBytes(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::string out;
  for (const auto& f : files) {
    out += fs::relative(f, dir).string() + '\0' + readText(f) + '\0';
  }
  return out;
}

int checkDeterminism(const fs::path& scratch) {
  int failures = 0;
  for (const Workload w :
       {Workload::BatchLoop, Workload::BatchAdapter, Workload::ServeReplay}) {
    GenOptions g;
    g.workload = w;
    g.seed = 7;
    std::string bytes[2];
    for (int i = 0; i < 2; ++i) {
      const fs::path dir = scratch / ("det-" + std::to_string(i));
      fs::remove_all(dir);
      writeCampaign(generate(g), dir);
      bytes[i] = campaignBytes(dir);
    }
    const bool same = bytes[0] == bytes[1];
    failures += !same;
    std::printf("determinism %-13s seed 7: %s (%zu bytes)\n", workloadName(w),
                same ? "identical" : "DIFFERENT", bytes[0].size());
  }
  return failures;
}

struct LoopResult {
  mui::synthesis::Verdict verdict;
  std::size_t iterations;
  std::uint64_t periods;
  bool operator==(const LoopResult&) const = default;
};

int checkDecorator(const fs::path& scratch) {
  GenOptions g;
  g.workload = Workload::BatchAdapter;
  g.seed = 11;
  const fs::path dir = scratch / "decorator";
  fs::remove_all(dir);
  writeCampaign(generate(g), dir);
  const Campaign c = readCampaign(dir);
  int failures = 0;
  std::uint64_t steps = 0;
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    const auto& job = c.jobs[i];
    const auto model = mui::muml::loadModelFile(job.modelPath);
    const auto& pattern = model.patterns.at(job.pattern);
    std::size_t role = 0;
    while (pattern.roles.at(role).name != job.legacyRole) ++role;
    const auto scenario = mui::muml::makeIntegrationScenario(
        pattern, role, model.signals, model.props);
    const auto& ext = model.externals.at(job.hidden);
    // The external names its in-process twin as its second argument.
    const auto hidden = mui::automata::withInstanceName(
        model.automata.at(ext.args.at(1)), job.legacyRole);

    const auto run = [&](mui::testing::LegacyComponent& legacy) {
      mui::synthesis::IntegrationConfig cfg;
      cfg.property = scenario.property;
      const auto r = mui::synthesis::runIntegration(scenario.context, legacy, cfg);
      return LoopResult{r.verdict, r.iterations, r.totalTestPeriods};
    };
    LegacyStats stats;
    mui::testing::AutomatonLegacy bare(hidden);
    TimedLegacy timed(std::make_unique<mui::testing::AutomatonLegacy>(hidden),
                      stats);
    mui::testing::SubprocessLegacy process(
        mui::testing::configFromExternal(model, ext));
    TimedLegacy timedProcess(std::make_unique<mui::testing::SubprocessLegacy>(
                                 mui::testing::configFromExternal(model, ext)),
                             stats);
    const LoopResult results[] = {run(bare), run(timed), run(process),
                                  run(timedProcess)};
    const Expected& e = c.expected[i];
    bool same =
        (results[0].verdict == mui::synthesis::Verdict::ProvenCorrect) ==
            (e.status == "proven") &&
        static_cast<long long>(results[0].iterations) == e.iterations &&
        static_cast<long long>(results[0].periods) == e.testPeriods;
    for (const LoopResult& r : results) same = same && r == results[0];
    if (!same) {
      ++failures;
      std::printf("decorator %s: expected %s/%lld/%lld, got", job.name.c_str(),
                  e.status.c_str(), e.iterations, e.testPeriods);
      for (const LoopResult& r : results) {
        std::printf(" %d/%zu/%llu", static_cast<int>(r.verdict), r.iterations,
                    static_cast<unsigned long long>(r.periods));
      }
      std::printf("\n");
    }
    steps += stats.steps;
  }
  std::printf("decorator: %zu jobs x {automaton, adapter} x {bare, timed}: "
              "%s (%llu decorated steps)\n",
              c.jobs.size(), failures == 0 ? "identical, as generated" : "DIFFERENT",
              static_cast<unsigned long long>(steps));
  return failures;
}

const char* const kInstanceProbe = R"mm(
rtsc monitorRole {
  output ping;
  input pong;
  clock c;
  location idle invariant c <= 2;
  location waiting;
  initial idle;
  idle -> waiting : emit ping reset c;
  waiting -> idle : trigger pong reset c;
}
rtsc deviceRole {
  input ping;
  output pong;
  clock d;
  location ready;
  location serving invariant d <= 0;
  initial ready;
  ready -> serving : trigger ping reset d;
  serving -> ready : emit pong;
}
pattern Watchdog {
  role monitor uses monitorRole;
  role device uses deviceRole invariant "AG (device.serving -> AF[1,1] device.ready)";
  connector direct;
  constraint "AG (monitor.waiting -> AF[1,4] monitor.idle)";
}
# Serves for two ticks: violates the device role invariant.
automaton lingering {
  input ping; output pong;
  initial ready;
  ready -> ready : ;
  ready -> serving : ping / ;
  serving -> busy : ;
  busy -> ready : / pong;
}
legacy lingeringExt external "adapter_automaton" {
  input ping; output pong;
  arg "%model%"; arg "lingering"; arg "--instance"; arg "device";
}
)mm";

/// Known-defect probe: the same hidden automaton in process and behind the
/// adapter, through engine::runJob. Prints the two verdicts.
void probeInstanceBinding(const fs::path& scratch) {
  const fs::path model = scratch / "instance_probe.muml";
  std::ofstream(model) << kInstanceProbe;
  mui::engine::TextCache texts;
  mui::engine::ResultCache cache;
  const auto verdict = [&](const char* hidden) {
    mui::engine::Job job;
    job.name = hidden;
    job.modelPath = model.string();
    job.pattern = "Watchdog";
    job.legacyRole = "device";
    job.hidden = hidden;
    return std::string(mui::engine::jobStatusName(
        mui::engine::runJob(job, texts, cache).status));
  };
  const std::string inProcess = verdict("lingering");
  const std::string external = verdict("lingeringExt");
  std::printf("known defect, external legacy not bound to its role instance: "
              "in-process %s, adapter %s (%s)\n",
              inProcess.c_str(), external.c_str(),
              inProcess == external ? "no longer reproduces" : "reproduces");
}

}  // namespace

int runSelftest(const fs::path& scratch) {
  int failures = checkDeterminism(scratch);
  const auto grid = crossCheckWatchdogGrid();
  for (const auto& shape : grid) std::printf("closed form wrong: %s\n", shape.c_str());
  std::printf("watchdog closed form vs reference checker: %s\n",
              grid.empty() ? "agree" : "DISAGREE");
  failures += static_cast<int>(grid.size());
  failures += checkDecorator(scratch);
  probeInstanceBinding(scratch);
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench

// mui — command-line front end to the library.
//
//   mui check <model.muml> <automaton> <formula>
//       Model check one automaton of the model against a CCTL formula;
//       prints the verdict and a counterexample run if one exists.
//
//   mui compose <model.muml> <automaton>... [--check <formula>]
//       Compose the named automata (Def. 3) and optionally check a formula
//       (plus deadlock freedom) on the product.
//
//   mui verify-pattern <model.muml> <pattern>
//       Compositional pattern verification: constraint, role invariants,
//       deadlock freedom.
//
//   mui integrate <model.muml> <pattern> <legacyRole> <hidden>
//                 [--trace-out F] [--metrics-out F] [--journal-out F]
//       Run the full legacy-integration loop: the named automaton of the
//       model — or, for a `legacy <name> external "..."` clause, an
//       out-of-process adapter binary (docs/ADAPTERS.md) — acts as the
//       hidden legacy component playing <legacyRole>;
//       the remaining roles (and connector) form the context. Prints the
//       journal, the verdict, and the learned model. The observability
//       flags (docs/OBSERVABILITY.md) write a Chrome/Perfetto trace, a
//       metrics snapshot (Prometheus text, or JSON for *.json paths) and
//       a structured JSONL run journal.
//
//   mui suite-gen <model.muml> <pattern> <legacyRole> <hidden>
//       Run the integration loop on <hidden> (bound as for integrate) and
//       write the generated component test suite (a regression oracle) to
//       stdout.
//
//   mui suite-run <model.muml> <suite-file> <hiddenAutomaton> <roleName>
//       Replay a saved suite against a component revision.
//
//   mui batch <manifest> [--jobs N] [--timeout-ms T] [--out <file>]
//             [--no-lint] [--trace-out F] [--metrics-out F]
//             [--journal-out F]
//       Run a whole campaign of integration jobs from a job manifest
//       (docs/BATCH_FORMAT.md) on a thread pool; prints the per-job table
//       and writes a JSON-lines summary with --out. Every job's model is
//       linted first (--no-lint skips that pre-flight). The observability
//       flags work as for `mui integrate`, with one trace track per
//       worker thread.
//
//   mui stats <journal.jsonl>... [--format text|json] [--baseline F]
//             [--threshold PCT] [--latency-threshold PCT]
//       Aggregate one or more run journals (written by --journal-out)
//       into per-iteration and per-run tables plus totals. --baseline
//       additionally aggregates an older journal and gates the current
//       one against it (obs/trend.hpp): work metrics may grow and rate
//       metrics may drop by at most --threshold (default 10) before the
//       verdict flips to "regressed" and the exit code to 1; p50/p99 job
//       latency stays advisory unless --latency-threshold is set. CI runs
//       this as a perf gate over a checked-in baseline journal.
//
//   mui serve [--host H] [--port P] [--port-file F] [--threads N]
//             [--queue-limit N] [--timeout-ms T] [--max-timeout-ms T]
//             [--retry-after-ms T] [--cache <file>] [--no-fsync]
//             [--no-lint] [--journal-out F] [--metrics-out F]
//       Verification-as-a-service daemon (docs/SERVE.md): accepts jobs as
//       newline-delimited JSON over loopback TCP (the manifest job schema),
//       runs them on the engine thread pool with admission control and
//       per-client deadlines, and streams results back as JSONL. --cache
//       layers a durable result cache under the in-memory one, replayed at
//       startup, so duplicate jobs are answered across restarts. The same
//       port serves HTTP GET /metrics, /healthz, and /stats. SIGTERM or
//       SIGINT drains gracefully: in-flight jobs finish, then exit 0.
//
//   mui serve --cache <file> --compact
//       Offline compaction: rewrite the cache log to one record per live
//       key (dropping superseded, corrupt, and collision-poisoned
//       records), then exit.
//
//   mui submit <manifest> --port P [--host H] [--deadline-ms T]
//              [--retry-rounds N] [--out <file>] [--trace-out F]
//              [--trace-context S]
//       Submit a job manifest (docs/BATCH_FORMAT.md) to a running daemon
//       and render the streamed results exactly like `mui batch`. Shed
//       jobs are retried after the daemon's retry-after hint for up to
//       --retry-rounds rounds (0 reports them immediately). --trace-out
//       records this client's spans, fetches the daemon's /trace snapshot,
//       and writes both rings merged into one Chrome trace document — the
//       client and daemon spans of each job share its correlation ULID.
//       --trace-context sends a free-form label the daemon attaches to
//       this connection's rows in /jobs.
//
//   mui top --port P [--host H] [--interval-ms T] [--count N] [--once]
//       Live view of the daemon's in-flight jobs (HTTP /jobs): one row per
//       accepted-but-unfinished job with its correlation ULID, phase,
//       disposition, iteration count, queue wait and run time. Refreshes
//       every --interval-ms (default 1000) until interrupted; --once (or
//       --count N) bounds the number of frames.
//
//   mui fuzz [--seed N] [--runs N] [--jobs N] [--time-budget SEC]
//            [--out <corpus-dir>] [--oracles O1,O3,...] [--no-shrink]
//            [--inject-bug <name>] [--journal-out F] [--metrics-out F]
//       Property-based fuzzing campaign (docs/FUZZING.md): N seeded
//       scenarios, each checked against the metamorphic oracles O1-O7.
//       Violations are shrunk to minimal reproducers and written to the
//       corpus directory. Deterministic in (seed, runs, oracle selection).
//       --inject-bug plants a known checker bug (harness self-test).
//
//   mui fuzz --replay <reproducer.muml>...
//       Re-run the recorded oracle of saved reproducer files.
//
//   mui lint <model.muml> [--format text|json] [--disable MUIxxx]...
//       Statically analyze a model (docs/LINT_RULES.md): unreachable and
//       sink states, unused signals, composition alphabet mismatches,
//       nondeterministic legacy stubs, duplicate transitions, bad formula
//       atoms, degenerate bounds, missing initial states, non-ACTL
//       formulas. --format json emits a SARIF 2.1.0 document.
//
//   mui dot <model.muml> <automaton|rtsc>
//       Emit Graphviz DOT for an automaton or a compiled statechart.
//
//   mui --help | --version
//
// Exit code: 0 on verified/proven (batch: every job proven; lint: no
// finding at warning or above; fuzz: campaign clean / replay does not
// reproduce), 1 on violation/real error (lint: warnings or errors; fuzz:
// oracle violations found / replay still reproduces), 2 on usage or model
// errors.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/analyze.hpp"
#include "analysis/render.hpp"
#include "analysis/semantic.hpp"
#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "engine/engine.hpp"
#include "engine/manifest.hpp"
#include "engine/persistent_cache.hpp"
#include "engine/report.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/reproducer.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "muml/verify.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/trend.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "synthesis/report.hpp"
#include "synthesis/test_suite.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/subprocess.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

#ifndef MUI_VERSION
#define MUI_VERSION "0.0.0-dev"
#endif

#ifndef MUI_GIT_SHA
#define MUI_GIT_SHA "unknown"
#endif

namespace {

using namespace mui;

void printUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage:\n"
      "  mui check <model.muml> <automaton> <formula>\n"
      "  mui compose <model.muml> <automaton>... [--check <formula>]\n"
      "  mui verify-pattern <model.muml> <pattern>\n"
      "  mui integrate <model.muml> <pattern> <legacyRole> <hidden>\n"
      "                [--trace-out F] [--metrics-out F] [--journal-out F]\n"
      "                (<hidden> names an automaton or a 'legacy ... "
      "external')\n"
      "  mui suite-gen <model.muml> <pattern> <legacyRole> <hidden>\n"
      "  mui suite-run <model.muml> <suite-file> <hidden> <roleName>\n"
      "  mui batch <manifest> [--jobs N] [--timeout-ms T] [--out <file>] "
      "[--no-lint]\n"
      "            [--no-presolve] [--semantic] [--cache <file>] "
      "[--trace-out F]\n"
      "            [--metrics-out F] [--journal-out F]\n"
      "  mui serve [--host H] [--port P] [--port-file F] [--threads N]\n"
      "            [--queue-limit N] [--timeout-ms T] [--max-timeout-ms T]\n"
      "            [--retry-after-ms T] [--cache <file>] [--no-fsync] "
      "[--no-lint]\n"
      "            [--no-presolve] [--journal-out F] [--metrics-out F]\n"
      "  mui serve --cache <file> --compact\n"
      "  mui submit <manifest> --port P [--host H] [--deadline-ms T]\n"
      "             [--retry-rounds N] [--out <file>] [--trace-out F]\n"
      "             [--trace-context S]\n"
      "  mui top --port P [--host H] [--interval-ms T] [--count N] [--once]\n"
      "  mui stats <journal.jsonl>... [--format text|json] [--baseline F]\n"
      "            [--threshold PCT] [--latency-threshold PCT]\n"
      "  mui fuzz [--seed N] [--runs N] [--jobs N] [--time-budget SEC]\n"
      "           [--out <corpus-dir>] [--oracles O1,O3,...] [--no-shrink]\n"
      "           [--inject-bug <name>] [--journal-out F] [--metrics-out F]\n"
      "  mui fuzz --replay <reproducer.muml>...\n"
      "  mui lint <model.muml> [--format text|json] [--disable MUIxxx]...\n"
      "  mui analyze <model.muml> [--format text|json] [--disable MUIxxx]...\n"
      "  mui dot <model.muml> <automaton|rtsc>\n"
      "  mui --help | --version\n"
      "exit codes: 0 verified/proven (lint: clean), 1 violation/real error "
      "(lint: findings\n"
      "at warning or above), 2 usage or model error\n");
}

int usage() {
  printUsage(stderr);
  return 2;
}

/// Usage error with a specific message, then the synopsis. Always exits 2.
int usageError(const std::string& msg) {
  std::fprintf(stderr, "mui: %s\n", msg.c_str());
  printUsage(stderr);
  return 2;
}

muml::Model loadFile(const char* path) { return muml::loadModelFile(path); }

void writeFileOrThrow(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out << content;
}

std::string readFileOrThrow(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The value of the flag at argv[i]; advances i past it. Throws "<flag>
/// needs a value" when the flag is the last argument.
const char* flagValue(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw std::runtime_error(std::string(argv[i]) + " needs a value");
  }
  return argv[++i];
}

/// Shared --trace-out/--metrics-out/--journal-out handling for the verbs
/// that run the verification loop (integrate, batch). Lifecycle:
/// consume() the flags while parsing, beforeRun() before the loop starts,
/// writeArtifacts() once the verb has quiesced (tracer contract).
struct ObsOptions {
  std::string traceOut;
  std::string metricsOut;
  std::string journalOut;
  obs::Journal journal;

  /// Consumes argv[i] (and its value) when it is an observability flag.
  /// Throws on a flag with a missing value.
  bool consume(int argc, char** argv, int& i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      traceOut = flagValue(argc, argv, i);
      return true;
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      metricsOut = flagValue(argc, argv, i);
      return true;
    }
    if (std::strcmp(argv[i], "--journal-out") == 0) {
      journalOut = flagValue(argc, argv, i);
      return true;
    }
    return false;
  }

  /// The journal sink to hand to the loop, or nullptr when not requested.
  obs::Journal* journalPtr() {
    return journalOut.empty() ? nullptr : &journal;
  }

  void beforeRun() {
    if (!traceOut.empty()) {
      obs::setThreadName("main");
      obs::Tracer::enable();
    }
  }

  void writeArtifacts() {
    if (!traceOut.empty()) {
      obs::Tracer::disable();
      writeFileOrThrow(traceOut, obs::Tracer::chromeTrace());
    }
    if (!metricsOut.empty()) {
      // Format by extension: *.json gets the JSON snapshot, everything
      // else the Prometheus exposition text.
      const bool json = metricsOut.size() >= 5 &&
                        metricsOut.compare(metricsOut.size() - 5, 5,
                                           ".json") == 0;
      auto& registry = obs::Registry::global();
      obs::sampleProcessGauges(registry);
      writeFileOrThrow(metricsOut, json ? registry.renderJson()
                                        : registry.renderPrometheus());
    }
    if (!journalOut.empty()) {
      writeFileOrThrow(journalOut, journal.text());
    }
  }
};

const automata::Automaton& findAutomaton(const muml::Model& model,
                                         const std::string& name) {
  const auto it = model.automata.find(name);
  if (it == model.automata.end()) {
    throw std::runtime_error("no automaton named '" + name + "' in the model");
  }
  return it->second;
}

int cmdCheck(int argc, char** argv) {
  if (argc != 3) {
    return usageError("check expects <model.muml> <automaton> <formula>");
  }
  const muml::Model model = loadFile(argv[0]);
  const auto& a = findAutomaton(model, argv[1]);
  const auto phi = ctl::parseFormula(argv[2]);
  ctl::VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto res = ctl::verify(a, phi, opts);
  if (!res.unknownAtoms.empty()) {
    std::fprintf(stderr, "warning: unknown atoms:");
    for (const auto& p : res.unknownAtoms) std::fprintf(stderr, " %s", p.c_str());
    std::fprintf(stderr, "\n");
  }
  if (res.holds) {
    std::printf("HOLDS: %s\n", phi->toString().c_str());
    return 0;
  }
  std::printf("VIOLATED: %s\n", phi->toString().c_str());
  const auto& cex = res.cex();
  std::printf("counterexample (%s):\n", cex.note.c_str());
  for (std::size_t i = 0; i < cex.run.states.size(); ++i) {
    std::printf("  %s\n", a.stateName(cex.run.states[i]).c_str());
    if (i < cex.run.labels.size()) {
      std::printf("  --%s-->\n",
                  a.interactionToString(cex.run.labels[i]).c_str());
    }
  }
  return 1;
}

int cmdCompose(int argc, char** argv) {
  if (argc < 2) {
    return usageError(
        "compose expects <model.muml> <automaton>... [--check <formula>]");
  }
  const muml::Model model = loadFile(argv[0]);
  std::vector<const automata::Automaton*> parts;
  std::string formula;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      formula = flagValue(argc, argv, i);
    } else {
      parts.push_back(&findAutomaton(model, argv[i]));
    }
  }
  if (parts.empty()) {
    return usageError("compose needs at least one automaton name");
  }
  const auto product = automata::composeAll(parts);
  std::printf("product: %zu states, %zu transitions\n",
              product.automaton.stateCount(),
              product.automaton.transitionCount());
  if (formula.empty()) return 0;
  const auto res =
      ctl::verify(product.automaton, ctl::parseFormula(formula), {});
  if (res.holds) {
    std::printf("HOLDS (incl. deadlock freedom)\n");
    return 0;
  }
  std::printf("VIOLATED (%s):\n%s", res.cex().note.c_str(),
              product.renderRun(res.cex().run).c_str());
  return 1;
}

int cmdVerifyPattern(int argc, char** argv) {
  if (argc != 2) {
    return usageError("verify-pattern expects <model.muml> <pattern>");
  }
  const muml::Model model = loadFile(argv[0]);
  const auto it = model.patterns.find(argv[1]);
  if (it == model.patterns.end()) {
    throw std::runtime_error(std::string("no pattern named '") + argv[1] +
                             "'");
  }
  const auto res = muml::verifyPattern(it->second, model.signals, model.props);
  std::printf("pattern %s: constraint %s, deadlock-free %s\n",
              it->second.name.c_str(), res.constraintHolds ? "OK" : "VIOLATED",
              res.deadlockFree ? "OK" : "VIOLATED");
  for (const auto& [role, ok] : res.roleInvariants) {
    std::printf("  role invariant %-12s %s\n", role.c_str(),
                ok ? "OK" : "VIOLATED");
  }
  if (!res.ok() && !res.details.counterexamples.empty()) {
    std::printf("counterexample:\n%s",
                res.composed.renderRun(res.details.cex().run).c_str());
  }
  return res.ok() ? 0 : 1;
}

int cmdIntegrate(int argc, char** argv) {
  ObsOptions obsOpts;
  std::vector<const char*> positional;
  for (int i = 0; i < argc; ++i) {
    if (obsOpts.consume(argc, argv, i)) continue;
    if (argv[i][0] == '-') {
      return usageError(std::string("unknown integrate flag '") + argv[i] +
                        "'");
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() != 4) {
    return usageError(
        "integrate expects <model.muml> <pattern> <legacyRole> "
        "<hiddenAutomaton> [--trace-out F] [--metrics-out F] "
        "[--journal-out F]");
  }
  const muml::Model model = loadFile(positional[0]);
  // The hidden component plays the role under the role's instance name, so
  // the role invariants and the pattern constraint see its states. A
  // `legacy ... external` clause spawns the adapter binary out-of-process
  // (docs/ADAPTERS.md); an automaton runs in process.
  muml::IntegrationBinding binding = muml::bindIntegration(
      model, positional[1], positional[2], positional[3]);
  const muml::IntegrationScenario& scenario = binding.scenario;
  const auto legacy = testing::makeLegacy(model, std::move(binding.legacy),
                                          obsOpts.journalPtr());

  synthesis::IntegrationConfig cfg;
  cfg.property = scenario.property;
  cfg.keepTraces = true;
  cfg.journal = obsOpts.journalPtr();
  cfg.runId = std::string(positional[1]) + "/" + positional[2] + "/" +
              positional[3];
  obsOpts.beforeRun();
  synthesis::IntegrationResult res;
  try {
    res = synthesis::IntegrationVerifier(scenario.context, *legacy, cfg)
              .run();
  } catch (const testing::AdapterFailure& e) {
    // Adapter death during the initial reset/probe, before the loop even
    // starts: report the distinct verdict instead of a generic error.
    obsOpts.writeArtifacts();
    std::printf("verdict: adapter-failure (%s)\n", e.what());
    return 1;
  }
  obsOpts.writeArtifacts();

  std::printf("%s", synthesis::renderJournal(res).c_str());
  std::printf("%s", synthesis::renderSummary(res).c_str());
  if (!res.counterexampleText.empty()) {
    std::printf("\ncounterexample:\n%s", res.counterexampleText.c_str());
  }
  std::printf("\nlearned model:\n%s",
              res.learnedModels[0].base().toText().c_str());
  return res.verdict == synthesis::Verdict::ProvenCorrect ? 0 : 1;
}

int cmdSuiteGen(int argc, char** argv) {
  if (argc != 4) {
    return usageError(
        "suite-gen expects <model.muml> <pattern> <legacyRole> <hidden>");
  }
  const muml::Model model = loadFile(argv[0]);
  muml::IntegrationBinding binding =
      muml::bindIntegration(model, argv[1], argv[2], argv[3]);
  const muml::IntegrationScenario& scenario = binding.scenario;
  const auto legacy = testing::makeLegacy(model, std::move(binding.legacy));
  synthesis::IntegrationConfig cfg;
  cfg.property = scenario.property;
  cfg.recordTests = true;
  const auto res =
      synthesis::IntegrationVerifier(scenario.context, *legacy, cfg).run();
  std::fprintf(stderr, "# %s", synthesis::renderSummary(res).c_str());
  std::printf("%s", synthesis::writeSuite(res.recordedTests[0],
                                          *model.signals)
                        .c_str());
  return 0;
}

int cmdSuiteRun(int argc, char** argv) {
  if (argc != 4) {
    return usageError(
        "suite-run expects <model.muml> <suite-file> <hidden> <roleName>");
  }
  const muml::Model model = loadFile(argv[0]);
  std::ifstream in(argv[1]);
  if (!in) throw std::runtime_error(std::string("cannot open ") + argv[1]);
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto suite = synthesis::parseSuite(buf.str(), *model.signals);
  testing::AutomatonLegacy legacy(
      automata::withInstanceName(findAutomaton(model, argv[2]), argv[3]));
  const auto res = synthesis::runSuite(suite, legacy, *model.signals);
  std::printf("%zu/%zu tests passed\n", res.passed, suite.size());
  for (const auto& f : res.failures) std::printf("FAIL %s\n", f.c_str());
  return res.allPassed() ? 0 : 1;
}

int cmdDot(int argc, char** argv) {
  if (argc != 2) {
    return usageError("dot expects <model.muml> <automaton|rtsc>");
  }
  const muml::Model model = loadFile(argv[0]);
  if (const auto it = model.automata.find(argv[1]); it != model.automata.end()) {
    std::printf("%s", it->second.toDot().c_str());
    return 0;
  }
  if (const auto it = model.statecharts.find(argv[1]);
      it != model.statecharts.end()) {
    std::printf("%s",
                it->second.compile(model.signals, model.props).toDot().c_str());
    return 0;
  }
  throw std::runtime_error(std::string("no automaton or rtsc named '") +
                           argv[1] + "'");
}

/// The arguments of `mui lint` and `mui analyze`: one model path and any
/// --format and --disable flags, in any order.
struct ReportArgs {
  const char* modelPath = nullptr;
  bool json = false;
  analysis::RuleSet rules = analysis::RuleSet::all();
};

/// Parses `verb`'s arguments into `args`. Returns 0, or the exit code of
/// the usage error it reported.
int parseReportArgs(const char* verb, int argc, char** argv,
                    ReportArgs& args) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--format") == 0) {
      const std::string format = flagValue(argc, argv, i);
      if (format != "json" && format != "text") {
        return usageError("--format expects 'text' or 'json'");
      }
      args.json = format == "json";
    } else if (std::strcmp(argv[i], "--disable") == 0) {
      const char* id = flagValue(argc, argv, i);
      if (analysis::findRule(id) == nullptr) {
        return usageError(std::string("unknown lint rule '") + id + "'");
      }
      args.rules.disable(id);
    } else if (argv[i][0] == '-') {
      return usageError(std::string("unknown ") + verb + " flag '" +
                        argv[i] + "'");
    } else if (args.modelPath == nullptr) {
      args.modelPath = argv[i];
    } else {
      return usageError(std::string("unexpected ") + verb + " argument '" +
                        argv[i] + "'");
    }
  }
  if (args.modelPath == nullptr) {
    return usageError(std::string(verb) +
                      " expects <model.muml> [--format text|json] "
                      "[--disable MUIxxx]");
  }
  return 0;
}

int cmdLint(int argc, char** argv) {
  ReportArgs args;
  if (const int rc = parseReportArgs("lint", argc, argv, args)) return rc;
  const muml::Model model = loadFile(args.modelPath);
  const auto report = analysis::run(model, args.rules);
  std::printf("%s", args.json ? analysis::writeSarif(report).c_str()
                              : analysis::renderText(report).c_str());
  return report.clean() ? 0 : 1;
}

/// `mui analyze` — the full static-analysis surface: the syntactic lint
/// tier (MUI0xx) plus the semantic whole-integration tier (MUI1xx,
/// analysis::runSemantic) in one report. Unlike `mui lint`, warnings and
/// notes do not fail the exit code — the semantic tier is advisory; only
/// error-level findings exit 1.
int cmdAnalyze(int argc, char** argv) {
  ReportArgs args;
  if (const int rc = parseReportArgs("analyze", argc, argv, args)) return rc;
  const muml::Model model = loadFile(args.modelPath);
  analysis::Report report = analysis::run(model, args.rules);
  analysis::Report semantic = analysis::runSemantic(model, args.rules);
  report.suppressed += semantic.suppressed;
  for (auto& d : semantic.diagnostics) {
    report.diagnostics.push_back(std::move(d));
  }
  std::printf("%s", args.json ? analysis::writeSarif(report).c_str()
                              : analysis::renderText(report).c_str());
  return report.hasErrors() ? 1 : 0;
}

/// Parses a non-negative integer CLI argument: digits only, at most
/// 2^64 − 1; returns false otherwise.
bool parseUint(const char* text, std::uint64_t& out) {
  return util::parseUint64(text, out) == std::errc();
}

/// Parses a non-negative decimal CLI argument (threshold percentages).
bool parseNonNegDouble(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < 0) return false;
  out = v;
  return true;
}

int cmdBatch(int argc, char** argv) {
  if (argc < 1) {
    return usageError(
        "batch expects <manifest> [--jobs N] [--timeout-ms T] [--out <file>]");
  }
  const char* manifestPath = argv[0];
  engine::BatchOptions options;
  ObsOptions obsOpts;
  std::string outPath;
  std::string cachePath;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (obsOpts.consume(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--jobs expects a non-negative integer");
      }
      options.threads = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--timeout-ms expects a non-negative integer");
      }
      options.defaultTimeoutMs = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      outPath = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cachePath = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--no-lint") == 0) {
      options.lintPreflight = false;
    } else if (std::strcmp(argv[i], "--no-presolve") == 0) {
      options.semanticPresolve = false;
    } else if (std::strcmp(argv[i], "--semantic") == 0) {
      options.semanticDiagnostics = true;
    } else {
      return usageError(std::string("unknown batch flag '") + argv[i] + "'");
    }
  }

  // A durable cache makes consecutive batch runs over the same manifest
  // hit instead of recompute, same as the serve daemon (docs/SERVE.md).
  std::unique_ptr<engine::PersistentResultCache> persistent;
  if (!cachePath.empty()) {
    persistent = std::make_unique<engine::PersistentResultCache>(cachePath);
    options.persistent = persistent.get();
  }

  std::ifstream in(manifestPath);
  if (!in) {
    throw std::runtime_error(std::string("cannot open manifest '") +
                             manifestPath + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // Model paths in a manifest are relative to the manifest's directory.
  const std::string baseDir =
      std::filesystem::path(manifestPath).parent_path().string();
  const auto jobs = engine::parseManifest(buf.str(), manifestPath, baseDir);

  options.journal = obsOpts.journalPtr();
  obsOpts.beforeRun();
  const auto report = engine::runBatch(jobs, options);
  obsOpts.writeArtifacts();
  std::printf("%s", engine::renderBatchReport(report).c_str());

  if (!outPath.empty()) {
    std::ofstream out(outPath);
    if (!out) {
      throw std::runtime_error("cannot write summary file '" + outPath + "'");
    }
    out << engine::writeBatchSummary(report);
  }
  return report.allProven() ? 0 : 1;
}

int cmdServe(int argc, char** argv) {
  serve::ServeOptions options;
  options.version = MUI_VERSION;
  ObsOptions obsOpts;
  std::string portFile;
  bool compactOnly = false;
  for (int i = 0; i < argc; ++i) {
    std::uint64_t v = 0;
    if (obsOpts.consume(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--host") == 0) {
      options.host = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v > 65535) {
        return usageError("--port expects a port number (0 = auto)");
      }
      options.port = static_cast<std::uint16_t>(v);
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      portFile = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--threads expects a non-negative integer");
      }
      options.threads = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--queue-limit") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v == 0) {
        return usageError("--queue-limit expects a positive integer");
      }
      options.queueLimit = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--timeout-ms expects a non-negative integer");
      }
      options.defaultTimeoutMs = v;
    } else if (std::strcmp(argv[i], "--max-timeout-ms") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--max-timeout-ms expects a non-negative integer");
      }
      options.maxTimeoutMs = v;
    } else if (std::strcmp(argv[i], "--retry-after-ms") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--retry-after-ms expects a non-negative integer");
      }
      options.retryAfterMs = v;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      options.cachePath = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--cache-max-entries") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v == 0) {
        return usageError("--cache-max-entries expects a positive integer");
      }
      options.cacheMaxEntries = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--no-fsync") == 0) {
      options.fsyncCache = false;
    } else if (std::strcmp(argv[i], "--no-lint") == 0) {
      options.lintPreflight = false;
    } else if (std::strcmp(argv[i], "--no-presolve") == 0) {
      options.semanticPresolve = false;
    } else if (std::strcmp(argv[i], "--compact") == 0) {
      compactOnly = true;
    } else {
      return usageError(std::string("unknown serve flag '") + argv[i] + "'");
    }
  }

  if (compactOnly) {
    if (options.cachePath.empty()) {
      return usageError("--compact needs --cache <file>");
    }
    const std::size_t kept =
        engine::PersistentResultCache::compact(options.cachePath);
    std::printf("mui serve: compacted %s to %zu live record(s)\n",
                options.cachePath.c_str(), kept);
    return 0;
  }

  // Block the shutdown signals before start() spawns any thread so every
  // worker inherits the mask and delivery is confined to the sigwait
  // below — the only place a drain can begin.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  options.journal = obsOpts.journalPtr();
  obsOpts.beforeRun();
  // The in-memory trace ring is bounded and cheap, and /trace serves it
  // live to `mui submit --trace-out` clients, so the daemon records spans
  // unconditionally; --trace-out only adds a file written on drain.
  obs::Tracer::enable();
  serve::Server server(options);
  server.start();
  if (!portFile.empty()) {
    writeFileOrThrow(portFile, std::to_string(server.port()) + "\n");
  }
  std::printf("mui serve: listening on %s:%u (threads=%zu, queue-limit=%zu%s)\n",
              options.host.c_str(), server.port(), server.stats().threads,
              options.queueLimit,
              options.cachePath.empty()
                  ? ""
                  : (", cache=" + options.cachePath).c_str());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&mask, &sig);
  std::fprintf(stderr, "mui serve: caught %s, draining\n",
               sig == SIGTERM ? "SIGTERM" : "SIGINT");
  server.requestDrain();
  server.wait();
  obsOpts.writeArtifacts();
  const serve::ServeStats st = server.stats();
  std::printf("mui serve: drained (%llu job(s) completed, %llu shed, "
              "%llu connection(s))\n",
              static_cast<unsigned long long>(st.jobsCompleted),
              static_cast<unsigned long long>(st.jobsShed),
              static_cast<unsigned long long>(st.connections));
  return 0;
}

int cmdSubmit(int argc, char** argv) {
  if (argc < 1 || argv[0][0] == '-') {
    return usageError("submit expects <manifest> --port P [--host H] "
                      "[--deadline-ms T] [--retry-rounds N] [--out <file>]");
  }
  const char* manifestPath = argv[0];
  serve::SubmitOptions options;
  std::string outPath;
  std::string traceOut;
  bool portSet = false;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--host") == 0) {
      options.host = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v == 0 || v > 65535) {
        return usageError("--port expects the daemon's port number");
      }
      options.port = static_cast<std::uint16_t>(v);
      portSet = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--deadline-ms expects a non-negative integer");
      }
      options.deadlineMs = v;
    } else if (std::strcmp(argv[i], "--retry-rounds") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--retry-rounds expects a non-negative integer");
      }
      options.maxRetryRounds = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      outPath = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      traceOut = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--trace-context") == 0) {
      options.trace = flagValue(argc, argv, i);
    } else {
      return usageError(std::string("unknown submit flag '") + argv[i] + "'");
    }
  }
  if (!portSet) {
    return usageError("submit needs --port <port> (start one with `mui serve`)");
  }

  const std::string manifestText = readFileOrThrow(manifestPath);
  const std::string baseDir =
      std::filesystem::path(manifestPath).parent_path().string();
  auto jobs = engine::parseManifest(manifestText, manifestPath, baseDir);
  // The daemon opens model files in *its* working directory, so relative
  // manifest paths must be absolutized client-side.
  for (auto& job : jobs) {
    job.modelPath = std::filesystem::absolute(job.modelPath)
                        .lexically_normal()
                        .string();
  }

  if (!traceOut.empty()) {
    obs::setThreadName("main");
    obs::Tracer::enable();
  }
  const serve::SubmitOutcome outcome = serve::submitJobs(jobs, options);
  if (!traceOut.empty()) {
    obs::Tracer::disable();
    // Merge this client's ring with the daemon's /trace snapshot: one
    // document, two pids, the per-job async bars keyed by shared ULIDs.
    std::vector<std::string> docs;
    docs.push_back(obs::Tracer::chromeTrace(1, "mui-submit"));
    try {
      docs.push_back(serve::httpGet(options.host, options.port, "/trace"));
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "submit: daemon trace unavailable, writing the client "
                   "ring only (%s)\n",
                   e.what());
    }
    writeFileOrThrow(traceOut, obs::mergeChromeTraces(docs));
  }
  std::printf("%s", engine::renderBatchReport(outcome.report).c_str());
  if (outcome.shedRetries > 0) {
    std::printf("submit: %llu shed job submission(s) retried\n",
                static_cast<unsigned long long>(outcome.shedRetries));
  }
  if (!outPath.empty()) {
    writeFileOrThrow(outPath, engine::writeBatchSummary(outcome.report));
  }
  return outcome.report.allProven() ? 0 : 1;
}

int cmdStats(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> paths;
  std::vector<std::string> baselinePaths;
  obs::TrendOptions trendOpts;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--format") == 0) {
      const std::string format = flagValue(argc, argv, i);
      if (format == "json") {
        json = true;
      } else if (format == "text") {
        json = false;
      } else {
        return usageError("--format expects 'text' or 'json'");
      }
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      baselinePaths.emplace_back(flagValue(argc, argv, i));
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      if (!parseNonNegDouble(flagValue(argc, argv, i),
                             trendOpts.thresholdPct)) {
        return usageError("--threshold expects a non-negative percentage");
      }
    } else if (std::strcmp(argv[i], "--latency-threshold") == 0) {
      if (!parseNonNegDouble(flagValue(argc, argv, i),
                             trendOpts.latencyThresholdPct)) {
        return usageError(
            "--latency-threshold expects a non-negative percentage");
      }
    } else if (argv[i][0] == '-') {
      return usageError(std::string("unknown stats flag '") + argv[i] + "'");
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    return usageError(
        "stats expects <journal.jsonl>... [--format text|json] "
        "[--baseline F] [--threshold PCT] [--latency-threshold PCT]");
  }
  std::vector<std::string> journals;
  journals.reserve(paths.size());
  for (const auto& path : paths) journals.push_back(readFileOrThrow(path));
  const auto report = obs::aggregateJournals(journals);
  if (baselinePaths.empty()) {
    std::printf("%s", json ? obs::renderStatsJson(report).c_str()
                           : obs::renderStatsText(report).c_str());
    return 0;
  }

  // Trend gate: aggregate the baseline journal(s) the same way and compare.
  // JSON mode emits only the trend document (the machine-readable verdict
  // CI consumes); text mode prints the current stats first for context.
  std::vector<std::string> baseJournals;
  baseJournals.reserve(baselinePaths.size());
  for (const auto& path : baselinePaths) {
    baseJournals.push_back(readFileOrThrow(path));
  }
  const auto baseline = obs::aggregateJournals(baseJournals);
  const auto trend = obs::compareTrend(baseline, report, trendOpts);
  if (json) {
    std::printf("%s", obs::renderTrendJson(trend).c_str());
  } else {
    std::printf("%s\n%s", obs::renderStatsText(report).c_str(),
                obs::renderTrendText(trend).c_str());
  }
  return trend.regressed ? 1 : 0;
}

/// `mui top` — poll the daemon's /jobs endpoint and render the in-flight
/// job table. On a TTY each frame repaints in place; piped output appends
/// frames, so `mui top --once` is also a script-friendly snapshot.
int cmdTop(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t intervalMs = 1000;
  std::uint64_t frames = 0;  // 0 = until interrupted
  for (int i = 0; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--host") == 0) {
      host = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v == 0 || v > 65535) {
        return usageError("--port expects the daemon's port number");
      }
      port = static_cast<std::uint16_t>(v);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v == 0) {
        return usageError("--interval-ms expects a positive integer");
      }
      intervalMs = v;
    } else if (std::strcmp(argv[i], "--count") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v) || v == 0) {
        return usageError("--count expects a positive integer");
      }
      frames = v;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      frames = 1;
    } else {
      return usageError(std::string("unknown top flag '") + argv[i] + "'");
    }
  }
  if (port == 0) {
    return usageError("top needs --port <port> (start one with `mui serve`)");
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (std::uint64_t frame = 0; frames == 0 || frame < frames; ++frame) {
    if (frame != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
    }
    std::string body;
    try {
      body = serve::httpGet(host, port, "/jobs");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mui top: %s\n", e.what());
      return 1;
    }
    const auto doc = util::json::parse(body);
    const util::json::Value* rows = doc ? doc->find("jobs") : nullptr;
    if (rows == nullptr || rows->kind != util::json::Value::Kind::Array) {
      std::fprintf(stderr, "mui top: unparseable /jobs payload\n");
      return 1;
    }

    if (tty && frames != 1) std::printf("\x1b[H\x1b[2J");
    std::printf("mui top — %s:%u — %llu job(s) in flight\n", host.c_str(),
                port,
                static_cast<unsigned long long>(
                    doc->u64("inflight").value_or(rows->items.size())));
    std::printf("%-26s  %-16s  %-8s  %-9s  %5s  %9s  %9s  %s\n", "ULID",
                "NAME", "PHASE", "DISP", "ITER", "QUEUED-MS", "RUN-MS",
                "CLIENT");
    for (const auto& row : rows->items) {
      const auto str = [&](const char* key) {
        return std::string(row.str(key).value_or(""));
      };
      const std::string trace = str("trace");
      std::printf("%-26s  %-16s  %-8s  %-9s  %5llu  %9.0f  %9.0f  %s%s%s\n",
                  str("ulid").c_str(), str("name").c_str(),
                  str("phase").c_str(), str("disposition").c_str(),
                  static_cast<unsigned long long>(
                      row.u64("iteration").value_or(0)),
                  row.num("queuedMs").value_or(0), row.num("runMs").value_or(0),
                  str("client").c_str(), trace.empty() ? "" : " · ",
                  trace.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

int cmdFuzz(int argc, char** argv) {
  fuzz::FuzzOptions options;
  ObsOptions obsOpts;
  std::vector<std::string> replayPaths;
  bool replayMode = false;
  for (int i = 0; i < argc; ++i) {
    std::uint64_t v = 0;
    if (obsOpts.consume(argc, argv, i)) {
      continue;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replayMode = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--seed expects a non-negative integer");
      }
      options.seed = v;
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--runs expects a non-negative integer");
      }
      options.runs = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--jobs expects a non-negative integer");
      }
      options.jobs = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--time-budget") == 0) {
      if (!parseUint(flagValue(argc, argv, i), v)) {
        return usageError("--time-budget expects seconds");
      }
      options.timeBudgetSec = v;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.outDir = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--oracles") == 0) {
      std::string list = flagValue(argc, argv, i);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!name.empty()) {
          const auto id = fuzz::oracleFromString(name);
          if (!id) {
            return usageError("unknown oracle '" + name +
                              "' (expected O1, O2, O3, O5, O6 or O7)");
          }
          options.oracles.push_back(*id);
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      if (options.oracles.empty()) {
        return usageError("--oracles expects a comma-separated oracle list");
      }
    } else if (std::strcmp(argv[i], "--inject-bug") == 0) {
      const char* name = flagValue(argc, argv, i);
      const auto bug = fuzz::bugInjectionFromString(name);
      if (!bug) {
        return usageError(std::string("unknown bug injection '") + name +
                          "' (expected: none, o1-deadlock-af, o7-stale-region)");
      }
      options.oracle.injectBug = *bug;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      options.shrink = false;
    } else if (argv[i][0] == '-') {
      return usageError(std::string("unknown fuzz flag '") + argv[i] + "'");
    } else if (replayMode) {
      replayPaths.emplace_back(argv[i]);
    } else {
      return usageError(std::string("unexpected fuzz argument '") + argv[i] +
                        "' (reproducer files need --replay)");
    }
  }

  if (replayMode) {
    if (replayPaths.empty()) {
      return usageError("--replay expects at least one reproducer file");
    }
    std::size_t reproduced = 0;
    for (const auto& path : replayPaths) {
      const fuzz::Reproducer repro = fuzz::loadReproducerFile(path);
      fuzz::OracleOptions opts = options.oracle;
      opts.propertyOnly = !repro.scenario.property.empty();
      const fuzz::OracleResult res = fuzz::replayReproducer(repro, opts);
      if (res.ok) {
        std::printf("%s: %s no longer reproduces\n", path.c_str(),
                    fuzz::toString(repro.oracle));
      } else {
        ++reproduced;
        std::printf("%s: %s REPRODUCES\n    %s\n", path.c_str(),
                    fuzz::toString(repro.oracle), res.detail.c_str());
      }
    }
    std::printf("%zu/%zu reproducers still fail their oracle\n", reproduced,
                replayPaths.size());
    return reproduced == 0 ? 0 : 1;
  }

  options.journal = obsOpts.journalPtr();
  obsOpts.beforeRun();
  const fuzz::FuzzReport report = fuzz::runCampaign(options);
  obsOpts.writeArtifacts();
  std::printf("%s", fuzz::renderFuzzSummary(report).c_str());
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    obs::setBuildInfo(obs::Registry::global(), MUI_VERSION, MUI_GIT_SHA);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      printUsage(stdout);
      return 0;
    }
    if (cmd == "--version" || cmd == "version") {
      std::printf("mui %s (%s)\n", MUI_VERSION, MUI_GIT_SHA);
      return 0;
    }
    if (cmd == "check") return cmdCheck(argc - 2, argv + 2);
    if (cmd == "compose") return cmdCompose(argc - 2, argv + 2);
    if (cmd == "verify-pattern") return cmdVerifyPattern(argc - 2, argv + 2);
    if (cmd == "integrate") return cmdIntegrate(argc - 2, argv + 2);
    if (cmd == "suite-gen") return cmdSuiteGen(argc - 2, argv + 2);
    if (cmd == "suite-run") return cmdSuiteRun(argc - 2, argv + 2);
    if (cmd == "batch") return cmdBatch(argc - 2, argv + 2);
    if (cmd == "serve") return cmdServe(argc - 2, argv + 2);
    if (cmd == "submit") return cmdSubmit(argc - 2, argv + 2);
    if (cmd == "stats") return cmdStats(argc - 2, argv + 2);
    if (cmd == "top") return cmdTop(argc - 2, argv + 2);
    if (cmd == "fuzz") return cmdFuzz(argc - 2, argv + 2);
    if (cmd == "lint") return cmdLint(argc - 2, argv + 2);
    if (cmd == "analyze") return cmdAnalyze(argc - 2, argv + 2);
    if (cmd == "dot") return cmdDot(argc - 2, argv + 2);
    return usageError("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

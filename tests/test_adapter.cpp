// Out-of-process legacy adapters (testing/subprocess.hpp): the JSONL
// protocol against real spawned binaries, differential conformance between
// in-process and out-of-process incarnations of the same hidden component,
// the fault-injection containment matrix (crash / hang / garbage / early
// exit), the `legacy ... external` loader surface and its located
// diagnostics, and the engine/serve plumbing of the distinct
// adapter-failure verdict. The adapter binaries are built by tools/
// (adapter_automaton, adapter_bci) and found via MUI_ADAPTER_PATH, which
// this suite points at MUI_ADAPTER_DIR.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "automata/rename.hpp"
#include "engine/engine.hpp"
#include "engine/runner.hpp"
#include "muml/external.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "muml/writer.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "synthesis/verifier.hpp"
#include "testing/driver.hpp"
#include "testing/legacy.hpp"
#include "testing/subprocess.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace mui;
using mui::testing::AdapterFailure;
using mui::testing::RunPhase;
using mui::testing::RunResult;
using Steps = std::vector<automata::Interaction>;

const std::string kBciModel = std::string(MUI_MODELS_DIR) + "/bci.muml";
const std::string kFixture =
    std::string(MUI_FIXTURES_DIR) + "/hang_external.muml";

// The adapter binaries live in the build's tools directory; every binary
// resolution in this suite goes through the MUI_ADAPTER_PATH fallback.
const bool kEnvReady = [] {
  ::setenv("MUI_ADAPTER_PATH", MUI_ADAPTER_DIR, 1);
  return true;
}();

muml::Model loadBci() { return muml::loadModelFile(kBciModel); }
muml::Model loadFixture() { return muml::loadModelFile(kFixture); }

mui::testing::SubprocessConfig cfgFor(const muml::Model& model,
                                 const std::string& name) {
  return mui::testing::configFromExternal(model, model.externals.at(name));
}

automata::SignalSet sset(const muml::Model& model,
                         std::initializer_list<const char*> names) {
  automata::SignalSet out;
  for (const char* n : names) {
    const auto id = model.signals->lookup(n);
    EXPECT_TRUE(id.has_value()) << n;
    if (id) out.set(*id);
  }
  return out;
}

/// True once `pid` has exited (gone, or a zombie nobody has reaped yet).
bool processGone(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  if (!stat) return true;
  std::string line;
  std::getline(stat, line);
  const auto paren = line.rfind(')');
  return paren == std::string::npos || paren + 2 >= line.size() ||
         line[paren + 2] == 'Z';
}

/// Waits until `pid` has exited, so its pipes are closed.
void awaitExit(pid_t pid) {
  while (!processGone(pid)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Request lines written to adapters so far, process-wide.
std::uint64_t exchanges() {
  return obs::Registry::global()
      .counter("mui_adapter_exchanges_total", "")
      .value();
}

struct RunStats {
  synthesis::Verdict verdict;
  std::size_t iterations;
  std::uint64_t testPeriods;
  std::size_t learnedFacts;
  std::string explanation;
};

RunStats runScenario(const muml::Model& model, const std::string& patternName,
                     const std::string& roleName, const std::string& hidden) {
  muml::IntegrationBinding binding =
      muml::bindIntegration(model, patternName, roleName, hidden);
  const auto legacy =
      mui::testing::makeLegacy(model, std::move(binding.legacy));
  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  cfg.runId = "adapter-test";
  const auto res = synthesis::runIntegration(binding.scenario.context,
                                             *legacy, std::move(cfg));
  return {res.verdict, res.iterations, res.totalTestPeriods,
          res.totalLearnedFacts, res.explanation};
}

std::filesystem::path testDir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "mui_adapter_tests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

engine::Job externalJob(std::string name, std::string modelPath,
                        std::string pattern, std::string role,
                        std::string hidden) {
  engine::Job job;
  job.name = std::move(name);
  job.modelPath = std::move(modelPath);
  job.pattern = std::move(pattern);
  job.legacyRole = std::move(role);
  job.hidden = std::move(hidden);
  return job;
}

// ------------------------------------------------------------------ loader

TEST(ExternalLoader, ParsesTheLegacyExternalClause) {
  const muml::Model m = muml::loadModel(R"mm(
legacy fw external "adapter_bci" {
  input hello cmd;
  output ack done;
  arg "--flag"; arg "%model%";
  deadline-ms 250;
  max-respawns 7;
}
)mm",
                                        "inline.muml");
  const auto& ext = m.externals.at("fw");
  EXPECT_EQ(ext.path, "adapter_bci");
  ASSERT_EQ(ext.args.size(), 2u);
  EXPECT_EQ(ext.args[0], "--flag");
  EXPECT_EQ(ext.args[1], "%model%");
  EXPECT_EQ(ext.stepDeadlineMs, 250u);
  EXPECT_EQ(ext.maxRespawns, 7u);
  EXPECT_TRUE(ext.inputs.test(*m.signals->lookup("hello")));
  EXPECT_TRUE(ext.inputs.test(*m.signals->lookup("cmd")));
  EXPECT_TRUE(ext.outputs.test(*m.signals->lookup("ack")));
  EXPECT_TRUE(ext.outputs.test(*m.signals->lookup("done")));
  // The clause's source location is recorded for located diagnostics.
  EXPECT_EQ(m.source.externals.at("fw").line, 2u);
}

TEST(ExternalLoader, RejectsDuplicatesClashesAndBadBodies) {
  // Duplicate external name.
  EXPECT_THROW(
      muml::loadModel("legacy a external \"x\" { input i; }"
                      "legacy a external \"y\" { input i; }"),
      util::SemanticError);
  // External vs automaton name clashes, both declaration orders.
  EXPECT_THROW(
      muml::loadModel("automaton a { initial s; }"
                      "legacy a external \"x\" { input i; }"),
      util::SemanticError);
  EXPECT_THROW(
      muml::loadModel("legacy a external \"x\" { input i; }"
                      "automaton a { initial s; }"),
      util::SemanticError);
  // Empty binary path and zero deadline are semantic errors.
  EXPECT_THROW(muml::loadModel("legacy a external \"\" { input i; }"),
               util::SemanticError);
  EXPECT_THROW(
      muml::loadModel("legacy a external \"x\" { deadline-ms 0; }"),
      util::SemanticError);
  // Unknown body keyword is a parse error.
  EXPECT_THROW(muml::loadModel("legacy a external \"x\" { frobnicate; }"),
               util::ParseError);
}

TEST(ExternalLoader, WriterRoundTripsExternals) {
  const muml::Model m = loadBci();
  const muml::Model re = muml::loadModel(muml::writeModel(m), "rt.muml");
  ASSERT_EQ(re.externals.size(), m.externals.size());
  const auto& a = m.externals.at("bciSim");
  const auto& b = re.externals.at("bciSim");
  EXPECT_EQ(b.path, a.path);
  EXPECT_EQ(b.args, a.args);
  EXPECT_EQ(b.stepDeadlineMs, a.stepDeadlineMs);
  EXPECT_EQ(b.maxRespawns, a.maxRespawns);
  EXPECT_TRUE(b.inputs.test(*re.signals->lookup("hello")));
  EXPECT_TRUE(b.outputs.test(*re.signals->lookup("done")));
  // The default respawn budget round-trips as the default (not rendered).
  EXPECT_EQ(re.externals.at("bciFirmware").maxRespawns, 2u);
}

// -------------------------------------------------------------- resolution

TEST(ExternalResolution, MissingBinaryDiagnosticIsLocatedAndListsPaths) {
  const muml::Model m = loadFixture();
  try {
    muml::resolveExternalBinary(m.externals.at("deviceMissing"), m.source);
    FAIL() << "expected SemanticError";
  } catch (const util::SemanticError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hang_external.muml:"), std::string::npos) << what;
    EXPECT_NE(what.find("not found"), std::string::npos) << what;
    EXPECT_NE(what.find("no_such_adapter_binary"), std::string::npos) << what;
    EXPECT_NE(what.find("MUI_ADAPTER_PATH"), std::string::npos) << what;
    EXPECT_GT(e.line(), 0u);
    EXPECT_GT(e.col(), 0u);
  }
}

TEST(ExternalResolution, ExistingButNotExecutableIsItsOwnDiagnostic) {
  const auto dir = testDir("notexec");
  std::ofstream(dir / "shim") << "not a program\n";
  const muml::Model m = muml::loadModel(
      "legacy dev external \"shim\" { input i; output o; }",
      (dir / "m.muml").string());
  try {
    muml::resolveExternalBinary(m.externals.at("dev"), m.source);
    FAIL() << "expected SemanticError";
  } catch (const util::SemanticError& e) {
    EXPECT_NE(std::string(e.what()).find("not an executable"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExternalResolution, RelativePathsResolveAgainstTheModelDirectory) {
  const auto dir = testDir("reldir");
  const auto shim = dir / "shim.sh";
  std::ofstream(shim) << "#!/bin/sh\nexit 0\n";
  std::filesystem::permissions(shim,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);
  const muml::Model m = muml::loadModel(
      "legacy dev external \"shim.sh\" { input i; output o; }",
      (dir / "m.muml").string());
  EXPECT_EQ(muml::resolveExternalBinary(m.externals.at("dev"), m.source),
            shim.string());
}

TEST(ExternalResolution, AdapterPathEnvironmentIsTheFallback) {
  const muml::Model m = loadBci();
  const std::string resolved =
      muml::resolveExternalBinary(m.externals.at("bciFirmware"), m.source);
  EXPECT_EQ(resolved, std::string(MUI_ADAPTER_DIR) + "/adapter_bci");
}

TEST(ExternalResolution, InterfaceMismatchIsCaughtBeforeSpawning) {
  const muml::Model m = loadFixture();
  const auto& pattern = m.patterns.at("Watchdog");
  const auto& role = pattern.roles[1];
  ASSERT_EQ(role.name, "device");
  try {
    muml::checkExternalInterface(m.externals.at("deviceWrongIface"), role,
                                 m.source, m.signals);
    FAIL() << "expected SemanticError";
  } catch (const util::SemanticError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("extraSignal"), std::string::npos) << what;
    EXPECT_NE(what.find("requires"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------- protocol

TEST(SubprocessLegacy, SpeaksTheProtocolAgainstTheCShim) {
  const muml::Model m = loadBci();
  mui::testing::SubprocessLegacy fw(cfgFor(m, "bciFirmware"));
  EXPECT_EQ(fw.name(), "bciFirmware");
  EXPECT_EQ(fw.pid(), -1);  // the process is spawned lazily
  EXPECT_EQ(fw.currentStateName(), "offline");
  EXPECT_GT(fw.pid(), 0);
  EXPECT_TRUE(fw.inputs() == sset(m, {"hello", "cmd"}));
  EXPECT_TRUE(fw.outputs() == sset(m, {"ack", "done"}));

  auto out = fw.step(sset(m, {"hello"}));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(fw.currentStateName(), "acking");
  out = fw.step({});
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(*out == sset(m, {"ack"}));
  EXPECT_EQ(fw.currentStateName(), "ready");

  // A refusal leaves the state unchanged (a second hello once linked).
  EXPECT_FALSE(fw.step(sset(m, {"hello"})).has_value());
  EXPECT_EQ(fw.currentStateName(), "ready");

  fw.reset();
  EXPECT_EQ(fw.currentStateName(), "offline");
  EXPECT_EQ(fw.respawns(), 0u);
}

TEST(SubprocessLegacy, CloneReplaysIntoTheCurrentState) {
  const muml::Model m = loadBci();
  mui::testing::SubprocessLegacy fw(cfgFor(m, "bciFirmware"));
  ASSERT_TRUE(fw.step(sset(m, {"hello"})).has_value());
  ASSERT_TRUE(fw.step({}).has_value());  // -> ready
  const auto copy = fw.clone();
  EXPECT_EQ(copy->currentStateName(), "ready");
  // Advancing the clone must not disturb the original (separate process).
  ASSERT_TRUE(copy->step(sset(m, {"cmd"})).has_value());
  EXPECT_EQ(copy->currentStateName(), "busy");
  EXPECT_EQ(fw.currentStateName(), "ready");
}

TEST(SubprocessLegacy, RecoversFromAKilledProcessByReplay) {
  const muml::Model m = loadBci();
  mui::testing::SubprocessLegacy fw(cfgFor(m, "bciFirmware"));
  ASSERT_TRUE(fw.step(sset(m, {"hello"})).has_value());
  ASSERT_TRUE(fw.step({}).has_value());  // -> ready, two logged steps
  ASSERT_GT(fw.pid(), 0);
  ASSERT_EQ(::kill(fw.pid(), SIGKILL), 0);
  // The next exchange meets the dead process, respawns, and replays the
  // accepted-step log — reconstructing 'ready' before retrying the step.
  const auto out = fw.step(sset(m, {"cmd"}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(fw.respawns(), 1u);
  EXPECT_EQ(fw.currentStateName(), "busy");
}

/// A /bin/sh adapter running `script`, with the interface of the watchdog
/// model's device (input ping, output pong).
mui::testing::SubprocessConfig shellAdapter(const muml::Model& watchdog,
                                            const std::string& script) {
  const mui::testing::AutomatonLegacy device(
      watchdog.automata.at("deviceCompliant"));
  mui::testing::SubprocessConfig cfg;
  cfg.binary = "/bin/sh";
  cfg.args = {"-c", script};
  cfg.name = "sh";
  cfg.signals = watchdog.signals;
  cfg.inputs = device.inputs();
  cfg.outputs = device.outputs();
  return cfg;
}

std::vector<std::string> fileLines(const std::filesystem::path& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(SubprocessLegacy, WireLinesMatchThePinnedProtocol) {
  // The reference adapter behind two tees: the harness's requests and the
  // adapter's responses are recorded byte for byte. The expected lines are
  // the v1 commands as the harness and adapter_automaton have always
  // spoken them; only the hello now reports protocol version 2.
  const auto dir = testDir("wire");
  const muml::Model m =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  const std::string requests = (dir / "requests").string();
  const std::string responses = (dir / "responses").string();
  {
    mui::testing::SubprocessLegacy dev(shellAdapter(
        m, "tee '" + requests + "' | '" MUI_ADAPTER_DIR
           "/adapter_automaton' '" MUI_MODELS_DIR
           "/watchdog.muml' deviceCompliant --instance device | tee '" +
               responses + "'"));
    ASSERT_TRUE(dev.step(sset(m, {"ping"})).has_value());
    EXPECT_FALSE(dev.step(sset(m, {"ping"})).has_value());
    EXPECT_EQ(dev.currentStateName(), "serving");
    const auto out = dev.step({});
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(*out == sset(m, {"pong"}));
    dev.reset();
  }
  const std::vector<std::string> expectedRequests = {
      R"({"cmd":"hello"})",          R"({"cmd":"step","inputs":"ping"})",
      R"({"cmd":"step","inputs":"ping"})", R"({"cmd":"probe"})",
      R"({"cmd":"step","inputs":""})", R"({"cmd":"reset"})",
      R"({"cmd":"quit"})"};
  const std::vector<std::string> expectedResponses = {
      R"({"ok":true,"version":2,"name":"device","inputs":"ping","outputs":"pong"})",
      R"({"ok":true,"outputs":""})",  R"({"ok":true,"refused":true})",
      R"({"ok":true,"state":"serving"})", R"({"ok":true,"outputs":"pong"})",
      R"({"ok":true})"};
  // The request tee may still be writing "quit" when the harness has
  // already seen the adapter's EOF.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fileLines(requests).size() < expectedRequests.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fileLines(requests), expectedRequests);
  EXPECT_EQ(fileLines(responses), expectedResponses);
}

TEST(SubprocessLegacy, RunWireLinesMatchThePinnedProtocol) {
  // Protocol v2: each phase of a test is one `run` exchange. The target
  // run carries the expected outputs and stops right after the first
  // divergence or at the first refusal; the replay carries the accepted
  // prefix and asks for the state before it and after each step.
  const auto dir = testDir("wire-run");
  const muml::Model m =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  const std::string requests = (dir / "requests").string();
  const std::string responses = (dir / "responses").string();
  const automata::SignalSet ping = sset(m, {"ping"});
  const automata::SignalSet pong = sset(m, {"pong"});
  {
    mui::testing::SubprocessLegacy dev(shellAdapter(
        m, "tee '" + requests + "' | '" MUI_ADAPTER_DIR
           "/adapter_automaton' '" MUI_MODELS_DIR
           "/watchdog.muml' deviceCompliant --instance device | tee '" +
               responses + "'"));
    const Steps diverging = {{ping, {}}, {{}, {}}, {ping, {}}};
    const RunResult target = dev.run(diverging, RunPhase::Target);
    EXPECT_EQ(target.outputs, (std::vector<automata::SignalSet>{{}, pong}));
    EXPECT_FALSE(target.refused);
    const RunResult replay =
        dev.run(std::span(diverging).first(2), RunPhase::Replay);
    EXPECT_EQ(replay.outputs, target.outputs);
    EXPECT_EQ(replay.states,
              (std::vector<std::string>{"ready", "serving", "ready"}));
    const RunResult blocked =
        dev.run(Steps{{ping, {}}, {ping, {}}}, RunPhase::Target);
    EXPECT_EQ(blocked.outputs, (std::vector<automata::SignalSet>{{}}));
    EXPECT_TRUE(blocked.refused);
    EXPECT_EQ(dev.protocolVersion(), 2u);
  }
  const std::vector<std::string> expectedRequests = {
      R"({"cmd":"hello"})",
      R"({"cmd":"run","inputs":["ping","","ping"],"expect":["","",""]})",
      R"({"cmd":"run","inputs":["ping",""],"probe":true})",
      R"({"cmd":"run","inputs":["ping","ping"],"expect":["",""]})",
      R"({"cmd":"quit"})"};
  const std::vector<std::string> expectedResponses = {
      R"({"ok":true,"version":2,"name":"device","inputs":"ping","outputs":"pong"})",
      R"({"ok":true,"outputs":["","pong"]})",
      R"({"ok":true,"outputs":["","pong"],"states":["ready","serving","ready"]})",
      R"({"ok":true,"outputs":[""],"refused":true})"};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fileLines(requests).size() < expectedRequests.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fileLines(requests), expectedRequests);
  EXPECT_EQ(fileLines(responses), expectedResponses);
}

TEST(SubprocessLegacy, V1AdapterIntegratesThroughThePerStepPath) {
  // A hello without "version" marks a v1 adapter: the harness never sends
  // it a `run`, and the loop reaches the verdict, iterations, test periods
  // and learned facts of the in-process run through reset/step/probe.
  const auto dir = testDir("v1");
  const std::string requests = (dir / "requests").string();
  const muml::Model m = loadFixture();
  const RunStats in = runScenario(m, "Watchdog", "device", "deviceImpl");
  auto cfg = mui::testing::configFromExternal(m, m.externals.at("deviceOk"),
                                              "device");
  std::vector<std::string> args{
      "-c",
      "tee '" + requests +
          "' | \"$0\" \"$@\" | sed -u 's/\"version\":2,//'",
      cfg.binary};
  args.insert(args.end(), cfg.args.begin(), cfg.args.end());
  cfg.args = std::move(args);
  cfg.binary = "/bin/sh";
  mui::testing::SubprocessLegacy v1(std::move(cfg));
  const muml::IntegrationBinding binding =
      muml::bindIntegration(m, "Watchdog", "device", "deviceImpl");
  synthesis::IntegrationConfig config;
  config.property = binding.scenario.property;
  const auto res =
      synthesis::runIntegration(binding.scenario.context, v1, config);
  EXPECT_EQ(v1.protocolVersion(), 1u);
  EXPECT_EQ(res.verdict, in.verdict) << res.explanation;
  EXPECT_EQ(res.iterations, in.iterations);
  EXPECT_EQ(res.totalTestPeriods, in.testPeriods);
  EXPECT_EQ(res.totalLearnedFacts, in.learnedFacts);
  std::size_t steps = 0;
  for (const std::string& line : fileLines(requests)) {
    EXPECT_EQ(line.find(R"("cmd":"run")"), std::string::npos) << line;
    steps += line.find(R"("cmd":"step")") != std::string::npos;
  }
  EXPECT_EQ(steps, in.testPeriods);
}

TEST(SubprocessLegacy, RunDeadlineScalesWithTheStepsAndSaturates) {
  EXPECT_EQ(mui::testing::runDeadlineMs(500, 0), 500u);
  EXPECT_EQ(mui::testing::runDeadlineMs(500, 3), 2000u);
  EXPECT_EQ(mui::testing::runDeadlineMs(UINT64_MAX / 2, 2), UINT64_MAX);
  EXPECT_EQ(mui::testing::runDeadlineMs(1, SIZE_MAX), UINT64_MAX);
  EXPECT_GT(mui::testing::responseCapBytes(1),
            mui::testing::responseCapBytes(0));
}

TEST(SubprocessLegacy, RespawnReplaysARunAsOneRunAndResumesMidTest) {
  const muml::Model m = loadBci();
  mui::testing::SubprocessLegacy fw(cfgFor(m, "bciFirmware"));
  const automata::SignalSet hello = sset(m, {"hello"});
  const automata::SignalSet ack = sset(m, {"ack"});
  const RunResult target =
      fw.run(Steps{{hello, {}}, {{}, ack}}, RunPhase::Target);  // -> ready
  ASSERT_EQ(target.outputs.size(), 2u);
  ASSERT_GT(fw.pid(), 0);
  ASSERT_EQ(::kill(fw.pid(), SIGKILL), 0);
  awaitExit(fw.pid());
  // The next step meets the dead process, respawns and replays the run's
  // two accepted steps as one run: hello, run, then the retried step.
  const std::uint64_t before = exchanges();
  const auto out = fw.step(sset(m, {"cmd"}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(exchanges() - before, 3u);
  EXPECT_EQ(fw.respawns(), 1u);
  EXPECT_EQ(fw.currentStateName(), "busy");
  // A clone replays the same way: hello, one run, the probe.
  const std::uint64_t beforeClone = exchanges();
  const auto copy = fw.clone();
  EXPECT_EQ(copy->currentStateName(), "busy");
  EXPECT_EQ(exchanges() - beforeClone, 3u);
}

TEST(SubprocessLegacy, AdaptersStartWithTheDefaultSignalState) {
  // Both a blocked mask and an ignored disposition survive execv: a serve
  // worker spawns with SIGINT and SIGTERM blocked (the daemon's sigwait),
  // and the harness ignores SIGPIPE. The adapter must inherit neither.
  const muml::Model m = loadFixture();
  std::string blocked;
  std::string ignored;
  std::string error;
  std::thread spawner([&] {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    try {
      mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceOk"));
      (void)dev.currentStateName();
      std::ifstream status("/proc/" + std::to_string(dev.pid()) + "/status");
      for (std::string line; std::getline(status, line);) {
        if (line.rfind("SigBlk:", 0) == 0) blocked = line.substr(7);
        if (line.rfind("SigIgn:", 0) == 0) ignored = line.substr(7);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  spawner.join();
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_FALSE(blocked.empty());
  ASSERT_FALSE(ignored.empty());
  const auto bit = [](int sig) { return std::uint64_t{1} << (sig - 1); };
  EXPECT_EQ(std::stoull(blocked, nullptr, 16) & (bit(SIGINT) | bit(SIGTERM)),
            0u)
      << "SigBlk:" << blocked;
  EXPECT_EQ(std::stoull(ignored, nullptr, 16) & bit(SIGPIPE), 0u)
      << "SigIgn:" << ignored;
}

TEST(SubprocessLegacy, TeardownReapsAnAdapterThatIgnoresQuitWithinTheBound) {
  // Answers the hello and one step, then ignores quit and holds stdout
  // open: the destructor must give up after its grace period, SIGKILL the
  // child and reap it.
  const muml::Model m =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  auto dev = std::make_unique<mui::testing::SubprocessLegacy>(shellAdapter(
      m, "read l; echo '{\"ok\":true}'; read l; "
         "echo '{\"ok\":true,\"outputs\":\"\"}'; exec sleep 60"));
  ASSERT_TRUE(dev->step({}).has_value());
  const int pid = dev->pid();
  ASSERT_GT(pid, 0);
  const auto t0 = std::chrono::steady_clock::now();
  dev.reset();
  const auto elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_GE(elapsedMs, mui::testing::SubprocessLegacy::kQuitGraceMs - 5.0);
  EXPECT_LT(elapsedMs, mui::testing::SubprocessLegacy::kQuitGraceMs + 1000.0);
  // Reaped: the pid no longer names a process (not even a zombie).
  EXPECT_EQ(::kill(pid, 0), -1);
  EXPECT_EQ(errno, ESRCH);
}

TEST(SubprocessLegacy, SignalSetCodecIsSharedAndSplitsOnAnyWhitespace) {
  const muml::Model m = loadBci();
  const automata::SignalSet set = sset(m, {"cmd", "hello"});
  const std::string wire = mui::testing::encodeSignals(set, *m.signals);
  // Table order, single spaces.
  EXPECT_EQ(wire, "hello cmd");
  std::string unknown;
  const auto back = mui::testing::decodeSignals(" hello\t\ncmd  ", *m.signals,
                                                unknown);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == set);
  EXPECT_TRUE(mui::testing::decodeSignals("", *m.signals, unknown)->empty());
  EXPECT_FALSE(
      mui::testing::decodeSignals("hello bogus", *m.signals, unknown));
  EXPECT_EQ(unknown, "bogus");
}

// --------------------------------------------------------- fault injection

TEST(AdapterFaults, HangHitsTheDeadlineWithinTheContainmentBudget) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceHang"));
  ASSERT_TRUE(dev.step(sset(m, {"ping"})).has_value());  // step 1 answers
  const auto t0 = std::chrono::steady_clock::now();
  try {
    dev.step({});  // step 2 hangs; the 500 ms deadline must fire
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Timeout);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  const auto elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // One declared deadline (500 ms) plus generous CI headroom — never a
  // harness hang. Timeouts are not retried, so one deadline is the budget.
  EXPECT_LT(elapsedMs, 10000.0);
  EXPECT_EQ(dev.respawns(), 0u);
}

/// `cfg` behind a /bin/sh that first runs `prelude` (with $$ = the adapter's
/// pid, since the shell then execs the adapter in place).
mui::testing::SubprocessConfig behindShell(mui::testing::SubprocessConfig cfg,
                                           const std::string& prelude) {
  std::vector<std::string> args{"-c", prelude + "; exec \"$0\" \"$@\"",
                                 cfg.binary};
  args.insert(args.end(), cfg.args.begin(), cfg.args.end());
  cfg.args = std::move(args);
  cfg.binary = "/bin/sh";
  return cfg;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AdapterFaults, HungAdapterDiesWithAKilledHarness) {
  const muml::Model m = loadFixture();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mui_pdeathsig_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string pidFile = (dir / "adapter.pid").string();
  const std::string readyFile = (dir / "hanging").string();
  auto cfg = behindShell(cfgFor(m, "deviceHang"), "echo $$ > " + pidFile);
  cfg.stepDeadlineMs = 60000;  // the harness blocks in step 2 until killed

  const pid_t harness = ::fork();
  ASSERT_GE(harness, 0);
  if (harness == 0) {
    try {
      mui::testing::SubprocessLegacy dev(cfg);
      dev.step(sset(m, {"ping"}));
      std::ofstream(readyFile) << "1";
      dev.step({});  // hang-at=2: never answers
    } catch (...) {
    }
    ::_exit(0);
  }
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!std::filesystem::exists(readyFile) &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(readyFile));
  const pid_t adapter = std::stoi(readFile(pidFile));
  // Let the adapter read step 2 and park in its hang.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(harness, SIGKILL);
  ::waitpid(harness, nullptr, 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!processGone(adapter) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool gone = processGone(adapter);
  if (!gone) ::kill(adapter, SIGKILL);  // do not leak it past the test
  EXPECT_TRUE(gone) << "adapter " << adapter << " outlived its harness";
  std::filesystem::remove_all(dir);
}

TEST(AdapterFaults, FdsAbove1024DoNotLeakIntoAdapters) {
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  constexpr int kHighFd = 1500;
  if (saved.rlim_max != RLIM_INFINITY && saved.rlim_max <= kHighFd) {
    GTEST_SKIP() << "hard RLIMIT_NOFILE " << saved.rlim_max << " <= "
                 << kHighFd;
  }
  rlimit raised = saved;
  if (raised.rlim_cur == RLIM_INFINITY || raised.rlim_cur <= kHighFd) {
    raised.rlim_cur = kHighFd + 1;
  }
  if (::setrlimit(RLIMIT_NOFILE, &raised) != 0) {
    GTEST_SKIP() << "cannot raise the soft RLIMIT_NOFILE";
  }
  const int devNull = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(devNull, 0);
  ASSERT_EQ(::dup2(devNull, kHighFd), kHighFd);
  ::close(devNull);

  const muml::Model m = loadFixture();
  const auto probeFile = std::filesystem::temp_directory_path() /
                         ("mui_fdleak_" + std::to_string(::getpid()));
  const auto cfg = behindShell(
      cfgFor(m, "deviceOk"),
      "if [ -e /proc/$$/fd/" + std::to_string(kHighFd) +
          " ]; then echo open; else echo closed; fi > " + probeFile.string());
  {
    mui::testing::SubprocessLegacy dev(cfg);
    EXPECT_TRUE(dev.step(sset(m, {"ping"})).has_value());
  }
  EXPECT_EQ(readFile(probeFile.string()), "closed\n");
  std::filesystem::remove(probeFile);
  ::close(kHighFd);
  ::setrlimit(RLIMIT_NOFILE, &saved);
}

TEST(AdapterFaults, CrashExhaustsTheRespawnBudget) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceCrash"));  // crash-at=2
  ASSERT_TRUE(dev.step(sset(m, {"ping"})).has_value());
  try {
    dev.step({});  // crashes at every process's 2nd step: budget exhausts
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Crash);
    EXPECT_NE(std::string(e.what()).find("respawn budget"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dev.respawns(), 2u);  // the fixture declares max-respawns 2
}

TEST(AdapterFaults, GarbageIsAProtocolErrorNotAParseAbort) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceGarbage"));
  ASSERT_TRUE(dev.step(sset(m, {"ping"})).has_value());
  try {
    dev.step({});
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Protocol);
    EXPECT_NE(std::string(e.what()).find("garbage"), std::string::npos);
  }
  EXPECT_EQ(dev.respawns(), 0u);  // protocol errors are never retried
}

TEST(AdapterFaults, DeeplyNestedResponseIsALocatedProtocolError) {
  // A hostile response nesting 100,000 arrays deep is rejected by the
  // reader's depth bound, never by a stack overflow.
  const muml::Model m =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  mui::testing::SubprocessLegacy dev(shellAdapter(
      m, "read l; printf '{\"ok\":true,\"x\":'; "
         "head -c 100000 /dev/zero | tr '\\000' '['; echo; exec cat"));
  try {
    dev.step({});
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Protocol);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("offset "), std::string::npos);
  }
  EXPECT_EQ(dev.respawns(), 0u);
}

TEST(AdapterFaults, ExitAfterHandshakeIsContainedAsACrash) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceExitEarly"));
  try {
    dev.step(sset(m, {"ping"}));
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Crash);
  }
  EXPECT_EQ(dev.respawns(), 1u);  // the fixture declares max-respawns 1
}

TEST(AdapterFaults, MissingBinarySurfacesAsSpawnFailure) {
  const muml::Model m = loadBci();
  mui::testing::SubprocessConfig cfg = cfgFor(m, "bciFirmware");
  cfg.binary = "/no/such/adapter";
  mui::testing::SubprocessLegacy fw(std::move(cfg));
  try {
    fw.step({});
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    // The exec failure surfaces as EOF before the hello — a spawn failure,
    // which never consumes respawn budget.
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Spawn);
  }
  EXPECT_EQ(fw.respawns(), 0u);
}

TEST(AdapterFaults, KindNamesAreStable) {
  EXPECT_STREQ(mui::testing::adapterFailureKindName(AdapterFailure::Kind::Spawn),
               "spawn");
  EXPECT_STREQ(mui::testing::adapterFailureKindName(AdapterFailure::Kind::Crash),
               "crash");
  EXPECT_STREQ(
      mui::testing::adapterFailureKindName(AdapterFailure::Kind::Timeout),
      "timeout");
  EXPECT_STREQ(
      mui::testing::adapterFailureKindName(AdapterFailure::Kind::Protocol),
      "protocol");
  EXPECT_STREQ(mui::testing::adapterFailureKindName(AdapterFailure::Kind::Replay),
               "replay");
}

// The fault matrix again, with the chaos striking at step 2 inside a run:
// the same failure kinds and respawn counts as in single steps.

/// The fixture's two-step test ping / {}, {} / pong: step 2 is in the run.
Steps fixtureTest(const muml::Model& m) {
  return {{sset(m, {"ping"}), {}}, {{}, sset(m, {"pong"})}};
}

TEST(AdapterFaults, CrashInsideARunExhaustsTheRespawnBudget) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceCrash"));
  try {
    // Every process dies at its 2nd step; each retry starts from reset.
    dev.run(fixtureTest(m), RunPhase::Target);
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Crash);
    EXPECT_NE(std::string(e.what()).find("respawn budget"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dev.respawns(), 2u);
}

TEST(AdapterFaults, HangInsideARunDiesAtTheScaledDeadline) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceHang"));
  (void)dev.currentStateName();  // spawned: only the run is timed
  const auto t0 = std::chrono::steady_clock::now();
  try {
    dev.run(fixtureTest(m), RunPhase::Target);
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Timeout);
    EXPECT_NE(std::string(e.what()).find("deadline of 1500 ms"),
              std::string::npos)
        << e.what();
  }
  const auto elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // deadline-ms 500 × (2 steps + 1), plus CI headroom; never retried.
  EXPECT_GE(elapsedMs, 1500.0 - 5.0);
  EXPECT_LT(elapsedMs, 1500.0 + 5000.0);
  EXPECT_EQ(dev.respawns(), 0u);
}

TEST(AdapterFaults, GarbageInsideARunIsAProtocolError) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceGarbage"));
  try {
    dev.run(fixtureTest(m), RunPhase::Target);
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Protocol);
    EXPECT_NE(std::string(e.what()).find("garbage"), std::string::npos);
  }
  EXPECT_EQ(dev.respawns(), 0u);
}

TEST(AdapterFaults, ExitAfterHandshakeFailsARunAsACrash) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy dev(cfgFor(m, "deviceExitEarly"));
  try {
    dev.run(fixtureTest(m), RunPhase::Target);
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Crash);
  }
  EXPECT_EQ(dev.respawns(), 1u);
}

/// A v2 adapter that answers its first `run` with `response` and then
/// reads until EOF.
mui::testing::SubprocessConfig answersRunWith(const muml::Model& watchdog,
                                              const std::string& response) {
  auto cfg = shellAdapter(watchdog,
                          "read l; echo '{\"ok\":true,\"version\":2}'; "
                          "read l; printf '%s\\n' \"$1\"; exec cat >/dev/null");
  cfg.args.push_back("sh");
  cfg.args.push_back(response);
  return cfg;
}

TEST(AdapterFaults, HostileRunResponsesAreProtocolErrors) {
  const muml::Model m =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  const Steps test = fixtureTest(m);  // expects "" then "pong"
  const struct {
    RunPhase phase;
    const char* response;
  } cases[] = {
      // more outputs than inputs
      {RunPhase::Target, R"({"ok":true,"outputs":["","pong",""]})"},
      // stops short with neither a refusal nor a divergence
      {RunPhase::Target, R"({"ok":true,"outputs":[""]})"},
      {RunPhase::Replay, R"({"ok":true,"outputs":[""],"states":["a","b"]})"},
      // a refusal after every step was accepted
      {RunPhase::Target, R"({"ok":true,"outputs":["","pong"],"refused":true})"},
      // outputs that go on past a divergence
      {RunPhase::Target, R"({"ok":true,"outputs":["pong","pong"]})"},
      {RunPhase::Target, R"({"ok":true,"outputs":["pong"],"refused":true})"},
      // a states count that is not outputs + 1
      {RunPhase::Replay,
       R"({"ok":true,"outputs":["","pong"],"states":["a","b"]})"},
      {RunPhase::Replay, R"({"ok":true,"outputs":["","pong"]})"},
      // entries that are not strings
      {RunPhase::Target, R"({"ok":true,"outputs":["",1]})"},
      {RunPhase::Target, R"({"ok":true,"outputs":"pong"})"},
      {RunPhase::Replay,
       R"({"ok":true,"outputs":["","pong"],"states":["a",2,"c"]})"},
      // undeclared output signals
      {RunPhase::Target, R"({"ok":true,"outputs":["","bogus"]})"},
      {RunPhase::Target, R"({"ok":true,"outputs":["","ping"]})"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.response);
    mui::testing::SubprocessLegacy dev(answersRunWith(m, c.response));
    try {
      dev.run(test, c.phase);
      ADD_FAILURE() << "expected AdapterFailure";
    } catch (const AdapterFailure& e) {
      EXPECT_EQ(e.kind(), AdapterFailure::Kind::Protocol) << e.what();
    }
    EXPECT_EQ(dev.respawns(), 0u);
  }
}

TEST(AdapterFaults, OversizedResponseFailsAtTheCapNotAtTheDeadline) {
  // A response line that never ends: the harness stops reading once the
  // line passes the cap of a two-step run, long before the 3-minute
  // deadline.
  const muml::Model m =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/watchdog.muml");
  auto cfg = shellAdapter(
      m, "read l; echo '{\"ok\":true,\"version\":2}'; read l; head -c " +
             std::to_string(mui::testing::responseCapBytes(2) + 4096) +
             " /dev/zero | tr '\\000' x; exec sleep 60");
  cfg.stepDeadlineMs = 60000;
  mui::testing::SubprocessLegacy dev(std::move(cfg));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    dev.run(fixtureTest(m), RunPhase::Target);
    FAIL() << "expected AdapterFailure";
  } catch (const AdapterFailure& e) {
    EXPECT_EQ(e.kind(), AdapterFailure::Kind::Protocol);
    EXPECT_NE(std::string(e.what()).find("longer than"), std::string::npos)
        << e.what();
  }
  const auto elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(elapsedMs, 20000.0);
  EXPECT_EQ(dev.pid(), -1);  // killed, not left writing
}

// ---------------------------------------------------------- differential

TEST(DifferentialConformance, DriverTestsAreTwoExchangesAndMatchInProcess) {
  // Random counterexample tests through CounterexampleTestDriver against
  // the C firmware and its in-process mirror: the same outcome, observed
  // runs, recorder logs and test periods, and two exchanges per test.
  const muml::Model m = loadBci();
  mui::testing::AutomatonLegacy ref(m.automata.at("firmwareRef"));
  auto cfg = cfgFor(m, "bciFirmware");
  cfg.name = ref.name();  // the recorders name the port after the legacy
  mui::testing::SubprocessLegacy ext(std::move(cfg));
  (void)ext.currentStateName();  // spawn and greet before counting
  mui::testing::CounterexampleTestDriver a(ext, *m.signals);
  mui::testing::CounterexampleTestDriver b(ref, *m.signals);
  const automata::SignalSet ins[] = {{}, sset(m, {"hello"}), sset(m, {"cmd"})};
  const automata::SignalSet outs[] = {{}, sset(m, {"ack"}), sset(m, {"done"})};
  std::mt19937_64 rng(0x2B2Bu);
  std::size_t kinds[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    // Tests that follow the mirror for a random prefix, then guess.
    Steps test;
    mui::testing::AutomatonLegacy guide(m.automata.at("firmwareRef"));
    const std::size_t length = rng() % 9;
    const std::size_t follow = rng() % (length + 1);
    for (std::size_t k = 0; k < length; ++k) {
      const automata::SignalSet in = ins[rng() % 3];
      const auto out = guide.step(in);
      test.push_back({in, k < follow && out ? *out : outs[rng() % 3]});
    }
    const std::uint64_t before = exchanges();
    const auto x = a.execute(test);
    ASSERT_EQ(exchanges() - before, 2u) << "test " << i;
    const auto y = b.execute(test);
    ASSERT_EQ(x.kind, y.kind) << "test " << i;
    EXPECT_EQ(x.executedSteps, y.executedSteps);
    EXPECT_EQ(x.observed.stateNames, y.observed.stateNames);
    EXPECT_EQ(x.observed.labels, y.observed.labels);
    EXPECT_EQ(x.observed.blocked, y.observed.blocked);
    ASSERT_EQ(x.refusalRun.has_value(), y.refusalRun.has_value());
    if (x.refusalRun) {
      EXPECT_EQ(x.refusalRun->labels, y.refusalRun->labels);
    }
    EXPECT_EQ(x.targetLog.render(), y.targetLog.render());
    EXPECT_EQ(x.replayLog.render(), y.replayLog.render());
    ++kinds[static_cast<int>(x.kind)];
  }
  EXPECT_EQ(a.periodsDriven(), b.periodsDriven());
  EXPECT_GT(kinds[0], 0u);  // confirmed
  EXPECT_GT(kinds[1], 0u);  // diverged
  EXPECT_GT(kinds[2], 0u);  // blocked
  EXPECT_EQ(ext.respawns(), 0u);
}

TEST(DifferentialConformance, WatchdogAdapterMatchesInProcessLockstep) {
  const muml::Model m = loadFixture();
  mui::testing::SubprocessLegacy ext(cfgFor(m, "deviceOk"));
  mui::testing::AutomatonLegacy ref(automata::withInstanceName(
      m.automata.at("deviceImpl"), "device"));
  std::mt19937_64 rng(0xB1C1u);
  const automata::SignalSet ping = sset(m, {"ping"});
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 500; ++i) {
    if (rng() % 23 == 0) {
      ext.reset();
      ref.reset();
    }
    const automata::SignalSet in =
        (rng() % 2) ? ping : automata::SignalSet{};
    const auto a = ext.step(in);
    const auto b = ref.step(in);
    ASSERT_EQ(a.has_value(), b.has_value()) << "step " << i;
    if (a.has_value()) {
      ASSERT_TRUE(*a == *b) << "step " << i;
      ++accepted;
    } else {
      ++refused;
    }
    ASSERT_EQ(ext.currentStateName(), ref.currentStateName()) << "step " << i;
  }
  // The random walk must exercise both acceptance and refusal.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(ext.respawns(), 0u);
}

TEST(DifferentialConformance, BciFirmwareMatchesTheMirrorLockstep) {
  const muml::Model m = loadBci();
  mui::testing::SubprocessLegacy ext(cfgFor(m, "bciFirmware"));
  mui::testing::AutomatonLegacy ref(m.automata.at("firmwareRef"));
  std::mt19937_64 rng(0xF1F1u);
  const automata::SignalSet hello = sset(m, {"hello"});
  const automata::SignalSet cmd = sset(m, {"cmd"});
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 600; ++i) {
    if (rng() % 31 == 0) {
      ext.reset();
      ref.reset();
    }
    automata::SignalSet in;
    if (rng() % 2) in |= hello;
    if (rng() % 2) in |= cmd;
    const auto a = ext.step(in);
    const auto b = ref.step(in);
    ASSERT_EQ(a.has_value(), b.has_value()) << "step " << i;
    if (a.has_value()) {
      ASSERT_TRUE(*a == *b) << "step " << i;
      ++accepted;
    } else {
      ++refused;
    }
    ASSERT_EQ(ext.currentStateName(), ref.currentStateName()) << "step " << i;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(DifferentialConformance, IntegrationVerdictsAndIterationsMatch) {
  // Watchdog: deviceImpl in-process vs the same automaton out-of-process.
  {
    const muml::Model m = loadFixture();
    const RunStats a = runScenario(m, "Watchdog", "device", "deviceImpl");
    const RunStats b = runScenario(m, "Watchdog", "device", "deviceOk");
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.testPeriods, b.testPeriods);
    EXPECT_EQ(a.learnedFacts, b.learnedFacts);
    EXPECT_EQ(a.verdict, synthesis::Verdict::ProvenCorrect);
  }
  // Bci: the mirror automaton vs the hand-written C firmware shim.
  {
    const muml::Model m = loadBci();
    const RunStats a = runScenario(m, "BciSession", "firmware", "firmwareRef");
    const RunStats b = runScenario(m, "BciSession", "firmware", "bciFirmware");
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.testPeriods, b.testPeriods);
    EXPECT_EQ(a.learnedFacts, b.learnedFacts);
    EXPECT_EQ(a.verdict, synthesis::Verdict::ProvenCorrect);
  }
}

// ---------------------------------------------------------------- golden

TEST(GoldenAdapter, BciFirmwareProvenInFiveIterations) {
  const muml::Model m = loadBci();
  const RunStats g = runScenario(m, "BciSession", "firmware", "bciFirmware");
  EXPECT_EQ(g.verdict, synthesis::Verdict::ProvenCorrect);
  EXPECT_EQ(g.iterations, 5u);
  EXPECT_EQ(g.testPeriods, 40u);
  EXPECT_EQ(g.learnedFacts, 11u);
}

// ------------------------------------------------------------- containment

TEST(VerifierContainment, HangYieldsTheDistinctAdapterFailureVerdict) {
  const muml::Model m = loadFixture();
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats g = runScenario(m, "Watchdog", "device", "deviceHang");
  const auto elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_EQ(g.verdict, synthesis::Verdict::AdapterFailure);
  EXPECT_NE(g.explanation.find("deadline"), std::string::npos)
      << g.explanation;
  EXPECT_LT(elapsedMs, 20000.0);
}

TEST(VerifierContainment, CrashYieldsAdapterFailureAndCountsRespawns) {
  const auto respawnsBefore =
      obs::Registry::global()
          .counter("mui_adapter_respawns_total",
                   "Adapter crash recoveries (respawn + accepted-step-log "
                   "replay)")
          .value();
  const muml::Model m = loadFixture();
  const RunStats g = runScenario(m, "Watchdog", "device", "deviceCrash");
  EXPECT_EQ(g.verdict, synthesis::Verdict::AdapterFailure);
  EXPECT_NE(g.explanation.find("respawn budget"), std::string::npos)
      << g.explanation;
  const auto respawnsAfter =
      obs::Registry::global()
          .counter("mui_adapter_respawns_total",
                   "Adapter crash recoveries (respawn + accepted-step-log "
                   "replay)")
          .value();
  EXPECT_GE(respawnsAfter, respawnsBefore + 2);
}

// ------------------------------------------------------------- engine/serve

TEST(EngineAdapter, StatusNameRoundTrips) {
  EXPECT_STREQ(engine::jobStatusName(engine::JobStatus::AdapterFailure),
               "adapter-failure");
  const auto parsed = engine::jobStatusFromName("adapter-failure");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, engine::JobStatus::AdapterFailure);
}

TEST(EngineAdapter, BatchRunsExternalJobsAndNeverCachesThem) {
  obs::Journal journal;
  engine::BatchOptions options;
  options.threads = 2;
  options.journal = &journal;
  const std::vector<engine::Job> jobs = {
      externalJob("bci-fw", kBciModel, "BciSession", "firmware",
                  "bciFirmware"),
      externalJob("bci-fw-again", kBciModel, "BciSession", "firmware",
                  "bciFirmware"),
      externalJob("bci-ref", kBciModel, "BciSession", "firmware",
                  "firmwareRef"),
  };
  const engine::BatchReport report = engine::runBatch(jobs, options);
  ASSERT_EQ(report.results.size(), 3u);
  for (const auto& r : report.results) {
    EXPECT_EQ(r.status, engine::JobStatus::Proven) << r.job.name << ": "
                                                   << r.explanation;
  }
  // External jobs are never cached: the binary's content is not part of
  // the job key, so even the identical duplicate recomputes.
  EXPECT_FALSE(report.results[0].cacheHit);
  EXPECT_FALSE(report.results[1].cacheHit);
  // The adapter lifecycle is journaled and ULID-correlated with its job.
  const std::string ulid = report.results[0].job.ulid;
  ASSERT_FALSE(ulid.empty());
  bool sawCorrelatedSpawn = false;
  std::istringstream lines(journal.text());
  std::string line;
  while (std::getline(lines, line)) {
    const auto obj = util::json::parse(line);
    if (!obj || obj->str("type") != "adapter") continue;
    if (obj->str("event") == "spawn" && obj->str("ulid") == ulid) {
      sawCorrelatedSpawn = true;
    }
  }
  EXPECT_TRUE(sawCorrelatedSpawn);
}

TEST(EngineAdapter, HangSurfacesAsAdapterFailureStatus) {
  engine::BatchOptions options;
  const std::vector<engine::Job> jobs = {
      externalJob("hang", kFixture, "Watchdog", "device", "deviceHang")};
  const engine::BatchReport report = engine::runBatch(jobs, options);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, engine::JobStatus::AdapterFailure);
  EXPECT_NE(report.results[0].explanation.find("deadline"),
            std::string::npos);
  EXPECT_EQ(report.count(engine::JobStatus::AdapterFailure), 1u);
}

TEST(EngineAdapter, JobDeadlineEndsAHungExchangeAsATimeout) {
  // deviceHang stops answering inside a run, whose own deadline is
  // 500 ms × (steps + 1). The job's 100 ms deadline comes first: the
  // adapter is killed then, and the job is a timeout, not an adapter
  // failure.
  engine::Job job =
      externalJob("hang", kFixture, "Watchdog", "device", "deviceHang");
  job.timeoutMs = 100;
  const auto timeouts = [] {
    return obs::Registry::global()
        .counter("mui_adapter_timeouts_total", "")
        .value();
  };
  const std::uint64_t timeoutsBefore = timeouts();
  engine::TextCache texts;
  engine::ResultCache cache;
  const engine::JobResult r = engine::runJob(job, texts, cache, {});
  EXPECT_EQ(r.status, engine::JobStatus::Timeout) << r.explanation;
  EXPECT_EQ(r.explanation, "deadline of 100 ms exceeded");
  EXPECT_LT(r.wallMs, 500.0);
  EXPECT_EQ(timeouts(), timeoutsBefore);
}

TEST(EngineAdapter, ExternalIsBoundToTheRoleInstanceLikeInProcess) {
  // The lingering device violates only the device role invariant, whose
  // atoms name the role instance: an external bound to its clause name
  // would leave them unknown and prove the integration.
  engine::TextCache texts;
  engine::ResultCache cache;
  obs::Journal journal;
  engine::RunnerOptions options;
  options.journal = &journal;
  for (const char* hidden : {"deviceLingering", "deviceLingeringExt"}) {
    const engine::JobResult r = engine::runJob(
        externalJob(hidden, kFixture, "WatchdogInvariant", "device", hidden),
        texts, cache, options);
    EXPECT_EQ(r.status, engine::JobStatus::RealError)
        << hidden << ": " << r.explanation;
  }
  // Adapter lifecycle events name the component by its role instance too.
  std::size_t adapterEvents = 0;
  std::istringstream lines(journal.text());
  std::string line;
  while (std::getline(lines, line)) {
    const auto obj = util::json::parse(line);
    if (!obj || obj->str("type") != "adapter") continue;
    ++adapterEvents;
    EXPECT_EQ(obj->str("adapter"), "device") << line;
  }
  EXPECT_GT(adapterEvents, 0u);
}

TEST(EngineAdapter, MissingAdapterBinaryIsAdapterFailureNotEngineError) {
  // Spawn-time failures (exec of a nonexistent binary) carry the same
  // distinct status as in-loop containment aborts.
  const auto dir = testDir("missing");
  std::ofstream(dir / "m.muml")
      << "rtsc monitorRole { output ping; input pong; clock c;\n"
         "  location idle invariant c <= 3; location waiting invariant c <= "
         "2;\n"
         "  location escalated; initial idle;\n"
         "  idle -> waiting : emit ping reset c;\n"
         "  waiting -> idle : trigger pong reset c;\n"
         "  waiting -> escalated : guard c >= 2;\n"
         "  escalated -> escalated : ; }\n"
         "rtsc deviceRole { input ping; output pong; clock d;\n"
         "  location ready; location serving invariant d <= 0;\n"
         "  initial ready;\n"
         "  ready -> serving : trigger ping reset d;\n"
         "  serving -> ready : emit pong; }\n"
         "pattern Watchdog { role monitor uses monitorRole;\n"
         "  role device uses deviceRole; connector direct;\n"
         "  constraint \"AG !monitor.escalated\"; }\n"
         "legacy dev external \"./vanished\" { input ping; output pong; }\n";
  // The binary exists at resolution time but exec fails at spawn time: a
  // script with a broken interpreter line.
  std::ofstream(dir / "vanished") << "#!/no/such/interpreter\n";
  std::filesystem::permissions(dir / "vanished",
                               std::filesystem::perms::owner_all);
  const std::vector<engine::Job> jobs = {externalJob(
      "spawnfail", (dir / "m.muml").string(), "Watchdog", "device", "dev")};
  const engine::BatchReport report = engine::runBatch(jobs, {});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, engine::JobStatus::AdapterFailure)
      << report.results[0].explanation;
}

TEST(ServeAdapter, DaemonAcceptsJobsAgainstExternalAdapters) {
  serve::ServeOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.threads = 2;
  options.version = "test";
  serve::Server server(options);
  server.start();

  serve::SubmitOptions client;
  client.port = server.port();
  client.clientName = "gtest-adapter";
  const std::vector<engine::Job> jobs = {
      externalJob("bci-fw", kBciModel, "BciSession", "firmware",
                  "bciFirmware"),
      externalJob("hang", kFixture, "Watchdog", "device", "deviceHang"),
  };
  const serve::SubmitOutcome outcome = serve::submitJobs(jobs, client);
  ASSERT_EQ(outcome.report.results.size(), 2u);
  EXPECT_EQ(outcome.report.results[0].status, engine::JobStatus::Proven)
      << outcome.report.results[0].explanation;
  EXPECT_EQ(outcome.report.results[1].status,
            engine::JobStatus::AdapterFailure)
      << outcome.report.results[1].explanation;

  server.requestDrain();
  server.wait();
}

}  // namespace

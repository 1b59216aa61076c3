#include "testing/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "muml/external.hpp"
#include "muml/integration.hpp"
#include "muml/model.hpp"
#include "obs/metrics.hpp"
namespace mui::testing {

namespace {

using Clock = std::chrono::steady_clock;

// A dying adapter closes its stdin pipe; the next write must come back as
// EPIPE (handled as a crash), not as a process-killing SIGPIPE.
void ignoreSigpipeOnce() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

obs::Counter& spawnsCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_adapter_spawns_total", "Adapter subprocesses spawned");
  return c;
}

obs::Counter& crashesCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_adapter_crashes_total",
      "Adapter subprocesses that died unexpectedly (EOF/EPIPE mid-protocol)");
  return c;
}

obs::Counter& timeoutsCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_adapter_timeouts_total",
      "Adapter exchanges killed by the per-step deadline");
  return c;
}

obs::Counter& respawnsCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_adapter_respawns_total",
      "Adapter crash recoveries (respawn + accepted-step-log replay)");
  return c;
}

std::string truncated(std::string_view line) {
  constexpr std::size_t kMax = 160;
  std::string s(line.substr(0, kMax));
  if (line.size() > kMax) s += "...";
  return s;
}

enum class ReadResult { Data, Eof, Timeout, Error };

/// Waits until `deadline` for output on `fd` and appends one chunk of it to
/// `buf`. On Error, errno says why.
ReadResult readSome(int fd, std::string& buf, Clock::time_point deadline) {
  while (true) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now());
    if (remaining.count() <= 0) return ReadResult::Timeout;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc == 0 || (rc < 0 && errno == EINTR)) continue;
    if (rc < 0) return ReadResult::Error;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ReadResult::Error;
    if (n == 0) return ReadResult::Eof;
    buf.append(chunk, static_cast<std::size_t>(n));
    return ReadResult::Data;
  }
}

/// One request line: `{"cmd":"<cmd>"}` plus a step's encoded inputs.
std::string request(const char* cmd,
                    std::optional<std::string_view> inputs = std::nullopt) {
  util::json::Object o;
  o.s("cmd", cmd);
  if (inputs) o.s("inputs", *inputs);
  return o.str() + "\n";
}

}  // namespace

std::string encodeSignals(const SignalSet& set,
                          const automata::SignalTable& table) {
  std::string out;
  set.forEach([&](std::size_t bit) {
    if (!out.empty()) out += ' ';
    out += table.name(static_cast<util::NameId>(bit));
  });
  return out;
}

std::optional<SignalSet> decodeSignals(std::string_view text,
                                       const automata::SignalTable& table,
                                       std::string& unknown) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  SignalSet set;
  std::size_t i = text.find_first_not_of(kSpace);
  while (i != std::string_view::npos) {
    const std::size_t end =
        std::min(text.find_first_of(kSpace, i), text.size());
    const std::string_view name = text.substr(i, end - i);
    const auto id = table.lookup(name);
    if (!id) {
      unknown = std::string(name);
      return std::nullopt;
    }
    set.set(*id);
    i = text.find_first_not_of(kSpace, end);
  }
  return set;
}

const char* adapterFailureKindName(AdapterFailure::Kind kind) {
  switch (kind) {
    case AdapterFailure::Kind::Spawn:
      return "spawn";
    case AdapterFailure::Kind::Crash:
      return "crash";
    case AdapterFailure::Kind::Timeout:
      return "timeout";
    case AdapterFailure::Kind::Protocol:
      return "protocol";
    case AdapterFailure::Kind::Replay:
      return "replay";
  }
  return "?";
}

SubprocessLegacy::SubprocessLegacy(SubprocessConfig config)
    : config_(std::move(config)) {
  if (config_.binary.empty()) {
    throw std::invalid_argument("SubprocessLegacy: empty adapter binary path");
  }
  if (!config_.signals) {
    throw std::invalid_argument("SubprocessLegacy: no signal table");
  }
  if (config_.name.empty()) config_.name = config_.binary;
  ignoreSigpipeOnce();
}

SubprocessLegacy::~SubprocessLegacy() {
  if (pid_ < 0) return;
  // Polite shutdown: quit + stdin EOF, then wait up to kQuitGraceMs for the
  // adapter to exit (EOF on its stdout). One still running then — hung, or
  // ignoring quit — is SIGKILLed; either way it is reaped.
  const std::string quit = request("quit");
  (void)!::write(toChild_, quit.data(), quit.size());
  ::close(toChild_);
  toChild_ = -1;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(kQuitGraceMs);
  ReadResult r;
  do {
    r = readSome(fromChild_, readBuf_, deadline);
  } while (r == ReadResult::Data);
  if (r == ReadResult::Eof && ::waitpid(pid_, nullptr, WNOHANG) == pid_) {
    pid_ = -1;
  }
  killProcess();  // SIGKILLs and reaps a child still there; closes stdout
  journalEvent("exit");
}

void SubprocessLegacy::journalEvent(const char* event,
                                    const char* detail) const {
  if (config_.journal == nullptr) return;
  util::json::Object fields;
  fields.s("adapter", config_.name);
  if (!config_.ulid.empty()) fields.s("ulid", config_.ulid);
  fields.s("event", event);
  if (pid_ >= 0) fields.i("pid", pid_);
  if (detail != nullptr) fields.s("detail", detail);
  config_.journal->event("adapter", fields);
}

void SubprocessLegacy::spawnProcess() {
  int inPipe[2];   // harness -> child stdin
  int outPipe[2];  // child stdout -> harness
  if (::pipe(inPipe) != 0) {
    throw AdapterFailure(AdapterFailure::Kind::Spawn,
                         "adapter '" + config_.name +
                             "': pipe() failed: " + std::strerror(errno));
  }
  if (::pipe(outPipe) != 0) {
    ::close(inPipe[0]);
    ::close(inPipe[1]);
    throw AdapterFailure(AdapterFailure::Kind::Spawn,
                         "adapter '" + config_.name +
                             "': pipe() failed: " + std::strerror(errno));
  }
  // argv is built before fork: the child of a threaded harness may only
  // call async-signal-safe functions.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(config_.binary.c_str()));
  for (const auto& a : config_.args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t harness = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {inPipe[0], inPipe[1], outPipe[0], outPipe[1]}) {
      ::close(fd);
    }
    throw AdapterFailure(AdapterFailure::Kind::Spawn,
                         "adapter '" + config_.name +
                             "': fork() failed: " + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: die with the harness. A SIGKILLed harness runs no destructor,
    // and an adapter hung mid-step would otherwise outlive it. The signal
    // fires when the forking *thread* exits, which is never before the
    // SubprocessLegacy that owns this child: every legacy is created,
    // stepped (respawns included) and destroyed on the thread of its job.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != harness) ::_exit(127);  // the harness died already
    // Wire the pipes to stdio and drop every other inherited fd, however
    // high (the serve daemon's sockets must not leak into adapters).
    ::dup2(inPipe[0], STDIN_FILENO);
    ::dup2(outPipe[1], STDOUT_FILENO);
    ::close_range(3, ~0U, 0);
    ::execv(config_.binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(inPipe[0]);
  ::close(outPipe[1]);
  pid_ = pid;
  toChild_ = inPipe[1];
  fromChild_ = outPipe[0];
  readBuf_.clear();
  spawnsCounter().inc();
  journalEvent("spawn");
}

void SubprocessLegacy::killProcess() {
  if (pid_ >= 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (toChild_ >= 0) ::close(toChild_);
  if (fromChild_ >= 0) ::close(fromChild_);
  toChild_ = -1;
  fromChild_ = -1;
  readBuf_.clear();
}

void SubprocessLegacy::reapProcess() {
  if (pid_ >= 0) {
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (toChild_ >= 0) ::close(toChild_);
  if (fromChild_ >= 0) ::close(fromChild_);
  toChild_ = -1;
  fromChild_ = -1;
  readBuf_.clear();
}

util::json::Value SubprocessLegacy::exchangeChecked(const std::string& line) {
  // Write the request. EPIPE means the child died under us.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(toChild_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      reapProcess();
      throw AdapterFailure(AdapterFailure::Kind::Crash,
                           "adapter '" + config_.name +
                               "' died (write failed: " +
                               std::strerror(errno) + ")");
    }
    off += static_cast<std::size_t>(n);
  }

  // Read one response line under the deadline.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.stepDeadlineMs);
  std::string response;
  while (true) {
    const std::size_t nl = readBuf_.find('\n');
    if (nl != std::string::npos) {
      response = readBuf_.substr(0, nl);
      readBuf_.erase(0, nl + 1);
      break;
    }
    switch (readSome(fromChild_, readBuf_, deadline)) {
      case ReadResult::Data:
        continue;
      case ReadResult::Timeout:
        timeoutsCounter().inc();
        journalEvent("timeout");
        killProcess();
        throw AdapterFailure(
            AdapterFailure::Kind::Timeout,
            "adapter '" + config_.name + "' exceeded the step deadline of " +
                std::to_string(config_.stepDeadlineMs) + " ms (killed)");
      case ReadResult::Eof:
        reapProcess();
        throw AdapterFailure(AdapterFailure::Kind::Crash,
                             "adapter '" + config_.name +
                                 "' died (EOF before a response)");
      case ReadResult::Error: {
        const std::string why = std::strerror(errno);
        reapProcess();
        throw AdapterFailure(AdapterFailure::Kind::Crash,
                             "adapter '" + config_.name +
                                 "': reading its output failed: " + why);
      }
    }
  }

  std::string why;
  auto parsed = util::json::parse(response, &why);
  if (!parsed || parsed->kind != util::json::Value::Kind::Object) {
    throw AdapterFailure(AdapterFailure::Kind::Protocol,
                         "adapter '" + config_.name + "' answered garbage (" +
                             (why.empty() ? "not a JSON object" : why) +
                             "): " + truncated(response));
  }
  if (parsed->flag("ok") != true) {
    std::string what = "adapter '" + config_.name + "' reported an error";
    if (const auto err = parsed->str("error")) {
      what += ": " + std::string(*err);
    }
    throw AdapterFailure(AdapterFailure::Kind::Protocol, what);
  }
  return std::move(*parsed);
}

void SubprocessLegacy::handshake() {
  util::json::Value hello;
  try {
    hello = exchangeChecked(request("hello"));
  } catch (const AdapterFailure& e) {
    if (e.kind() != AdapterFailure::Kind::Crash) throw;
    // A binary that exits before greeting never started as an adapter —
    // that is a spawn failure, not a crash worth a respawn.
    throw AdapterFailure(AdapterFailure::Kind::Spawn,
                         "adapter '" + config_.name +
                             "' failed to start: " + e.what());
  }
  // The adapter's self-described interface must match the declared one —
  // integrating against the wrong binary should fail in the handshake, not
  // as a confusing refusal pattern deep inside the loop.
  const auto checkSide = [&](const char* key, const SignalSet& declared) {
    const auto text = hello.str(key);
    if (!text) return;  // self-description is optional
    std::string unknown;
    const auto reported = decodeSignals(*text, *config_.signals, unknown);
    if (!reported) {
      throw AdapterFailure(AdapterFailure::Kind::Protocol,
                           "adapter '" + config_.name + "' declares " +
                               std::string(key) + " signal '" + unknown +
                               "' which is not in the model's alphabet");
    }
    if (!(*reported == declared)) {
      throw AdapterFailure(
          AdapterFailure::Kind::Protocol,
          "adapter '" + config_.name + "' declares " + std::string(key) +
              " {" + encodeSignals(*reported, *config_.signals) +
              "} but the model declares {" +
              encodeSignals(declared, *config_.signals) + "}");
    }
  };
  checkSide("inputs", config_.inputs);
  checkSide("outputs", config_.outputs);
}

void SubprocessLegacy::replayLog() {
  // Sound by input-determinism (paper Sec. 3): the accepted-step log is a
  // function of the inputs only, so a fresh process fed the same inputs
  // lands in the same hidden state. Divergence disproves the premise.
  for (const LoggedStep& step : log_) {
    const util::json::Value resp = exchangeChecked(
        request("step", encodeSignals(step.inputs, *config_.signals)));
    if (resp.flag("refused") == true) {
      throw AdapterFailure(AdapterFailure::Kind::Replay,
                           "adapter '" + config_.name +
                               "' refused a previously accepted step during "
                               "replay — not input-deterministic");
    }
    const SignalSet produced = parseOutputs(resp);
    if (!(produced == step.outputs)) {
      throw AdapterFailure(AdapterFailure::Kind::Replay,
                           "adapter '" + config_.name +
                               "' produced {" +
                               encodeSignals(produced, *config_.signals) +
                               "} instead of {" +
                               encodeSignals(step.outputs, *config_.signals) +
                               "} during replay — not input-deterministic");
    }
  }
}

void SubprocessLegacy::ensureProcess() {
  if (pid_ >= 0) return;
  spawnProcess();
  handshake();
  replayLog();
}

util::json::Value SubprocessLegacy::command(const std::string& line) {
  while (true) {
    try {
      ensureProcess();
      return exchangeChecked(line);
    } catch (const AdapterFailure& e) {
      if (e.kind() != AdapterFailure::Kind::Crash) throw;
      crashesCounter().inc();
      journalEvent("crash", e.what());
      if (respawnsUsed_ >= config_.maxRespawns) {
        throw AdapterFailure(
            AdapterFailure::Kind::Crash,
            std::string(e.what()) + "; respawn budget of " +
                std::to_string(config_.maxRespawns) + " exhausted");
      }
      ++respawnsUsed_;
      respawnsCounter().inc();
      journalEvent("respawn");
      // Loop: ensureProcess() respawns and replays the accepted-step log,
      // then the pending command is retried.
    }
  }
}

void SubprocessLegacy::reset() {
  log_.clear();
  if (pid_ < 0) return;  // a lazily spawned fresh process starts reset
  command(request("reset"));
}

std::optional<SignalSet> SubprocessLegacy::step(const SignalSet& inputs) {
  const util::json::Value resp =
      command(request("step", encodeSignals(inputs, *config_.signals)));
  if (resp.flag("refused") == true) {
    return std::nullopt;  // refusals do not advance state: nothing to log
  }
  SignalSet produced = parseOutputs(resp);
  log_.push_back({inputs, produced});
  return produced;
}

std::string SubprocessLegacy::currentStateName() const {
  auto* self = const_cast<SubprocessLegacy*>(this);
  const util::json::Value resp = self->command(request("probe"));
  const auto state = resp.str("state");
  if (!state) {
    throw AdapterFailure(AdapterFailure::Kind::Protocol,
                         "adapter '" + config_.name +
                             "' answered a probe without a \"state\" string");
  }
  return std::string(*state);
}

const SignalSet& SubprocessLegacy::inputs() const { return config_.inputs; }

const SignalSet& SubprocessLegacy::outputs() const { return config_.outputs; }

std::string SubprocessLegacy::name() const { return config_.name; }

std::unique_ptr<LegacyComponent> SubprocessLegacy::clone() const {
  // A clone is a fresh process with the same accepted-step log: it lazily
  // spawns and replays into the current hidden state on first use (sound by
  // input-determinism, same argument as crash recovery).
  auto copy = std::make_unique<SubprocessLegacy>(config_);
  copy->log_ = log_;
  return copy;
}

SignalSet SubprocessLegacy::parseOutputs(const util::json::Value& resp) const {
  std::string unknown;
  const auto produced =
      decodeSignals(resp.str("outputs").value_or(""), *config_.signals,
                    unknown);
  if (produced && !produced->isSubsetOf(config_.outputs)) {
    unknown = config_.signals->name(
        static_cast<util::NameId>((*produced - config_.outputs).lowest()));
  }
  if (!produced || !unknown.empty()) {
    throw AdapterFailure(AdapterFailure::Kind::Protocol,
                         "adapter '" + config_.name +
                             "' produced undeclared output signal '" +
                             unknown + "'");
  }
  return *produced;
}

SubprocessConfig configFromExternal(const muml::Model& model,
                                    const muml::ExternalLegacy& ext,
                                    const std::string& instance) {
  SubprocessConfig cfg;
  cfg.binary = muml::resolveExternalBinary(ext, model.source);
  cfg.name = instance.empty() ? ext.name : instance;
  cfg.signals = model.signals;
  cfg.inputs = ext.inputs;
  cfg.outputs = ext.outputs;
  if (ext.stepDeadlineMs != 0) cfg.stepDeadlineMs = ext.stepDeadlineMs;
  if (ext.maxRespawns != muml::ExternalLegacy::kDefaultRespawns) {
    cfg.maxRespawns = ext.maxRespawns;
  }
  const std::string modelPath = [&] {
    const auto it = model.source.externals.find(ext.name);
    return it != model.source.externals.end() ? it->second.file
                                              : std::string();
  }();
  for (const auto& arg : ext.args) {
    cfg.args.push_back(arg == "%model%" ? modelPath : arg);
  }
  return cfg;
}

std::unique_ptr<LegacyComponent> makeLegacy(const muml::Model& model,
                                            muml::LegacyBinding legacy,
                                            obs::Journal* journal,
                                            std::string ulid) {
  if (legacy.external == nullptr) {
    return std::make_unique<AutomatonLegacy>(std::move(*legacy.hidden));
  }
  SubprocessConfig cfg =
      configFromExternal(model, *legacy.external, legacy.instance);
  cfg.journal = journal;
  cfg.ulid = std::move(ulid);
  return std::make_unique<SubprocessLegacy>(std::move(cfg));
}

}  // namespace mui::testing

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
#include <climits>
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

obs::Counter& exchangesCounter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "mui_adapter_exchanges_total",
      "Adapter request lines written that expect an answer (hello, run, "
      "step, probe, reset; not quit)");
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
    // Rounded up, so the wait never ends before the deadline.
    const auto remaining =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) return ReadResult::Timeout;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<std::int64_t>(remaining.count(), INT_MAX)));
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

/// One `run` request line: the steps' inputs, and in the Target phase
/// their expected outputs, as arrays of encoded signal sets; the Replay
/// phase asks for the states instead.
std::string runRequest(std::span<const automata::Interaction> steps,
                       RunPhase phase, const automata::SignalTable& table) {
  const auto array = [&](SignalSet automata::Interaction::*side) {
    std::string out = "[";
    for (const automata::Interaction& step : steps) {
      if (out.size() > 1) out += ',';
      out += util::json::quote(encodeSignals(step.*side, table));
    }
    return out + "]";
  };
  util::json::Object o;
  o.s("cmd", "run").raw("inputs", array(&automata::Interaction::in));
  if (phase == RunPhase::Target) {
    o.raw("expect", array(&automata::Interaction::out));
  } else {
    o.b("probe", true);
  }
  return o.str() + "\n";
}

/// The items of member `key` of `response` if it is an array of strings,
/// else nullptr.
const std::vector<util::json::Value>* stringArray(
    const util::json::Value& response, std::string_view key) {
  const util::json::Value* array = response.find(key);
  if (array == nullptr || array->kind != util::json::Value::Kind::Array) {
    return nullptr;
  }
  for (const util::json::Value& item : array->items) {
    if (item.kind != util::json::Value::Kind::String) return nullptr;
  }
  return &array->items;
}

}  // namespace

Clock::time_point deadlineAfter(Clock::time_point from, std::uint64_t ms) {
  constexpr std::uint64_t kCenturyMs = 100ULL * 365 * 24 * 3600 * 1000;
  if (ms >= kCenturyMs) return Clock::time_point::max();
  return from + std::chrono::milliseconds(ms);
}

std::uint64_t runDeadlineMs(std::uint64_t stepDeadlineMs, std::size_t steps) {
  std::uint64_t ms = 0;
  if (steps == SIZE_MAX ||
      __builtin_mul_overflow(stepDeadlineMs,
                             static_cast<std::uint64_t>(steps) + 1, &ms)) {
    return UINT64_MAX;
  }
  return ms;
}

std::size_t responseCapBytes(std::size_t steps) {
  constexpr std::size_t kEnvelopeBytes = std::size_t{1} << 20;
  constexpr std::size_t kStepBytes = std::size_t{16} << 10;
  return kEnvelopeBytes + steps * kStepBytes;
}

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
  // The adapter starts with the default signal state. Both an ignored
  // disposition and the mask survive execv: the harness ignores SIGPIPE
  // (ignoreSigpipeOnce), and a serve worker runs with SIGINT and SIGTERM
  // blocked for the daemon's sigwait.
  sigset_t noSignals;
  ::sigemptyset(&noSignals);
  struct sigaction defaultAction {};
  defaultAction.sa_handler = SIG_DFL;
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
    ::sigaction(SIGPIPE, &defaultAction, nullptr);
    ::sigprocmask(SIG_SETMASK, &noSignals, nullptr);
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

util::json::Value SubprocessLegacy::exchangeChecked(const std::string& line,
                                                    std::size_t runSteps) {
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
  exchangesCounter().inc();

  // Read one response line under the exchange's deadline or the job's,
  // whichever comes first, at most `cap` bytes long: the line is refused as
  // soon as it passes the cap, not at the deadline.
  const std::uint64_t deadlineMs =
      runDeadlineMs(config_.stepDeadlineMs, runSteps);
  const auto exchangeDeadline = deadlineAfter(Clock::now(), deadlineMs);
  const bool jobFirst = config_.jobDeadline < exchangeDeadline;
  const auto deadline = jobFirst ? config_.jobDeadline : exchangeDeadline;
  const std::size_t cap = responseCapBytes(runSteps);
  std::string response;
  std::size_t scanned = 0;
  while (true) {
    const std::size_t nl = readBuf_.find('\n', scanned);
    if (std::min(nl, readBuf_.size()) > cap) {
      killProcess();
      throw AdapterFailure(AdapterFailure::Kind::Protocol,
                           "adapter '" + config_.name +
                               "' sent a response line longer than " +
                               std::to_string(cap) + " bytes (killed)");
    }
    if (nl != std::string::npos) {
      response = readBuf_.substr(0, nl);
      readBuf_.erase(0, nl + 1);
      break;
    }
    scanned = readBuf_.size();
    switch (readSome(fromChild_, readBuf_, deadline)) {
      case ReadResult::Data:
        continue;
      case ReadResult::Timeout:
        if (jobFirst) {
          killProcess();
          throw JobDeadlineExceeded("adapter '" + config_.name +
                                    "' killed at the job's deadline");
        }
        timeoutsCounter().inc();
        journalEvent("timeout");
        killProcess();
        throw AdapterFailure(
            AdapterFailure::Kind::Timeout,
            "adapter '" + config_.name + "' exceeded the deadline of " +
                std::to_string(deadlineMs) + " ms" +
                (runSteps > 0
                     ? " for a run of " + std::to_string(runSteps) + " steps"
                     : std::string()) +
                " (killed)");
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
  version_ = hello.u64("version").value_or(1);
}

void SubprocessLegacy::replayLog() {
  // Sound by input-determinism (paper Sec. 3): the accepted-step log is a
  // function of the inputs only, so a fresh process fed the same inputs
  // lands in the same hidden state. Divergence disproves the premise. A v2
  // adapter replays the log as one run that expects the logged outputs.
  const auto diverged = [&](std::size_t k, const std::string& got) {
    return AdapterFailure(
        AdapterFailure::Kind::Replay,
        "adapter '" + config_.name + "' " + got + " instead of {" +
            encodeSignals(log_[k].out, *config_.signals) + "} at step " +
            std::to_string(k + 1) +
            " of its replay — not input-deterministic");
  };
  if (version_ >= 2 && !log_.empty()) {
    const RunResult r = runExchange(log_, RunPhase::Target);
    for (std::size_t k = 0; k < log_.size(); ++k) {
      if (k == r.outputs.size()) throw diverged(k, "refused the step");
      if (!(r.outputs[k] == log_[k].out)) {
        throw diverged(k, "produced {" +
                              encodeSignals(r.outputs[k], *config_.signals) +
                              "}");
      }
    }
    return;
  }
  for (std::size_t k = 0; k < log_.size(); ++k) {
    const util::json::Value resp = exchangeChecked(
        request("step", encodeSignals(log_[k].in, *config_.signals)));
    if (resp.flag("refused") == true) throw diverged(k, "refused the step");
    const SignalSet produced = decodeOutputs(resp.str("outputs").value_or(""));
    if (!(produced == log_[k].out)) {
      throw diverged(
          k, "produced {" + encodeSignals(produced, *config_.signals) + "}");
    }
  }
}

void SubprocessLegacy::ensureProcess() {
  if (pid_ >= 0) return;
  spawnProcess();
  handshake();
  replayLog();
}

template <typename F>
auto SubprocessLegacy::withRespawn(F&& exchange) -> decltype(exchange()) {
  while (true) {
    try {
      ensureProcess();
      return exchange();
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
      // then the pending exchange is retried.
    }
  }
}

util::json::Value SubprocessLegacy::command(const std::string& line) {
  return withRespawn([&] { return exchangeChecked(line); });
}

RunResult SubprocessLegacy::runExchange(
    std::span<const automata::Interaction> steps, RunPhase phase) {
  const util::json::Value resp = exchangeChecked(
      runRequest(steps, phase, *config_.signals), steps.size());
  const auto broken = [&](const std::string& why) {
    return AdapterFailure(AdapterFailure::Kind::Protocol,
                          "adapter '" + config_.name + "' answered a run of " +
                              std::to_string(steps.size()) + " steps " + why);
  };
  const auto* outputs = stringArray(resp, "outputs");
  if (outputs == nullptr) {
    throw broken("without an \"outputs\" array of strings");
  }
  if (outputs->size() > steps.size()) {
    throw broken("with " + std::to_string(outputs->size()) + " outputs");
  }
  RunResult r;
  r.refused = resp.flag("refused") == true;
  r.outputs.reserve(outputs->size());
  for (const util::json::Value& item : *outputs) {
    r.outputs.push_back(decodeOutputs(item.text));
  }
  // The stop rule: the adapter stops at the first refusal or, with
  // expected outputs, right after the first divergence.
  const std::size_t n = r.outputs.size();
  const bool target = phase == RunPhase::Target;
  for (std::size_t k = 0; target && k < n; ++k) {
    if (!(r.outputs[k] == steps[k].out) && (k + 1 < n || r.refused)) {
      throw broken("that goes on past its divergence at step " +
                   std::to_string(k + 1));
    }
  }
  const bool diverged =
      target && n > 0 && !(r.outputs[n - 1] == steps[n - 1].out);
  if (r.refused && n == steps.size()) {
    throw broken("with a refusal after every step was accepted");
  }
  if (!r.refused && !diverged && n < steps.size()) {
    throw broken("with " + std::to_string(n) +
                 " outputs and neither a refusal nor a divergence");
  }
  if (!target) {
    const auto* states = stringArray(resp, "states");
    if (states == nullptr || states->size() != n + 1) {
      throw broken("without a \"states\" array of " + std::to_string(n + 1) +
                   " strings");
    }
    r.states.reserve(n + 1);
    for (const util::json::Value& item : *states) r.states.push_back(item.text);
  }
  return r;
}

RunResult SubprocessLegacy::run(std::span<const automata::Interaction> steps,
                                RunPhase phase) {
  log_.clear();  // a run starts from reset: a respawn has nothing to replay
  std::optional<RunResult> r =
      withRespawn([&]() -> std::optional<RunResult> {
        if (version_ < 2) return std::nullopt;
        return runExchange(steps, phase);
      });
  if (!r) return LegacyComponent::run(steps, phase);  // a v1 adapter
  for (std::size_t k = 0; k < r->outputs.size(); ++k) {
    log_.push_back({steps[k].in, r->outputs[k]});
  }
  return std::move(*r);
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
  SignalSet produced = decodeOutputs(resp.str("outputs").value_or(""));
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

SignalSet SubprocessLegacy::decodeOutputs(std::string_view text) const {
  std::string unknown;
  const auto produced = decodeSignals(text, *config_.signals, unknown);
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

std::unique_ptr<LegacyComponent> makeLegacy(
    const muml::Model& model, muml::LegacyBinding legacy,
    obs::Journal* journal, std::string ulid,
    std::chrono::steady_clock::time_point jobDeadline) {
  if (legacy.external == nullptr) {
    return std::make_unique<AutomatonLegacy>(std::move(*legacy.hidden));
  }
  SubprocessConfig cfg =
      configFromExternal(model, *legacy.external, legacy.instance);
  cfg.journal = journal;
  cfg.ulid = std::move(ulid);
  cfg.jobDeadline = jobDeadline;
  return std::make_unique<SubprocessLegacy>(std::move(cfg));
}

}  // namespace mui::testing

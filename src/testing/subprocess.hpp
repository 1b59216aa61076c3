#pragma once
// Out-of-process legacy components (the paper's actual premise: a black box
// you do *not* control and cannot link). SubprocessLegacy spawns an adapter
// binary and speaks a line-oriented JSONL protocol over the child's
// stdin/stdout — one JSON object per line, written and read with the
// util/json.hpp codec; signal sets travel as space-separated name strings
// through encodeSignals/decodeSignals below:
//
//   -> {"cmd":"hello"}
//   <- {"ok":true,"version":2,"name":"bci","inputs":"hello cmd",
//       "outputs":"ack done"}
//   -> {"cmd":"run","inputs":["hello",""],"expect":["","ack"]}
//   <- {"ok":true,"outputs":["","ack"]}  a whole test from reset (v2)
//   -> {"cmd":"run","inputs":["hello",""],"probe":true}
//   <- {"ok":true,"outputs":["","ack"],"states":["offline","acking","ready"]}
//   -> {"cmd":"step","inputs":"hello"}
//   <- {"ok":true,"outputs":""}          accepted; empty output set
//   <- {"ok":true,"refused":true}        refusal (state unchanged)
//   -> {"cmd":"probe"}
//   <- {"ok":true,"state":"acking"}
//   -> {"cmd":"reset"}   <- {"ok":true}
//   -> {"cmd":"quit"}    (no response; the adapter exits)
//
// docs/ADAPTERS.md is the normative protocol spec. A `hello` without a
// `version` marks a v1 adapter, which knows no `run`: its tests go through
// LegacyComponent::run's reset/step/probe loop.
//
// Containment contract: a dead, hung, or garbling adapter NEVER hangs or
// crashes the harness. Every exchange runs under a poll(2) deadline, which
// a `run` of n steps scales to deadline-ms × (n + 1); a deadline hit
// SIGKILLs the child and raises AdapterFailure(Timeout). A read never waits
// past the job's own deadline either: when that comes first, the child is
// SIGKILLed and JobDeadlineExceeded raised. A response line longer than
// responseCapBytes(n) is a protocol error as soon as it passes the cap.
// Unexpected death (EOF/EPIPE) is retried by a bounded respawn: because
// legacy components are input-deterministic (paper Sec. 3), replaying the
// accepted-step log against a fresh process reconstructs the hidden state
// exactly, so the pending command can be retried soundly. When the respawn
// budget runs out — or the adapter answers garbage — AdapterFailure
// propagates to the verifier, which surfaces it as the distinct
// Verdict::AdapterFailure (never an ordinary engine error).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"
#include "testing/legacy.hpp"
#include "util/json.hpp"

namespace mui::muml {
struct ExternalLegacy;
struct LegacyBinding;
struct Model;
}  // namespace mui::muml

namespace mui::testing {

/// Raised when an adapter subprocess cannot deliver a sound answer. The
/// kind distinguishes the failure classes the fault-injection matrix tests:
/// Spawn (binary would not start / no hello), Crash (died, respawn budget
/// exhausted), Timeout (step deadline fired, child SIGKILLed), Protocol
/// (unparseable or out-of-spec response — garbage is an error, not a parse
/// abort), Replay (the respawned process diverged from the accepted-step
/// log, i.e. the binary is not input-deterministic).
class AdapterFailure : public std::runtime_error {
 public:
  enum class Kind { Spawn, Crash, Timeout, Protocol, Replay };

  AdapterFailure(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Raised when the job's deadline (SubprocessConfig::jobDeadline) passes
/// during an exchange, before the exchange's own deadline. The adapter is
/// killed, but it has not failed: the job ends `timeout`.
class JobDeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One-word kind name ("spawn", "crash", "timeout", "protocol", "replay").
const char* adapterFailureKindName(AdapterFailure::Kind kind);

/// The adapter wire's signal-set codec (docs/ADAPTERS.md), used by the
/// harness and the reference adapter alike: a set travels as one JSON
/// string of signal names in signal-table order, separated by single
/// spaces.
std::string encodeSignals(const SignalSet& set,
                          const automata::SignalTable& table);

/// The inverse of encodeSignals; any run of whitespace separates names.
/// Returns nullopt at the first name that is not in `table` and stores
/// that name in `unknown`.
std::optional<SignalSet> decodeSignals(std::string_view text,
                                       const automata::SignalTable& table,
                                       std::string& unknown);

/// `ms` after `from`; past a century (steady_clock counts signed
/// nanoseconds, so adding more could overflow) it is never:
/// time_point::max().
std::chrono::steady_clock::time_point deadlineAfter(
    std::chrono::steady_clock::time_point from, std::uint64_t ms);

/// The deadline of an exchange that runs `steps` periods: `stepDeadlineMs`
/// × (steps + 1), saturating at UINT64_MAX (a single step, probe or reset
/// counts as 0 steps).
std::uint64_t runDeadlineMs(std::uint64_t stepDeadlineMs, std::size_t steps);

/// The longest response line accepted for an exchange of `steps` periods:
/// a fixed allowance for the envelope plus one per step for its output set
/// and state name.
std::size_t responseCapBytes(std::size_t steps);

struct SubprocessConfig {
  /// Resolved path of the adapter binary (see muml::resolveExternalBinary).
  std::string binary;
  /// Extra argv entries after the binary path.
  std::vector<std::string> args;
  /// Component name (reported by name()); defaults to the binary path.
  std::string name;
  /// Shared signal universe and the declared I/O interface (paper Sec. 3:
  /// the interface is always known from the architectural model).
  automata::SignalTableRef signals;
  automata::SignalSet inputs;
  automata::SignalSet outputs;
  /// Per-exchange deadline. A slower adapter is indistinguishable from a
  /// hung one; the deadline is the containment budget the fault-injection
  /// tests gate on.
  std::uint64_t stepDeadlineMs = 2000;
  /// The job's deadline: every read waits until it or the exchange's
  /// deadline, whichever comes first. The default never comes.
  std::chrono::steady_clock::time_point jobDeadline =
      std::chrono::steady_clock::time_point::max();
  /// Crash recoveries allowed over the component's lifetime (clones start
  /// with a fresh budget). Timeouts are never retried: replaying the same
  /// deterministic input into a binary that just hung would only burn
  /// another full deadline.
  std::size_t maxRespawns = 3;
  /// Optional lifecycle journal ("adapter" events: spawn/crash/timeout/
  /// respawn/exit), ULID-correlated like every other event of a job.
  obs::Journal* journal = nullptr;
  std::string ulid;
};

/// LegacyComponent implementation backed by an adapter subprocess. Not
/// thread-safe (like every LegacyComponent); safe to destroy at any time —
/// the destructor asks the child to quit, waits up to kQuitGraceMs for its
/// stdout to reach EOF, and SIGKILLs it if it lingers. The child also gets
/// SIGKILL when the thread that spawned it exits (PR_SET_PDEATHSIG), so a
/// killed harness leaves no adapter behind; create, step and destroy a
/// SubprocessLegacy on one thread.
class SubprocessLegacy final : public LegacyComponent {
 public:
  explicit SubprocessLegacy(SubprocessConfig config);
  ~SubprocessLegacy() override;

  SubprocessLegacy(const SubprocessLegacy&) = delete;
  SubprocessLegacy& operator=(const SubprocessLegacy&) = delete;

  /// How long the destructor waits for a quitting adapter to exit.
  static constexpr int kQuitGraceMs = 200;

  void reset() override;
  std::optional<SignalSet> step(const SignalSet& inputs) override;
  [[nodiscard]] std::string currentStateName() const override;
  /// One `run` exchange against a v2 adapter (the reset/step/probe loop of
  /// LegacyComponent::run against a v1 one). A crash retries the run from
  /// reset within the respawn budget; afterwards the accepted-step log
  /// holds the run's accepted steps.
  RunResult run(std::span<const automata::Interaction> steps,
                RunPhase phase) override;
  [[nodiscard]] const SignalSet& inputs() const override;
  [[nodiscard]] const SignalSet& outputs() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<LegacyComponent> clone() const override;

  /// Lifecycle introspection for tests: crash recoveries performed so far,
  /// the live child pid (-1 when no process is running — the process is
  /// spawned lazily on the first exchange), and the protocol version the
  /// adapter's `hello` reported (1 when it reported none, 0 before the
  /// first `hello`).
  [[nodiscard]] std::size_t respawns() const { return respawnsUsed_; }
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint64_t protocolVersion() const { return version_; }

 private:
  // All process state is mutable: the const white-box probe
  // currentStateName() may need to (re)spawn and replay.
  void ensureProcess();
  void spawnProcess();
  void killProcess();
  void reapProcess();
  void handshake();
  void replayLog();
  /// One request/response exchange against the live process, under the
  /// deadline and response cap of `runSteps` periods. Throws
  /// AdapterFailure(Crash/Timeout/Protocol); never respawns.
  util::json::Value exchangeChecked(const std::string& line,
                                    std::size_t runSteps = 0);
  /// One `run` exchange, its response checked against the stop rule.
  RunResult runExchange(std::span<const automata::Interaction> steps,
                        RunPhase phase);
  /// Calls `exchange` on a live process; a crash respawns, replays the
  /// accepted-step log and calls it again, within the respawn budget.
  template <typename F>
  auto withRespawn(F&& exchange) -> decltype(exchange());
  util::json::Value command(const std::string& line);
  void journalEvent(const char* event, const char* detail = nullptr) const;

  [[nodiscard]] SignalSet decodeOutputs(std::string_view text) const;

  SubprocessConfig config_;
  mutable int pid_ = -1;
  mutable int toChild_ = -1;    // write end of the child's stdin
  mutable int fromChild_ = -1;  // read end of the child's stdout
  mutable std::string readBuf_;
  /// Accepted steps since the last reset: inputs and the outputs produced.
  mutable std::vector<automata::Interaction> log_;
  mutable std::size_t respawnsUsed_ = 0;
  mutable std::uint64_t version_ = 0;
};

/// Builds the SubprocessConfig for a `legacy ... external` model clause:
/// resolves the binary (muml::resolveExternalBinary — throws a located
/// SemanticError when missing or not executable), expands the `%model%`
/// argument placeholder to the declaring .muml file's path, and copies the
/// declared I/O interface. journal/ulid are left for the caller.
///
/// The component is named `instance`, the role instance it plays, just as
/// an in-process hidden automaton is rebound with automata::withInstanceName:
/// the learned model takes that name, so the property's `role.state` atoms
/// see its states. Named after the clause instead, those atoms are unknown
/// and evaluate to false, which can prove what the real system refutes.
/// Empty keeps the clause's name (for callers that play no role).
SubprocessConfig configFromExternal(const muml::Model& model,
                                    const muml::ExternalLegacy& ext,
                                    const std::string& instance = {});

/// The component of a binding made by muml::bindIntegration over `model`:
/// an AutomatonLegacy that takes over the renamed hidden automaton, or a
/// SubprocessLegacy for the external clause (configFromExternal under the
/// role instance) whose lifecycle events go to `journal` under `ulid` and
/// whose reads stop at `jobDeadline`.
std::unique_ptr<LegacyComponent> makeLegacy(
    const muml::Model& model, muml::LegacyBinding legacy,
    obs::Journal* journal = nullptr, std::string ulid = {},
    std::chrono::steady_clock::time_point jobDeadline =
        std::chrono::steady_clock::time_point::max());

}  // namespace mui::testing

#pragma once
// The batch-integration job model — the unit of work of mui::engine.
//
// The paper's verification/testing/learning loop runs once per (model,
// pattern, legacyRole, hiddenAutomaton, formula) tuple. In practice legacy
// integration is a *campaign* of many such independent jobs — one per
// component revision, per role, per property — so the engine's vocabulary
// is a list of Jobs (parsed from a manifest, see manifest.hpp) and the
// aggregated BatchReport the executor produces (see engine.hpp).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mui::engine {

/// One integration job, as listed on a `job ...` manifest line.
struct Job {
  std::string name;        // display name; the manifest parser numbers
                           // unnamed jobs "job1", "job2", ...
  std::string ulid;        // correlation id (obs/ulid.hpp) threading this
                           // job through traces and journal events; NOT
                           // part of the result-cache key. Assigned by
                           // runBatch / the serve daemon when empty.
  std::string modelPath;   // .muml file (resolved by the manifest parser)
  std::string pattern;     // coordination pattern within the model
  std::string legacyRole;  // the role the hidden component plays
  std::string hidden;      // automaton acting as the hidden legacy component
  std::string formula;     // optional property override; empty derives the
                           // property from the pattern constraint and the
                           // role invariants (muml::bindIntegration)
  std::uint64_t timeoutMs = 0;    // per-job deadline; 0 = batch default
  std::size_t maxIterations = 0;  // iteration budget; 0 = verifier default
};

/// Terminal state of a job. The first four mirror synthesis::Verdict;
/// AdapterFailure surfaces an out-of-process legacy that crashed, hung, or
/// broke protocol beyond its recovery budget (docs/ADAPTERS.md); the last
/// two are engine-level: a deadline hit maps Verdict::Cancelled to
/// Timeout, and any exception escaping the job (unreadable file, unknown
/// pattern/role/automaton, model errors) is folded into EngineError so one
/// broken job never takes down the batch.
enum class JobStatus {
  Proven,
  RealError,
  IterationLimit,
  Unsupported,
  AdapterFailure,
  Timeout,
  EngineError,
};

/// One-word status name ("proven", "real-error", "timeout", ...).
const char* jobStatusName(JobStatus s);

/// Inverse of jobStatusName; nullopt for unknown names. Used by consumers
/// of serialized results (persistent cache replay, the serve protocol).
std::optional<JobStatus> jobStatusFromName(std::string_view name);

struct JobResult {
  Job job;
  JobStatus status = JobStatus::EngineError;
  std::string explanation;
  std::size_t iterations = 0;
  std::uint64_t testPeriods = 0;
  std::size_t learnedFacts = 0;
  double wallMs = 0;
  /// Per-phase wall-clock totals over all refinement iterations (closure
  /// construction / composition / CCTL checking / replay testing). Zero for
  /// cache hits — no phase ran.
  double closureMs = 0;
  double composeMs = 0;
  double checkMs = 0;
  double testMs = 0;
  /// Product states built over all refinement iterations.
  std::size_t productStatesNew = 0;
  bool cacheHit = false;
  /// The semantic pre-solve stage (analysis::presolveIntegration) decided
  /// the verdict statically; the refinement loop never ran.
  bool presolved = false;
  /// Thread-pool worker that ran the job ("worker-3"); empty when the job
  /// ran off-pool (direct runJob call).
  std::string worker;
};

/// Aggregated outcome of one runBatch call; results are in manifest order
/// regardless of completion order.
struct BatchReport {
  std::vector<JobResult> results;
  std::size_t threads = 1;
  double wallMs = 0;
  std::size_t cacheHits = 0;
  std::size_t cacheMisses = 0;

  [[nodiscard]] std::size_t count(JobStatus s) const;
  [[nodiscard]] bool allProven() const;
  /// hits / (hits + misses); 0 when no lookups happened.
  [[nodiscard]] double cacheHitRate() const;
};

}  // namespace mui::engine

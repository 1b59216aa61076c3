#pragma once
// Executes one Job end to end:
//
//   TextCache (model text) → muml::loadModel → muml::bindIntegration
//   → cancellation-aware loop (synthesis::runIntegration) → JobResult
//
// with a ResultCache claim keyed by the job's content hash before the
// expensive part, so a concurrent duplicate waits for the first result. All failure modes are folded into the result —
// deadline hits become JobStatus::Timeout, any escaping exception becomes
// JobStatus::EngineError — so runJob never throws. That is the batch's
// crash isolation: a broken job is a row in the report, not a dead batch.

#include <cstdint>

#include "engine/cache.hpp"
#include "engine/job.hpp"

namespace mui::obs {
class Journal;
class JobProgress;
}  // namespace mui::obs

namespace mui::engine {

struct RunnerOptions {
  /// Deadline applied to jobs whose own timeoutMs is 0 (0 = no deadline).
  std::uint64_t defaultTimeoutMs = 0;
  /// Lint the loaded model (error-severity rules only, see
  /// analysis::RuleSet::errorsOnly) before running the integration loop; a
  /// model with error-level findings becomes an engine-error row carrying
  /// the diagnostics instead of burning verification time.
  bool lintPreflight = true;
  /// Semantic pre-solve (analysis::presolveIntegration): decide the job's
  /// verdict statically on the composed product when the property falls in
  /// the AG-safety fragment, skipping the refinement loop entirely.
  /// Definitive outcomes are cached under the same JobKey as loop results.
  bool semanticPresolve = true;
  /// Run the full semantic diagnostic tier (analysis::runSemantic, rules
  /// MUI1xx) on each loaded model and fail jobs on error-level findings —
  /// the `--semantic` batch flag. Off by default: the tier's product
  /// explorations cost real time and the findings are advisory.
  bool semanticDiagnostics = false;
  /// Structured run journal: when set, the integration loop writes its
  /// per-iteration events here and the runner appends one "job" event per
  /// completed job. Shared across workers (the journal locks internally);
  /// must outlive the batch.
  obs::Journal* journal = nullptr;
  /// Live progress sink for this job (the daemon's /jobs endpoint): the
  /// runner and the integration loop update its phase / iteration /
  /// disposition as the job advances. Per-job, unlike the shared journal;
  /// must outlive the runJob call. Null = no live introspection.
  obs::JobProgress* progress = nullptr;
};

JobResult runJob(const Job& job, TextCache& texts, ResultCache& results,
                 const RunnerOptions& options = {});

}  // namespace mui::engine

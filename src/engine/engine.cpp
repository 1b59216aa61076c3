#include "engine/engine.hpp"

#include <chrono>

#include "engine/runner.hpp"
#include "engine/thread_pool.hpp"
#include "obs/journal.hpp"
#include "obs/ulid.hpp"

namespace mui::engine {

BatchReport runBatch(const std::vector<Job>& jobs,
                     const BatchOptions& options) {
  TextCache texts;
  return runBatch(jobs, options, texts);
}

BatchReport runBatch(const std::vector<Job>& jobs, const BatchOptions& options,
                     TextCache& texts) {
  const auto start = std::chrono::steady_clock::now();

  BatchReport report;
  report.results.resize(jobs.size());

  ResultCache cache;
  if (options.persistent != nullptr) cache.attachPersistent(options.persistent);
  RunnerOptions runnerOptions;
  runnerOptions.defaultTimeoutMs = options.defaultTimeoutMs;
  runnerOptions.lintPreflight = options.lintPreflight;
  runnerOptions.semanticPresolve = options.semanticPresolve;
  runnerOptions.semanticDiagnostics = options.semanticDiagnostics;
  runnerOptions.journal = options.journal;

  // Every job gets a correlation id before dispatch so its trace spans and
  // journal events line up; callers (the serve daemon) may have assigned
  // one already — keep those.
  std::vector<Job> correlated(jobs);
  for (Job& job : correlated) {
    if (job.ulid.empty()) job.ulid = obs::newUlid();
  }

  {
    ThreadPool pool(options.threads);
    report.threads = pool.threadCount();
    for (std::size_t i = 0; i < correlated.size(); ++i) {
      // Each task writes only its own slot; the vector is pre-sized, so no
      // synchronization beyond the pool's completion barrier is needed.
      pool.submit([&, i] {
        report.results[i] = runJob(correlated[i], texts, cache, runnerOptions);
      });
    }
    pool.wait();
  }

  report.cacheHits = cache.hits();
  report.cacheMisses = cache.misses();
  report.wallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  if (options.journal != nullptr) {
    util::json::Object fields;
    fields.u("jobs", jobs.size())
        .u("threads", report.threads)
        .f("wallMs", report.wallMs)
        .u("cacheHits", report.cacheHits)
        .u("cacheMisses", report.cacheMisses);
    for (const JobStatus s :
         {JobStatus::Proven, JobStatus::RealError, JobStatus::IterationLimit,
          JobStatus::Unsupported, JobStatus::AdapterFailure,
          JobStatus::Timeout, JobStatus::EngineError}) {
      if (const std::size_t n = report.count(s)) {
        fields.u(jobStatusName(s), n);
      }
    }
    options.journal->event("batch", fields);
  }
  return report;
}

}  // namespace mui::engine

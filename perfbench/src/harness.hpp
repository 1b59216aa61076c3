#pragma once
// Pieces shared by the workloads: the result report, the verdict gate, and
// the traced job pipeline.

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "gen.hpp"
#include "spans.hpp"
#include "timed_legacy.hpp"

namespace perfbench {

struct RunOptions {
  std::filesystem::path dir;  // campaign directory (also scratch space)
  std::filesystem::path mui;  // `mui` binary, for the serve daemon
  double seconds = 10;
  bool trace = false;
  int cpu = -1;  // the one CPU the run is confined to; -1 = not confined
  std::size_t workers = 1;  // runBatch threads (batch workloads)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints: human-readable lines, then one JSON result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(std::string line) { lines.push_back(std::move(line)); }
  [[nodiscard]] std::string json() const;
};

/// Checks every observed verdict, iteration count and test-period count
/// against the generator's expectation (all three are deterministic).
/// Thread-safe.
class VerdictGate {
 public:
  explicit VerdictGate(const Campaign& campaign);

  /// True when the observation matches; a mismatch is also recorded.
  bool check(std::size_t job, const std::string& status, long long iterations,
             long long testPeriods);
  /// Records a job that produced no result at all (shed, lost).
  void fail(std::size_t job, const std::string& why);

  [[nodiscard]] std::vector<std::string> mismatches() const;

 private:
  const Campaign& campaign_;
  mutable std::mutex mu_;
  std::vector<std::string> mismatches_;
};

/// Outcome of one job through the traced pipeline.
struct PipelineOutcome {
  std::string status;
  long long iterations = 0;
  long long testPeriods = 0;
  std::size_t learnedFacts = 0;
  bool cacheHit = false;
  bool presolved = false;
  bool loop = false;
  bool external = false;
  double closureMs = 0, composeMs = 0, checkMs = 0, testMs = 0;
  std::size_t statesNew = 0, statesReused = 0;
  std::size_t contextStates = 0;
  std::size_t presolveStates = 0;
  bool presolveRan = false;
  LegacyStats legacy;
};

/// Runs one job by calling the layers' public functions in
/// engine::runJob's order — TextCache::get, makeJobKey, ResultCache::lookup,
/// muml::loadModel, analysis::run, muml::makeIntegrationScenario,
/// analysis::presolveIntegration, legacy construction,
/// synthesis::runIntegration, ResultCache::store — with a span around each
/// call when `spans` is set. The legacy is wrapped in TimedLegacy only when
/// tracing. Errors become an "engine-error"/"adapter-failure" status.
PipelineOutcome runPipeline(const mui::engine::Job& job,
                            mui::engine::TextCache& texts,
                            mui::engine::ResultCache& results,
                            SpanBuffer* spans, std::uint32_t jobNo);

/// Per-layer metrics from the traced pipeline's spans and outcomes.
/// `overheadPct` compares the traced pass with the untraced one.
void addLayerMetrics(Report& report,
                     const std::vector<const SpanBuffer*>& spans,
                     const std::vector<PipelineOutcome>& outcomes,
                     double overheadPct);

/// Metrics (name, unit) a workload does not exercise, reported as zero so
/// every traced run prints the full per-layer set.
void addAbsentMetrics(
    Report& report,
    const std::vector<std::pair<const char*, const char*>>& metrics);

Report runBatchWorkload(const Campaign& campaign, const RunOptions& options);
Report runServeWorkload(const Campaign& campaign, const RunOptions& options);

}  // namespace perfbench

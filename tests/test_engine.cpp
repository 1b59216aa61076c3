// mui::engine — manifest parsing, thread pool, caches, and whole-batch
// behavior over the shipped models: concurrent verdicts must match the
// sequential ones, deadlines and broken jobs must stay isolated to their
// row, and duplicate jobs must be served from the result cache.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/manifest.hpp"
#include "engine/report.hpp"
#include "engine/thread_pool.hpp"
#include "helpers.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "obs/journal.hpp"
#include "obs/stats.hpp"
#include "synthesis/verifier.hpp"
#include "testing/subprocess.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace mui;
using engine::Job;
using engine::JobStatus;

const std::string kWatchdog = std::string(MUI_MODELS_DIR) + "/watchdog.muml";
const std::string kRailcab = std::string(MUI_MODELS_DIR) + "/railcab.muml";

Job watchdogJob(std::string name, std::string hidden) {
  Job job;
  job.name = std::move(name);
  job.modelPath = kWatchdog;
  job.pattern = "Watchdog";
  job.legacyRole = "device";
  job.hidden = std::move(hidden);
  return job;
}

Job railcabJob(std::string name, std::string hidden) {
  Job job;
  job.name = std::move(name);
  job.modelPath = kRailcab;
  job.pattern = "DistanceCoordination";
  job.legacyRole = "rearRole";
  job.hidden = std::move(hidden);
  return job;
}

// ---------------------------------------------------------------- manifest

TEST(Manifest, DefaultsOverridesAndAutoNames) {
  const auto jobs = engine::parseManifest(
      "# a campaign\n"
      "default model=m.muml pattern=P role=r\n"
      "job hidden=a\n"
      "job name=second hidden=b timeout-ms=250 max-iterations=7\n"
      "job model=other.muml pattern=Q role=s hidden=c  // trailing comment\n");
  ASSERT_EQ(jobs.size(), 3u);

  EXPECT_EQ(jobs[0].name, "job1");  // auto-named by position
  EXPECT_EQ(jobs[0].modelPath, "m.muml");
  EXPECT_EQ(jobs[0].pattern, "P");
  EXPECT_EQ(jobs[0].legacyRole, "r");
  EXPECT_EQ(jobs[0].hidden, "a");
  EXPECT_EQ(jobs[0].timeoutMs, 0u);

  EXPECT_EQ(jobs[1].name, "second");
  EXPECT_EQ(jobs[1].timeoutMs, 250u);
  EXPECT_EQ(jobs[1].maxIterations, 7u);

  EXPECT_EQ(jobs[2].modelPath, "other.muml");  // per-job override wins
  EXPECT_EQ(jobs[2].pattern, "Q");
  EXPECT_EQ(jobs[2].legacyRole, "s");
}

TEST(Manifest, QuotedValuesCarrySpacesAndEscapes) {
  const auto jobs = engine::parseManifest(
      "job model=m pattern=P role=r hidden=h "
      "formula=\"AG (a -> \\\"b\\\" \\\\ c)\"\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].formula, "AG (a -> \"b\" \\ c)");
}

TEST(Manifest, RelativeModelPathsResolveAgainstBaseDir) {
  const auto jobs = engine::parseManifest(
      "job model=../models/m.muml pattern=P role=r hidden=h\n"
      "job model=/abs/m.muml pattern=P role=r hidden=h\n",
      "camp.manifest", "examples");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].modelPath, "models/m.muml");
  EXPECT_EQ(jobs[1].modelPath, "/abs/m.muml");  // absolute left alone
}

TEST(Manifest, ErrorsCarrySourceLineAndColumn) {
  try {
    engine::parseManifest("default model=m\njobs hidden=a\n", "camp.manifest");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("camp.manifest:2:1:"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("expected 'job' or 'default'"),
              std::string::npos);
  }
}

TEST(Manifest, RejectsBadInput) {
  // Missing a required key.
  EXPECT_THROW(engine::parseManifest("job name=x pattern=P role=r hidden=h\n"),
               util::ParseError);
  // `name` makes no sense as a default.
  EXPECT_THROW(engine::parseManifest("default name=x\n"), util::ParseError);
  // Budgets must be non-negative integers.
  EXPECT_THROW(engine::parseManifest(
                   "job model=m pattern=P role=r hidden=h timeout-ms=soon\n"),
               util::ParseError);
  EXPECT_THROW(engine::parseManifest("job model=m pattern=P role=r hidden=h "
                                     "formula=\"AG unterminated\n"),
               util::ParseError);
  EXPECT_THROW(
      engine::parseManifest("job model=m pattern=P role=r hidden=h color=red\n"),
      util::ParseError);
}

TEST(Manifest, IntegersPastTwoToTheSixtyFourAreOutOfRange) {
  const std::string head = "job model=m pattern=P role=r hidden=h ";
  for (const std::string key : {"max-iterations", "timeout-ms"}) {
    const auto jobs =
        engine::parseManifest(head + key + "=18446744073709551615\n");
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(key == "timeout-ms" ? jobs[0].timeoutMs
                                  : std::uint64_t{jobs[0].maxIterations},
              UINT64_MAX);
    for (const char* value : {"18446744073709551616", "18446744073709551617"}) {
      try {
        engine::parseManifest(head + key + "=" + value + "\n",
                              "camp.manifest");
        ADD_FAILURE() << key << "=" << value << " was accepted";
      } catch (const util::ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("out of range"), std::string::npos) << what;
        // The error points at the value's first digit.
        EXPECT_EQ(e.col(), head.size() + key.size() + 2) << what;
        EXPECT_NE(what.find("camp.manifest:1:"), std::string::npos) << what;
      }
    }
  }
}

TEST(Manifest, WriteRoundTrips) {
  std::vector<Job> jobs;
  jobs.push_back(watchdogJob("plain", "deviceCompliant"));
  Job fancy = railcabJob("fancy", "rearShipped");
  fancy.formula = "AG (a -> \"b\" \\ c)";
  fancy.timeoutMs = 1500;
  fancy.maxIterations = 42;
  jobs.push_back(fancy);

  const auto back = engine::parseManifest(engine::writeManifest(jobs));
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(back[i].name, jobs[i].name);
    EXPECT_EQ(back[i].modelPath, jobs[i].modelPath);
    EXPECT_EQ(back[i].pattern, jobs[i].pattern);
    EXPECT_EQ(back[i].legacyRole, jobs[i].legacyRole);
    EXPECT_EQ(back[i].hidden, jobs[i].hidden);
    EXPECT_EQ(back[i].formula, jobs[i].formula);
    EXPECT_EQ(back[i].timeoutMs, jobs[i].timeoutMs);
    EXPECT_EQ(back[i].maxIterations, jobs[i].maxIterations);
  }
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> n{0};
  engine::ThreadPool pool(4);
  for (int i = 0; i < 200; ++i) pool.submit([&n] { ++n; });
  pool.wait();
  EXPECT_EQ(n.load(), 200);

  // The pool is reusable after wait().
  for (int i = 0; i < 50; ++i) pool.submit([&n] { ++n; });
  pool.wait();
  EXPECT_EQ(n.load(), 250);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  engine::ThreadPool pool(0);
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, ThrowingTaskDoesNotKillWorkers) {
  std::atomic<int> n{0};
  engine::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("stray"); });
  pool.wait();
  for (int i = 0; i < 20; ++i) pool.submit([&n] { ++n; });
  pool.wait();
  EXPECT_EQ(n.load(), 20);
}

// ------------------------------------------------------------------ caches

TEST(Fnv1a, SeparatesFieldsAndOrders) {
  EXPECT_EQ(engine::fnv1a(""), 14695981039346656037ull);  // empty = seed
  EXPECT_NE(engine::fnv1a("a"), engine::fnv1a("b"));
  EXPECT_NE(engine::fnv1a("b", engine::fnv1a("a")),
            engine::fnv1a("a", engine::fnv1a("b")));
}

TEST(TextCache, ServesPrimedContentAndThrowsOnMissingFile) {
  engine::TextCache texts;
  texts.prime("mem:x", "hello");
  EXPECT_EQ(texts.get("mem:x"), "hello");
  texts.prime("mem:x", "replaced");
  EXPECT_EQ(texts.get("mem:x"), "replaced");
  EXPECT_THROW(texts.get("/no/such/file.muml"), std::runtime_error);
}

TEST(ResultCache, CountsHitsAndMisses) {
  engine::ResultCache cache;
  engine::Job job;
  job.pattern = "P";
  job.legacyRole = "r";
  job.hidden = "h";
  const engine::JobKey key = engine::makeJobKey("model text", job, 0);
  EXPECT_EQ(key.hash, engine::fnv1a(key.material));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.store(key, engine::CachedOutcome{JobStatus::Proven, "ok", 3, 10, 5});
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, JobStatus::Proven);
  EXPECT_EQ(hit->iterations, 3u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ------------------------------------------------------------ cancellation

TEST(Cancellation, AlwaysTrueHookYieldsCancelledVerdict) {
  const auto model = muml::loadModelFile(kWatchdog);
  auto binding =
      muml::bindIntegration(model, "Watchdog", "device", "deviceCompliant");
  const auto legacy =
      mui::testing::makeLegacy(model, std::move(binding.legacy));
  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  cfg.cancelRequested = [] { return true; };
  const auto res =
      synthesis::runIntegration(binding.scenario.context, *legacy, cfg);
  EXPECT_EQ(res.verdict, synthesis::Verdict::Cancelled);
}

// ------------------------------------------------------------------- batch

/// 16 jobs over the two shipped models with known verdicts (including
/// duplicates the result cache should serve).
std::vector<Job> campaign16(std::vector<JobStatus>& expected) {
  const std::pair<const char*, JobStatus> watchdogCases[] = {
      {"deviceCompliant", JobStatus::Proven},
      {"deviceSlow", JobStatus::Proven},
      {"deviceCrawl", JobStatus::RealError},
      {"deviceMute", JobStatus::RealError},
      {"deviceDeaf", JobStatus::RealError}};
  const std::pair<const char*, JobStatus> railcabCases[] = {
      {"rearShipped", JobStatus::Proven}, {"rearFaulty", JobStatus::RealError}};

  std::vector<Job> jobs;
  expected.clear();
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto& [hidden, status] : watchdogCases) {
      jobs.push_back(watchdogJob(std::string(hidden) + "-" +
                                     std::to_string(rep),
                                 hidden));
      expected.push_back(status);
    }
    for (const auto& [hidden, status] : railcabCases) {
      jobs.push_back(railcabJob(std::string(hidden) + "-" +
                                    std::to_string(rep),
                                hidden));
      expected.push_back(status);
    }
  }
  Job constraintOnly = watchdogJob("constraint-only", "deviceCompliant");
  constraintOnly.formula = "AG !monitor.escalated";
  jobs.push_back(constraintOnly);
  expected.push_back(JobStatus::Proven);
  Job budgeted = watchdogJob("budgeted", "deviceMute");
  budgeted.maxIterations = 100;
  jobs.push_back(budgeted);
  expected.push_back(JobStatus::RealError);
  return jobs;
}

TEST(Batch, ConcurrentVerdictsMatchSequential) {
  std::vector<JobStatus> expected;
  const auto jobs = campaign16(expected);
  ASSERT_GE(jobs.size(), 16u);

  engine::BatchOptions sequential;
  sequential.threads = 1;
  const auto seq = engine::runBatch(jobs, sequential);
  engine::BatchOptions concurrent;
  concurrent.threads = 4;
  const auto par = engine::runBatch(jobs, concurrent);

  ASSERT_EQ(seq.results.size(), jobs.size());
  ASSERT_EQ(par.results.size(), jobs.size());
  EXPECT_EQ(par.threads, 4u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(seq.results[i].status, expected[i]) << jobs[i].name;
    EXPECT_EQ(par.results[i].status, expected[i]) << jobs[i].name;
    EXPECT_EQ(par.results[i].job.name, jobs[i].name);  // manifest order kept
  }

  // The second repetition duplicates the first seven keys exactly, so a
  // sequential run serves at least those from the result cache.
  EXPECT_GE(seq.cacheHits, 7u);
  EXPECT_EQ(seq.cacheHits + seq.cacheMisses, jobs.size());
}

TEST(Batch, ConcurrentDuplicatesRunTheLoopOnce) {
  // The twin starts while the first job runs, so it misses the cache; it
  // must wait for the first result instead of running the loop again.
  const std::vector<Job> jobs = {railcabJob("first", "rearShipped"),
                                 railcabJob("twin", "rearShipped")};
  engine::BatchOptions options;
  options.threads = 2;
  const auto report = engine::runBatch(jobs, options);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].status, JobStatus::Proven);
  EXPECT_EQ(report.results[1].status, JobStatus::Proven);
  EXPECT_EQ(report.cacheHits, 1u);
  EXPECT_EQ(report.cacheMisses, 1u);
}

TEST(Batch, DeadlineJobTimesOutWithoutHurtingTheBatch) {
  // The impatient job's adapter starts only after 50 ms, so its 1 ms
  // deadline has passed before the loop's first cancellation check.
  const std::string slowStart =
      (std::filesystem::temp_directory_path() /
       ("mui_slow_start_" + std::to_string(::getpid()) + ".muml"))
          .string();
  test::writeSlowStartWatchdog(slowStart);
  std::vector<Job> jobs;
  Job impatient = watchdogJob("impatient", "deviceSlowStart");
  impatient.modelPath = slowStart;
  impatient.timeoutMs = 1;
  jobs.push_back(impatient);
  jobs.push_back(watchdogJob("fine", "deviceCompliant"));
  jobs.push_back(watchdogJob("broken", "deviceCrawl"));

  engine::BatchOptions options;
  options.threads = 2;
  const auto report = engine::runBatch(jobs, options);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.results[0].status, JobStatus::Timeout);
  EXPECT_NE(report.results[0].explanation.find("deadline"), std::string::npos);
  EXPECT_EQ(report.results[1].status, JobStatus::Proven);
  EXPECT_EQ(report.results[2].status, JobStatus::RealError);
  EXPECT_FALSE(report.allProven());
  std::filesystem::remove(slowStart);
}

TEST(Batch, ADeadlineTooFarToRepresentNeverFires) {
  // 10^13 ms from now overflows steady_clock's signed nanoseconds; the job
  // runs as if it had no deadline instead of timing out at once.
  Job far = watchdogJob("far", "deviceCompliant");
  far.timeoutMs = 10'000'000'000'000;
  const auto report = engine::runBatch({far}, engine::BatchOptions{});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, JobStatus::Proven)
      << report.results[0].explanation;
}

TEST(Batch, BrokenJobsBecomeEngineErrorRows) {
  std::vector<Job> jobs;
  Job missingFile = watchdogJob("missing-file", "deviceCompliant");
  missingFile.modelPath = "/no/such/model.muml";
  jobs.push_back(missingFile);
  Job badPattern = watchdogJob("bad-pattern", "deviceCompliant");
  badPattern.pattern = "NoSuchPattern";
  jobs.push_back(badPattern);
  Job badHidden = watchdogJob("bad-hidden", "deviceGhost");
  jobs.push_back(badHidden);
  jobs.push_back(watchdogJob("fine", "deviceCompliant"));
  Job badRole = watchdogJob("bad-role", "deviceCompliant");
  badRole.legacyRole = "noSuchRole";
  jobs.push_back(badRole);

  engine::BatchOptions options;
  options.threads = 2;
  const auto report = engine::runBatch(jobs, options);
  ASSERT_EQ(report.results.size(), 5u);
  EXPECT_EQ(report.results[0].status, JobStatus::EngineError);
  EXPECT_NE(report.results[0].explanation.find("cannot open"),
            std::string::npos);
  EXPECT_EQ(report.results[1].status, JobStatus::EngineError);
  EXPECT_NE(report.results[1].explanation.find("NoSuchPattern"),
            std::string::npos);
  EXPECT_EQ(report.results[2].status, JobStatus::EngineError);
  EXPECT_EQ(report.results[3].status, JobStatus::Proven);
  EXPECT_EQ(report.results[4].status, JobStatus::EngineError);
  EXPECT_NE(report.results[4].explanation.find("noSuchRole"),
            std::string::npos);
  EXPECT_EQ(report.count(JobStatus::EngineError), 4u);
}

TEST(Batch, ReportRenderingAndSummarySerialization) {
  std::vector<Job> jobs;
  jobs.push_back(watchdogJob("good", "deviceCompliant"));
  jobs.push_back(watchdogJob("bad", "deviceMute"));
  const auto report = engine::runBatch(jobs, {});

  const std::string table = engine::renderBatchReport(report);
  EXPECT_NE(table.find("good"), std::string::npos);
  EXPECT_NE(table.find("real-error"), std::string::npos);
  EXPECT_NE(table.find("batch: 2 jobs"), std::string::npos);

  const std::string jsonl = engine::writeBatchSummary(report);
  EXPECT_NE(jsonl.find("\"type\":\"job\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"batch\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"good\""), std::string::npos);
}

TEST(Batch, SummaryEscapesControlCharactersInJobNames) {
  // A hostile manifest name (embedded newline and quote) must not corrupt
  // the JSONL summary: every line stays one parseable JSON object.
  std::vector<Job> jobs;
  jobs.push_back(watchdogJob("evil\n\"name\"", "deviceCompliant"));
  const auto report = engine::runBatch(jobs, {});
  const std::string jsonl = engine::writeBatchSummary(report);
  EXPECT_NE(jsonl.find("evil\\n\\\"name\\\""), std::string::npos);
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(util::json::parse(line).has_value())
        << "unparseable summary line: " << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);  // one job row + the batch trailer
}

TEST(Batch, JournalCollectsJobAndBatchEvents) {
  std::vector<Job> jobs;
  jobs.push_back(watchdogJob("good", "deviceCompliant"));
  jobs.push_back(watchdogJob("bad", "deviceMute"));
  obs::Journal journal;
  engine::BatchOptions options;
  options.threads = 2;
  options.journal = &journal;
  const auto report = engine::runBatch(jobs, options);
  ASSERT_EQ(report.results.size(), 2u);

  // Per-run events (run_start/iteration/verdict) plus one "job" event per
  // job and one closing "batch" event, all aggregatable by mui stats.
  const auto stats = obs::aggregateJournals({journal.text()});
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(stats.runs.size(), 2u);
  for (const auto& run : stats.runs) {
    EXPECT_FALSE(run.verdict.empty()) << run.run;
    EXPECT_NE(run.worker.find("worker-"), std::string::npos) << run.run;
  }
  EXPECT_GT(stats.totalIterations, 0u);
  EXPECT_NE(journal.text().find("\"type\":\"batch\""), std::string::npos);
}

TEST(Batch, PrimedTextCacheRunsWithoutDisk) {
  engine::TextCache texts;
  texts.prime("mem:tiny",
              "rtsc a { output x; location l0; initial l0; l0 -> l0 : emit x; }\n"
              "rtsc b { input x; location m0; initial m0; m0 -> m0 : trigger x; }\n"
              "pattern P { role ra uses a; role rb uses b; connector direct; }\n"
              "automaton impl { input x; initial s0; s0 -> s0 : x / ; "
              "s0 -> s0 : ; }\n");
  Job job;
  job.name = "tiny";
  job.modelPath = "mem:tiny";
  job.pattern = "P";
  job.legacyRole = "rb";
  job.hidden = "impl";
  const auto report = engine::runBatch({job}, {}, texts);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_NE(report.results[0].status, JobStatus::EngineError)
      << report.results[0].explanation;
}

}  // namespace

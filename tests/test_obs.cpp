// Unit tests for the observability subsystem (src/obs/): span tracing
// (nesting, per-thread tracks, ring overwrite, disabled-guard), the
// metrics registry (bucket boundaries, renderer goldens, info metrics),
// the run journal (schema round-trip through the flat JSON parser,
// v1/v2 interleave), correlation ULIDs, live job progress, journal
// aggregation for `mui stats` — including a real integration run — and
// the `--baseline` trend gate.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/progress.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/trend.hpp"
#include "obs/ulid.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "util/json.hpp"

namespace mui::obs {
namespace {

namespace json = mui::util::json;

/// Restores the tracer to its default (disabled, empty) state so tests
/// never leak events into each other.
struct TracerGuard {
  TracerGuard() { Tracer::enable(); }
  ~TracerGuard() {
    Tracer::disable();
    Tracer::clear();
  }
};

TEST(Trace, DisabledSpansRecordNothing) {
  Tracer::disable();
  Tracer::clear();
  {
    const ObsSpan a("closure");
    const ObsSpan b(std::string("iteration"), 7);
  }
  EXPECT_EQ(Tracer::eventCount(), 0u);
  EXPECT_EQ(Tracer::droppedEvents(), 0u);
  EXPECT_EQ(Tracer::chromeTrace().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Trace, NestedSpansAreContained) {
  TracerGuard guard;
  {
    const ObsSpan outer("outer");
    {
      const ObsSpan inner("inner");
    }
  }
  ASSERT_EQ(Tracer::eventCount(), 2u);
  const std::string json = Tracer::chromeTrace();
  // Inner closes first, so it serializes first; both are complete events.
  const auto innerPos = json.find("\"name\":\"inner\"");
  const auto outerPos = json.find("\"name\":\"outer\"");
  ASSERT_NE(innerPos, std::string::npos);
  ASSERT_NE(outerPos, std::string::npos);
  EXPECT_LT(innerPos, outerPos);
  // The document is a loadable Chrome trace.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

TEST(Trace, SpanArgLandsInArgs) {
  TracerGuard guard;
  { const ObsSpan span("iteration", 42); }
  EXPECT_NE(Tracer::chromeTrace().find("\"args\":{\"i\":42}"),
            std::string::npos);
}

TEST(Trace, ConcurrentWorkersGetDistinctNamedTracks) {
  TracerGuard guard;
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i, &ready] {
      setThreadName("worker-" + std::to_string(i));
      // Spin barrier: all workers record while truly concurrent.
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int n = 0; n < 8; ++n) {
        const ObsSpan span("check");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Tracer::eventCount(), kThreads * 8u);
  const std::string json = Tracer::chromeTrace();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_NE(json.find("\"name\":\"worker-" + std::to_string(i) + "\""),
              std::string::npos)
        << "missing thread_name track for worker-" << i;
  }
}

TEST(Trace, RingDropsOldestEvents) {
  Tracer::disable();
  Tracer::clear();
  Tracer::enable(4);
  for (int i = 0; i < 10; ++i) {
    const ObsSpan span("span-" + std::to_string(i));
  }
  Tracer::disable();
  EXPECT_EQ(Tracer::eventCount(), 4u);
  EXPECT_EQ(Tracer::droppedEvents(), 6u);
  const std::string json = Tracer::chromeTrace();
  EXPECT_EQ(json.find("\"name\":\"span-0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span-9\""), std::string::npos);
  Tracer::clear();
}

TEST(Metrics, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 0u);
  EXPECT_EQ(Histogram::bucketIndex(2), 1u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 2u);
  EXPECT_EQ(Histogram::bucketIndex(5), 3u);
  EXPECT_EQ(Histogram::bucketIndex(1ull << 40), 40u);
  EXPECT_EQ(Histogram::bucketIndex((1ull << 40) + 1), 41u);
  // Everything past 2^62 lands in the +Inf bucket.
  EXPECT_EQ(Histogram::bucketIndex(~0ull), Histogram::kBuckets - 1);

  Histogram h;
  for (const std::uint64_t v : {1, 2, 3, 4, 5}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.bucketCount(0), 1u);  // le 1: {1}
  EXPECT_EQ(h.bucketCount(1), 1u);  // le 2: {2}
  EXPECT_EQ(h.bucketCount(2), 2u);  // le 4: {3, 4}
  EXPECT_EQ(h.bucketCount(3), 1u);  // le 8: {5}
}

TEST(Metrics, PrometheusRendererGolden) {
  Registry reg;
  reg.counter("mui_test_pops_total", "States popped").add(3);
  reg.gauge("mui_test_depth", "Queue depth", "tasks").set(-2);
  Histogram& h = reg.histogram("mui_test_sizes", "Product sizes");
  h.observe(1);
  h.observe(3);
  EXPECT_EQ(reg.renderPrometheus(),
            "# HELP mui_test_depth Queue depth (tasks)\n"
            "# TYPE mui_test_depth gauge\n"
            "mui_test_depth -2\n"
            "# HELP mui_test_pops_total States popped\n"
            "# TYPE mui_test_pops_total counter\n"
            "mui_test_pops_total 3\n"
            "# HELP mui_test_sizes Product sizes\n"
            "# TYPE mui_test_sizes histogram\n"
            "mui_test_sizes_bucket{le=\"1\"} 1\n"
            "mui_test_sizes_bucket{le=\"2\"} 1\n"
            "mui_test_sizes_bucket{le=\"4\"} 2\n"
            "mui_test_sizes_bucket{le=\"+Inf\"} 2\n"
            "mui_test_sizes_sum 4\n"
            "mui_test_sizes_count 2\n");
}

TEST(Metrics, JsonRendererParsesAndCarriesValues) {
  Registry reg;
  reg.counter("c_total", "a counter").add(7);
  reg.histogram("h_sizes", "a histogram").observe(2);
  // Registered but never observed: its +Inf bucket still follows the
  // first bucket with a comma.
  reg.histogram("h_unused", "an empty histogram");
  const std::string json = reg.renderJson();
  EXPECT_NE(json.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  const auto doc = json::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const json::Value* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->items.size(), 3u);
  // Rendered in name order: c_total, h_sizes, h_unused.
  ASSERT_EQ(metrics->items[2].str("name"), "h_unused");
  const json::Value* empty = metrics->items[2].find("buckets");
  ASSERT_NE(empty, nullptr);
  ASSERT_EQ(empty->items.size(), 2u);
  EXPECT_EQ(empty->items[1].str("le"), "+Inf");
}

TEST(Metrics, RegistryIsIdempotentAndKindChecked) {
  Registry reg;
  Counter& a = reg.counter("x_total", "first help wins");
  Counter& b = reg.counter("x_total", "ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW((void)reg.gauge("x_total", "wrong kind"), std::logic_error);
  a.add(5);
  reg.resetAll();
  EXPECT_EQ(a.value(), 0u);
}

TEST(Journal, InvalidUtf8IsEscapedAsReplacement) {
  // A lone 0xFF byte is not valid UTF-8; the escaper must not emit it raw
  // (that would produce an unparseable JSON document).
  const std::string escaped = util::json::escape("a\xFF"
                                               "b");
  EXPECT_EQ(escaped, "a\\ufffdb");
  EXPECT_EQ(util::json::escape("ok \xE2\x9C\x93"), "ok \xE2\x9C\x93");
  EXPECT_EQ(util::json::escape("\x01"), "\\u0001");
}

TEST(Stats, AggregatesHandCraftedJournals) {
  Journal j1;
  j1.event("run_start", json::Object().s("run", "a").u("legacies", 1));
  j1.event("iteration", json::Object()
                              .s("run", "a")
                              .u("iter", 0)
                              .u("productStates", 10)
                              .u("learnedFacts", 2)
                              .u("testPeriods", 5)
                              .f("checkMs", 1.5)
                              .f("testMs", 0.5)
                              .b("checkPassed", false)
                              .s("cexKind", "deadlock")
                              .u("cexLength", 3));
  j1.event("verdict", json::Object()
                            .s("run", "a")
                            .s("verdict", "proven")
                            .u("iterations", 1)
                            .u("learnedFacts", 2)
                            .u("testPeriods", 5));
  Journal j2;
  j2.event("job", json::Object()
                        .s("run", "b")
                        .s("status", "real-error")
                        .s("worker", "worker-1")
                        .b("cacheHit", false)
                        .f("wallMs", 12.0)
                        .u("iterations", 4)
                        .u("learnedFacts", 0)
                        .u("testPeriods", 9));
  const auto report =
      aggregateJournals({j1.text(), j2.text(), "garbage line\n"});
  EXPECT_EQ(report.events, 4u);
  EXPECT_EQ(report.skipped, 1u);
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_EQ(report.iterations[0].run, "a");
  EXPECT_EQ(report.iterations[0].cexKind, "deadlock");
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].verdict, "proven");
  EXPECT_EQ(report.runs[1].verdict, "real-error");
  EXPECT_EQ(report.runs[1].worker, "worker-1");
  // Totals sum iteration events (job/verdict events carry per-run rollups).
  EXPECT_EQ(report.totalIterations, 1u);
  EXPECT_EQ(report.totalTestPeriods, 5u);

  const std::string text = renderStatsText(report);
  EXPECT_NE(text.find("deadlock/3"), std::string::npos);
  EXPECT_NE(text.find("runs=2"), std::string::npos);
  const std::string json = renderStatsJson(report);
  EXPECT_NE(json.find("\"totals\":"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"real-error\""), std::string::npos);
}

TEST(Stats, UnknownSchemaVersionIsSkippedNotFatal) {
  const auto report = aggregateJournals(
      {"{\"schema\":999,\"type\":\"iteration\",\"run\":\"x\"}\n"});
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_TRUE(report.iterations.empty());
}

TEST(Stats, EmptyJournalYieldsEmptyReportWithoutSkips) {
  // An empty journal file (a run that crashed before its first event, or a
  // fresh --journal-out target) is valid input, not malformed lines.
  const auto report = aggregateJournals({""});
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(report.runs.empty());
  const std::string text = renderStatsText(report);
  EXPECT_NE(text.find("runs=0"), std::string::npos);
  EXPECT_NE(text.find("skipped=0"), std::string::npos);
}

TEST(Stats, WhitespaceOnlyLinesAreNotCountedAsMalformed) {
  // Blank lines, CRLF line endings, and indented blanks all occur in
  // hand-edited or concatenated journals; none of them are events and none
  // of them are parse failures.
  const auto report = aggregateJournals({"\n  \n\t\r\n   \t  \n"});
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.skipped, 0u);
  // A real event surrounded by such lines still parses.
  Journal j;
  j.event("run_start", json::Object().s("run", "r"));
  const auto mixed = aggregateJournals({"\n \n" + j.text() + "\r\n\t\n"});
  EXPECT_EQ(mixed.events, 1u);
  EXPECT_EQ(mixed.skipped, 0u);
  ASSERT_EQ(mixed.runs.size(), 1u);
  EXPECT_EQ(mixed.runs[0].run, "r");
}

TEST(Stats, IntegerFieldsThatAreNotPlainLiteralsReadAsAbsent) {
  const auto report = aggregateJournals(
      {"{\"schema\":2,\"type\":\"iteration\",\"run\":\"x\",\"iter\":-1,"
       "\"cexLength\":2.5,\"learnedFacts\":1e999,\"testPeriods\":4}\n"
       "{\"schema\":1.5,\"type\":\"run_start\",\"run\":\"y\"}\n"});
  EXPECT_EQ(report.events, 1u);
  EXPECT_EQ(report.skipped, 1u);  // a fractional schema is no schema
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_EQ(report.iterations[0].iteration, 0u);
  EXPECT_EQ(report.iterations[0].cexLength, 0u);
  EXPECT_EQ(report.iterations[0].learnedFacts, 0u);
  EXPECT_EQ(report.iterations[0].testPeriods, 4u);
}

TEST(Stats, RealIntegrationRunProducesAggregatableJournal) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  testing::AutomatonLegacy legacy(*shipped.legacy.hidden);
  Journal journal;
  synthesis::IntegrationConfig cfg;
  cfg.property = rc.constraint();
  cfg.journal = &journal;
  cfg.runId = "shuttle/rearRole/correct";
  const auto res =
      synthesis::IntegrationVerifier(shipped.scenario.context, legacy, cfg)
          .run();
  ASSERT_EQ(res.verdict, synthesis::Verdict::ProvenCorrect);

  // run_start + one event per iteration + verdict.
  EXPECT_EQ(journal.eventCount(), res.iterations + 2);
  const auto report = aggregateJournals({journal.text()});
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(report.iterations.size(), res.iterations);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].run, "shuttle/rearRole/correct");
  EXPECT_EQ(report.runs[0].verdict, "proven");
  EXPECT_EQ(report.totalLearnedFacts, res.totalLearnedFacts);
  EXPECT_EQ(report.totalTestPeriods, res.totalTestPeriods);
  // The final iteration passes the check; earlier ones report their
  // counterexample kind.
  EXPECT_TRUE(report.iterations.back().checkPassed);
}

TEST(Ulid, FormatAndUniqueness) {
  std::set<std::string> seen;
  for (int i = 0; i < 256; ++i) {
    const std::string id = newUlid();
    ASSERT_EQ(id.size(), 26u);
    EXPECT_TRUE(looksLikeUlid(id)) << id;
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 256u);  // monotonic entropy: no collisions
  EXPECT_FALSE(looksLikeUlid(""));
  EXPECT_FALSE(looksLikeUlid("not-a-ulid"));
  EXPECT_FALSE(looksLikeUlid("01ARZ3NDEKTSV4RRFFQ69G5FA"));    // 25 chars
  EXPECT_FALSE(looksLikeUlid("01ARZ3NDEKTSV4RRFFQ69G5FAIL"));  // I/L excluded
}

TEST(Ulid, ConcurrentMintingStaysUnique) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::vector<std::string>> minted(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &minted] {
      for (int i = 0; i < kPerThread; ++i) minted[t].push_back(newUlid());
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::string> all;
  for (const auto& batch : minted) all.insert(batch.begin(), batch.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Progress, PhaseDispositionIterationAreLiveAcrossThreads) {
  JobProgress progress;
  EXPECT_STREQ(progress.phase(), "queued");
  EXPECT_STREQ(progress.disposition(), "pending");
  EXPECT_EQ(progress.iteration(), 0u);
  std::thread writer([&progress] {
    progress.setPhase("check");
    progress.setDisposition("cache-hit");
    progress.setIteration(7);
  });
  writer.join();
  EXPECT_STREQ(progress.phase(), "check");
  EXPECT_STREQ(progress.disposition(), "cache-hit");
  EXPECT_EQ(progress.iteration(), 7u);
}

TEST(Metrics, InfoMetricRendersAsConstantOneWithLabels) {
  Registry reg;
  reg.setInfo("mui_build_info", "Build identity",
              {{"version", "1.2.3"}, {"git_sha", "abc\"def"}});
  const std::string prom = reg.renderPrometheus();
  // Format 0.0.4 has no info type, so the conventional gauge-valued-1
  // idiom is used; label values are escaped.
  EXPECT_NE(prom.find("# TYPE mui_build_info gauge"), std::string::npos);
  EXPECT_NE(
      prom.find(
          "mui_build_info{version=\"1.2.3\",git_sha=\"abc\\\"def\"} 1\n"),
      std::string::npos);
  const std::string json = reg.renderJson();
  EXPECT_NE(json.find("\"kind\":\"info\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":\"1.2.3\""), std::string::npos);
}

TEST(Metrics, ProcessGaugesSampleFromProc) {
  Registry reg;
  setBuildInfo(reg, "9.9.9", "deadbee");
  sampleProcessGauges(reg);
  const std::string prom = reg.renderPrometheus();
  EXPECT_NE(prom.find("mui_build_info{version=\"9.9.9\",git_sha=\"deadbee\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("mui_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(prom.find("mui_process_resident_memory_bytes"), std::string::npos);
  EXPECT_NE(prom.find("mui_process_open_fds"), std::string::npos);
}

TEST(Stats, InterleavedSchemaVersionsAllAggregate) {
  // One file mixing a v1 verdict, a v2 job (with ulid and presolved), and a
  // future-schema line: both supported versions count, only the unknown one
  // is skipped (a daemon restarted across an upgrade appends v2 after v1).
  const std::string mixed =
      "{\"schema\":1,\"type\":\"verdict\",\"run\":\"old\","
      "\"verdict\":\"proven\",\"iterations\":2}\n"
      "{\"schema\":2,\"type\":\"job\",\"run\":\"new\","
      "\"ulid\":\"01ARZ3NDEKTSV4RRFFQ69G5FAV\",\"status\":\"proven\","
      "\"cacheHit\":true,\"presolved\":false,\"wallMs\":3.5,"
      "\"iterations\":1}\n"
      "{\"schema\":99,\"type\":\"job\",\"run\":\"future\"}\n";
  const auto report = aggregateJournals({mixed});
  EXPECT_EQ(report.events, 2u);
  EXPECT_EQ(report.skipped, 1u);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].run, "old");
  EXPECT_TRUE(report.runs[0].ulid.empty());
  EXPECT_EQ(report.runs[1].run, "new");
  EXPECT_EQ(report.runs[1].ulid, "01ARZ3NDEKTSV4RRFFQ69G5FAV");
  EXPECT_TRUE(report.runs[1].cacheHit);
  EXPECT_EQ(report.jobs, 1u);
  EXPECT_EQ(report.cacheHitJobs, 1u);
  EXPECT_EQ(report.presolvedJobs, 0u);
  ASSERT_EQ(report.jobWallMs.size(), 1u);
  EXPECT_EQ(report.jobWallMs[0], 3.5);
  // The ulid lands in the JSON rendering for downstream correlation.
  EXPECT_NE(renderStatsJson(report).find("01ARZ3NDEKTSV4RRFFQ69G5FAV"),
            std::string::npos);
}

/// Builds a StatsReport the way a daemon journal would: job events only.
StatsReport jobReport(std::uint64_t iterations, std::uint64_t presolved,
                      std::uint64_t cacheHits, std::uint64_t jobs,
                      double wallMs) {
  StatsReport r;
  for (std::uint64_t i = 0; i < jobs; ++i) {
    RunStat run;
    run.run = "job-" + std::to_string(i);
    run.iterations = iterations / jobs;
    r.runs.push_back(std::move(run));
    r.jobWallMs.push_back(wallMs);
  }
  r.jobs = jobs;
  r.presolvedJobs = presolved;
  r.cacheHitJobs = cacheHits;
  return r;
}

TEST(Trend, IdenticalReportsAreClean) {
  const StatsReport base = jobReport(40, 2, 3, 4, 25.0);
  const TrendReport trend = compareTrend(base, base);
  EXPECT_FALSE(trend.regressed);
  ASSERT_EQ(trend.metrics.size(), 6u);
  for (const TrendMetric& m : trend.metrics) {
    EXPECT_FALSE(m.regressed) << m.name;
    EXPECT_EQ(m.delta, 0.0) << m.name;
  }
  EXPECT_NE(renderTrendText(trend).find("VERDICT: ok"), std::string::npos);
  EXPECT_NE(renderTrendJson(trend).find("\"verdict\":\"ok\""),
            std::string::npos);
}

TEST(Trend, IterationGrowthBeyondThresholdRegresses) {
  const StatsReport base = jobReport(40, 2, 3, 4, 25.0);
  StatsReport current = jobReport(40, 2, 3, 4, 25.0);
  current.runs[0].iterations += 5;  // 40 -> 45: 12.5% > 10%
  const TrendReport trend = compareTrend(base, current);
  EXPECT_TRUE(trend.regressed);
  EXPECT_EQ(trend.metrics[0].name, "iterations");
  EXPECT_TRUE(trend.metrics[0].regressed);
  EXPECT_NE(renderTrendText(trend).find("REGRESSED"), std::string::npos);
  // A 20% allowance clears the same delta.
  TrendOptions loose;
  loose.thresholdPct = 20.0;
  EXPECT_FALSE(compareTrend(base, current, loose).regressed);
}

TEST(Trend, RateDropGatesAbsolutelyAndLatencyIsAdvisory) {
  const StatsReport base = jobReport(40, 4, 4, 8, 25.0);   // rates 50%
  StatsReport current = jobReport(40, 1, 1, 8, 250.0);     // rates 12.5%
  const TrendReport trend = compareTrend(base, current);
  EXPECT_TRUE(trend.regressed);
  EXPECT_EQ(trend.metrics[2].name, "presolveRate");
  EXPECT_TRUE(trend.metrics[2].regressed);   // dropped 37.5 pct points
  EXPECT_TRUE(trend.metrics[3].regressed);   // cacheHitRate likewise
  // p50 latency grew 10x but stays advisory without a latency threshold.
  EXPECT_EQ(trend.metrics[4].name, "p50WallMs");
  EXPECT_FALSE(trend.metrics[4].gated);
  EXPECT_FALSE(trend.metrics[4].regressed);
  // Opting in to latency gating flips it.
  TrendOptions gated;
  gated.latencyThresholdPct = 50.0;
  const TrendReport latencyTrend = compareTrend(base, current, gated);
  EXPECT_TRUE(latencyTrend.metrics[4].gated);
  EXPECT_TRUE(latencyTrend.metrics[4].regressed);
}

TEST(Trend, ZeroBaselineWithWorkCountsAsRegression) {
  const StatsReport base;  // empty: no runs, no jobs
  const StatsReport current = jobReport(10, 0, 0, 2, 5.0);
  const TrendReport trend = compareTrend(base, current);
  EXPECT_TRUE(trend.metrics[0].regressed);  // iterations 0 -> 10
  // Rates compare 0% to 0%-of-nothing sensibly: no division blowup.
  EXPECT_FALSE(trend.metrics[2].regressed);
}

}  // namespace
}  // namespace mui::obs

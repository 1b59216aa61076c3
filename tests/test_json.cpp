// util/json — the one JSON codec: the Object writer, the depth-bounded
// reader and its compact inverse. The writer table pins one line from
// every writer of the program: the writers must produce each line byte for
// byte, and write(parse(line)) must reproduce it.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "engine/cache.hpp"
#include "engine/persistent_cache.hpp"
#include "engine/report.hpp"
#include "helpers.hpp"
#include "obs/journal.hpp"
#include "serve/protocol.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "util/json.hpp"

namespace {

using namespace mui;
namespace json = util::json;

engine::Job pinnedJob() {
  engine::Job job;
  job.name = "wd \"quoted\"\tname";
  job.ulid = "01ARZ3NDEKTSV4RRFFQ69G5FAV";
  job.modelPath = "models/watchdog.muml";
  job.pattern = "Watchdog";
  job.legacyRole = "device";
  job.hidden = "deviceCompliant";
  job.formula = "AG !monitor.escalated";
  job.timeoutMs = 1234;
  job.maxIterations = 9;
  return job;
}

engine::JobResult pinnedResult() {
  engine::JobResult r;
  r.job = pinnedJob();
  r.status = engine::JobStatus::Proven;
  r.worker = "worker-0";
  r.explanation = "proven \xE2\x9C\x93 in 3 iterations\n";
  r.iterations = 3;
  r.testPeriods = 9;
  r.learnedFacts = 2;
  r.wallMs = 12.5;
  r.closureMs = 0.25;
  r.composeMs = 1.125;
  r.checkMs = 0.0625;
  r.testMs = 3;
  r.productStatesNew = 140;
  r.presolved = true;
  return r;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

/// The line with every `*Ms` number token set to 0 (timings differ per run).
std::string withoutTimings(const std::string& line) {
  auto v = json::parse(line);
  if (!v) return "unparseable: " + line;
  for (auto& m : v->members) {
    if (m.key.size() > 2 && m.key.compare(m.key.size() - 2, 2, "Ms") == 0) {
      m.value.text = "0";
    }
  }
  return json::write(*v);
}

// Journal lines of `mui integrate models/railcab.muml DistanceCoordination
// rearRole rearShipped --journal-out`: the first iteration and the verdict.
const std::string kJournalIteration =
    R"({"schema":2,"type":"iteration","run":"DistanceCoordination/rearRole/rearShipped","iter":0,"modelStates":1,"modelTransitions":0,"modelForbidden":0,"closureStates":4,"productStates":46,"statesNew":91,"statesReused":0,"checkPassed":false,"cexKind":"deadlock","cexLength":0,"learnedFacts":3,"testPeriods":2,"closureMs":0.036,"composeMs":0.510,"checkMs":0.059,"testMs":0.036})";
const std::string kJournalVerdict =
    R"({"schema":2,"type":"verdict","run":"DistanceCoordination/rearRole/rearShipped","verdict":"proven","explanation":"the abstraction satisfies the property and deadlock freedom; by Lemma 5 the real integration is correct","iterations":7,"learnedFacts":19,"testPeriods":92,"productStatesNew":780,"productStatesReused":0,"closureMs":0.581,"composeMs":3.636,"checkMs":0.328,"testMs":0.282})";

// writeBatchSummary over one pinnedResult() row.
const std::string kBatchJob =
    R"({"type":"job","name":"wd \"quoted\"\tname","ulid":"01ARZ3NDEKTSV4RRFFQ69G5FAV","model":"models/watchdog.muml","pattern":"Watchdog","role":"device","hidden":"deviceCompliant","status":"proven","worker":"worker-0","explanation":"proven )"
    "\xE2\x9C\x93"
    R"( in 3 iterations\n","iterations":3,"testPeriods":9,"learnedFacts":2,"wallMs":12.500,"closureMs":0.250,"composeMs":1.125,"checkMs":0.062,"testMs":3.000,"productStatesNew":140,"productStatesReused":0,"cacheHit":false,"presolved":true})";
const std::string kBatchLine =
    R"({"type":"batch","jobs":1,"threads":2,"wallMs":20.750,"cacheHits":1,"cacheMisses":1,"proven":1,"real-error":0,"iter-limit":0,"unsupported":0,"adapter-failure":0,"timeout":0,"engine-error":0})";

// Serve wire lines (protocol.hpp writers; the stats reply from a daemon).
const std::string kHello =
    R"({"schema":1,"type":"hello","client":"ci","trace":"ci-run-42","deadline-ms":5000})";
const std::string kJob =
    R"({"schema":1,"type":"job","id":7,"name":"wd \"quoted\"\tname","ulid":"01ARZ3NDEKTSV4RRFFQ69G5FAV","model":"models/watchdog.muml","pattern":"Watchdog","role":"device","hidden":"deviceCompliant","formula":"AG !monitor.escalated","timeout-ms":1234,"max-iterations":9})";
const std::string kStatsRequest = R"({"schema":1,"type":"stats"})";
const std::string kEnd = R"({"schema":1,"type":"end"})";
const std::string kWelcome =
    R"({"schema":1,"type":"welcome","version":"0.2.0","threads":8})";
const std::string kResult =
    R"({"schema":1,"type":"result","id":7,"name":"wd \"quoted\"\tname","ulid":"01ARZ3NDEKTSV4RRFFQ69G5FAV","status":"proven","explanation":"proven )"
    "\xE2\x9C\x93"
    R"( in 3 iterations\n","cacheHit":false,"presolved":true,"iterations":3,"testPeriods":9,"learnedFacts":2,"wallMs":12.500,"worker":"worker-0"})";
const std::string kShed =
    R"({"schema":1,"type":"shed","id":8,"retry-after-ms":250})";
const std::string kError =
    R"({"schema":1,"type":"error","message":"malformed \"line\""})";
const std::string kDone =
    R"({"schema":1,"type":"done","jobs":10,"shed":1,"cacheHits":4,"cacheMisses":6})";
const std::string kStatsReply =
    R"({"schema":1,"type":"stats","uptimeMs":1156.244,"draining":false,"threads":2,"connections":1,"httpRequests":0,"jobsAccepted":0,"jobsCompleted":0,"jobsShed":0,"protocolErrors":0,"queueDepth":0,"cacheEntries":0,"cacheBytes":0,"cacheHits":0,"cacheMisses":0,"cacheEvictions":0,"cacheCollisions":0})";

// A cache-log record (PersistentResultCache::encodeRecord).
const std::string kCacheMaterial = "model text\nrtsc a { }\n\x01";
const std::string kCacheRecord =
    R"({"schema":1,"type":"result","key":"fdaf4f479377c2c9","material":"model text\nrtsc a { }\n\u0001","status":"real-error","explanation":"real error: deadlock after {ping}","iterations":4,"testPeriods":17,"learnedFacts":5})";

// Adapter protocol lines: every request the harness sends and every
// response adapter_automaton gives (tests/test_adapter.cpp replays the
// harness side against these).
const std::vector<std::string> kAdapterLines = {
    R"({"cmd":"hello"})",
    R"({"cmd":"step","inputs":"ping"})",
    R"({"cmd":"step","inputs":""})",
    R"({"cmd":"probe"})",
    R"({"cmd":"reset"})",
    R"({"cmd":"quit"})",
    R"({"ok":true,"name":"device","inputs":"ping","outputs":"pong"})",
    R"({"ok":true,"outputs":""})",
    R"({"ok":true,"outputs":"pong"})",
    R"({"ok":true,"refused":true})",
    R"({"ok":true,"state":"serving"})",
    R"({"ok":true})",
    R"({"ok":false,"error":"unknown input signal 'bogus'"})",
    R"({"ok":false,"error":"unknown command 'frob'"})",
    R"({"ok":false,"error":"unparseable request"})",
};

TEST(Json, WritersProduceThePinnedLines) {
  engine::BatchReport report;
  report.results.push_back(pinnedResult());
  report.threads = 2;
  report.wallMs = 20.75;
  report.cacheHits = 1;
  report.cacheMisses = 1;
  EXPECT_EQ(engine::writeBatchSummary(report),
            kBatchJob + "\n" + kBatchLine + "\n");

  EXPECT_EQ(serve::writeHelloLine("ci", 5000, "ci-run-42"), kHello);
  EXPECT_EQ(serve::writeJobLine(7, pinnedJob()), kJob);
  EXPECT_EQ(serve::writeStatsRequestLine(), kStatsRequest);
  EXPECT_EQ(serve::writeEndLine(), kEnd);
  EXPECT_EQ(serve::writeWelcomeLine("0.2.0", 8), kWelcome);
  EXPECT_EQ(serve::writeResultLine(7, pinnedResult()), kResult);
  EXPECT_EQ(serve::writeShedLine(8, 250), kShed);
  EXPECT_EQ(serve::writeErrorLine("malformed \"line\""), kError);
  EXPECT_EQ(serve::writeDoneLine(10, 1, 4, 6), kDone);

  engine::CachedOutcome outcome;
  outcome.status = engine::JobStatus::RealError;
  outcome.explanation = "real error: deadlock after {ping}";
  outcome.iterations = 4;
  outcome.testPeriods = 17;
  outcome.learnedFacts = 5;
  EXPECT_EQ(engine::PersistentResultCache::encodeRecord(
                engine::fnv1a(kCacheMaterial), kCacheMaterial, outcome),
            kCacheRecord);
}

TEST(Json, JournalLinesMatchThePinnedRunApartFromTimings) {
  const test::Railcab rc;
  muml::IntegrationBinding binding = rc.bind("rearShipped");
  mui::testing::AutomatonLegacy legacy(*binding.legacy.hidden);
  obs::Journal journal;
  synthesis::IntegrationConfig cfg;
  cfg.property = binding.scenario.property;
  cfg.keepTraces = true;
  cfg.journal = &journal;
  cfg.runId = "DistanceCoordination/rearRole/rearShipped";
  synthesis::IntegrationVerifier(binding.scenario.context, legacy, cfg).run();
  const auto events = lines(journal.text());
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(withoutTimings(events[1]), withoutTimings(kJournalIteration));
  EXPECT_EQ(withoutTimings(events.back()), withoutTimings(kJournalVerdict));
}

TEST(Json, WriteOfParseReproducesEveryPinnedLine) {
  std::vector<std::string> table = {
      kJournalIteration, kJournalVerdict, kBatchJob,  kBatchLine,
      kHello,            kJob,            kStatsRequest, kEnd,
      kWelcome,          kResult,         kShed,      kError,
      kDone,             kStatsReply,     kCacheRecord};
  table.insert(table.end(), kAdapterLines.begin(), kAdapterLines.end());
  for (const std::string& line : table) {
    std::string error;
    const auto v = json::parse(line, &error);
    ASSERT_TRUE(v.has_value()) << line << ": " << error;
    EXPECT_EQ(v->kind, json::Value::Kind::Object) << line;
    EXPECT_EQ(json::write(*v), line);
  }
}

TEST(Json, JournalEventRoundTripsThroughTheReader) {
  obs::Journal journal;
  journal.event("iteration",
                json::Object()
                    .s("run", "p/r/h")
                    .u("iter", 3)
                    .i("delta", -1)
                    .f("checkMs", 1.25)
                    .b("checkPassed", true)
                    .s("note", "tab\there \"quoted\" \xE2\x9C\x93"));
  ASSERT_EQ(journal.eventCount(), 1u);
  const std::string line =
      journal.text().substr(0, journal.text().size() - 1);  // drop '\n'
  const auto obj = json::parse(line);
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->u64("schema"),
            static_cast<std::uint64_t>(obs::kJournalSchemaVersion));
  EXPECT_EQ(obj->str("type"), "iteration");
  EXPECT_EQ(obj->str("run"), "p/r/h");
  EXPECT_EQ(obj->u64("iter"), 3u);
  EXPECT_EQ(obj->num("delta"), -1.0);
  EXPECT_EQ(obj->num("checkMs"), 1.25);
  EXPECT_EQ(obj->flag("checkPassed"), true);
  EXPECT_EQ(obj->str("note"), "tab\there \"quoted\" \xE2\x9C\x93");
}

TEST(Json, RejectsMalformedAndParsesNestedValues) {
  EXPECT_FALSE(json::parse("not json").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  const auto obj = json::parse("{\"a\":{\"x\":[1,2]},\"b\":null}");
  ASSERT_TRUE(obj.has_value());
  ASSERT_NE(obj->find("a"), nullptr);
  EXPECT_EQ(obj->find("a")->kind, json::Value::Kind::Object);
  EXPECT_EQ(json::write(*obj->find("a")), "{\"x\":[1,2]}");
  ASSERT_NE(obj->find("b"), nullptr);
  EXPECT_EQ(obj->find("b")->kind, json::Value::Kind::Null);
}

TEST(Json, ParsesAnArrayOfObjects) {
  const auto rows =
      json::parse("[\n{\"a\":1,\"s\":\"x\"},\n{\"a\":2,\"b\":true}\n]");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->kind, json::Value::Kind::Array);
  ASSERT_EQ(rows->items.size(), 2u);
  EXPECT_EQ(rows->items[0].u64("a"), 1u);
  EXPECT_EQ(rows->items[0].str("s"), "x");
  EXPECT_EQ(rows->items[1].flag("b"), true);

  const auto empty = json::parse("[\n]");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->items.empty());

  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("[{\"a\":1},]").has_value());
  EXPECT_FALSE(json::parse("[{\"a\":1}] trailing").has_value());
}

TEST(Json, U64ReadsOnlyPlainDigitTokensThatFit) {
  const auto v = json::parse(
      R"({"zero":0,"max":18446744073709551615,"over":18446744073709551616,)"
      R"("neg":-1,"frac":2.5,"exp":1e3,"huge":1e999,"str":"7","flag":true})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->u64("zero"), 0u);
  EXPECT_EQ(v->u64("max"), UINT64_MAX);
  for (const char* key : {"over", "neg", "frac", "exp", "huge", "str", "flag",
                          "absent"}) {
    EXPECT_FALSE(v->u64(key).has_value()) << key;
  }
  // num() still reads every number token, str()/flag() only their kinds.
  EXPECT_EQ(v->num("frac"), 2.5);
  EXPECT_EQ(v->num("neg"), -1.0);
  EXPECT_FALSE(v->num("str").has_value());
  EXPECT_EQ(v->str("str"), "7");
  EXPECT_FALSE(v->str("zero").has_value());
  EXPECT_EQ(v->flag("flag"), true);
  EXPECT_FALSE(v->flag("zero").has_value());
}

TEST(Json, NestingBeyondTheBoundIsALocatedError) {
  const std::string ok = std::string(json::kMaxDepth, '[') +
                         std::string(json::kMaxDepth, ']');
  EXPECT_TRUE(json::parse(ok).has_value());
  std::string error;
  const std::string deeper = "[" + ok + "]";
  EXPECT_FALSE(json::parse(deeper, &error).has_value());
  EXPECT_NE(error.find("offset " + std::to_string(json::kMaxDepth)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  // A hostile document far deeper than any stack could recurse.
  const std::string hostile = "{\"a\":" + std::string(100000, '[');
  error.clear();
  EXPECT_FALSE(json::parse(hostile, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(Json, StringsDecodeEscapesAndRepeatedKeysReadAsTheLast) {
  const auto v = json::parse(
      R"({"s":"a\"b\\c\/\n\t\r\b\fé🚀\ud800x","k":1,"k":2})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str("s"),
            "a\"b\\c/\n\t\r\b\f\xC3\xA9\xF0\x9F\x9A\x80\xEF\xBF\xBDx");
  EXPECT_EQ(v->u64("k"), 2u);
  // Both repeats stay in the tree, in document order.
  EXPECT_EQ(json::write(*v).substr(json::write(*v).find("\"k\"")),
            "\"k\":1,\"k\":2}");
  EXPECT_FALSE(json::parse(R"({"s":"\x"})").has_value());
  EXPECT_FALSE(json::parse(R"({"s":"\u12"})").has_value());
  EXPECT_FALSE(json::parse(R"({"s":"open)").has_value());
}

TEST(Json, NumberTokensSurviveVerbatim) {
  for (const char* doc : {"[1.000,-0.5,1e3,2.500E-2,0]", "{\"ts\":12.345}"}) {
    const auto v = json::parse(doc);
    ASSERT_TRUE(v.has_value()) << doc;
    EXPECT_EQ(json::write(*v), doc);
  }
  EXPECT_FALSE(json::parse("[1.2.3]").has_value());
  EXPECT_FALSE(json::parse("[-]").has_value());
  EXPECT_FALSE(json::parse("[tru]").has_value());
}

}  // namespace

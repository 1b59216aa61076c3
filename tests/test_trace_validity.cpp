// Trace document validity (docs/OBSERVABILITY.md): every event line a
// chromeTrace() document emits must parse as JSON, carry the fields the
// Chrome trace-event format requires for its phase, and the async "b"/"e"
// pairs that bracket a job (client submit ring and daemon execution ring)
// must pair up per (name, id) — including after mergeChromeTraces() splices
// the rings of two processes into one document.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "obs/ulid.hpp"
#include "util/json.hpp"

namespace mui::obs {
namespace {

namespace json = util::json;

struct TracerGuard {
  TracerGuard() { Tracer::enable(); }
  ~TracerGuard() {
    Tracer::disable();
    Tracer::clear();
  }
};

/// Extracts the event lines of a chromeTrace()/mergeChromeTraces document
/// (one event per line, trailing commas stripped) and asserts every one of
/// them parses as a JSON object.
std::vector<json::Value> parsedEvents(const std::string& doc) {
  std::vector<json::Value> events;
  std::istringstream in(doc);
  std::string line;
  bool inEvents = false;
  while (std::getline(in, line)) {
    if (!inEvents) {
      // The header line carries displayTimeUnit/epoch and opens the array.
      inEvents = line.find("\"traceEvents\":[") != std::string::npos;
      continue;
    }
    if (line == "]}" || line.empty()) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    auto obj = json::parse(line);
    EXPECT_TRUE(obj.has_value()) << "unparseable event line: " << line;
    if (obj) events.push_back(std::move(*obj));
  }
  return events;
}

std::string fieldText(const json::Value& o, const char* key) {
  return std::string(o.str(key).value_or(""));
}

/// Asserts every "b" has exactly one matching "e" (same name and id) and
/// that no "e" arrives without its "b". Begin and end may sit on different
/// threads — and, in a merged doc, different pids — by design.
void expectAsyncPairsBalanced(const std::vector<json::Value>& events) {
  std::map<std::string, int> open;
  for (const json::Value& ev : events) {
    const std::string ph = fieldText(ev, "ph");
    if (ph != "b" && ph != "e") continue;
    const std::string key = fieldText(ev, "name") + "\x1f" +
                            fieldText(ev, "id");
    EXPECT_FALSE(fieldText(ev, "id").empty())
        << "async event without an id: " << fieldText(ev, "name");
    open[key] += ph == "b" ? 1 : -1;
    EXPECT_GE(open[key], 0) << "async end before begin for " << key;
  }
  for (const auto& [key, count] : open) {
    EXPECT_EQ(count, 0) << "unbalanced async pair: " << key;
  }
}

TEST(TraceValidity, EveryEmittedEventLineIsWellFormed) {
  TracerGuard guard;
  setThreadName("main");
  const std::string ulid = newUlid();
  Tracer::asyncBegin("job:demo", ulid);
  {
    const ObsSpan outer("job:demo", ulid);
    const ObsSpan iter("iteration", 3, ulid);
    const ObsSpan plain("closure");
  }
  Tracer::asyncEnd("job:demo", ulid);
  Tracer::disable();

  const auto events = parsedEvents(Tracer::chromeTrace(1, "mui-test"));
  // b + 3 X + e; metadata lines vary with threads other tests registered.
  std::size_t nonMeta = 0;
  for (const json::Value& ev : events) {
    if (fieldText(ev, "ph") != "M") ++nonMeta;
  }
  ASSERT_EQ(nonMeta, 5u);
  std::set<std::string> phases;
  for (const json::Value& ev : events) {
    const std::string ph = fieldText(ev, "ph");
    phases.insert(ph);
    EXPECT_TRUE(ph == "X" || ph == "M" || ph == "b" || ph == "e") << ph;
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    if (ph == "X") {
      // Complete events need a numeric timestamp and duration.
      ASSERT_TRUE(ev.num("ts").has_value());
      ASSERT_TRUE(ev.num("dur").has_value());
      EXPECT_GE(*ev.num("dur"), 0.0);
    }
    if (ph == "b" || ph == "e") {
      EXPECT_EQ(fieldText(ev, "id"), ulid);
      ASSERT_NE(ev.find("ts"), nullptr);
    }
  }
  EXPECT_EQ(phases, (std::set<std::string>{"M", "X", "b", "e"}));
  expectAsyncPairsBalanced(events);
}

TEST(TraceValidity, AsyncPairsBalancePerIdAcrossManyJobs) {
  TracerGuard guard;
  std::vector<std::string> ulids;
  for (int i = 0; i < 8; ++i) ulids.push_back(newUlid());
  // Interleaved begins and ends, as a pipelined daemon produces them.
  for (const std::string& u : ulids) Tracer::asyncBegin("job:batch", u);
  for (const std::string& u : ulids) Tracer::asyncEnd("job:batch", u);
  Tracer::disable();
  const auto events = parsedEvents(Tracer::chromeTrace());
  std::size_t asyncEvents = 0;
  for (const json::Value& ev : events) {
    const std::string ph = fieldText(ev, "ph");
    if (ph == "b" || ph == "e") ++asyncEvents;
  }
  ASSERT_EQ(asyncEvents, 16u);
  expectAsyncPairsBalanced(events);
}

TEST(TraceValidity, MergedClientAndDaemonRingsShareTheJobUlid) {
  // Simulate `mui submit --trace-out`: the client rings (pid 1) and the
  // daemon's /trace snapshot (pid 2) carry the same job ULID; the merged
  // document must contain both processes and still balance the pairs.
  const std::string ulid = newUlid();

  Tracer::enable();
  Tracer::asyncBegin("submit:j1", ulid);
  { const ObsSpan wire("submit", ulid); }
  Tracer::asyncEnd("submit:j1", ulid);
  Tracer::disable();
  const std::string clientDoc = Tracer::chromeTrace(1, "mui-submit");

  Tracer::enable();  // resets the rings: this is "the other process"
  Tracer::asyncBegin("job:j1", ulid);
  { const ObsSpan run("job:j1", ulid); }
  Tracer::asyncEnd("job:j1", ulid);
  Tracer::disable();
  const std::string daemonDoc = Tracer::chromeTrace(2, "mui-serve");
  Tracer::clear();

  const std::string merged = mergeChromeTraces({clientDoc, daemonDoc});
  const auto events = parsedEvents(merged);
  ASSERT_GE(events.size(), 8u);
  expectAsyncPairsBalanced(events);

  std::set<double> pids;
  std::size_t taggedWithUlid = 0;
  for (const json::Value& ev : events) {
    const auto pid = ev.num("pid");
    ASSERT_TRUE(pid.has_value());
    pids.insert(*pid);
    if (fieldText(ev, "id") == ulid) ++taggedWithUlid;
  }
  EXPECT_EQ(pids, (std::set<double>{1.0, 2.0}));
  // Both rings contributed their async bracket for the same job.
  EXPECT_EQ(taggedWithUlid, 4u);
  // Both process_name metadata lines survived the merge.
  EXPECT_NE(merged.find("mui-submit"), std::string::npos);
  EXPECT_NE(merged.find("mui-serve"), std::string::npos);
}

TEST(TraceValidity, MergeShiftsTheLaterDocumentOntoTheBaseTimeline) {
  // Hand-crafted documents 5ms apart: after the merge the second event
  // must be shifted by the epoch delta (5000us) onto the first timeline.
  const std::string docA =
      "{\"displayTimeUnit\":\"ms\",\"muiEpochUnixNs\":1000000000,"
      "\"traceEvents\":[\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"mui\",\"name\":\"a\","
      "\"ts\":100.000,\"dur\":1.000}\n]}\n";
  const std::string docB =
      "{\"displayTimeUnit\":\"ms\",\"muiEpochUnixNs\":1005000000,"
      "\"traceEvents\":[\n"
      "{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"cat\":\"mui\",\"name\":\"b\","
      "\"ts\":100.000,\"dur\":1.000}\n]}\n";
  const auto events = parsedEvents(mergeChromeTraces({docA, docB}));
  ASSERT_EQ(events.size(), 2u);
  double tsA = 0;
  double tsB = 0;
  for (const json::Value& ev : events) {
    if (fieldText(ev, "name") == "a") tsA = ev.num("ts").value_or(0);
    if (fieldText(ev, "name") == "b") tsB = ev.num("ts").value_or(0);
  }
  EXPECT_DOUBLE_EQ(tsA, 100.0);
  EXPECT_DOUBLE_EQ(tsB, 5100.0);
}

TEST(TraceValidity, MergeShiftsOnlyTimestampsAndKeepsTokensAndKeyOrder) {
  // The daemon-side events of a merge move by the epoch delta (2500us);
  // everything else — integer pid/tid tokens, nested args, key order —
  // reads exactly as the daemon wrote it.
  const std::string client =
      "{\"displayTimeUnit\":\"ms\",\"muiEpochUnixNs\":1000000000,"
      "\"traceEvents\":[\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"mui\",\"name\":\"a\","
      "\"ts\":100.000,\"dur\":1.000}\n]}\n";
  const std::vector<std::pair<std::string, std::string>> daemonEvents = {
      {R"({"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"mui-serve"}})",
       R"({"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"mui-serve"}})"},
      {R"({"ph":"X","pid":2,"tid":3,"cat":"mui","name":"job:j1","ts":10.250,"dur":4.500,"args":{"i":7,"cid":"01ARZ3NDEKTSV4RRFFQ69G5FAV"}})",
       R"({"ph":"X","pid":2,"tid":3,"cat":"mui","name":"job:j1","ts":2510.250,"dur":4.500,"args":{"i":7,"cid":"01ARZ3NDEKTSV4RRFFQ69G5FAV"}})"},
      {R"({"ph":"b","pid":2,"tid":3,"cat":"mui","name":"job:j1","ts":9.000,"id":"01ARZ3NDEKTSV4RRFFQ69G5FAV","scope":"mui"})",
       R"({"ph":"b","pid":2,"tid":3,"cat":"mui","name":"job:j1","ts":2509.000,"id":"01ARZ3NDEKTSV4RRFFQ69G5FAV","scope":"mui"})"},
  };
  std::string daemon =
      "{\"displayTimeUnit\":\"ms\",\"muiEpochUnixNs\":1002500000,"
      "\"traceEvents\":[\n";
  for (std::size_t k = 0; k < daemonEvents.size(); ++k) {
    daemon += (k > 0 ? ",\n" : "") + daemonEvents[k].first;
  }
  daemon += "\n]}\n";

  const std::string merged = mergeChromeTraces({client, daemon});
  std::set<std::string> mergedLines;
  std::istringstream in(merged);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == ',') line.pop_back();
    mergedLines.insert(line);
  }
  for (const auto& [written, shifted] : daemonEvents) {
    EXPECT_EQ(mergedLines.count(shifted), 1u)
        << "missing " << shifted << " in\n" << merged;
  }
  const auto events = parsedEvents(merged);
  ASSERT_EQ(events.size(), 4u);
  for (const json::Value& ev : events) {
    ASSERT_NE(ev.find("pid"), nullptr);
    EXPECT_EQ(ev.find("pid")->text, fieldText(ev, "name") == "a" ? "1" : "2");
  }
}

}  // namespace
}  // namespace mui::obs

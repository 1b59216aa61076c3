// mui::serve — wire-protocol round-trips and whole-daemon behavior against
// the shipped models: submit/result round-trips with cache hits, deadline
// expiry, admission-control shedding, durable-cache survival across a
// server restart, the HTTP endpoints, and protocol error handling.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/job.hpp"
#include "helpers.hpp"
#include "obs/ulid.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/json.hpp"

namespace {

using namespace mui;
using engine::Job;
using engine::JobStatus;

const std::string kWatchdog = std::string(MUI_MODELS_DIR) + "/watchdog.muml";
const std::string kRailcab = std::string(MUI_MODELS_DIR) + "/railcab.muml";

std::filesystem::path testDir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "mui_serve_tests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Job watchdogJob(std::string name, std::string hidden) {
  Job job;
  job.name = std::move(name);
  job.modelPath = kWatchdog;
  job.pattern = "Watchdog";
  job.legacyRole = "device";
  job.hidden = std::move(hidden);
  return job;
}

Job railcabJob(std::string name, std::uint64_t timeoutMs = 0) {
  Job job;
  job.name = std::move(name);
  job.modelPath = kRailcab;
  job.pattern = "DistanceCoordination";
  job.legacyRole = "rearRole";
  job.hidden = "rearShipped";
  job.timeoutMs = timeoutMs;
  return job;
}

serve::ServeOptions localOptions() {
  serve::ServeOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // kernel-assigned
  options.threads = 2;
  options.version = "test";
  return options;
}

serve::SubmitOptions clientFor(const serve::Server& server) {
  serve::SubmitOptions options;
  options.port = server.port();
  options.clientName = "gtest";
  return options;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, JobLineRoundTrips) {
  Job job = watchdogJob("wd", "deviceCompliant");
  job.formula = "AG x";
  job.timeoutMs = 1234;
  job.maxIterations = 7;
  const serve::Request req =
      serve::parseRequest(serve::writeJobLine(42, job));
  ASSERT_EQ(req.type, serve::Request::Type::Job);
  EXPECT_EQ(req.id, 42u);
  EXPECT_EQ(req.job.name, "wd");
  EXPECT_EQ(req.job.modelPath, kWatchdog);
  EXPECT_EQ(req.job.pattern, "Watchdog");
  EXPECT_EQ(req.job.legacyRole, "device");
  EXPECT_EQ(req.job.hidden, "deviceCompliant");
  EXPECT_EQ(req.job.formula, "AG x");
  EXPECT_EQ(req.job.timeoutMs, 1234u);
  EXPECT_EQ(req.job.maxIterations, 7u);
}

TEST(ServeProtocol, HelloEndAndMalformedLines) {
  const serve::Request hello =
      serve::parseRequest(serve::writeHelloLine("ci", 5000));
  ASSERT_EQ(hello.type, serve::Request::Type::Hello);
  EXPECT_EQ(hello.client, "ci");
  EXPECT_EQ(hello.deadlineMs, 5000u);
  EXPECT_EQ(serve::parseRequest(serve::writeEndLine()).type,
            serve::Request::Type::End);
  EXPECT_EQ(serve::parseRequest("not json").type,
            serve::Request::Type::Invalid);
  // A job without the required fields must not parse as a job.
  EXPECT_EQ(serve::parseRequest(R"({"schema":1,"type":"job","id":1})").type,
            serve::Request::Type::Invalid);
}

TEST(ServeProtocol, ResultAndControlRepliesRoundTrip) {
  engine::JobResult result;
  result.job = watchdogJob("wd", "deviceCompliant");
  result.status = JobStatus::Proven;
  result.explanation = "all good";
  result.iterations = 3;
  result.cacheHit = true;
  const serve::Response res =
      serve::parseResponse(serve::writeResultLine(9, result));
  ASSERT_EQ(res.type, serve::Response::Type::Result);
  EXPECT_EQ(res.id, 9u);
  EXPECT_EQ(res.result.status, JobStatus::Proven);
  EXPECT_EQ(res.result.explanation, "all good");
  EXPECT_EQ(res.result.iterations, 3u);
  EXPECT_TRUE(res.result.cacheHit);

  const serve::Response shed =
      serve::parseResponse(serve::writeShedLine(4, 250));
  ASSERT_EQ(shed.type, serve::Response::Type::Shed);
  EXPECT_EQ(shed.id, 4u);
  EXPECT_EQ(shed.retryAfterMs, 250u);

  const serve::Response done =
      serve::parseResponse(serve::writeDoneLine(10, 1, 4, 6));
  ASSERT_EQ(done.type, serve::Response::Type::Done);
  EXPECT_EQ(done.jobs, 10u);
  EXPECT_EQ(done.shed, 1u);
  EXPECT_EQ(done.cacheHits, 4u);
  EXPECT_EQ(done.cacheMisses, 6u);

  EXPECT_EQ(serve::parseResponse("garbage").type,
            serve::Response::Type::Invalid);
}

TEST(ServeProtocol, CorrelationFieldsRoundTrip) {
  // The ulid travels on the job line and comes back on the result line;
  // hello carries the client's trace context. All additive within schema 1.
  Job job = watchdogJob("wd", "deviceCompliant");
  job.ulid = "01ARZ3NDEKTSV4RRFFQ69G5FAV";
  const serve::Request req = serve::parseRequest(serve::writeJobLine(7, job));
  ASSERT_EQ(req.type, serve::Request::Type::Job);
  EXPECT_EQ(req.job.ulid, "01ARZ3NDEKTSV4RRFFQ69G5FAV");

  engine::JobResult result;
  result.job = job;
  result.status = JobStatus::Proven;
  result.presolved = true;
  const serve::Response res =
      serve::parseResponse(serve::writeResultLine(7, result));
  ASSERT_EQ(res.type, serve::Response::Type::Result);
  EXPECT_EQ(res.result.job.ulid, "01ARZ3NDEKTSV4RRFFQ69G5FAV");
  EXPECT_TRUE(res.result.presolved);

  const serve::Request hello =
      serve::parseRequest(serve::writeHelloLine("ci", 0, "nightly-42"));
  ASSERT_EQ(hello.type, serve::Request::Type::Hello);
  EXPECT_EQ(hello.trace, "nightly-42");

  // A ulid-less job line still parses (v1 clients).
  Job bare = watchdogJob("wd", "deviceCompliant");
  const serve::Request old = serve::parseRequest(serve::writeJobLine(8, bare));
  ASSERT_EQ(old.type, serve::Request::Type::Job);
  EXPECT_TRUE(old.job.ulid.empty());
}

/// `line` with the first occurrence of `from` replaced by `to`.
std::string edited(std::string line, const std::string& from,
                   const std::string& to) {
  const auto at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from << " not in " << line;
  if (at != std::string::npos) line.replace(at, from.size(), to);
  return line;
}

TEST(ServeProtocol, IntegerFieldsMustBePlainNonNegativeLiterals) {
  Job job = watchdogJob("wd", "deviceCompliant");
  job.timeoutMs = 1234;
  job.maxIterations = 7;
  const std::string line = serve::writeJobLine(42, job);
  for (const auto& [field, from, to] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"id", "\"id\":42", "\"id\":-1"},
           {"timeout-ms", "\"timeout-ms\":1234", "\"timeout-ms\":1e999"},
           {"max-iterations", "\"max-iterations\":7",
            "\"max-iterations\":2.5"},
           {"schema", "\"schema\":1", "\"schema\":1.5"},
           {"id", "\"id\":42", "\"id\":\"42\""},
       }) {
    const serve::Request req = serve::parseRequest(edited(line, from, to));
    EXPECT_EQ(req.type, serve::Request::Type::Invalid) << to;
    EXPECT_NE(req.error.find("'" + field + "'"), std::string::npos)
        << to << ": " << req.error;
  }
  const serve::Request hello = serve::parseRequest(
      edited(serve::writeHelloLine("ci", 5000), "5000", "-5000"));
  EXPECT_EQ(hello.type, serve::Request::Type::Invalid);
  EXPECT_NE(hello.error.find("'deadline-ms'"), std::string::npos);

  engine::JobResult result;
  result.job = job;
  result.status = JobStatus::Proven;
  result.iterations = 3;
  for (const auto& [field, line, from, to] :
       std::vector<std::tuple<std::string, std::string, std::string,
                              std::string>>{
           {"iterations", serve::writeResultLine(9, result),
            "\"iterations\":3", "\"iterations\":-3"},
           {"retry-after-ms", serve::writeShedLine(4, 250), "250", "1e999"},
           {"cacheHits", serve::writeDoneLine(10, 1, 4, 6), "\"cacheHits\":4",
            "\"cacheHits\":4.5"},
           {"schema", serve::writeWelcomeLine("v", 2), "\"schema\":1",
            "\"schema\":1.9"},
       }) {
    const serve::Response res = serve::parseResponse(edited(line, from, to));
    EXPECT_EQ(res.type, serve::Response::Type::Invalid) << to;
    EXPECT_NE(res.error.find("'" + field + "'"), std::string::npos)
        << to << ": " << res.error;
  }
}

TEST(ServeProtocol, DeeplyNestedLineIsInvalidWithALocatedError) {
  const std::string hostile =
      "{\"schema\":1,\"type\":\"job\",\"x\":" + std::string(100000, '[');
  const serve::Request req = serve::parseRequest(hostile);
  EXPECT_EQ(req.type, serve::Request::Type::Invalid);
  EXPECT_NE(req.error.find("nesting"), std::string::npos) << req.error;
  EXPECT_NE(req.error.find("offset "), std::string::npos) << req.error;
  const serve::Response res = serve::parseResponse(hostile);
  EXPECT_EQ(res.type, serve::Response::Type::Invalid);
  EXPECT_NE(res.error.find("nesting"), std::string::npos) << res.error;
}

// ----------------------------------------------------------- daemon basics

TEST(ServeServer, RoundTripsJobsAndServesDuplicatesFromCache) {
  serve::Server server(localOptions());
  server.start();

  const std::vector<Job> jobs = {
      watchdogJob("wd-1", "deviceCompliant"),
      watchdogJob("wd-2", "deviceSlow"),
      watchdogJob("wd-1-again", "deviceCompliant"),  // duplicate of wd-1
  };
  const serve::SubmitOutcome outcome =
      serve::submitJobs(jobs, clientFor(server));

  ASSERT_EQ(outcome.report.results.size(), 3u);
  EXPECT_EQ(outcome.report.results[0].status, JobStatus::Proven);
  EXPECT_EQ(outcome.report.results[1].status, JobStatus::Proven);
  EXPECT_EQ(outcome.report.results[2].status, JobStatus::Proven);
  // Results arrive in completion order but must be re-associated by id.
  EXPECT_EQ(outcome.report.results[0].job.name, "wd-1");
  EXPECT_EQ(outcome.report.results[2].job.name, "wd-1-again");
  EXPECT_GE(outcome.serverCacheHits, 1u);  // the duplicate
  EXPECT_EQ(outcome.serverCacheHits + outcome.serverCacheMisses, 3u);

  server.requestDrain();
  server.wait();
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.jobsAccepted, 3u);
  EXPECT_EQ(stats.jobsCompleted, 3u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST(ServeServer, IdleDrainReturnsPromptly) {
  serve::Server server(localOptions());
  server.start();
  // One answered request puts the accept loop back into its poll, idle.
  EXPECT_NO_THROW(serve::httpGet("127.0.0.1", server.port(), "/healthz"));
  const auto t0 = std::chrono::steady_clock::now();
  server.requestDrain();
  server.wait();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // The drain request wakes the accept loop; it does not wait out a poll.
  EXPECT_LT(ms, 50.0);
}

/// A watchdog job on the slow-starting device of test::writeSlowStartWatchdog:
/// it overruns any deadline of a few ms by construction.
Job slowStartJob(std::string name, std::uint64_t timeoutMs = 0) {
  const auto model = testDir("slow_start_" + name) / "watchdog.muml";
  test::writeSlowStartWatchdog(model.string());
  Job job = watchdogJob(std::move(name), "deviceSlowStart");
  job.modelPath = model.string();
  job.timeoutMs = timeoutMs;
  return job;
}

TEST(ServeServer, JobDeadlineExpiryYieldsTimeout) {
  serve::Server server(localOptions());
  server.start();
  const std::vector<Job> jobs = {slowStartJob("impatient", /*timeoutMs=*/1)};
  const serve::SubmitOutcome outcome =
      serve::submitJobs(jobs, clientFor(server));
  ASSERT_EQ(outcome.report.results.size(), 1u);
  EXPECT_EQ(outcome.report.results[0].status, JobStatus::Timeout);
}

TEST(ServeServer, ClientHelloDeadlineAppliesToJobsWithoutTheirOwn) {
  serve::Server server(localOptions());
  server.start();
  serve::SubmitOptions options = clientFor(server);
  options.deadlineMs = 1;  // sent in the hello, adopted server-side
  const std::vector<Job> jobs = {slowStartJob("inherits-deadline")};
  const serve::SubmitOutcome outcome = serve::submitJobs(jobs, options);
  ASSERT_EQ(outcome.report.results.size(), 1u);
  EXPECT_EQ(outcome.report.results[0].status, JobStatus::Timeout);
}

TEST(ServeServer, ServerMaxTimeoutCapsEveryJob) {
  serve::ServeOptions options = localOptions();
  options.maxTimeoutMs = 1;
  serve::Server server(options);
  server.start();
  // The job asks for a generous deadline; the server-wide cap wins.
  const std::vector<Job> jobs = {
      slowStartJob("capped", /*timeoutMs=*/600000)};
  const serve::SubmitOutcome outcome =
      serve::submitJobs(jobs, clientFor(server));
  ASSERT_EQ(outcome.report.results.size(), 1u);
  EXPECT_EQ(outcome.report.results[0].status, JobStatus::Timeout);
}

TEST(ServeServer, AdmissionControlShedsBeyondTheQueueLimit) {
  // The first job holds the only queue slot by construction: its legacy is
  // an external adapter started by a shell that waits for `release`, which
  // is created only once the daemon has shed the second job. Externals are
  // never cached, so the second job cannot be answered as a hit either.
  const auto dir = testDir("admission");
  const auto release = dir / "release";
  const auto model = dir / "gated.muml";
  {
    std::ifstream base(kWatchdog);
    std::ofstream out(model);
    out << base.rdbuf()
        << "legacy deviceGated external \"/bin/sh\" {\n"
           "  input ping;\n"
           "  output pong;\n"
           "  arg \"-c\";\n"
           "  arg \"while [ ! -e '" << release.string()
        << "' ]; do sleep 0.01; done; exec '" MUI_ADAPTER_DIR
           "/adapter_automaton' '" << kWatchdog
        << "' deviceCompliant --instance device\";\n"
           "  deadline-ms 60000;\n"
           "}\n";
  }
  serve::ServeOptions options = localOptions();
  options.threads = 1;
  options.queueLimit = 1;
  options.retryAfterMs = 10;
  serve::Server server(options);
  server.start();

  // Both job lines land in one write and are parsed back-to-back; with
  // retries disabled the client reports the shed one as a load-shed row.
  serve::SubmitOptions client = clientFor(server);
  client.maxRetryRounds = 0;
  std::vector<Job> jobs;
  for (const char* name : {"holds-the-queue", "gets-shed"}) {
    Job job = watchdogJob(name, "deviceGated");
    job.modelPath = model.string();
    jobs.push_back(std::move(job));
  }
  serve::SubmitOutcome outcome;
  std::thread submitter([&] {
    try {
      outcome = serve::submitJobs(jobs, client);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "submit failed: " << e.what();
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().jobsShed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  { std::ofstream touch(release); }
  submitter.join();

  ASSERT_EQ(outcome.report.results.size(), 2u);
  EXPECT_EQ(outcome.report.results[0].job.name, "holds-the-queue");
  EXPECT_EQ(outcome.report.results[1].status, JobStatus::EngineError);
  EXPECT_EQ(outcome.report.results[1].explanation.rfind("load-shed", 0), 0u);
  EXPECT_EQ(server.stats().jobsShed, 1u);
}

TEST(ServeServer, ShedJobsSucceedOnRetry) {
  serve::ServeOptions options = localOptions();
  options.threads = 1;
  options.queueLimit = 1;
  options.retryAfterMs = 10;
  serve::Server server(options);
  server.start();

  serve::SubmitOptions client = clientFor(server);
  client.maxRetryRounds = 50;
  const std::vector<Job> jobs = {watchdogJob("a", "deviceCompliant"),
                                 watchdogJob("b", "deviceSlow"),
                                 watchdogJob("c", "deviceCompliant")};
  const serve::SubmitOutcome outcome = serve::submitJobs(jobs, client);
  for (const auto& result : outcome.report.results) {
    EXPECT_EQ(result.status, JobStatus::Proven) << result.job.name;
  }
}

// ------------------------------------------------------ restart persistence

TEST(ServeServer, DurableCacheAnswersAcrossARestart) {
  const auto dir = testDir("restart");
  serve::ServeOptions options = localOptions();
  options.cachePath = (dir / "cache.jsonl").string();
  options.fsyncCache = false;  // test speed; durability is covered elsewhere

  const std::vector<Job> jobs = {watchdogJob("wd-1", "deviceCompliant"),
                                 watchdogJob("wd-2", "deviceSlow")};
  {
    serve::Server first(options);
    first.start();
    const serve::SubmitOutcome cold =
        serve::submitJobs(jobs, clientFor(first));
    EXPECT_EQ(cold.serverCacheMisses, 2u);
    first.requestDrain();
    first.wait();
  }

  // A brand-new process-equivalent: fresh Server, same log file.
  serve::Server second(options);
  second.start();
  EXPECT_EQ(second.stats().persistentReplayed, 2u);
  const serve::SubmitOutcome warm =
      serve::submitJobs(jobs, clientFor(second));
  EXPECT_EQ(warm.serverCacheHits, 2u);
  EXPECT_EQ(warm.serverCacheMisses, 0u);
  for (const auto& result : warm.report.results) {
    EXPECT_TRUE(result.cacheHit) << result.job.name;
    EXPECT_EQ(result.status, JobStatus::Proven);
  }
}

// ------------------------------------------------------------- http + misc

std::string httpGet(std::uint16_t port, const std::string& path) {
  serve::Fd fd = serve::connectTcp("127.0.0.1", port);
  serve::writeAll(fd.get(),
                  "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n");
  std::string response;
  serve::LineReader reader(fd.get());
  while (const auto line = reader.next()) {
    response += *line;
    response += '\n';
  }
  return response;
}

TEST(ServeServer, HttpEndpointsShareThePort) {
  serve::Server server(localOptions());
  server.start();
  // Run one job so the serve counters are non-zero in /metrics.
  serve::submitJobs({watchdogJob("wd", "deviceCompliant")}, clientFor(server));

  const std::string healthz = httpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string metrics = httpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("mui_serve_jobs_total"), std::string::npos);
  EXPECT_NE(metrics.find("mui_serve_connections_total"), std::string::npos);

  const std::string stats = httpGet(server.port(), "/stats");
  EXPECT_NE(stats.find("\"type\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"jobsAccepted\":1"), std::string::npos);

  const std::string missing = httpGet(server.port(), "/no-such-endpoint");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(ServeServer, DaemonAdoptsClientUlidOrMintsItsOwn) {
  serve::Server server(localOptions());
  server.start();
  serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
  serve::LineReader reader(fd.get());
  serve::writeAll(fd.get(), serve::writeHelloLine("gtest", 0) + "\n");
  ASSERT_TRUE(reader.next().has_value());  // welcome

  // A well-formed client ulid is echoed back on the result line...
  Job withUlid = watchdogJob("wd-ulid", "deviceCompliant");
  withUlid.ulid = obs::newUlid();
  // ...a malformed one is replaced by a daemon-minted ULID.
  Job withGarbage = watchdogJob("wd-garbage", "deviceSlow");
  withGarbage.ulid = "not-a-ulid";
  serve::writeAll(fd.get(), serve::writeJobLine(1, withUlid) + "\n" +
                                serve::writeJobLine(2, withGarbage) + "\n" +
                                serve::writeEndLine() + "\n");
  std::string echoed;
  std::string minted;
  while (const auto line = reader.next()) {
    const serve::Response res = serve::parseResponse(*line);
    if (res.type == serve::Response::Type::Result) {
      (res.id == 1 ? echoed : minted) = res.result.job.ulid;
    }
    if (res.type == serve::Response::Type::Done) break;
  }
  EXPECT_EQ(echoed, withUlid.ulid);
  EXPECT_NE(minted, "not-a-ulid");
  EXPECT_TRUE(obs::looksLikeUlid(minted)) << minted;
}

TEST(ServeServer, JobsEndpointReportsInflightJobsWithPhase) {
  serve::ServeOptions options = localOptions();
  options.threads = 1;  // one worker: later jobs are visibly queued
  serve::Server server(options);
  server.start();

  // Idle daemon: a parseable payload with an empty jobs array. (The raw
  // helper keeps the headers; the JSON body starts at the first brace.)
  const std::string idle = httpGet(server.port(), "/jobs");
  const auto idleObj = util::json::parse(idle.substr(idle.find('{')));
  ASSERT_TRUE(idleObj.has_value()) << idle;
  EXPECT_EQ(idleObj->u64("inflight"), 0u);
  const util::json::Value* idleRows = idleObj->find("jobs");
  ASSERT_NE(idleRows, nullptr);
  EXPECT_EQ(idleRows->kind, util::json::Value::Kind::Array);
  EXPECT_TRUE(idleRows->items.empty());

  // Pipeline several distinct jobs (distinct maxIterations defeats the
  // result cache) through one worker, then catch them on /jobs while the
  // first ones still run. The submitter runs in the background because
  // submitJobs blocks until every result arrived.
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job job = railcabJob("inflight-" + std::to_string(i));
    job.maxIterations = 1000 + i;
    jobs.push_back(std::move(job));
  }
  std::thread submitter(
      [&] { serve::submitJobs(jobs, clientFor(server)); });

  bool sawRow = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sawRow && std::chrono::steady_clock::now() < deadline) {
    const std::string live = httpGet(server.port(), "/jobs");
    const auto obj = util::json::parse(live.substr(live.find('{')));
    ASSERT_TRUE(obj.has_value()) << live;
    const util::json::Value* rows = obj->find("jobs");
    ASSERT_NE(rows, nullptr) << live;
    for (const auto& row : rows->items) {
      EXPECT_TRUE(
          obs::looksLikeUlid(std::string(row.str("ulid").value_or(""))));
      EXPECT_EQ(row.str("name").value_or("").rfind("inflight-", 0), 0u);
      EXPECT_EQ(row.str("client"), "gtest");
      EXPECT_FALSE(row.str("phase").value_or("").empty());
      EXPECT_FALSE(row.str("disposition").value_or("").empty());
      ASSERT_TRUE(row.num("queuedMs").has_value());
      ASSERT_TRUE(row.num("runMs").has_value());
      sawRow = true;
    }
    if (!sawRow) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  submitter.join();
  EXPECT_TRUE(sawRow) << "no in-flight job ever appeared on /jobs";
  // After the batch drained, the registry is empty again.
  const std::string after = httpGet(server.port(), "/jobs");
  const auto afterObj = util::json::parse(after.substr(after.find('{')));
  ASSERT_TRUE(afterObj.has_value());
  EXPECT_EQ(afterObj->u64("inflight"), 0u);
}

TEST(ServeServer, TraceEndpointServesTheDaemonRing) {
  serve::Server server(localOptions());
  server.start();
  serve::submitJobs({watchdogJob("wd", "deviceCompliant")},
                    clientFor(server));
  const std::string trace = httpGet(server.port(), "/trace");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"muiEpochUnixNs\":"), std::string::npos);
  EXPECT_NE(trace.find("mui-serve"), std::string::npos);
}

TEST(ServeServer, MalformedLinesGetAnErrorReplyAndTheSessionSurvives) {
  serve::Server server(localOptions());
  server.start();

  serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
  serve::LineReader reader(fd.get());
  serve::writeAll(fd.get(), "this is not a protocol line\n");
  const auto errorLine = reader.next();
  ASSERT_TRUE(errorLine.has_value());
  EXPECT_EQ(serve::parseResponse(*errorLine).type,
            serve::Response::Type::Error);

  // The connection is still usable afterwards.
  serve::writeAll(fd.get(), serve::writeJobLine(
                                1, watchdogJob("wd", "deviceCompliant")) +
                                "\n" + serve::writeEndLine() + "\n");
  bool sawResult = false;
  bool sawDone = false;
  while (const auto line = reader.next()) {
    const serve::Response res = serve::parseResponse(*line);
    if (res.type == serve::Response::Type::Result) {
      sawResult = true;
      EXPECT_EQ(res.result.status, JobStatus::Proven);
    }
    if (res.type == serve::Response::Type::Done) {
      sawDone = true;
      break;
    }
  }
  EXPECT_TRUE(sawResult);
  EXPECT_TRUE(sawDone);
  EXPECT_GE(server.stats().protocolErrors, 1u);
}

TEST(ServeServer, AnOverlongLineGetsAnErrorAndEndsTheConnection) {
  serve::Server server(localOptions());
  server.start();
  {
    serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
    // 2 MiB without a newline, from a second thread: the daemon stops
    // reading at the cap, so the writer's last sends may fail.
    std::thread writer([&] {
      const std::string chunk(64 * 1024, 'x');
      try {
        for (int i = 0; i < 32; ++i) serve::writeAll(fd.get(), chunk);
      } catch (const std::exception&) {
      }
    });
    std::string got;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd.get(), buf, sizeof(buf), 0)) > 0) {
      got.append(buf, static_cast<std::size_t>(n));
    }
    writer.join();
    EXPECT_EQ(n, 0);  // EOF after the error line
    ASSERT_FALSE(got.empty());
    ASSERT_EQ(got.back(), '\n');
    got.pop_back();
    EXPECT_EQ(got.find('\n'), std::string::npos);
    EXPECT_EQ(serve::parseResponse(got).type, serve::Response::Type::Error);
    EXPECT_NE(got.find("line longer than 1048576 bytes"), std::string::npos)
        << got;
  }
  EXPECT_EQ(server.stats().protocolErrors, 1u);

  // The daemon serves the next client.
  serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
  serve::LineReader reader(fd.get());
  serve::writeAll(fd.get(), serve::writeHelloLine("gtest", 0) + "\n");
  const auto welcome = reader.next();
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(serve::parseResponse(*welcome).type,
            serve::Response::Type::Welcome);
}

TEST(ServeServer, DrainingDaemonShedsNewJobs) {
  serve::Server server(localOptions());
  server.start();
  serve::Fd fd = serve::connectTcp("127.0.0.1", server.port());
  serve::LineReader reader(fd.get());
  // Handshake first: a freshly connected socket may still sit unaccepted
  // in the listen backlog, and a draining accept loop never picks it up.
  serve::writeAll(fd.get(), serve::writeHelloLine("gtest", 0) + "\n");
  const auto welcome = reader.next();
  ASSERT_TRUE(welcome.has_value());
  ASSERT_EQ(serve::parseResponse(*welcome).type,
            serve::Response::Type::Welcome);
  server.requestDrain();

  serve::writeAll(fd.get(), serve::writeJobLine(
                                1, watchdogJob("wd", "deviceCompliant")) +
                                "\n");
  const auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(serve::parseResponse(*line).type, serve::Response::Type::Shed);
  fd.reset();
  server.wait();
}

}  // namespace

#include "serve/server.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "engine/persistent_cache.hpp"
#include "engine/runner.hpp"
#include "engine/thread_pool.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/trace.hpp"
#include "obs/ulid.hpp"
#include "serve/protocol.hpp"

namespace mui::serve {

namespace {

struct ServeMetrics {
  obs::Counter& connections;
  obs::Counter& httpRequests;
  obs::Counter& jobs;
  obs::Counter& shed;
  obs::Counter& protocolErrors;
  obs::Gauge& queueDepth;
  obs::Histogram& jobWallMs;

  static ServeMetrics& get() {
    auto& reg = obs::Registry::global();
    static ServeMetrics m{
        reg.counter("mui_serve_connections_total",
                    "Client connections accepted by the daemon"),
        reg.counter("mui_serve_http_requests_total",
                    "HTTP requests (/metrics, /healthz, /stats) served"),
        reg.counter("mui_serve_jobs_total",
                    "Verification jobs accepted for execution"),
        reg.counter("mui_serve_shed_total",
                    "Jobs refused by admission control (queue full or "
                    "draining)"),
        reg.counter("mui_serve_protocol_errors_total",
                    "Malformed protocol lines received"),
        reg.gauge("mui_serve_queue_depth",
                  "Jobs accepted but not yet finished"),
        reg.histogram("mui_serve_job_wall_ms",
                      "Per-job wall time as seen by the daemon", "ms"),
    };
    return m;
  }
};

std::string httpResponse(int code, const char* reason,
                         const std::string& contentType,
                         const std::string& body, bool headOnly) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + contentType +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  if (!headOnly) out += body;
  return out;
}

}  // namespace

/// Per-connection state shared between the session thread (reads requests,
/// writes protocol replies) and the pool workers that finish its jobs
/// (write result lines). `writeMu` serializes the socket; `jobMu`/`cv`
/// track outstanding jobs so the done line goes out last.
struct Server::Conn {
  Fd fd;
  std::mutex writeMu;
  std::atomic<bool> writeBroken{false};

  std::mutex jobMu;
  std::condition_variable cv;
  std::size_t outstanding = 0;

  std::uint64_t deadlineMs = 0;  // session thread only (set by hello)
  std::uint64_t nextId = 0;      // session thread only
  std::string client;            // session thread only (set by hello)
  std::string trace;             // session thread only (set by hello)

  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> cacheHits{0};
  std::atomic<std::uint64_t> cacheMisses{0};

  std::atomic<bool> done{false};  // session thread exited (reap signal)
};

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      results_(options_.cacheMaxEntries),
      wake_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!wake_.valid()) {
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
}

Server::~Server() {
  if (started_.load() && !waited_.load()) {
    requestDrain();
    wait();
  }
}

void Server::start() {
  startTime_ = std::chrono::steady_clock::now();
  if (!options_.cachePath.empty()) {
    persistent_ = std::make_unique<engine::PersistentResultCache>(
        options_.cachePath, options_.fsyncCache);
    results_.attachPersistent(persistent_.get());
  }
  listen_ = listenTcp(options_.host, options_.port, port_);
  pool_ = std::make_unique<engine::ThreadPool>(options_.threads);
  if (options_.journal != nullptr) {
    util::json::Object fields;
    fields.s("host", options_.host)
        .u("port", port_)
        .u("threads", pool_->threadCount())
        .u("queueLimit", options_.queueLimit);
    if (persistent_ != nullptr) {
      const auto& replay = persistent_->replayStats();
      fields.s("cache", options_.cachePath)
          .u("cacheReplayed", replay.replayed)
          .u("cacheSkipped", replay.skipped)
          .u("cacheCollisions", replay.collisions)
          .b("cacheTruncatedTail", replay.truncatedTail);
    }
    options_.journal->event("serve-start", fields);
  }
  started_.store(true);
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void Server::requestDrain() {
  draining_.store(true);
  const std::uint64_t one = 1;
  (void)!::write(wake_.get(), &one, sizeof one);
}

void Server::wait() {
  if (!started_.load() || waited_.exchange(true)) return;
  if (acceptThread_.joinable()) acceptThread_.join();
  {
    std::unique_lock lock(connsMu_);
    // Sessions blocked in read see EOF and finalize; their write side
    // stays open so pending results and the done line still go out.
    for (auto& handle : conns_) shutdownRead(handle.conn->fd.get());
  }
  for (;;) {
    ConnHandle handle;
    {
      std::unique_lock lock(connsMu_);
      if (conns_.empty()) break;
      handle = std::move(conns_.front());
      conns_.pop_front();
    }
    if (handle.thread.joinable()) handle.thread.join();
  }
  pool_->wait();
  listen_.reset();
  if (options_.journal != nullptr) {
    util::json::Object fields;
    fields.u("jobs", jobsAccepted_.load())
        .u("shed", jobsShed_.load())
        .u("connections", connections_.load())
        .u("cacheHits", results_.hits())
        .u("cacheMisses", results_.misses());
    if (persistent_ != nullptr) {
      fields.u("persistentEntries", persistent_->size());
    }
    options_.journal->event("serve-stop", fields);
  }
}

void Server::acceptLoop() {
  while (!draining_.load()) {
    // The timeout only paces the reaping of finished connections; a drain
    // request wakes the poll through wake_.
    auto conn = acceptWithTimeout(listen_.get(), wake_.get(), 200);
    {
      std::unique_lock lock(connsMu_);
      reapFinishedConnections();
    }
    if (!conn) continue;
    connections_.fetch_add(1);
    ServeMetrics::get().connections.inc();
    auto state = std::make_shared<Conn>();
    state->fd = std::move(*conn);
    std::unique_lock lock(connsMu_);
    conns_.emplace_back();
    ConnHandle& handle = conns_.back();
    handle.conn = state;
    handle.thread = std::thread([this, state] { serveConnection(state); });
  }
}

void Server::reapFinishedConnections() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->conn->done.load()) {
      if (it->thread.joinable()) it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::writeLine(Conn& conn, const std::string& line) {
  if (conn.writeBroken.load()) return;
  std::unique_lock lock(conn.writeMu);
  try {
    writeAll(conn.fd.get(), line + "\n");
  } catch (const std::exception&) {
    // The peer vanished; its jobs still finish (and populate the caches),
    // only the replies are dropped.
    conn.writeBroken.store(true);
  }
}

void Server::serveConnection(const std::shared_ptr<Conn>& conn) {
  try {
    LineReader reader(conn->fd.get());
    const auto first = reader.next();
    if (first) {
      if (first->rfind("GET ", 0) == 0 || first->rfind("HEAD ", 0) == 0) {
        handleHttp(reader, *conn, *first);
      } else {
        jsonlSession(reader, conn, *first);
      }
    }
  } catch (const LineTooLong& e) {
    // The stream cannot be framed past an overlong line: answer with an
    // error, send EOF after it, and drop the connection.
    protocolErrors_.fetch_add(1);
    ServeMetrics::get().protocolErrors.inc();
    writeLine(*conn, writeErrorLine(e.what()));
    shutdownWrite(conn->fd.get());
  } catch (const std::exception&) {
    // Socket error mid-session: the connection is dropped, accepted jobs
    // run to completion via their shared_ptr on the worker side.
  }
  // Never close the descriptor while workers may still write through it —
  // also reached on the exception path, where jsonlSession did not wait.
  {
    std::unique_lock lock(conn->jobMu);
    conn->cv.wait(lock, [&] { return conn->outstanding == 0; });
  }
  conn->fd.reset();
  conn->done.store(true);
}

void Server::jsonlSession(LineReader& reader,
                          const std::shared_ptr<Conn>& conn,
                          const std::string& firstLine) {
  std::string line = firstLine;
  for (;;) {
    bool sessionEnd = false;
    if (line.find_first_not_of(" \t") != std::string::npos) {
      const Request req = parseRequest(line);
      switch (req.type) {
        case Request::Type::Hello:
          conn->deadlineMs = req.deadlineMs;
          conn->client = req.client;
          conn->trace = req.trace;
          writeLine(*conn,
                    writeWelcomeLine(options_.version, pool_->threadCount()));
          break;
        case Request::Type::Stats:
          writeLine(*conn, statsJson());
          break;
        case Request::Type::End:
          sessionEnd = true;
          break;
        case Request::Type::Job: {
          const std::uint64_t id = req.id != 0 ? req.id : ++conn->nextId;
          handleJob(conn, id, req.job);
          break;
        }
        case Request::Type::Invalid:
          protocolErrors_.fetch_add(1);
          ServeMetrics::get().protocolErrors.inc();
          writeLine(*conn, writeErrorLine(req.error));
          break;
      }
    }
    if (sessionEnd) break;
    auto next = reader.next();
    if (!next) break;  // client EOF counts as end
    line = std::move(*next);
  }
  // Everything this client submitted must be answered before `done`.
  {
    std::unique_lock lock(conn->jobMu);
    conn->cv.wait(lock, [&] { return conn->outstanding == 0; });
  }
  writeLine(*conn, writeDoneLine(conn->jobs.load(), conn->shed.load(),
                                 conn->cacheHits.load(),
                                 conn->cacheMisses.load()));
}

void Server::handleJob(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                       engine::Job job) {
  auto& metrics = ServeMetrics::get();
  // Admission control: accepted-but-unfinished jobs are strictly bounded;
  // everything beyond sheds with a retry-after hint. A draining daemon
  // sheds too — the client's retry will find it gone and fail over.
  const std::size_t before = pending_.fetch_add(1);
  if (draining_.load() || before >= options_.queueLimit) {
    pending_.fetch_sub(1);
    jobsShed_.fetch_add(1);
    conn->shed.fetch_add(1);
    metrics.shed.inc();
    writeLine(*conn, writeShedLine(id, options_.retryAfterMs));
    return;
  }
  jobsAccepted_.fetch_add(1);
  conn->jobs.fetch_add(1);
  metrics.jobs.inc();
  metrics.queueDepth.set(static_cast<std::int64_t>(pending_.load()));
  {
    std::unique_lock lock(conn->jobMu);
    ++conn->outstanding;
  }

  if (job.name.empty()) job.name = "job" + std::to_string(id);
  // Correlation: adopt the client's ULID when it sent a well-formed one —
  // then the client-side spans and the daemon-side spans of this job share
  // an id in a merged timeline — otherwise mint one here. Either way every
  // downstream journal event and trace span of this job carries it.
  if (!obs::looksLikeUlid(job.ulid)) job.ulid = obs::newUlid();
  // Effective deadline: the job's own, else the client's, else the server
  // default — always clipped to the server-wide cap.
  std::uint64_t timeoutMs = job.timeoutMs != 0 ? job.timeoutMs
                            : conn->deadlineMs != 0 ? conn->deadlineMs
                                                    : options_.defaultTimeoutMs;
  if (options_.maxTimeoutMs != 0 &&
      (timeoutMs == 0 || timeoutMs > options_.maxTimeoutMs)) {
    timeoutMs = options_.maxTimeoutMs;
  }
  job.timeoutMs = timeoutMs;

  auto inflight = std::make_shared<InflightJob>();
  inflight->ulid = job.ulid;
  inflight->name = job.name;
  inflight->client = conn->client;
  inflight->trace = conn->trace;
  inflight->accepted = std::chrono::steady_clock::now();
  {
    std::unique_lock lock(inflightMu_);
    inflight_.push_back(inflight);
  }
  // The async pair brackets queue wait plus execution; its begin and end
  // may land on different threads (session vs. worker), which is exactly
  // what b/e events are for.
  obs::Tracer::asyncBegin("job:" + job.name, job.ulid);

  pool_->submit([this, conn, id, inflight, job = std::move(job)] {
    inflight->startedNs.store(
        std::chrono::steady_clock::now().time_since_epoch().count());
    engine::RunnerOptions runnerOptions;
    runnerOptions.lintPreflight = options_.lintPreflight;
    runnerOptions.semanticPresolve = options_.semanticPresolve;
    runnerOptions.journal = options_.journal;
    runnerOptions.progress = &inflight->progress;
    const engine::JobResult result =
        engine::runJob(job, texts_, results_, runnerOptions);
    obs::Tracer::asyncEnd("job:" + job.name, job.ulid);
    {
      std::unique_lock lock(inflightMu_);
      inflight_.remove(inflight);
    }
    auto& m = ServeMetrics::get();
    m.jobWallMs.observe(static_cast<std::uint64_t>(result.wallMs));
    (result.cacheHit ? conn->cacheHits : conn->cacheMisses).fetch_add(1);
    writeLine(*conn, writeResultLine(id, result));
    jobsCompleted_.fetch_add(1);
    pending_.fetch_sub(1);
    m.queueDepth.set(static_cast<std::int64_t>(pending_.load()));
    {
      std::unique_lock lock(conn->jobMu);
      --conn->outstanding;
    }
    conn->cv.notify_all();
  });
}

void Server::handleHttp(LineReader& reader, Conn& conn,
                        const std::string& requestLine) {
  // Drain the header block; the daemon ignores headers and bodies.
  while (const auto header = reader.next()) {
    if (header->empty()) break;
  }
  httpRequests_.fetch_add(1);
  ServeMetrics::get().httpRequests.inc();

  const bool headOnly = requestLine.rfind("HEAD ", 0) == 0;
  const std::size_t pathStart = requestLine.find(' ') + 1;
  const std::size_t pathEnd = requestLine.find(' ', pathStart);
  const std::string path = requestLine.substr(
      pathStart,
      pathEnd == std::string::npos ? std::string::npos : pathEnd - pathStart);

  std::string response;
  if (path == "/metrics") {
    obs::sampleProcessGauges(obs::Registry::global());
    response = httpResponse(
        200, "OK", "text/plain; version=0.0.4; charset=utf-8",
        obs::Registry::global().renderPrometheus(), headOnly);
  } else if (path == "/jobs") {
    response = httpResponse(200, "OK", "application/json", jobsJson() + "\n",
                            headOnly);
  } else if (path == "/trace") {
    // Live snapshot of this process's rings: pid 2 / "mui-serve" so a
    // client document (pid 1) merges into a two-process timeline.
    response = httpResponse(200, "OK", "application/json",
                            obs::Tracer::chromeTrace(2, "mui-serve"),
                            headOnly);
  } else if (path == "/healthz") {
    response = draining_.load()
                   ? httpResponse(503, "Service Unavailable", "text/plain",
                                  "draining\n", headOnly)
                   : httpResponse(200, "OK", "text/plain", "ok\n", headOnly);
  } else if (path == "/stats") {
    response = httpResponse(200, "OK", "application/json",
                            statsJson() + "\n", headOnly);
  } else {
    response =
        httpResponse(404, "Not Found", "text/plain", "not found\n", headOnly);
  }
  std::unique_lock lock(conn.writeMu);
  writeAll(conn.fd.get(), response);
}

ServeStats Server::stats() const {
  ServeStats s;
  s.uptimeMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - startTime_)
                   .count();
  s.draining = draining_.load();
  s.threads = pool_ != nullptr ? pool_->threadCount() : 0;
  s.connections = connections_.load();
  s.httpRequests = httpRequests_.load();
  s.jobsAccepted = jobsAccepted_.load();
  s.jobsCompleted = jobsCompleted_.load();
  s.jobsShed = jobsShed_.load();
  s.protocolErrors = protocolErrors_.load();
  s.queueDepth = pending_.load();
  s.cacheEntries = results_.size();
  s.cacheBytes = results_.bytes();
  s.cacheHits = results_.hits();
  s.cacheMisses = results_.misses();
  s.cacheEvictions = results_.evictions();
  s.cacheCollisions = results_.collisions();
  if (persistent_ != nullptr) {
    s.persistentEntries = persistent_->size();
    s.persistentReplayed = persistent_->replayStats().replayed;
    s.persistentCollisions = persistent_->replayStats().collisions;
  }
  return s;
}

std::string Server::jobsJson() const {
  const auto now = std::chrono::steady_clock::now();
  std::string jobs;
  std::size_t count = 0;
  {
    std::unique_lock lock(inflightMu_);
    for (const auto& j : inflight_) {
      const std::int64_t startedNs = j->startedNs.load();
      const auto queuedUntil =
          startedNs < 0
              ? now
              : std::chrono::steady_clock::time_point(
                    std::chrono::steady_clock::duration(startedNs));
      const double queuedMs =
          std::chrono::duration<double, std::milli>(queuedUntil - j->accepted)
              .count();
      const double runMs =
          startedNs < 0 ? 0
                        : std::chrono::duration<double, std::milli>(
                              now - queuedUntil)
                              .count();
      util::json::Object o;
      o.s("ulid", j->ulid)
          .s("name", j->name)
          .s("client", j->client)
          .s("trace", j->trace)
          .s("phase", j->progress.phase())
          .s("disposition", j->progress.disposition())
          .u("iteration", j->progress.iteration())
          .f("queuedMs", queuedMs)
          .f("runMs", runMs);
      if (count > 0) jobs += ",";
      jobs += "\n" + o.str();
      ++count;
    }
  }
  return "{\"inflight\":" + std::to_string(count) + ",\"jobs\":[" + jobs +
         "\n]}";
}

std::string Server::statsJson() const {
  const ServeStats s = stats();
  util::json::Object o;
  o.u("schema", kProtocolSchemaVersion)
      .s("type", "stats")
      .f("uptimeMs", s.uptimeMs)
      .b("draining", s.draining)
      .u("threads", s.threads)
      .u("connections", s.connections)
      .u("httpRequests", s.httpRequests)
      .u("jobsAccepted", s.jobsAccepted)
      .u("jobsCompleted", s.jobsCompleted)
      .u("jobsShed", s.jobsShed)
      .u("protocolErrors", s.protocolErrors)
      .u("queueDepth", s.queueDepth)
      .u("cacheEntries", s.cacheEntries)
      .u("cacheBytes", s.cacheBytes)
      .u("cacheHits", s.cacheHits)
      .u("cacheMisses", s.cacheMisses)
      .u("cacheEvictions", s.cacheEvictions)
      .u("cacheCollisions", s.cacheCollisions);
  if (persistent_ != nullptr) {
    o.s("cachePath", options_.cachePath)
        .u("persistentEntries", s.persistentEntries)
        .u("persistentReplayed", s.persistentReplayed)
        .u("persistentCollisions", s.persistentCollisions);
  }
  return o.str();
}

}  // namespace mui::serve

// serve_replay: a `mui serve` daemon (two worker threads, persistent cache
// with fsync on) restarted over a cache log that an untimed earlier run of
// the daemon pre-seeded, driven over its wire protocol by one closed-loop
// client. The daemon and the client share one CPU (see main.cpp).
//
// The client sends its next job when the previous one's result line has
// arrived and times the job from send to result. The served sequence
// cycles through the campaign's draws; a draw of a cold shape sends a fresh
// revision of it, written to disk before the job is timed, so the sequence
// never runs out and every cold draw misses the cache. Shed replies and
// jobs whose connection is lost count as failed. The daemon's CPU time and
// peak RSS come from /proc.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "engine/persistent_cache.hpp"
#include "harness.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mui::serve::Response;

constexpr int kDaemonThreads = 2;
// One job in the daemon at a time: with two on one CPU, each job's latency
// would depend on which job it happened to share the CPU with.
constexpr int kConnections = 1;
constexpr int kSetupReps = 11;
constexpr double kWarmupS = 1;  // load before the measured window
constexpr std::size_t kReplayJobs = 1500;
constexpr std::size_t kReplayChunk = 50;  // jobs per turn of the two replays
// Revisions of the pre-solved shapes the pre-seed run adds to the log as
// history, so that the restarts replay a log of realistic size.
constexpr std::size_t kHistory = 4096;
constexpr std::size_t kPreseedWindow = 128;  // jobs in flight, < queueLimit
// The daemon keeps every model text and result it has seen, so its peak
// RSS grows with the jobs served; it is read after a fixed number of
// measured jobs so that a faster daemon does not read higher.
constexpr std::uint64_t kRssAfterJobs = 2000;

/// A running `mui serve` child; stop() drains it with SIGTERM.
class Daemon {
 public:
  Daemon(const RunOptions& o, const fs::path& log, int serial,
         bool fsync = true) {
    const fs::path portFile = o.dir / "serve.port";
    fs::remove(portFile);
    const std::string logPath =
        (o.dir / ("serve-" + std::to_string(serial) + ".log")).string();
    const std::string mui = o.mui.string(), port = portFile.string(),
                      cache = log.string(),
                      threads = std::to_string(kDaemonThreads);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
      }
      execl(mui.c_str(), "mui", "serve", "--port", "0", "--port-file",
            port.c_str(), "--threads", threads.c_str(), "--cache",
            cache.c_str(), fsync ? static_cast<char*>(nullptr) : "--no-fsync",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    const std::int64_t deadline = nowNs() + 60'000'000'000LL;
    for (;;) {
      std::ifstream in(portFile);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
        break;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("mui serve exited during start-up; see " +
                                 logPath);
      }
      if (nowNs() > deadline) {
        stop();
        throw std::runtime_error("mui serve did not start; see " + logPath);
      }
      usleep(200);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// SIGTERM, then wait; true when the daemon drained and exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// A protocol connection: hello sent, welcome received.
struct Conn {
  mui::serve::Fd fd;
  std::unique_ptr<mui::serve::LineReader> reader;
};

Conn connectClient(std::uint16_t port) {
  Conn c;
  c.fd = mui::serve::connectTcp("127.0.0.1", port);
  c.reader = std::make_unique<mui::serve::LineReader>(c.fd.get());
  mui::serve::writeAll(c.fd.get(),
                       mui::serve::writeHelloLine("perfbench", 0) + "\n");
  const auto line = c.reader->next();
  if (!line ||
      mui::serve::parseResponse(*line).type != Response::Type::Welcome) {
    throw std::runtime_error("daemon did not welcome the client");
  }
  return c;
}

/// The jobs the daemon is sent. Entry i of the served sequence is
/// draws[i % draws.size()]: a hot job as generated, or a fresh revision of
/// a cold shape, written to the campaign's models/ directory on first use.
class JobSource {
 public:
  JobSource(const Campaign& c, const fs::path& dir) : c_(c), dir_(dir) {
    for (std::size_t j = c.hotCount; j < c.jobs.size(); ++j) {
      shapeTexts_.push_back(readText(c.jobs[j].modelPath));
    }
  }

  /// Campaign index of the job, or of the shape, that entry i sends.
  [[nodiscard]] std::size_t drawn(std::size_t i) const {
    return c_.draws[i % c_.draws.size()];
  }

  [[nodiscard]] mui::engine::Job entry(std::size_t i) const {
    const std::size_t j = drawn(i);
    return j < c_.hotCount ? c_.jobs[j] : revision(j, "cold" + std::to_string(i));
  }

  /// Writes models/<tag>.muml, a revision of shape `j`, and returns its job.
  [[nodiscard]] mui::engine::Job revision(std::size_t j,
                                          const std::string& tag) const {
    mui::engine::Job job = c_.jobs[j];
    job.name = tag;
    job.modelPath = (dir_ / "models" / (tag + ".muml")).string();
    std::ofstream out(job.modelPath, std::ios::binary);
    out << revisionText(shapeTexts_[j - c_.hotCount], tag);
    if (!out) throw std::runtime_error("cannot write " + job.modelPath);
    return job;
  }

 private:
  const Campaign& c_;
  fs::path dir_;
  std::vector<std::string> shapeTexts_;
};

/// Untimed: a daemon without fsync is sent every hot job once plus
/// kHistory revisions of the shapes the pre-solver decides, so the log
/// holds the hot pool and a history of earlier traffic.
void preseed(const Campaign& c, const JobSource& source, const RunOptions& o,
             const fs::path& log, VerdictGate& gate) {
  std::vector<std::size_t> expectedOf;  // campaign index per submitted job
  std::vector<mui::engine::Job> jobs;
  for (std::size_t i = 0; i < c.hotCount; ++i) {
    expectedOf.push_back(i);
    jobs.push_back(c.jobs[i]);
  }
  std::vector<std::size_t> presolvedShapes;
  for (std::size_t j = c.hotCount; j < c.jobs.size(); ++j) {
    if (c.expected[j].iterations == 0) presolvedShapes.push_back(j);
  }
  for (std::size_t h = 0; h < kHistory && !presolvedShapes.empty(); ++h) {
    const std::size_t j = presolvedShapes[h % presolvedShapes.size()];
    expectedOf.push_back(j);
    jobs.push_back(source.revision(j, "hist" + std::to_string(h)));
  }

  Daemon d(o, log, 0, /*fsync=*/false);
  Conn conn = connectClient(d.port());
  std::size_t sent = 0, answered = 0;
  while (answered < jobs.size()) {
    std::string batch;
    for (; sent < jobs.size() && sent < answered + kPreseedWindow; ++sent) {
      batch += mui::serve::writeJobLine(sent + 1, jobs[sent]) + "\n";
      if (sent + 1 == jobs.size()) batch += mui::serve::writeEndLine() + "\n";
    }
    if (!batch.empty()) mui::serve::writeAll(conn.fd.get(), batch);
    const auto line = conn.reader->next();
    if (!line) throw std::runtime_error("pre-seed: connection closed");
    const Response resp = mui::serve::parseResponse(*line);
    if (resp.type != Response::Type::Result || resp.id == 0 ||
        resp.id > jobs.size()) {
      throw std::runtime_error("pre-seed: unexpected reply " + *line);
    }
    gate.check(expectedOf[resp.id - 1],
               mui::engine::jobStatusName(resp.result.status),
               static_cast<long long>(resp.result.iterations),
               static_cast<long long>(resp.result.testPeriods));
    ++answered;
  }
  const auto done = conn.reader->next();
  if (!done || mui::serve::parseResponse(*done).type != Response::Type::Done ||
      !d.stop()) {
    throw std::runtime_error("pre-seed run did not complete");
  }
}

struct Arrival {
  std::size_t entry = 0;  // position in the served sequence
  mui::engine::Job job;   // as sent
  std::int64_t sentNs = 0;
  std::int64_t arrivedNs = 0;  // 0 = no result
  bool shed = false;
  Response result;
};

struct LoadOutcome {
  std::vector<Arrival> arrivals;  // in sequence order
  std::int64_t measureFromNs = 0;
  CpuMem cpuStart, cpuEnd;
  double rssMb = 0;  // daemon peak RSS after kRssAfterJobs measured jobs
  std::vector<double> encodeUs, decodeUs;
  bool lost = false;
};

/// Closed loop: each of kConnections clients sends its next job only once
/// the previous job's result line has arrived; client k takes sequence
/// entries k, k + kConnections, ... The first kWarmupS seconds are
/// warm-up; clients stop sending `seconds` later. With `spans`, each
/// client records encode and decode spans.
LoadOutcome closedLoop(const JobSource& source, const Daemon& d,
                       double seconds,
                       std::vector<std::unique_ptr<SpanBuffer>>* spans) {
  LoadOutcome out;
  std::vector<Conn> conns;
  for (int i = 0; i < kConnections; ++i) conns.push_back(connectClient(d.port()));
  const std::int64_t start = nowNs();
  out.measureFromNs = start + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t stopNs =
      out.measureFromNs + static_cast<std::int64_t>(seconds * 1e9);

  std::vector<std::vector<Arrival>> arrivals(kConnections);
  std::vector<std::vector<double>> encodeUs(kConnections), decodeUs(kConnections);
  std::atomic<bool> lost{false};
  std::atomic<std::uint64_t> measuredDone{0};
  std::atomic<double> rssMb{0};
  std::vector<std::thread> clients;
  for (int k = 0; k < kConnections; ++k) {
    SpanBuffer* buffer = spans != nullptr ? (*spans)[k].get() : nullptr;
    clients.emplace_back([&, k, buffer] {
      try {
        Conn& conn = conns[k];
        for (std::size_t i = k; nowNs() < stopNs; i += kConnections) {
          Arrival& a = arrivals[k].emplace_back();
          a.entry = i;
          a.job = source.entry(i);
          const auto jobNo = static_cast<std::uint32_t>(i);
          std::string line;
          const std::int64_t t0 = nowNs();
          {
            const ScopedSpan s(buffer, "serve.encode", jobNo);
            line = mui::serve::writeJobLine(i + 1, a.job) + "\n";
          }
          encodeUs[k].push_back((nowNs() - t0) / 1e3);
          a.sentNs = nowNs();
          mui::serve::writeAll(conn.fd.get(), line);
          const auto reply = conn.reader->next();
          if (!reply) throw std::runtime_error("connection closed");
          const std::int64_t arrived = nowNs();
          Response resp;
          {
            const ScopedSpan s(buffer, "serve.decode", jobNo);
            resp = mui::serve::parseResponse(*reply);
          }
          decodeUs[k].push_back((nowNs() - arrived) / 1e3);
          if (resp.id != i + 1) throw std::runtime_error("reply out of order");
          if (resp.type == Response::Type::Shed) {
            a.shed = true;
          } else if (resp.type == Response::Type::Result) {
            a.arrivedNs = arrived;
            a.result = std::move(resp);
          }
          if (a.sentNs >= out.measureFromNs && ++measuredDone == kRssAfterJobs) {
            rssMb = procUsage(d.pid()).maxRssMb;
          }
        }
        mui::serve::writeAll(conn.fd.get(), mui::serve::writeEndLine() + "\n");
        while (const auto line = conn.reader->next()) {
          if (mui::serve::parseResponse(*line).type == Response::Type::Done) return;
        }
      } catch (const std::exception&) {
      }
      lost = true;  // EOF, socket error or a stray reply before `done`
    });
  }
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(out.measureFromNs)));
  out.cpuStart = procUsage(d.pid());
  for (auto& t : clients) t.join();
  out.cpuEnd = procUsage(d.pid());
  // A run too short to reach kRssAfterJobs reads the peak at its end.
  out.rssMb = rssMb > 0 ? rssMb.load() : out.cpuEnd.maxRssMb;
  out.lost = lost;
  for (int k = 0; k < kConnections; ++k) {
    for (Arrival& a : arrivals[k]) out.arrivals.push_back(std::move(a));
    out.encodeUs.insert(out.encodeUs.end(), encodeUs[k].begin(), encodeUs[k].end());
    out.decodeUs.insert(out.decodeUs.end(), decodeUs[k].begin(), decodeUs[k].end());
  }
  std::sort(out.arrivals.begin(), out.arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.entry < b.entry; });
  return out;
}

/// The served jobs replayed in-process through the traced pipeline over a
/// copy of the pre-seeded log: the engine, muml and analysis layers the
/// daemon runs per job, timed from outside.
struct Replay {
  Replay(const fs::path& seededLog, const fs::path& copy) {
    fs::copy_file(seededLog, copy, fs::copy_options::overwrite_existing);
    const std::int64_t t0 = nowNs();
    persistent = std::make_unique<mui::engine::PersistentResultCache>(
        copy.string(), true);
    replayMs = (nowNs() - t0) / 1e6;
    cache.attachPersistent(persistent.get());
  }

  /// Runs jobs [from, to) of `sequence`; returns the wall time in ms.
  double run(const std::vector<const Arrival*>& sequence, std::size_t from,
             std::size_t to, SpanBuffer* spans) {
    const std::int64_t start = nowNs();
    for (std::size_t i = from; i < to; ++i) {
      outcomes.push_back(runPipeline(sequence[i]->job, texts, cache, spans,
                                     static_cast<std::uint32_t>(i)));
    }
    return (nowNs() - start) / 1e6;
  }

  std::unique_ptr<mui::engine::PersistentResultCache> persistent;
  mui::engine::TextCache texts;
  mui::engine::ResultCache cache;
  double replayMs = 0;
  std::vector<PipelineOutcome> outcomes;
};

}  // namespace

Report runServeWorkload(const Campaign& c, const RunOptions& o) {
  Report r;
  VerdictGate gate(c);
  const JobSource source(c, o.dir);
  const fs::path log = o.dir / "serve-cache.jsonl";
  const fs::path seeded = o.dir / "serve-cache.seeded.jsonl";
  fs::remove(log);
  preseed(c, source, o, log, gate);
  fs::copy_file(log, seeded, fs::copy_options::overwrite_existing);

  // Set-up: launch until the first client is welcomed, which includes the
  // persistent-cache replay. Restarted a few times; the last one serves.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupReps; ++i) {
    if (daemon && !daemon->stop()) throw std::runtime_error("daemon did not drain");
    const std::int64_t t0 = nowNs();
    daemon = std::make_unique<Daemon>(o, log, i + 1);
    connectClient(daemon->port());
    setups.push_back((nowNs() - t0) / 1e9);
  }

  std::vector<std::unique_ptr<SpanBuffer>> clientSpans;
  for (int k = 0; k < kConnections; ++k) {
    clientSpans.push_back(std::make_unique<SpanBuffer>(k));
  }
  LoadOutcome load =
      closedLoop(source, *daemon, o.seconds, o.trace ? &clientSpans : nullptr);
  if (!daemon->stop()) r.note("daemon did not exit 0 after SIGTERM");

  std::vector<double> latency, serverMs, outsideMs;
  std::vector<const Arrival*> measured;
  std::uint64_t correct = 0, shed = 0, hits = 0, presolved = 0;
  std::int64_t lastArrival = load.measureFromNs;
  for (const Arrival& a : load.arrivals) {
    const std::size_t job = source.drawn(a.entry);
    bool ok = false;
    if (a.arrivedNs != 0) {
      const auto& res = a.result.result;
      ok = gate.check(job, mui::engine::jobStatusName(res.status),
                      static_cast<long long>(res.iterations),
                      static_cast<long long>(res.testPeriods));
    } else {
      gate.fail(job, a.job.name + (a.shed ? " shed" : " got no result"));
    }
    if (a.sentNs < load.measureFromNs) continue;
    ++r.attempted;
    measured.push_back(&a);
    shed += a.shed;
    if (!ok) {
      ++r.failed;
      continue;
    }
    ++correct;
    lastArrival = std::max(lastArrival, a.arrivedNs);
    const double ms = (a.arrivedNs - a.sentNs) / 1e6;
    latency.push_back(ms);
    serverMs.push_back(a.result.result.wallMs);
    outsideMs.push_back(ms - a.result.result.wallMs);
    hits += a.result.result.cacheHit;
    presolved += a.result.result.presolved;
  }
  const double windowS = (lastArrival - load.measureFromNs) / 1e9;
  const auto attempted = static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
  const auto q = [](std::vector<double> v, double p) { return quantile(v, p); };
  // The tail is p99 whenever the run supports it, so that the percentile
  // does not change with the daemon's throughput.
  const double tailQ = std::min(0.99, tailQuantile(latency.size()));

  if (!o.trace) {
    r.metric("throughput_jobs_s", correct / windowS, "jobs/s");
    r.metric("latency_p50_ms", q(latency, 0.5), "ms");
    r.metric("latency_tail_ms", q(latency, tailQ), "ms");
    r.metric("cpu_ms_per_job", (load.cpuEnd.cpuMs - load.cpuStart.cpuMs) / attempted,
             "ms");
    r.metric("peak_rss_mb", load.rssMb, "MB");
    r.metric("setup_s", median(setups), "s");
  } else {
    SpanBuffer replaySpans(kConnections);
    // The first kReplayJobs measured jobs are plenty for per-call medians
    // and keep the two single-threaded replays to a few seconds each. They
    // take turns, so a drift of the machine's speed stays out of
    // trace.overhead_pct.
    if (measured.size() > kReplayJobs) measured.resize(kReplayJobs);
    Replay plain(seeded, o.dir / "serve-cache.plain.jsonl");
    Replay traced(seeded, o.dir / "serve-cache.traced.jsonl");
    double plainMs = 0, tracedMs = 0;
    for (std::size_t from = 0; from < measured.size(); from += kReplayChunk) {
      const std::size_t to = std::min(measured.size(), from + kReplayChunk);
      plainMs += plain.run(measured, from, to, nullptr);
      tracedMs += traced.run(measured, from, to, &replaySpans);
    }
    for (std::size_t i = 0; i < measured.size(); ++i) {
      const std::size_t job = source.drawn(measured[i]->entry);
      const PipelineOutcome& t = traced.outcomes[i];
      const PipelineOutcome& p = plain.outcomes[i];
      gate.check(job, t.status, t.iterations, t.testPeriods);
      gate.check(job, p.status, p.iterations, p.testPeriods);
    }
    addLayerMetrics(r, {&replaySpans}, traced.outcomes,
                    (tracedMs - plainMs) / plainMs * 100);
    // The daemon's own view replaces the replay's for the mix it served.
    for (Metric& m : r.metrics) {
      if (m.name == "mix.hit_share") m.value = hits / attempted;
      if (m.name == "mix.presolved_share") m.value = presolved / attempted;
      if (m.name == "mix.loop_share") {
        m.value = (static_cast<double>(correct) - hits - presolved) / attempted;
      }
    }
    r.metric("engine.persistent_replay_ms", traced.replayMs, "ms");
    r.metric("engine.persistent_replayed",
             static_cast<double>(traced.persistent->replayStats().replayed), "count");
    r.metric("serve.server_ms", q(serverMs, 0.5), "ms");
    r.metric("serve.outside_ms_p50", q(outsideMs, 0.5), "ms");
    r.metric("serve.outside_ms_p99", q(outsideMs, 0.99), "ms");
    r.metric("serve.encode_us", q(load.encodeUs, 0.5), "us");
    r.metric("serve.decode_us", q(load.decodeUs, 0.5), "us");
    r.metric("serve.shed", static_cast<double>(shed), "count");
    double outsideSum = 0, latencySum = 0;
    for (std::size_t i = 0; i < outsideMs.size(); ++i) {
      outsideSum += outsideMs[i];
      latencySum += latency[i];
    }
    r.metric("serve.outside_share", latencySum > 0 ? outsideSum / latencySum : 0,
             "ratio");
    r.metric("loadgen.lag_p99_ms", 0, "ms");  // closed loop: nothing is late
    r.metric("failed_share", static_cast<double>(r.failed) / attempted, "ratio");
    std::vector<const SpanBuffer*> views;
    for (const auto& b : clientSpans) views.push_back(b.get());
    views.push_back(&replaySpans);
    writeChromeTrace(views, o.dir / "trace.json");
  }
  char line[320];
  std::snprintf(line, sizeof line,
                "closed loop, %d client(s)%s: %llu jobs measured over %.1f s "
                "(sequence entries %zu, draw cycle %zu), %zu hot jobs and "
                "%zu history revisions pre-seeded; set-up median of %d "
                "restarts; tail = p%g over %zu samples; shed %llu, "
                "failed_share %.4f",
                kConnections, o.cpu >= 0 ? " on the daemon's CPU" : "",
                static_cast<unsigned long long>(r.attempted),
                windowS, load.arrivals.size(), c.draws.size(), c.hotCount,
                kHistory, kSetupReps, tailQ * 100, latency.size(),
                static_cast<unsigned long long>(shed),
                static_cast<double>(r.failed) / attempted);
  r.note(line);
  if (load.lost) r.note("a connection was lost before `done`");
  const auto mismatches = gate.mismatches();
  for (const std::string& m : mismatches) r.note("MISMATCH " + m);
  r.correct = r.failed == 0 && mismatches.empty() && !load.lost;
  return r;
}

}  // namespace perfbench

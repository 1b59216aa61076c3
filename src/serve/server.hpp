#pragma once
// mui::serve — verification as a service.
//
// The paper's verify–test–learn loop is dominated by repeated verification
// of near-identical integration jobs. The batch engine (engine/engine.hpp)
// already shares that work within one process; this daemon promotes it to
// a long-running service whose caches outlive any single run:
//
//   * jobs arrive as newline-delimited JSON over loopback TCP
//     (protocol.hpp), reusing the manifest job schema, and results stream
//     back as JSONL in completion order;
//   * every job runs on the engine thread pool through engine::runJob, so
//     crash isolation, lint pre-flight, and per-job deadlines behave
//     exactly as in `mui batch`;
//   * per-client deadlines: a hello's deadline-ms applies to all of that
//     connection's jobs without their own timeout-ms, and the server-wide
//     --max-timeout-ms caps everything;
//   * the in-memory ResultCache is layered over a PersistentResultCache
//     (engine/persistent_cache.hpp), so duplicate jobs are answered from
//     cache across daemon restarts and across clients;
//   * admission control: at most queueLimit jobs may be accepted-but-
//     unfinished; beyond that the daemon sheds load with a retry-after
//     reply instead of queueing without bound;
//   * the same port answers HTTP GETs — /metrics (Prometheus exposition
//     of obs::Registry::global()), /healthz, /stats, /jobs (live in-flight
//     job table with phase and correlation id; `mui top` polls it), and
//     /trace (the daemon's ring buffers as a Chrome trace document, ready
//     for mergeChromeTraces with a client ring) — distinguished by
//     first-line sniffing;
//   * correlation: every accepted job gets a ULID (the client's, when it
//     sent a well-formed one, so client and daemon spans share the id) and
//     an async b/e trace pair spanning queue wait plus execution;
//   * graceful drain: requestDrain() (the CLI wires SIGTERM/SIGINT to it)
//     stops accepting connections and new jobs, finishes in-flight work,
//     flushes replies, and wait() returns.
//
// CLI front ends: `mui serve` (daemon) and `mui submit` (client.hpp).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/cache.hpp"
#include "obs/progress.hpp"
#include "serve/socket.hpp"

namespace mui::obs {
class Journal;
}  // namespace mui::obs

namespace mui::engine {
class PersistentResultCache;
class ThreadPool;
}  // namespace mui::engine

namespace mui::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned; read back via port()
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Admission bound: accepted-but-unfinished jobs beyond this are shed.
  std::size_t queueLimit = 256;
  /// Suggested client back-off carried in shed replies.
  std::uint64_t retryAfterMs = 250;
  /// Deadline for jobs with neither their own timeout-ms nor a client
  /// deadline (0 = unlimited).
  std::uint64_t defaultTimeoutMs = 0;
  /// Hard cap applied to every effective deadline (0 = none).
  std::uint64_t maxTimeoutMs = 0;
  /// Durable result-cache log; empty disables persistence.
  std::string cachePath;
  bool fsyncCache = true;
  /// In-memory result-cache LRU entry cap.
  std::size_t cacheMaxEntries = engine::ResultCache::kDefaultMaxEntries;
  bool lintPreflight = true;
  /// Semantic verdict pre-solving per job (RunnerOptions::semanticPresolve);
  /// `mui serve --no-presolve` turns it off.
  bool semanticPresolve = true;
  /// Reported in the protocol welcome line.
  std::string version = "dev";
  /// Structured run journal shared with the engine runner; must outlive
  /// the server.
  obs::Journal* journal = nullptr;
};

/// Point-in-time operational snapshot (the /stats payload).
struct ServeStats {
  double uptimeMs = 0;
  bool draining = false;
  std::size_t threads = 0;
  std::uint64_t connections = 0;
  std::uint64_t httpRequests = 0;
  std::uint64_t jobsAccepted = 0;
  std::uint64_t jobsCompleted = 0;
  std::uint64_t jobsShed = 0;
  std::uint64_t protocolErrors = 0;
  std::size_t queueDepth = 0;
  std::size_t cacheEntries = 0;
  std::size_t cacheBytes = 0;
  std::size_t cacheHits = 0;
  std::size_t cacheMisses = 0;
  std::size_t cacheEvictions = 0;
  std::size_t cacheCollisions = 0;
  std::size_t persistentEntries = 0;
  std::size_t persistentReplayed = 0;
  std::size_t persistentCollisions = 0;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();  // drains and joins if the caller has not already

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Replays the persistent cache, binds the listener, and starts the
  /// accept loop and worker pool. Throws on bind or cache-open failure.
  void start();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Begins a graceful drain: no new connections or jobs; in-flight jobs
  /// run to completion. Idempotent and callable from any thread (the CLI
  /// calls it from its signal-wait thread).
  void requestDrain();

  /// Blocks until the drain is complete: accept loop exited, every client
  /// connection finished and closed, worker pool idle.
  void wait();

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Conn;

  /// One accepted-but-unfinished job as seen by /jobs: identity (ulid,
  /// name, submitting client and its trace context), queue/run timing, and
  /// the live JobProgress the runner writes through. Kept by shared_ptr so
  /// a snapshot renders safely while the worker finishes the job.
  struct InflightJob {
    std::string ulid;
    std::string name;
    std::string client;
    std::string trace;
    std::chrono::steady_clock::time_point accepted;
    /// steady_clock time_since_epoch ns of execution start; -1 = queued.
    std::atomic<std::int64_t> startedNs{-1};
    obs::JobProgress progress;
  };

  void acceptLoop();
  void reapFinishedConnections();  // callers hold connsMu_
  void serveConnection(const std::shared_ptr<Conn>& conn);
  void jsonlSession(LineReader& reader, const std::shared_ptr<Conn>& conn,
                    const std::string& firstLine);
  void handleJob(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                 engine::Job job);
  void handleHttp(LineReader& reader, Conn& conn,
                  const std::string& requestLine);
  std::string statsJson() const;
  std::string jobsJson() const;
  static void writeLine(Conn& conn, const std::string& line);

  ServeOptions options_;
  std::chrono::steady_clock::time_point startTime_;

  engine::TextCache texts_;
  engine::ResultCache results_;
  std::unique_ptr<engine::PersistentResultCache> persistent_;
  std::unique_ptr<engine::ThreadPool> pool_;

  Fd listen_;
  /// eventfd that requestDrain() signals, so the accept loop stops at once
  /// instead of at its next periodic wake-up.
  Fd wake_;
  std::uint16_t port_ = 0;
  std::thread acceptThread_;

  struct ConnHandle {
    std::thread thread;
    std::shared_ptr<Conn> conn;
  };
  mutable std::mutex connsMu_;
  std::list<ConnHandle> conns_;

  mutable std::mutex inflightMu_;
  std::list<std::shared_ptr<InflightJob>> inflight_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> waited_{false};
  std::atomic<std::size_t> pending_{0};  // accepted-but-unfinished jobs
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> httpRequests_{0};
  std::atomic<std::uint64_t> jobsAccepted_{0};
  std::atomic<std::uint64_t> jobsCompleted_{0};
  std::atomic<std::uint64_t> jobsShed_{0};
  std::atomic<std::uint64_t> protocolErrors_{0};
};

}  // namespace mui::serve

#pragma once
// The mui serve wire protocol (reference: docs/SERVE.md): newline-
// delimited JSON over a loopback TCP connection, reusing the manifest job
// schema (engine/manifest.hpp) — the same keys a `job ...` manifest line
// takes appear as JSON fields, so anything that can write a manifest can
// drive the daemon.
//
// Client → server, one object per line:
//   {"schema":1,"type":"hello","client":"ci","deadline-ms":5000,
//    "trace":"ci-run-42"}
//   {"schema":1,"type":"job","id":1,"name":"wd-compliant",
//    "ulid":"01JGV...","model":"/abs/path/watchdog.muml",
//    "pattern":"Watchdog","role":"device","hidden":"deviceCompliant",
//    "formula":"","timeout-ms":0,"max-iterations":0}
//   {"schema":1,"type":"stats"}
//   {"schema":1,"type":"end"}
//
// Server → client:
//   {"schema":1,"type":"welcome","version":"...","threads":8}
//   {"schema":1,"type":"result","id":1,"name":"wd-compliant",
//    "ulid":"01JGV...","status":"proven","explanation":"...",
//    "cacheHit":false,"presolved":false,"iterations":3,"testPeriods":9,
//    "learnedFacts":2,"wallMs":12.5,"worker":"worker-0"}
//   {"schema":1,"type":"shed","id":2,"retry-after-ms":250}
//   {"schema":1,"type":"stats", ...ServeStats fields...}
//   {"schema":1,"type":"error","message":"..."}
//   {"schema":1,"type":"done","jobs":10,"shed":0,"cacheHits":4,
//    "cacheMisses":6}
//
// Results stream back in completion order, correlated by `id`; `done` is
// sent after `end` (or client EOF) once every accepted job has finished.
//
// Schema note: "trace" on hello (a client-supplied trace context label),
// "ulid" on job (the client-minted correlation id, obs/ulid.hpp) and
// "ulid"/"presolved" on result are additive fields within schema 1 —
// absent on old peers, never required.
// HTTP GETs on the same port (the first line starts with "GET ") bypass
// this protocol entirely — see server.hpp.

#include <cstdint>
#include <string>
#include <string_view>

#include "engine/job.hpp"

namespace mui::serve {

inline constexpr int kProtocolSchemaVersion = 1;

/// One parsed client request.
struct Request {
  enum class Type { Hello, Job, Stats, End, Invalid };
  Type type = Type::Invalid;
  std::string error;  // for Invalid: what was wrong with the line

  // Hello
  std::string client;
  std::string trace;  // client-supplied trace context, "" = none
  std::uint64_t deadlineMs = 0;

  // Job
  std::uint64_t id = 0;  // 0 = client did not number the job
  engine::Job job;
};

/// Parses one request line; never throws — malformed input yields
/// Type::Invalid with a diagnostic. An integer field that is present must
/// be a non-negative integer literal; otherwise the diagnostic names it.
Request parseRequest(std::string_view line);

std::string writeHelloLine(const std::string& client, std::uint64_t deadlineMs,
                           const std::string& trace = "");
std::string writeJobLine(std::uint64_t id, const engine::Job& job);
std::string writeStatsRequestLine();
std::string writeEndLine();

/// One parsed server reply.
struct Response {
  enum class Type { Welcome, Result, Shed, Stats, Error, Done, Invalid };
  Type type = Type::Invalid;
  std::string error;  // for Invalid / Error

  std::uint64_t id = 0;
  engine::JobResult result;      // for Result (job field left empty)
  std::uint64_t retryAfterMs = 0;  // for Shed

  // Done
  std::uint64_t jobs = 0;
  std::uint64_t shed = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;

  std::string raw;  // original line (Stats consumers read fields from it)
};

/// Parses one response line; never throws. Integer fields are read as in
/// parseRequest.
Response parseResponse(std::string_view line);

std::string writeWelcomeLine(const std::string& version, std::size_t threads);
std::string writeResultLine(std::uint64_t id, const engine::JobResult& r);
std::string writeShedLine(std::uint64_t id, std::uint64_t retryAfterMs);
std::string writeErrorLine(std::string_view message);
std::string writeDoneLine(std::uint64_t jobs, std::uint64_t shed,
                          std::uint64_t cacheHits, std::uint64_t cacheMisses);

}  // namespace mui::serve

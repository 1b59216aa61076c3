#include "serve/protocol.hpp"

#include <optional>

#include "util/json.hpp"

namespace mui::serve {

namespace {

namespace json = util::json;

/// An integer field that may be absent (reads as 0). Present, it must be a
/// plain non-negative integer literal: -1, 2.5, 1e999 or a string set
/// `error` to a message naming the field.
std::uint64_t uintField(const json::Value& obj, const char* key,
                        std::string& error) {
  if (obj.find(key) == nullptr) return 0;
  if (const auto v = obj.u64(key)) return *v;
  if (error.empty()) {
    error = std::string("field '") + key +
            "' is not a non-negative integer literal";
  }
  return 0;
}

/// Parses a wire line into an object, or says why it is not one.
std::optional<json::Value> parseLine(std::string_view line, const char* what,
                                     std::string& error) {
  std::string why;
  auto obj = json::parse(line, &why);
  if (obj && obj->kind == json::Value::Kind::Object) return obj;
  error = std::string("malformed JSON ") + what + " line" +
          (why.empty() ? std::string() : ": " + why);
  return std::nullopt;
}

json::Object header(const char* type) {
  json::Object o;
  o.u("schema", kProtocolSchemaVersion).s("type", type);
  return o;
}

}  // namespace

Request parseRequest(std::string_view line) {
  Request req;
  const auto obj = parseLine(line, "request", req.error);
  if (!obj) return req;
  const std::uint64_t schema = uintField(*obj, "schema", req.error);
  if (!req.error.empty()) return req;
  if (schema != kProtocolSchemaVersion) {
    req.error = "unsupported or missing schema (expected " +
                std::to_string(kProtocolSchemaVersion) + ")";
    return req;
  }
  const std::string type(obj->str("type").value_or(""));
  if (type == "hello") {
    req.client = obj->str("client").value_or("");
    req.trace = obj->str("trace").value_or("");
    req.deadlineMs = uintField(*obj, "deadline-ms", req.error);
    if (req.error.empty()) req.type = Request::Type::Hello;
    return req;
  }
  if (type == "stats") {
    req.type = Request::Type::Stats;
    return req;
  }
  if (type == "end") {
    req.type = Request::Type::End;
    return req;
  }
  if (type != "job") {
    req.error = "unknown request type '" + type + "'";
    return req;
  }
  req.id = uintField(*obj, "id", req.error);
  req.job.name = obj->str("name").value_or("");
  req.job.ulid = obj->str("ulid").value_or("");
  req.job.modelPath = obj->str("model").value_or("");
  req.job.pattern = obj->str("pattern").value_or("");
  req.job.legacyRole = obj->str("role").value_or("");
  req.job.hidden = obj->str("hidden").value_or("");
  req.job.formula = obj->str("formula").value_or("");
  req.job.timeoutMs = uintField(*obj, "timeout-ms", req.error);
  req.job.maxIterations =
      static_cast<std::size_t>(uintField(*obj, "max-iterations", req.error));
  if (!req.error.empty()) return req;
  for (const auto& [key, value] : {std::pair<const char*, const std::string*>{
                                       "model", &req.job.modelPath},
                                   {"pattern", &req.job.pattern},
                                   {"role", &req.job.legacyRole},
                                   {"hidden", &req.job.hidden}}) {
    if (value->empty()) {
      req.error = std::string("job is missing required field '") + key + "'";
      return req;
    }
  }
  req.type = Request::Type::Job;
  return req;
}

std::string writeHelloLine(const std::string& client, std::uint64_t deadlineMs,
                           const std::string& trace) {
  auto o = header("hello");
  o.s("client", client);
  if (!trace.empty()) o.s("trace", trace);
  if (deadlineMs != 0) o.u("deadline-ms", deadlineMs);
  return o.str();
}

std::string writeJobLine(std::uint64_t id, const engine::Job& job) {
  auto o = header("job");
  o.u("id", id).s("name", job.name);
  if (!job.ulid.empty()) o.s("ulid", job.ulid);
  o.s("model", job.modelPath)
      .s("pattern", job.pattern)
      .s("role", job.legacyRole)
      .s("hidden", job.hidden);
  if (!job.formula.empty()) o.s("formula", job.formula);
  if (job.timeoutMs != 0) o.u("timeout-ms", job.timeoutMs);
  if (job.maxIterations != 0) o.u("max-iterations", job.maxIterations);
  return o.str();
}

std::string writeStatsRequestLine() { return header("stats").str(); }

std::string writeEndLine() { return header("end").str(); }

Response parseResponse(std::string_view line) {
  Response res;
  res.raw = std::string(line);
  const auto obj = parseLine(line, "response", res.error);
  if (!obj) return res;
  const std::uint64_t schema = uintField(*obj, "schema", res.error);
  if (!res.error.empty()) return res;
  if (schema != kProtocolSchemaVersion) {
    res.error = "unsupported or missing schema";
    return res;
  }
  const std::string type(obj->str("type").value_or(""));
  if (type == "welcome") {
    res.type = Response::Type::Welcome;
    return res;
  }
  if (type == "error") {
    res.type = Response::Type::Error;
    res.error = obj->str("message").value_or("");
    return res;
  }
  if (type == "stats") {
    res.type = Response::Type::Stats;
    return res;
  }
  if (type == "shed") {
    res.id = uintField(*obj, "id", res.error);
    res.retryAfterMs = uintField(*obj, "retry-after-ms", res.error);
    if (res.error.empty()) res.type = Response::Type::Shed;
    return res;
  }
  if (type == "done") {
    res.jobs = uintField(*obj, "jobs", res.error);
    res.shed = uintField(*obj, "shed", res.error);
    res.cacheHits = uintField(*obj, "cacheHits", res.error);
    res.cacheMisses = uintField(*obj, "cacheMisses", res.error);
    if (res.error.empty()) res.type = Response::Type::Done;
    return res;
  }
  if (type != "result") {
    res.error = "unknown response type '" + type + "'";
    return res;
  }
  res.id = uintField(*obj, "id", res.error);
  res.result.job.name = obj->str("name").value_or("");
  res.result.job.ulid = obj->str("ulid").value_or("");
  const std::string statusName(obj->str("status").value_or(""));
  const auto status = engine::jobStatusFromName(statusName);
  if (!status) {
    res.error = "result with unknown status '" + statusName + "'";
    return res;
  }
  res.result.status = *status;
  res.result.explanation = obj->str("explanation").value_or("");
  res.result.iterations =
      static_cast<std::size_t>(uintField(*obj, "iterations", res.error));
  res.result.testPeriods = uintField(*obj, "testPeriods", res.error);
  res.result.learnedFacts =
      static_cast<std::size_t>(uintField(*obj, "learnedFacts", res.error));
  res.result.wallMs = obj->num("wallMs").value_or(0);
  res.result.worker = obj->str("worker").value_or("");
  res.result.cacheHit = obj->flag("cacheHit").value_or(false);
  res.result.presolved = obj->flag("presolved").value_or(false);
  if (res.error.empty()) res.type = Response::Type::Result;
  return res;
}

std::string writeWelcomeLine(const std::string& version, std::size_t threads) {
  auto o = header("welcome");
  o.s("version", version).u("threads", threads);
  return o.str();
}

std::string writeResultLine(std::uint64_t id, const engine::JobResult& r) {
  auto o = header("result");
  o.u("id", id).s("name", r.job.name);
  if (!r.job.ulid.empty()) o.s("ulid", r.job.ulid);
  o.s("status", engine::jobStatusName(r.status))
      .s("explanation", r.explanation)
      .b("cacheHit", r.cacheHit)
      .b("presolved", r.presolved)
      .u("iterations", r.iterations)
      .u("testPeriods", r.testPeriods)
      .u("learnedFacts", r.learnedFacts)
      .f("wallMs", r.wallMs)
      .s("worker", r.worker);
  return o.str();
}

std::string writeShedLine(std::uint64_t id, std::uint64_t retryAfterMs) {
  auto o = header("shed");
  o.u("id", id).u("retry-after-ms", retryAfterMs);
  return o.str();
}

std::string writeErrorLine(std::string_view message) {
  auto o = header("error");
  o.s("message", message);
  return o.str();
}

std::string writeDoneLine(std::uint64_t jobs, std::uint64_t shed,
                          std::uint64_t cacheHits, std::uint64_t cacheMisses) {
  auto o = header("done");
  o.u("jobs", jobs)
      .u("shed", shed)
      .u("cacheHits", cacheHits)
      .u("cacheMisses", cacheMisses);
  return o.str();
}

}  // namespace mui::serve

#include "engine/report.hpp"

#include "util/json.hpp"
#include "util/text_table.hpp"

namespace mui::engine {

namespace {

using util::jsonEscape;

constexpr JobStatus kAllStatuses[] = {
    JobStatus::Proven,         JobStatus::RealError,
    JobStatus::IterationLimit, JobStatus::Unsupported,
    JobStatus::AdapterFailure, JobStatus::Timeout,
    JobStatus::EngineError,
};

}  // namespace

std::string renderBatchReport(const BatchReport& report) {
  util::TextTable table({"job", "model", "pattern", "role", "hidden", "status",
                         "iters", "test periods", "learned", "wall ms",
                         "cl/co/ck/te ms", "cache"});
  for (const auto& r : report.results) {
    // Phase breakdown: closure / compose / check / test wall-clock totals.
    const std::string phases = r.cacheHit
                                   ? "-"
                                   : util::fmt(r.closureMs, 1) + "/" +
                                         util::fmt(r.composeMs, 1) + "/" +
                                         util::fmt(r.checkMs, 1) + "/" +
                                         util::fmt(r.testMs, 1);
    table.row({r.job.name, r.job.modelPath, r.job.pattern, r.job.legacyRole,
               r.job.hidden, jobStatusName(r.status),
               std::to_string(r.iterations), std::to_string(r.testPeriods),
               std::to_string(r.learnedFacts), util::fmt(r.wallMs, 1), phases,
               r.cacheHit ? "hit" : (r.presolved ? "presolved" : "-")});
  }

  std::string out = table.str();
  out += "batch: " + std::to_string(report.results.size()) + " jobs on " +
         std::to_string(report.threads) + " thread(s) in " +
         util::fmt(report.wallMs, 1) + " ms;";
  for (const JobStatus s : kAllStatuses) {
    if (const std::size_t n = report.count(s)) {
      out += " " + std::string(jobStatusName(s)) + " " + std::to_string(n) +
             ",";
    }
  }
  if (out.back() == ',' || out.back() == ';') out.pop_back();
  out += "; cache " + std::to_string(report.cacheHits) + "/" +
         std::to_string(report.cacheHits + report.cacheMisses) + " hits (" +
         util::fmt(report.cacheHitRate() * 100.0, 0) + "%)\n";
  return out;
}

std::string writeBatchSummary(const BatchReport& report) {
  std::string out;
  for (const auto& r : report.results) {
    out += "{\"type\":\"job\",\"name\":\"" + jsonEscape(r.job.name) +
           "\",\"ulid\":\"" + jsonEscape(r.job.ulid) +
           "\",\"model\":\"" + jsonEscape(r.job.modelPath) +
           "\",\"pattern\":\"" + jsonEscape(r.job.pattern) +
           "\",\"role\":\"" + jsonEscape(r.job.legacyRole) +
           "\",\"hidden\":\"" + jsonEscape(r.job.hidden) + "\",\"status\":\"" +
           jobStatusName(r.status) + "\",\"worker\":\"" +
           jsonEscape(r.worker) + "\",\"explanation\":\"" +
           jsonEscape(r.explanation) +
           "\",\"iterations\":" + std::to_string(r.iterations) +
           ",\"testPeriods\":" + std::to_string(r.testPeriods) +
           ",\"learnedFacts\":" + std::to_string(r.learnedFacts) +
           ",\"wallMs\":" + util::fmt(r.wallMs, 3) +
           ",\"closureMs\":" + util::fmt(r.closureMs, 3) +
           ",\"composeMs\":" + util::fmt(r.composeMs, 3) +
           ",\"checkMs\":" + util::fmt(r.checkMs, 3) +
           ",\"testMs\":" + util::fmt(r.testMs, 3) +
           ",\"productStatesNew\":" + std::to_string(r.productStatesNew) +
           // Always 0 (every product is composed from scratch); kept so the
           // job line's fields stay the same.
           ",\"productStatesReused\":0" +
           ",\"cacheHit\":" + (r.cacheHit ? "true" : "false") +
           ",\"presolved\":" + (r.presolved ? "true" : "false") + "}\n";
  }
  out += "{\"type\":\"batch\",\"jobs\":" +
         std::to_string(report.results.size()) +
         ",\"threads\":" + std::to_string(report.threads) +
         ",\"wallMs\":" + util::fmt(report.wallMs, 3) +
         ",\"cacheHits\":" + std::to_string(report.cacheHits) +
         ",\"cacheMisses\":" + std::to_string(report.cacheMisses);
  for (const JobStatus s : kAllStatuses) {
    out += ",\"" + std::string(jobStatusName(s)) +
           "\":" + std::to_string(report.count(s));
  }
  out += "}\n";
  return out;
}

}  // namespace mui::engine

#include "engine/report.hpp"

#include "util/json.hpp"
#include "util/text_table.hpp"

namespace mui::engine {

namespace {

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
    out += util::json::Object()
               .s("type", "job")
               .s("name", r.job.name)
               .s("ulid", r.job.ulid)
               .s("model", r.job.modelPath)
               .s("pattern", r.job.pattern)
               .s("role", r.job.legacyRole)
               .s("hidden", r.job.hidden)
               .s("status", jobStatusName(r.status))
               .s("worker", r.worker)
               .s("explanation", r.explanation)
               .u("iterations", r.iterations)
               .u("testPeriods", r.testPeriods)
               .u("learnedFacts", r.learnedFacts)
               .f("wallMs", r.wallMs)
               .f("closureMs", r.closureMs)
               .f("composeMs", r.composeMs)
               .f("checkMs", r.checkMs)
               .f("testMs", r.testMs)
               .u("productStatesNew", r.productStatesNew)
               // Always 0 (every product is composed from scratch); kept so
               // the job line's fields stay the same.
               .u("productStatesReused", 0)
               .b("cacheHit", r.cacheHit)
               .b("presolved", r.presolved)
               .str();
    out += "\n";
  }
  util::json::Object batch;
  batch.s("type", "batch")
      .u("jobs", report.results.size())
      .u("threads", report.threads)
      .f("wallMs", report.wallMs)
      .u("cacheHits", report.cacheHits)
      .u("cacheMisses", report.cacheMisses);
  for (const JobStatus s : kAllStatuses) {
    batch.u(jobStatusName(s), report.count(s));
  }
  out += batch.str() + "\n";
  return out;
}

}  // namespace mui::engine

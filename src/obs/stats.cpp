#include "obs/stats.hpp"

#include <map>
#include <sstream>

#include "obs/journal.hpp"
#include "util/json.hpp"
#include "util/text_table.hpp"

namespace mui::obs {

namespace {

RunStat& findOrAddRun(StatsReport& report,
                      std::map<std::string, std::size_t>& index,
                      const std::string& run) {
  const auto it = index.find(run);
  if (it != index.end()) return report.runs[it->second];
  index.emplace(run, report.runs.size());
  RunStat r;
  r.run = run;
  report.runs.push_back(std::move(r));
  return report.runs.back();
}

}  // namespace

StatsReport aggregateJournals(const std::vector<std::string>& journals) {
  StatsReport report;
  std::map<std::string, std::size_t> runIndex;
  for (const std::string& text : journals) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      // Blank and whitespace-only lines (trailing newlines, CRLF journals,
      // or an empty file) are not events — skip them without counting them
      // as malformed.
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      const auto obj = util::json::parse(line);
      // A journal may interleave lines from several schema versions (e.g.
      // a daemon restarted across an upgrade appending to one file); every
      // version in the supported range is additive, so aggregate them all.
      // A field of the wrong type, or an integer field that is not a plain
      // non-negative integer literal, reads as absent.
      const std::uint64_t schema = obj ? obj->u64("schema").value_or(0) : 0;
      if (!obj ||
          schema < static_cast<std::uint64_t>(kJournalMinSchemaVersion) ||
          schema > static_cast<std::uint64_t>(kJournalSchemaVersion)) {
        ++report.skipped;
        continue;
      }
      ++report.events;
      const std::string type(obj->str("type").value_or(""));
      const std::string run(obj->str("run").value_or(""));
      if (type == "run_start") {
        findOrAddRun(report, runIndex, run);
      } else if (type == "iteration") {
        IterationStat it;
        it.run = run;
        it.iteration = obj->u64("iter").value_or(0);
        it.modelStates = obj->u64("modelStates").value_or(0);
        it.modelTransitions = obj->u64("modelTransitions").value_or(0);
        it.closureStates = obj->u64("closureStates").value_or(0);
        it.productStates = obj->u64("productStates").value_or(0);
        it.statesNew = obj->u64("statesNew").value_or(0);
        it.statesReused = obj->u64("statesReused").value_or(0);
        it.checkPassed = obj->flag("checkPassed").value_or(false);
        it.cexKind = obj->str("cexKind").value_or("");
        it.cexLength = obj->u64("cexLength").value_or(0);
        it.learnedFacts = obj->u64("learnedFacts").value_or(0);
        it.testPeriods = obj->u64("testPeriods").value_or(0);
        it.closureMs = obj->num("closureMs").value_or(0);
        it.composeMs = obj->num("composeMs").value_or(0);
        it.checkMs = obj->num("checkMs").value_or(0);
        it.testMs = obj->num("testMs").value_or(0);
        findOrAddRun(report, runIndex, run);
        report.iterations.push_back(std::move(it));
      } else if (type == "verdict") {
        RunStat& r = findOrAddRun(report, runIndex, run);
        r.verdict = obj->str("verdict").value_or("");
        r.iterations = obj->u64("iterations").value_or(0);
        r.learnedFacts = obj->u64("learnedFacts").value_or(0);
        r.testPeriods = obj->u64("testPeriods").value_or(0);
        r.closureMs = obj->num("closureMs").value_or(0);
        r.composeMs = obj->num("composeMs").value_or(0);
        r.checkMs = obj->num("checkMs").value_or(0);
        r.testMs = obj->num("testMs").value_or(0);
      } else if (type == "job") {
        RunStat& r = findOrAddRun(report, runIndex, run);
        if (r.verdict.empty()) r.verdict = obj->str("status").value_or("");
        r.worker = obj->str("worker").value_or("");
        r.wallMs = obj->num("wallMs").value_or(0);
        r.cacheHit = obj->flag("cacheHit").value_or(false);
        r.presolved = obj->flag("presolved").value_or(false);
        // A daemon journal has job events but no verdict events, so the
        // job line is the only source of these per-run totals there.
        if (r.iterations == 0) {
          r.iterations = obj->u64("iterations").value_or(0);
        }
        if (r.learnedFacts == 0) {
          r.learnedFacts = obj->u64("learnedFacts").value_or(0);
        }
        if (r.testPeriods == 0) {
          r.testPeriods = obj->u64("testPeriods").value_or(0);
        }
        ++report.jobs;
        if (r.cacheHit) ++report.cacheHitJobs;
        if (r.presolved) ++report.presolvedJobs;
        report.jobWallMs.push_back(r.wallMs);
      }
      // Unknown event types of a known schema are ignored by design.
      if (const auto ulid = obj->str("ulid").value_or(""); !ulid.empty()) {
        RunStat& r = findOrAddRun(report, runIndex, run);
        if (r.ulid.empty()) r.ulid = ulid;
      }
    }
  }
  for (const IterationStat& it : report.iterations) {
    ++report.totalIterations;
    report.totalLearnedFacts += it.learnedFacts;
    report.totalTestPeriods += it.testPeriods;
    report.totalCheckMs += it.checkMs;
    report.totalTestMs += it.testMs;
  }
  return report;
}

std::string renderStatsText(const StatsReport& report) {
  std::string out;
  if (!report.iterations.empty()) {
    util::TextTable table({"run", "iter", "model S", "closure S", "product S",
                           "new", "reused", "check", "cex", "learned",
                           "periods", "cl ms", "co ms", "ck ms", "te ms"});
    for (const IterationStat& it : report.iterations) {
      std::string cex = "-";
      if (!it.checkPassed) {
        cex = (it.cexKind.empty() ? "cex" : it.cexKind) + "/" +
              std::to_string(it.cexLength);
      }
      table.row({it.run, std::to_string(it.iteration),
                 std::to_string(it.modelStates),
                 std::to_string(it.closureStates),
                 std::to_string(it.productStates),
                 std::to_string(it.statesNew), std::to_string(it.statesReused),
                 it.checkPassed ? "pass" : "fail", cex,
                 std::to_string(it.learnedFacts),
                 std::to_string(it.testPeriods), util::fmt(it.closureMs),
                 util::fmt(it.composeMs), util::fmt(it.checkMs),
                 util::fmt(it.testMs)});
    }
    out += table.str();
    out += "\n";
  }
  if (!report.runs.empty()) {
    util::TextTable table({"run", "verdict", "worker", "iters", "learned",
                           "periods", "check ms", "test ms", "wall ms"});
    for (const RunStat& r : report.runs) {
      table.row({r.run, r.verdict.empty() ? "?" : r.verdict,
                 r.worker.empty() ? "-" : r.worker,
                 std::to_string(r.iterations), std::to_string(r.learnedFacts),
                 std::to_string(r.testPeriods), util::fmt(r.checkMs),
                 util::fmt(r.testMs),
                 r.wallMs > 0 ? util::fmt(r.wallMs) : "-"});
    }
    out += table.str();
    out += "\n";
  }
  out += "runs=" + std::to_string(report.runs.size()) +
         " iterations=" + std::to_string(report.totalIterations) +
         " learned=" + std::to_string(report.totalLearnedFacts) +
         " periods=" + std::to_string(report.totalTestPeriods) +
         " checkMs=" + util::fmt(report.totalCheckMs) +
         " testMs=" + util::fmt(report.totalTestMs) +
         " events=" + std::to_string(report.events) +
         " skipped=" + std::to_string(report.skipped);
  if (report.jobs > 0) {
    out += " jobs=" + std::to_string(report.jobs) +
           " presolved=" + std::to_string(report.presolvedJobs) +
           " cacheHits=" + std::to_string(report.cacheHitJobs);
  }
  out += "\n";
  return out;
}

std::string renderStatsJson(const StatsReport& report) {
  std::string out = "{\"iterations\":[";
  bool first = true;
  for (const IterationStat& it : report.iterations) {
    if (!first) out += ",";
    first = false;
    util::json::Object o;
    o.s("run", it.run)
        .u("iter", it.iteration)
        .u("modelStates", it.modelStates)
        .u("modelTransitions", it.modelTransitions)
        .u("closureStates", it.closureStates)
        .u("productStates", it.productStates)
        .u("statesNew", it.statesNew)
        .u("statesReused", it.statesReused)
        .b("checkPassed", it.checkPassed)
        .s("cexKind", it.cexKind)
        .u("cexLength", it.cexLength)
        .u("learnedFacts", it.learnedFacts)
        .u("testPeriods", it.testPeriods)
        .f("closureMs", it.closureMs)
        .f("composeMs", it.composeMs)
        .f("checkMs", it.checkMs)
        .f("testMs", it.testMs);
    out += "\n" + o.str();
  }
  out += "\n],\"runs\":[";
  first = true;
  for (const RunStat& r : report.runs) {
    if (!first) out += ",";
    first = false;
    util::json::Object o;
    o.s("run", r.run)
        .s("ulid", r.ulid)
        .s("verdict", r.verdict)
        .s("worker", r.worker)
        .u("iterations", r.iterations)
        .u("learnedFacts", r.learnedFacts)
        .u("testPeriods", r.testPeriods)
        .f("closureMs", r.closureMs)
        .f("composeMs", r.composeMs)
        .f("checkMs", r.checkMs)
        .f("testMs", r.testMs)
        .f("wallMs", r.wallMs)
        .b("cacheHit", r.cacheHit)
        .b("presolved", r.presolved);
    out += "\n" + o.str();
  }
  util::json::Object totals;
  totals.u("runs", report.runs.size())
      .u("iterations", report.totalIterations)
      .u("learnedFacts", report.totalLearnedFacts)
      .u("testPeriods", report.totalTestPeriods)
      .f("checkMs", report.totalCheckMs)
      .f("testMs", report.totalTestMs)
      .u("events", report.events)
      .u("skipped", report.skipped)
      .u("jobs", report.jobs)
      .u("presolvedJobs", report.presolvedJobs)
      .u("cacheHitJobs", report.cacheHitJobs);
  out += "\n],\"totals\":" + totals.str() + "}\n";
  return out;
}

}  // namespace mui::obs

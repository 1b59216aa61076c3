#include "obs/trend.hpp"

#include <algorithm>
#include <cmath>

#include "obs/journal.hpp"
#include "util/json.hpp"
#include "util/text_table.hpp"

namespace mui::obs {

namespace {

/// Nearest-rank quantile (q in [0,1]) over an unsorted sample; 0 when empty.
double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sample[std::min(idx, sample.size() - 1)];
}

double sumIterations(const StatsReport& r) {
  double total = 0;
  for (const RunStat& run : r.runs) {
    total += static_cast<double>(run.iterations);
  }
  return total;
}

double sumTestPeriods(const StatsReport& r) {
  double total = 0;
  for (const RunStat& run : r.runs) {
    total += static_cast<double>(run.testPeriods);
  }
  return total;
}

double ratePct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// Work/latency metric: regression = relative growth beyond threshold.
/// A zero baseline with non-zero current has no relative delta and counts
/// as a regression when gated.
TrendMetric growthMetric(std::string name, double baseline, double current,
                         double thresholdPct, bool gated) {
  TrendMetric m;
  m.name = std::move(name);
  m.baseline = baseline;
  m.current = current;
  m.delta = current - baseline;
  m.gated = gated;
  if (baseline > 0) {
    m.deltaPct = 100.0 * m.delta / baseline;
    m.regressed = gated && m.deltaPct > thresholdPct;
  } else {
    m.deltaPct = current > 0 ? 100.0 : 0.0;
    m.regressed = gated && current > 0;
  }
  return m;
}

/// Rate metric (values already in %): regression = absolute drop beyond
/// thresholdPct percentage points.
TrendMetric rateMetric(std::string name, double baseline, double current,
                       double thresholdPct) {
  TrendMetric m;
  m.name = std::move(name);
  m.baseline = baseline;
  m.current = current;
  m.delta = current - baseline;
  m.deltaPct = m.delta;  // already percentage points
  m.gated = true;
  m.regressed = -m.delta > thresholdPct;
  return m;
}

}  // namespace

TrendReport compareTrend(const StatsReport& baseline,
                         const StatsReport& current,
                         const TrendOptions& opts) {
  TrendReport report;
  report.metrics.push_back(growthMetric("iterations", sumIterations(baseline),
                                        sumIterations(current),
                                        opts.thresholdPct, true));
  report.metrics.push_back(
      growthMetric("testPeriods", sumTestPeriods(baseline),
                   sumTestPeriods(current), opts.thresholdPct, true));
  report.metrics.push_back(rateMetric(
      "presolveRate", ratePct(baseline.presolvedJobs, baseline.jobs),
      ratePct(current.presolvedJobs, current.jobs), opts.thresholdPct));
  report.metrics.push_back(rateMetric(
      "cacheHitRate", ratePct(baseline.cacheHitJobs, baseline.jobs),
      ratePct(current.cacheHitJobs, current.jobs), opts.thresholdPct));
  const bool gateLatency = opts.latencyThresholdPct > 0;
  const double latencyThreshold =
      gateLatency ? opts.latencyThresholdPct : opts.thresholdPct;
  report.metrics.push_back(growthMetric(
      "p50WallMs", quantile(baseline.jobWallMs, 0.50),
      quantile(current.jobWallMs, 0.50), latencyThreshold, gateLatency));
  report.metrics.push_back(growthMetric(
      "p99WallMs", quantile(baseline.jobWallMs, 0.99),
      quantile(current.jobWallMs, 0.99), latencyThreshold, gateLatency));
  for (const TrendMetric& m : report.metrics) {
    if (m.regressed) report.regressed = true;
  }
  return report;
}

std::string renderTrendText(const TrendReport& report) {
  util::TextTable table(
      {"metric", "baseline", "current", "delta", "delta %", "gate", "status"});
  for (const TrendMetric& m : report.metrics) {
    table.row({m.name, util::fmt(m.baseline), util::fmt(m.current),
               util::fmt(m.delta), util::fmt(m.deltaPct),
               m.gated ? "gated" : "advisory",
               m.regressed ? "REGRESSED" : "ok"});
  }
  std::string out = table.str();
  out += "\nVERDICT: ";
  out += report.regressed ? "regressed" : "ok";
  out += "\n";
  return out;
}

std::string renderTrendJson(const TrendReport& report) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const TrendMetric& m : report.metrics) {
    if (!first) out += ",";
    first = false;
    util::json::Object o;
    o.s("name", m.name)
        .f("baseline", m.baseline)
        .f("current", m.current)
        .f("delta", m.delta)
        .f("deltaPct", m.deltaPct)
        .b("gated", m.gated)
        .b("regressed", m.regressed);
    out += "\n" + o.str();
  }
  out += "\n],\"verdict\":";
  out += report.regressed ? "\"regressed\"" : "\"ok\"";
  out += "}\n";
  return out;
}

}  // namespace mui::obs

// batch_loop and batch_adapter: the campaign runs through engine::runBatch,
// the function `mui batch` calls, in rounds. Every round is one runBatch
// call over a slice of the campaign with a fresh result cache, so the cache
// is only ever written to. A warm-up round over a sample of the campaign
// comes first; rounds then take the campaign's jobs in order, wrapping
// around, until the measurement window is spent. The generator shuffles
// the jobs, so every round is a sample of every size.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "engine/engine.hpp"
#include "engine/manifest.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;  // per measureSetup call
// About this many jobs make the warm-up round, and this many each timed
// round (or the whole campaign, if smaller). A round of all 720 of
// batch_loop's jobs takes about 25 s, so a run would last one or two of
// them depending on the program's speed.
constexpr std::size_t kWarmupJobs = 96;
constexpr std::size_t kRoundJobs = 180;

/// Part of the campaign one runBatch call runs: the jobs, and the campaign
/// index of each.
struct Slice {
  std::vector<std::size_t> index;
  std::vector<mui::engine::Job> jobs;
};

/// `count` jobs, `stride` apart, from `first` on, wrapping around.
Slice slice(const std::vector<mui::engine::Job>& jobs, std::size_t first,
            std::size_t count, std::size_t stride) {
  Slice s;
  for (std::size_t k = 0; k < count; ++k) {
    s.index.push_back((first + k * stride) % jobs.size());
    s.jobs.push_back(jobs[s.index.back()]);
  }
  return s;
}

/// Every stride-th job, about kWarmupJobs in all.
Slice warmupSlice(const std::vector<mui::engine::Job>& jobs) {
  const std::size_t stride = std::max<std::size_t>(1, jobs.size() / kWarmupJobs);
  return slice(jobs, 0, (jobs.size() + stride - 1) / stride, stride);
}

/// Timed round `round` (0, 1, ...): the next kRoundJobs jobs.
Slice roundSlice(const std::vector<mui::engine::Job>& jobs, std::size_t round) {
  const std::size_t count = std::min(jobs.size(), kRoundJobs);
  return slice(jobs, round * count % jobs.size(), count, 1);
}

double msSince(std::int64_t startNs) { return (nowNs() - startNs) / 1e6; }

/// Set-up: read the job list and every model file into a TextCache.
std::vector<mui::engine::Job> loadCampaign(const std::filesystem::path& dir,
                                           mui::engine::TextCache& texts) {
  const std::filesystem::path manifest = dir / "jobs.manifest";
  auto jobs = mui::engine::parseManifest(readText(manifest), manifest.string(),
                                         dir.string());
  for (const auto& job : jobs) texts.get(job.modelPath);
  return jobs;
}

/// Sets up kSetupReps times into fresh caches, appending each time in
/// seconds to `samples`; keeps the last cache.
void measureSetup(const std::filesystem::path& dir,
                  std::unique_ptr<mui::engine::TextCache>& texts,
                  std::vector<mui::engine::Job>& jobs,
                  std::vector<double>& samples) {
  for (int i = 0; i < kSetupReps; ++i) {
    const std::int64_t start = nowNs();
    texts = std::make_unique<mui::engine::TextCache>();
    jobs = loadCampaign(dir, *texts);
    samples.push_back(msSince(start) / 1e3);
  }
}

void finish(Report& r, const VerdictGate& gate) {
  const auto mismatches = gate.mismatches();
  for (const std::string& m : mismatches) r.note("MISMATCH " + m);
  r.correct = r.failed == 0 && mismatches.empty();
}

Report runUntraced(const Campaign& c, const RunOptions& o) {
  Report r;
  VerdictGate gate(c);
  std::unique_ptr<mui::engine::TextCache> texts;
  std::vector<mui::engine::Job> jobs;
  std::vector<double> setups;
  measureSetup(o.dir, texts, jobs, setups);

  mui::engine::BatchOptions bo;
  bo.threads = o.workers;
  std::vector<double> latency;
  std::uint64_t correct = 0;
  const auto runRound = [&](const Slice& part, bool measured) {
    const CpuMem self0 = selfUsage(), kids0 = childrenUsage();
    const auto rep = mui::engine::runBatch(part.jobs, bo, *texts);
    const CpuMem self1 = selfUsage(), kids1 = childrenUsage();
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      const auto& res = rep.results[i];
      const bool ok = gate.check(part.index[i],
                                 mui::engine::jobStatusName(res.status),
                                 static_cast<long long>(res.iterations),
                                 static_cast<long long>(res.testPeriods));
      if (!measured) continue;  // a warm-up mismatch still fails the run
      ++r.attempted;
      if (ok) {
        ++correct;
      } else {
        ++r.failed;
      }
      latency.push_back(res.wallMs);
    }
    return std::pair{rep.wallMs,
                     self1.cpuMs - self0.cpuMs + kids1.cpuMs - kids0.cpuMs};
  };

  runRound(warmupSlice(jobs), false);

  // Set-up is repeated before every round, so that its median samples the
  // whole run. The other metrics pool all timed rounds: the machine's speed
  // can switch from one round to the next, and pooling averages those
  // switches where a median over a few rounds would pick one speed.
  double wallMs = 0, cpuMs = 0;
  std::size_t rounds = 0;
  while (wallMs < o.seconds * 1e3) {
    measureSetup(o.dir, texts, jobs, setups);
    const auto [roundMs, roundCpuMs] = runRound(roundSlice(jobs, rounds++), true);
    wallMs += roundMs;
    cpuMs += roundCpuMs;
  }
  const CpuMem self = selfUsage(), kids = childrenUsage();

  // The tail is p95 whenever the run supports it, so that the percentile
  // does not change with the number of jobs that fit in the window.
  const std::size_t n = latency.size();
  const double tailQ = std::min(0.95, tailQuantile(n));
  const auto attempted = static_cast<double>(std::max<std::uint64_t>(1, r.attempted));
  r.metric("throughput_jobs_s", static_cast<double>(correct) / (wallMs / 1e3),
           "jobs/s");
  r.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
  r.metric("latency_tail_ms", quantile(latency, tailQ), "ms");
  r.metric("cpu_ms_per_job", cpuMs / attempted, "ms");
  r.metric("peak_rss_mb", std::max(self.maxRssMb, kids.maxRssMb), "MB");
  r.metric("setup_s", median(setups), "s");
  char line[256];
  std::snprintf(line, sizeof line,
                "%zu timed rounds of %zu of the %zu jobs on %zu worker(s)%s in "
                "%.0f ms; tail = p%g over %zu samples; set-up median of %zu; "
                "failed_share %.4f",
                rounds, std::min(jobs.size(), kRoundJobs), jobs.size(), o.workers,
                o.cpu >= 0 ? " on one CPU" : "", wallMs, tailQ * 100, n,
                setups.size(), static_cast<double>(r.failed) / attempted);
  r.note(line);
  finish(r, gate);
  return r;
}

/// One round through the traced pipeline on `workers` threads with a fresh
/// result cache, like a runBatch call; appends the outcomes and their
/// campaign indices, numbering the jobs on from the ones already there, and
/// returns the wall time.
double pipelineRound(const Slice& part, std::size_t workers,
                     mui::engine::TextCache& texts,
                     std::vector<std::unique_ptr<SpanBuffer>>* spans,
                     std::vector<PipelineOutcome>& outcomes,
                     std::vector<std::size_t>& index) {
  const std::size_t base = outcomes.size();
  outcomes.resize(base + part.jobs.size());
  index.insert(index.end(), part.index.begin(), part.index.end());
  const std::int64_t start = nowNs();
  mui::engine::ResultCache cache;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    SpanBuffer* buffer = spans != nullptr ? (*spans)[w].get() : nullptr;
    pool.emplace_back([&, buffer] {
      for (std::size_t i; (i = next++) < part.jobs.size();) {
        outcomes[base + i] = runPipeline(part.jobs[i], texts, cache, buffer,
                                         static_cast<std::uint32_t>(base + i));
      }
    });
  }
  for (auto& t : pool) t.join();
  return msSince(start);
}

Report runTraced(const Campaign& c, const RunOptions& o) {
  Report r;
  VerdictGate gate(c);
  std::unique_ptr<mui::engine::TextCache> texts;
  std::vector<mui::engine::Job> jobs;
  std::vector<double> setups;
  measureSetup(o.dir, texts, jobs, setups);

  // A warm-up round, then each timed round untraced and traced in turn
  // until the untraced ones have taken half the window. Taking turns keeps
  // a drift of the machine's speed out of trace.overhead_pct.
  std::vector<PipelineOutcome> warmup, plain, traced;
  std::vector<std::size_t> warmupIndex, plainIndex, tracedIndex;
  pipelineRound(warmupSlice(jobs), o.workers, *texts, nullptr, warmup,
                warmupIndex);
  std::vector<std::unique_ptr<SpanBuffer>> spans;
  for (std::size_t w = 0; w < o.workers; ++w) {
    spans.push_back(std::make_unique<SpanBuffer>(static_cast<int>(w)));
  }
  std::size_t rounds = 0;
  double plainMs = 0, tracedMs = 0;
  while (plainMs < o.seconds * 1e3 / 2) {
    const Slice part = roundSlice(jobs, rounds++);
    plainMs += pipelineRound(part, o.workers, *texts, nullptr, plain, plainIndex);
    tracedMs += pipelineRound(part, o.workers, *texts, &spans, traced, tracedIndex);
  }

  for (std::size_t seq = 0; seq < traced.size(); ++seq) {
    ++r.attempted;
    const PipelineOutcome& t = traced[seq];
    const PipelineOutcome& p = plain[seq];
    const bool ok =
        gate.check(tracedIndex[seq], t.status, t.iterations, t.testPeriods) &&
        gate.check(plainIndex[seq], p.status, p.iterations, p.testPeriods);
    if (!ok) ++r.failed;
  }
  std::vector<const SpanBuffer*> views;
  for (const auto& b : spans) views.push_back(b.get());
  writeChromeTrace(views, o.dir / "trace.json");
  addLayerMetrics(r, views, traced, (tracedMs - plainMs) / plainMs * 100);
  addAbsentMetrics(r, {{"engine.persistent_replay_ms", "ms"},
                       {"engine.persistent_replayed", "count"},
                       {"serve.server_ms", "ms"},
                       {"serve.outside_ms_p50", "ms"},
                       {"serve.outside_ms_p99", "ms"},
                       {"serve.encode_us", "us"},
                       {"serve.decode_us", "us"},
                       {"serve.shed", "count"},
                       {"serve.outside_share", "ratio"},
                       {"loadgen.lag_p99_ms", "ms"}});
  r.metric("failed_share",
           static_cast<double>(r.failed) /
               static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
           "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "traced %zu round(s) of %zu jobs: untraced %.0f ms, traced "
                "%.0f ms",
                rounds, std::min(jobs.size(), kRoundJobs), plainMs, tracedMs);
  r.note(line);
  finish(r, gate);
  return r;
}

}  // namespace

Report runBatchWorkload(const Campaign& campaign, const RunOptions& options) {
  return options.trace ? runTraced(campaign, options)
                       : runUntraced(campaign, options);
}

}  // namespace perfbench

// E7 — counterexample strategies (paper Sec. 7 future work): "the interplay
// between the formal verification and the test could be improved when a
// number of counterexamples instead only a single one could be derived from
// the model checker. Another improvement seems possible when specific
// strategies ... (e.g., the shortest one) are considered." We sweep both
// knobs on the RailCab scenario and on random systems.

#include <cstdio>

#include "bench_util.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"

namespace {

using namespace mui;

struct Variant {
  const char* name;
  ctl::CexSearch search;
  std::size_t batch;
};

constexpr Variant kVariants[] = {
    {"shortest, 1 cex", ctl::CexSearch::Shortest, 1},
    {"shortest, 4 cex", ctl::CexSearch::Shortest, 4},
    {"depth-first, 1 cex", ctl::CexSearch::DepthFirst, 1},
    {"depth-first, 4 cex", ctl::CexSearch::DepthFirst, 4},
};

}  // namespace

int main() {
  bench::printHeader(
      "E7: counterexample search strategy and batching",
      "Both knobs change effort, not verdicts. Shorter counterexamples mean "
      "shorter tests; batching amortizes the model-checking rounds against "
      "more learning per round.");

  // ---- RailCab scenario. ----------------------------------------------------
  {
    util::TextTable table({"variant", "scenario", "verdict", "iterations",
                           "test periods", "avg cex len", "wall ms"});
    for (const bool faulty : {false, true}) {
      for (const auto& v : kVariants) {
        const bench::Railcab rc;
        const auto front = rc.bind("rearShipped").scenario.context;
        testing::FirmwareShuttleLegacy legacy(rc.model.signals, faulty);
        synthesis::IntegrationConfig cfg;
        cfg.property = rc.constraint();
        cfg.search = v.search;
        cfg.counterexamplesPerCheck = v.batch;
        bench::Stopwatch watch;
        const auto res =
            synthesis::IntegrationVerifier(front, legacy, cfg).run();
        const double ms = watch.ms();
        std::size_t cexLenSum = 0, cexCount = 0;
        for (const auto& rec : res.journal) {
          if (!rec.checkPassed) {
            cexLenSum += rec.cexLength;
            ++cexCount;
          }
        }
        table.row({v.name, faulty ? "faulty fw" : "correct fw",
                   bench::verdictName(res.verdict),
                   std::to_string(res.iterations),
                   std::to_string(res.totalTestPeriods),
                   util::fmt(cexCount ? double(cexLenSum) / cexCount : 0, 1),
                   util::fmt(ms, 1)});
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // ---- Random systems (averaged). -------------------------------------------
  {
    util::TextTable table({"variant", "verdicts", "avg iterations",
                           "avg test periods", "avg wall ms"});
    constexpr int kSeeds = 5;
    for (const auto& v : kVariants) {
      std::size_t iters = 0;
      std::uint64_t periods = 0;
      double ms = 0;
      std::string verdicts;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        bench::Scenario sc(12, 70 + static_cast<std::uint64_t>(seed), 60);
        testing::AutomatonLegacy legacy(sc.hidden);
        synthesis::IntegrationConfig cfg;
        cfg.search = v.search;
        cfg.counterexamplesPerCheck = v.batch;
        bench::Stopwatch watch;
        const auto res =
            synthesis::IntegrationVerifier(sc.context, legacy, cfg).run();
        ms += watch.ms();
        iters += res.iterations;
        periods += res.totalTestPeriods;
        verdicts +=
            res.verdict == synthesis::Verdict::ProvenCorrect ? 'P' : 'E';
      }
      table.row({v.name, verdicts, util::fmt(iters / double(kSeeds), 1),
                 util::fmt(periods / double(kSeeds), 1),
                 util::fmt(ms / kSeeds, 1)});
    }
    std::printf("%s\n", table.str().c_str());
  }
  return 0;
}

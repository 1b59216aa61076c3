// E1 — termination and learning effort (paper Sec. 4.4): the number of
// verification/testing/learning iterations, the knowledge learned, and the
// test effort as the legacy component grows. The paper argues the iteration
// count is bounded because every round strictly increases the learned
// knowledge; this table shows the bound is loose in practice — the loop
// stops long before the model is complete.
//
// Each size runs its seeds kRepeats times; the table and the JSON report
// the median loop time and its quartiles, since one run sums only a few
// milliseconds and single runs spread by 2x.
//
// Writes BENCH_iterations.json (schema in docs/PERFORMANCE.md).
// MUI_BENCH_SMOKE=1 restricts the run to the small sizes.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "testing/legacy.hpp"

int main() {
  using namespace mui;
  const bool smoke = bench::smokeMode();
  bench::printHeader(
      "E1: iterations and learned knowledge vs component size",
      "Scenario: random hidden component, context = mirrored 60% "
      "sub-behavior, deadlock-freedom requirement. Iterations grow roughly "
      "with the context-reachable part, not with the full component "
      "(Sec. 4.4 / Thm. 2: knowledge strictly increases and is bounded by "
      "the complete model). 'composed' sums the iterations' statesNew: the "
      "states of the pessimistic (Def. 9) products checked, which the loop "
      "reads off the doubled view of the copy-1 product it composes. "
      "'built' counts the product states the loop actually composed "
      "(mui_compose_product_states_new_total): each round's learned states "
      "and each state of the run's chaos region once.");

  util::TextTable table({"legacy states", "hidden trans", "verdict",
                         "iterations", "learned states", "learned trans",
                         "learned refusals", "test periods",
                         "ms p50 [p25-p75]", "composed", "built"});
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{4, 8, 16, 32, 64};
  std::string json = "{\"bench\":\"iterations\",\"unit\":\"ms\",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"sizes\":[";
  constexpr int kRepeats = 7;
  const obs::Counter& statesBuilt = obs::Registry::global().counter(
      "mui_compose_product_states_new_total", "Product states built");
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t states = sizes[si];
    // Aggregate a few seeds per size; the counts come from one repeat
    // (the loop is deterministic), the time from every repeat.
    std::vector<double> ms(kRepeats, 0.0);
    std::size_t iters = 0, lStates = 0, lTrans = 0, lForb = 0, hTrans = 0;
    std::size_t composed = 0;
    std::uint64_t built = 0;
    std::uint64_t periods = 0;
    std::string verdicts;
    constexpr int kSeeds = 5;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      bench::Scenario sc(states, static_cast<std::uint64_t>(seed) * 13,
                         /*contextKeepPct=*/60);
      synthesis::IntegrationResult res;
      for (double& repeatMs : ms) {
        testing::AutomatonLegacy legacy(sc.hidden);
        const std::uint64_t before = statesBuilt.value();
        bench::Stopwatch w;
        res = synthesis::runIntegration(sc.context, legacy, {});
        repeatMs += w.ms();
        if (&repeatMs == &ms.front()) built += statesBuilt.value() - before;
      }

      composed += res.totalProductStatesNew;
      iters += res.iterations;
      lStates += res.learnedModels[0].base().stateCount();
      lTrans += res.learnedModels[0].base().transitionCount();
      lForb += res.learnedModels[0].forbiddenCount();
      periods += res.totalTestPeriods;
      hTrans += sc.hidden.transitionCount();
      verdicts += res.verdict == synthesis::Verdict::ProvenCorrect ? 'P' : 'E';
    }
    const auto avg = [&](std::size_t v) {
      return util::fmt(static_cast<double>(v) / kSeeds, 1);
    };
    // Quartiles of the seven summed loop times: sorted ranks 1, 3 and 5.
    std::sort(ms.begin(), ms.end());
    const double p25 = ms[kRepeats / 4];
    const double p50 = ms[kRepeats / 2];
    const double p75 = ms[kRepeats - 1 - kRepeats / 4];
    table.row({std::to_string(states), avg(hTrans), verdicts, avg(iters),
               avg(lStates), avg(lTrans), avg(lForb),
               avg(static_cast<std::size_t>(periods)),
               util::fmt(p50, 2) + " [" + util::fmt(p25, 2) + "-" +
                   util::fmt(p75, 2) + "]",
               avg(composed), avg(static_cast<std::size_t>(built))});
    if (si) json += ',';
    json += "{\"legacyStates\":" + std::to_string(states) +
            ",\"seeds\":" + std::to_string(kSeeds) +
            ",\"iterations\":" + std::to_string(iters) +
            ",\"repeats\":" + std::to_string(kRepeats) +
            ",\"scratchMs\":" + util::fmt(p50, 3) +
            ",\"scratchMsP25\":" + util::fmt(p25, 3) +
            ",\"scratchMsP75\":" + util::fmt(p75, 3) +
            ",\"statesComposedScratch\":" + std::to_string(composed) +
            ",\"statesBuilt\":" + std::to_string(built) + "}";
  }
  json += "]}\n";
  std::printf("%s\n", table.str().c_str());
  std::printf("verdict column: one letter per seed (P = proven correct, "
              "E = real error found); ms: the loop time summed over the "
              "seeds, median and quartiles of %d runs\n",
              kRepeats);
  bench::writeBenchJson("BENCH_iterations.json", json);
  return 0;
}

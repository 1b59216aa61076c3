// E10 — closure-style ablation (DESIGN.md §6.4): the literal Def.-9 closure
// (PaperExact) adds chaos edges for interactions already in T, so a
// counterexample may wander into chaos along *known* interactions; testing
// it then confirms known behavior and learns nothing — the loop can stall.
// The DeterministicTarget refinement (valid because the legacy component is
// deterministic, Sec. 4.3) only sends genuinely unknown interactions to
// chaos, making learning progress strict (Thm. 2). This table measures the
// difference.

#include <cstdio>

#include "bench_util.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"

int main() {
  using namespace mui;
  bench::printHeader(
      "E10: PaperExact vs DeterministicTarget chaotic closures",
      "Same scenarios, both closure styles. PaperExact may stop with "
      "'unsupported' (no learning progress) — never with a wrong verdict; "
      "DeterministicTarget always terminates with a decision.");

  util::TextTable table({"scenario", "style", "verdict", "iterations",
                         "test periods", "closure S (last)"});

  const auto runOne = [&](const char* name, const automata::Automaton& ctx,
                          testing::LegacyComponent& legacy,
                          const std::string& property,
                          automata::ClosureStyle style) {
    synthesis::IntegrationConfig cfg;
    cfg.property = property;
    cfg.closureStyle = style;
    cfg.maxIterations = 500;
    const auto res = synthesis::IntegrationVerifier(ctx, legacy, cfg).run();
    table.row({name,
               style == automata::ClosureStyle::PaperExact ? "paper-exact"
                                                           : "deterministic",
               bench::verdictName(res.verdict),
               std::to_string(res.iterations),
               std::to_string(res.totalTestPeriods),
               res.journal.empty()
                   ? "-"
                   : std::to_string(res.journal.back().closureStates)});
  };

  for (const auto style : {automata::ClosureStyle::DeterministicTarget,
                           automata::ClosureStyle::PaperExact}) {
    {
      const bench::Railcab rc;
      const auto front = rc.bind("rearShipped").scenario.context;
      testing::FirmwareShuttleLegacy good(rc.model.signals, false);
      runOne("shuttle correct", front, good, rc.constraint(), style);
      testing::FirmwareShuttleLegacy bad(rc.model.signals, true);
      runOne("shuttle faulty", front, bad, rc.constraint(), style);
    }
    for (int seed = 1; seed <= 3; ++seed) {
      bench::Scenario sc(8, 500 + static_cast<std::uint64_t>(seed), 70);
      testing::AutomatonLegacy legacy(sc.hidden);
      runOne(("random #" + std::to_string(seed)).c_str(), sc.context, legacy,
             "", style);
    }
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}

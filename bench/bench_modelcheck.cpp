// E4: model-checker scaling — the paper's premise that "verification covers
// the inherently subtle interaction completely, which testing cannot":
// explicit-state CCTL checking throughput (states/second) and
// counterexample extraction cost on composed systems of growing size.
//
// Besides the google-benchmark micro benches, a speedup harness runs first:
// it times the worklist Checker against the retained naive ReferenceChecker
// on the same products and formula set, cross-checks every satisfaction set
// state-by-state, and writes BENCH_modelcheck.json (schema in
// docs/PERFORMANCE.md). With MUI_BENCH_SMOKE=1 only small sizes run and the
// micro benches are skipped; a satisfaction-set mismatch fails the process
// either way (the perf-smoke CI gate).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/compose.hpp"
#include "bench_util.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "ctl/reference.hpp"
#include "util/json.hpp"

namespace {

using namespace mui;

automata::Product makeProduct(bench::Tables& t, std::size_t n,
                              std::uint64_t seed) {
  automata::RandomSpec spec;
  spec.states = n;
  spec.inputs = 2;
  spec.outputs = 2;
  spec.seed = seed;
  spec.name = "lg";
  const auto a = automata::randomAutomaton(spec, t.signals, t.props);
  automata::RandomSpec specB = spec;
  specB.name = "aux";
  specB.seed = seed + 1;
  const auto b = automata::randomAutomaton(specB, t.signals, t.props);
  const auto am = automata::mirrored(a, "ctxa");
  // Compose a with its mirror plus an orthogonal bystander for volume.
  const auto prod = automata::composeAll({&a, &am, &b});
  return prod;
}

void BM_InvariantCheck(benchmark::State& state) {
  bench::Tables t;
  const auto prod = makeProduct(t, static_cast<std::size_t>(state.range(0)), 3);
  const auto phi = ctl::parseFormula("AG !(lg.lg_q1 && ctxa.lg_q2)");
  ctl::VerifyOptions opts;
  opts.requireDeadlockFree = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl::verify(prod.automaton, phi, opts));
  }
  state.counters["product_states"] =
      static_cast<double>(prod.automaton.stateCount());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              prod.automaton.stateCount()));
}
BENCHMARK(BM_InvariantCheck)->Arg(16)->Arg(64)->Arg(256);

void BM_BoundedLeadsTo(benchmark::State& state) {
  bench::Tables t;
  const auto prod = makeProduct(t, 64, 3);
  const auto phi = ctl::parseFormula(
      "AG (lg.lg_q1 -> AF[1," + std::to_string(state.range(0)) +
      "] ctxa.lg_q0)");
  ctl::VerifyOptions opts;
  opts.requireDeadlockFree = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl::verify(prod.automaton, phi, opts));
  }
}
BENCHMARK(BM_BoundedLeadsTo)->Arg(2)->Arg(8)->Arg(32);

void BM_FixpointOperators(benchmark::State& state) {
  bench::Tables t;
  const auto prod = makeProduct(t, static_cast<std::size_t>(state.range(0)), 9);
  ctl::Checker checker(prod.automaton);
  const auto phi =
      ctl::parseFormula("A[!lg.lg_q2 U (lg.lg_q2 || deadlock)] && EG !deadlock");
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.evaluate(phi));
  }
}
BENCHMARK(BM_FixpointOperators)->Arg(16)->Arg(128);

/// A deep product: an n-state emit cycle composed with its mirror. The
/// product has ~n states and diameter ~n, so unbounded fixpoints must
/// propagate across the whole ring — the naive sweep checker needs ~n
/// whole-state-space passes (O(S²)) where the worklist engine stays O(S+E).
automata::Product makeDeepProduct(bench::Tables& t, std::size_t n) {
  automata::Automaton ring(t.signals, t.props, "ring");
  ring.addOutput("tick");
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = ring.addState("rq" + std::to_string(i));
    ring.labelWithStateName(s);
  }
  ring.markInitial(0);
  const automata::Interaction step{{}, ring.outputs()};
  for (std::size_t i = 0; i < n; ++i) {
    ring.addTransition(static_cast<automata::StateId>(i), step,
                       static_cast<automata::StateId>((i + 1) % n));
  }
  const auto mir = automata::mirrored(ring, "mir");
  return automata::compose(ring, mir);
}

struct Workload {
  const char* name;
  std::vector<std::size_t> sizes;  // instance size parameter per tier
  automata::Product (*build)(bench::Tables&, std::size_t);
  std::vector<std::string> formulaTexts;
  /// Bounded-window tiers: each size runs once per window, with every
  /// "{w}" in the formulas replaced by it. Empty: no window parameter.
  std::vector<std::size_t> windows = {};
};

automata::Product buildRandom(bench::Tables& t, std::size_t n) {
  return makeProduct(t, n, 3);
}

/// `text` with every "{w}" replaced by `w`.
std::string withWindow(std::string text, std::size_t w) {
  const std::string key = "{w}";
  for (auto at = text.find(key); at != std::string::npos;
       at = text.find(key, at)) {
    text.replace(at, key.size(), std::to_string(w));
  }
  return text;
}

/// Reference-vs-worklist speedup for one workload; appends a JSON workload
/// object to `json`. Returns false on any satisfaction-set disagreement.
bool runWorkload(const Workload& w, std::string& json) {
  util::TextTable table({"size", "window", "product states", "product trans",
                         "reference ms", "worklist ms", "speedup", "match"});
  json += "{\"name\":\"" + std::string(w.name) + "\",\"formulas\":[";
  for (std::size_t i = 0; i < w.formulaTexts.size(); ++i) {
    if (i) json += ',';
    json += util::json::quote(w.formulaTexts[i]);
  }
  json += "],\"sizes\":[";

  bool allMatch = true;
  bool firstRow = true;
  for (const std::size_t size : w.sizes) {
    bench::Tables t;
    const auto prod = w.build(t, size);
    const std::vector<std::size_t> windows =
        w.windows.empty() ? std::vector<std::size_t>{0} : w.windows;
    for (const std::size_t window : windows) {
      std::vector<ctl::FormulaPtr> formulas;
      std::vector<std::string> texts;
      for (const auto& text : w.formulaTexts) {
        texts.push_back(withWindow(text, window));
        formulas.push_back(ctl::parseFormula(texts.back()));
      }

      // Time engine construction + the full formula set; best of 3 rounds.
      constexpr int kReps = 3;
      double refMs = -1, fastMs = -1;
      bool match = true;
      for (int rep = 0; rep < kReps; ++rep) {
        bench::Stopwatch w1;
        ctl::ReferenceChecker ref(prod.automaton);
        std::vector<std::vector<char>> refSets;
        for (const auto& f : formulas) refSets.push_back(ref.evaluate(f));
        const double r = w1.ms();
        refMs = refMs < 0 ? r : std::min(refMs, r);

        bench::Stopwatch w2;
        ctl::Checker fast(prod.automaton);
        std::vector<ctl::SatSet> fastSets;
        for (const auto& f : formulas) fastSets.push_back(fast.evaluate(f));
        const double g = w2.ms();
        fastMs = fastMs < 0 ? g : std::min(fastMs, g);

        for (std::size_t fi = 0; fi < formulas.size(); ++fi) {
          for (automata::StateId s = 0; s < prod.automaton.stateCount();
               ++s) {
            if (fastSets[fi].test(s) != static_cast<bool>(refSets[fi][s])) {
              std::fprintf(stderr,
                           "MISMATCH: %s size %zu formula '%s' state %u\n",
                           w.name, size, texts[fi].c_str(), s);
              match = false;
            }
          }
        }
      }
      allMatch = allMatch && match;
      const double speedup = fastMs > 0 ? refMs / fastMs : 0;
      table.row({std::to_string(size),
                 w.windows.empty() ? "-" : std::to_string(window),
                 std::to_string(prod.automaton.stateCount()),
                 std::to_string(prod.automaton.transitionCount()),
                 util::fmt(refMs, 2), util::fmt(fastMs, 2),
                 util::fmt(speedup, 1) + "x", match ? "yes" : "NO"});
      if (!firstRow) json += ',';
      firstRow = false;
      json += "{\"size\":" + std::to_string(size);
      if (!w.windows.empty()) json += ",\"window\":" + std::to_string(window);
      json += ",\"productStates\":" +
              std::to_string(prod.automaton.stateCount()) +
              ",\"productTransitions\":" +
              std::to_string(prod.automaton.transitionCount()) +
              ",\"referenceMs\":" + util::fmt(refMs, 3) +
              ",\"worklistMs\":" + util::fmt(fastMs, 3) +
              ",\"speedup\":" + util::fmt(speedup, 2) +
              ",\"verdictsMatch\":" + (match ? "true" : "false") + "}";
    }
  }
  json += "]}";
  std::printf("-- workload: %s\n%s\n", w.name, table.str().c_str());
  return allMatch;
}

/// Reference-vs-worklist speedup harness. Four workloads: shallow random
/// products (breadth), deep ring products (diameter — where the naive
/// sweeps degenerate to O(S²)), and both again under bounded windows of 64
/// ticks and more (where the reference sweeps once per window tick and the
/// worklist engine runs one distance pass). Returns false on any
/// disagreement.
bool runSpeedupHarness(bool smoke) {
  bench::printHeader(
      "E4b: worklist checker vs naive reference",
      "Same products, same CCTL formula set; every satisfaction set is "
      "cross-checked state-by-state. The worklist engine replaces the "
      "reference's repeated whole-state-space sweeps with O(S+E) fixpoints "
      "and distance passes over a predecessor index; the gap scales with "
      "the product diameter and the window width.");

  const Workload random{
      "random-product",
      smoke ? std::vector<std::size_t>{8, 16}
            : std::vector<std::size_t>{16, 64, 256},
      &buildRandom,
      {"AG !(lg.lg_q1 && ctxa.lg_q2)",
       "AG (lg.lg_q1 -> AF[1,8] ctxa.lg_q0)",
       "A[!lg.lg_q2 U (lg.lg_q2 || deadlock)] && EG !deadlock",
       "EF[2,12] (aux.aux_q1 && EX lg.lg_q0)"}};
  const Workload deep{
      "deep-ring",
      smoke ? std::vector<std::size_t>{256, 1024}
            : std::vector<std::size_t>{1024, 4096, 16384},
      &makeDeepProduct,
      {"EF ring.rq0", "AF mir.rq1", "A[!ring.rq3 U ring.rq0]",
       "AG EF ring.rq0"}};
  const std::vector<std::size_t> windows =
      smoke ? std::vector<std::size_t>{64, 512}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024};
  const Workload randomWindows{
      "bounded-window/random-product",
      smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{16, 64},
      &buildRandom,
      {"AG (lg.lg_q1 -> AF[1,{w}] ctxa.lg_q0)",
       "EF[2,{w}] (aux.aux_q1 && EX lg.lg_q0)",
       "AG[0,{w}] !(lg.lg_q1 && ctxa.lg_q2)",
       "A[!lg.lg_q2 U[0,{w}] (lg.lg_q2 || deadlock)]"},
      windows};
  const Workload deepWindows{
      "bounded-window/deep-ring",
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{1024, 4096},
      &makeDeepProduct,
      {"AG (ring.rq0 -> AF[1,{w}] mir.rq3)", "EF[2,{w}] ring.rq0",
       "AG[0,{w}] !deadlock", "A[!ring.rq3 U[0,{w}] ring.rq0]"},
      windows};

  std::string json = "{\"bench\":\"modelcheck\",\"unit\":\"ms\",\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",\"workloads\":[";
  bool allMatch = true;
  bool first = true;
  for (const Workload* w : {&random, &deep, &randomWindows, &deepWindows}) {
    if (!first) json += ',';
    first = false;
    allMatch = runWorkload(*w, json) && allMatch;
  }
  json += "]}\n";
  bench::writeBenchJson("BENCH_modelcheck.json", json);
  return allMatch;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = mui::bench::smokeMode();
  const bool ok = runSpeedupHarness(smoke);
  if (!ok) return 1;      // correctness gate — timing never fails the run
  if (smoke) return 0;    // CI: skip the micro benches
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

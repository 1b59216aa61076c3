#pragma once
// Shared helpers for the experiment harness (see DESIGN.md §5 for the
// experiment index). The plain-table benches print one TextTable per
// experiment; the micro benches use google-benchmark.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "automata/random.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "synthesis/verifier.hpp"
#include "util/text_table.hpp"

namespace mui::bench {

struct Tables {
  automata::SignalTableRef signals = std::make_shared<automata::SignalTable>();
  automata::SignalTableRef props = std::make_shared<automata::SignalTable>();
};

inline const char* verdictName(synthesis::Verdict v) {
  switch (v) {
    case synthesis::Verdict::ProvenCorrect:
      return "proven";
    case synthesis::Verdict::RealError:
      return "real-error";
    case synthesis::Verdict::IterationLimit:
      return "iter-limit";
    case synthesis::Verdict::Unsupported:
      return "unsupported";
    case synthesis::Verdict::Cancelled:
      return "cancelled";
    case synthesis::Verdict::AdapterFailure:
      return "adapter-failure";
  }
  return "?";
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A random closed integration scenario: hidden legacy + a context that
/// exercises roughly `contextKeepPct`% of it (the mirrored sub-behavior).
struct Scenario {
  Tables t;
  automata::Automaton hidden;
  automata::Automaton context;

  Scenario(std::size_t legacyStates, std::uint64_t seed,
           std::uint64_t contextKeepPct, std::size_t signalsEachWay = 2)
      : hidden(makeHidden(t, legacyStates, seed, signalsEachWay)),
        context(automata::mirrored(
            automata::subAutomaton(hidden, contextKeepPct, seed + 101,
                                   "lg_sub"),
            "ctx")) {}

 private:
  static automata::Automaton makeHidden(Tables& t, std::size_t states,
                                        std::uint64_t seed,
                                        std::size_t signalsEachWay) {
    automata::RandomSpec spec;
    spec.states = states;
    spec.inputs = signalsEachWay;
    spec.outputs = signalsEachWay;
    spec.densityPct = 40;
    spec.seed = seed;
    spec.name = "lg";
    return automata::randomAutomaton(spec, t.signals, t.props);
  }
};

/// The paper's running example, models/railcab.muml. bind() puts a hidden
/// rear shuttle (rearShipped, the correct firmware; rearFaulty, the faulty
/// revision) into rearRole of DistanceCoordination, whose context is the
/// front role.
struct Railcab {
  muml::Model model =
      muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/railcab.muml");

  [[nodiscard]] muml::IntegrationBinding bind(const std::string& hidden) const {
    return muml::bindIntegration(model, "DistanceCoordination", "rearRole",
                                 hidden);
  }
  /// The pattern constraint of Fig. 1.
  [[nodiscard]] const std::string& constraint() const {
    return model.patterns.at("DistanceCoordination").constraint;
  }
};

inline void printHeader(const char* id, const char* claim) {
  std::printf("\n### %s\n%s\n\n", id, claim);
}

/// Smoke mode (MUI_BENCH_SMOKE=1): small sizes, machine-checkable output
/// only — what the perf-smoke CI job runs. Timing is reported but never
/// gated; only correctness mismatches fail the process.
inline bool smokeMode() {
  const char* env = std::getenv("MUI_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Directory for the BENCH_*.json artifacts: $MUI_BENCH_OUT_DIR if set, else
/// the MUI_BENCH_OUT_DIR compile definition (the repo root), else ".".
inline std::string benchOutDir() {
  if (const char* env = std::getenv("MUI_BENCH_OUT_DIR")) {
    if (env[0] != '\0') return env;
  }
#ifdef MUI_BENCH_OUT_DIR
  return MUI_BENCH_OUT_DIR;
#else
  return ".";
#endif
}

/// Writes a machine-readable benchmark artifact (docs/PERFORMANCE.md has the
/// schemas) and echoes the path. Returns false if the file cannot be opened.
inline bool writeBenchJson(const std::string& filename,
                           const std::string& payload) {
  const std::string path = benchOutDir() + "/" + filename;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: could not write %s\n", path.c_str());
    return false;
  }
  std::fwrite(payload.data(), 1, payload.size(), f);
  std::fclose(f);
  std::printf("bench: wrote %s\n", path.c_str());
  return true;
}

}  // namespace mui::bench

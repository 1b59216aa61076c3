#pragma once
// Shared helpers for the MUI test suite.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>

#include "automata/automaton.hpp"
#include "automata/signals.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"

namespace mui::test {

struct Tables {
  automata::SignalTableRef signals = std::make_shared<automata::SignalTable>();
  automata::SignalTableRef props = std::make_shared<automata::SignalTable>();
};

/// Interns every name and returns the resulting set.
inline automata::SignalSet sigs(automata::SignalTable& table,
                                std::initializer_list<const char*> names) {
  automata::SignalSet out;
  for (const char* n : names) out.set(table.intern(n));
  return out;
}

/// Builds an interaction from input/output signal names.
inline automata::Interaction ia(automata::SignalTable& table,
                                std::initializer_list<const char*> in,
                                std::initializer_list<const char*> out) {
  return {sigs(table, in), sigs(table, out)};
}

/// The idle step (∅, ∅).
inline automata::Interaction idle() { return {}; }

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

/// Writes models/watchdog.muml plus `deviceSlowStart` to `path`: an
/// external device (the compliant one behind adapter_automaton) whose
/// adapter starts only after 50 ms. A job on it overruns a deadline of a
/// few ms by construction, however fast the loop itself is.
inline void writeSlowStartWatchdog(const std::string& path) {
  const std::string watchdog = std::string(MUI_MODELS_DIR) + "/watchdog.muml";
  std::ifstream base(watchdog);
  std::ofstream out(path);
  out << base.rdbuf()
      << "legacy deviceSlowStart external \"/bin/sh\" {\n"
         "  input ping;\n"
         "  output pong;\n"
         "  arg \"-c\";\n"
         "  arg \"sleep 0.05; exec '" MUI_ADAPTER_DIR "/adapter_automaton' '"
      << watchdog << "' deviceCompliant --instance device\";\n"
      << "}\n";
}

/// Compares `text` line by line with tests/golden/<name>, or, with
/// MUI_REGENERATE_GOLDENS=1 in the environment, writes it there instead.
inline void expectGoldenLines(const std::string& name,
                              const std::string& text) {
  const std::string path = std::string(MUI_GOLDEN_DIR) + "/" + name;
  if (const char* regen = std::getenv("MUI_REGENERATE_GOLDENS");
      regen != nullptr && std::string(regen) == "1") {
    std::ofstream(path) << text;
    return;
  }
  std::ifstream file(path);
  ASSERT_TRUE(file) << "cannot open " << path;
  std::istringstream actual(text);
  std::string want, got;
  for (std::size_t line = 1;; ++line) {
    const bool hasWant = static_cast<bool>(std::getline(file, want));
    const bool hasGot = static_cast<bool>(std::getline(actual, got));
    if (!hasWant && !hasGot) break;
    EXPECT_EQ(got, want) << "tests/golden/" << name << " line " << line;
  }
}

}  // namespace mui::test

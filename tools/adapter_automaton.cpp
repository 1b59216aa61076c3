// adapter_automaton — reference out-of-process legacy adapter.
//
//   adapter_automaton <model.muml> <automaton> [--instance NAME]
//                     [--chaos crash-at=N|hang-at=N|garbage-at=N|exit-early]
//
// Wraps any .muml automaton behind the JSONL adapter protocol v2
// (docs/ADAPTERS.md): one JSON request object per stdin line, one JSON
// response object per stdout line, read and written with the util/json.hpp
// codec, signal sets through the harness's own encodeSignals/decodeSignals
// (testing/subprocess.hpp). This is both the differential-conformance
// oracle (the same hidden automaton driven in-process through
// AutomatonLegacy and out-of-process through this binary must be
// indistinguishable) and the fault-injection vehicle: --chaos makes the
// adapter misbehave at a chosen step so the harness's containment paths
// can be exercised deterministically.
//
//   crash-at=N    _exit(3) at the Nth step (1-based, counted over the
//                 process lifetime across `step` requests and the steps
//                 inside `run`s, so a respawned adapter crashes again — the
//                 respawn budget always exhausts)
//   hang-at=N     block forever at the Nth step (never answers)
//   garbage-at=N  answer the request holding the Nth step with a non-JSON
//                 line
//   exit-early    answer the hello, then exit immediately
//
// --instance rebinds the automaton's instance name first (the probe state
// names then match what the in-process harness sees after
// automata::withInstanceName).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "automata/rename.hpp"
#include "muml/loader.hpp"
#include "testing/legacy.hpp"
#include "testing/subprocess.hpp"
#include "util/json.hpp"

namespace {

using namespace mui;

struct Chaos {
  enum class Mode { None, CrashAt, HangAt, GarbageAt, ExitEarly };
  Mode mode = Mode::None;
  unsigned long at = 0;
};

std::optional<Chaos> parseChaos(const std::string& spec) {
  Chaos c;
  if (spec == "exit-early") {
    c.mode = Chaos::Mode::ExitEarly;
    return c;
  }
  const auto eq = spec.find('=');
  if (eq == std::string::npos) return std::nullopt;
  const std::string key = spec.substr(0, eq);
  char* end = nullptr;
  c.at = std::strtoul(spec.c_str() + eq + 1, &end, 10);
  if (end == nullptr || *end != '\0' || c.at == 0) return std::nullopt;
  if (key == "crash-at") {
    c.mode = Chaos::Mode::CrashAt;
  } else if (key == "hang-at") {
    c.mode = Chaos::Mode::HangAt;
  } else if (key == "garbage-at") {
    c.mode = Chaos::Mode::GarbageAt;
  } else {
    return std::nullopt;
  }
  return c;
}

void respond(const util::json::Object& body) {
  std::fputs(body.str().c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

util::json::Object ok() { return util::json::Object().b("ok", true); }

util::json::Object error(const std::string& message) {
  return util::json::Object().b("ok", false).s("error", message);
}

/// Decodes member `key` of a `run` request, an array of encoded signal
/// sets, into `out`. Returns an error message, empty on success.
std::string decodeSets(const util::json::Value& req, std::string_view key,
                       const automata::SignalTable& table,
                       std::vector<automata::SignalSet>& out) {
  const util::json::Value* array = req.find(key);
  if (array == nullptr || array->kind != util::json::Value::Kind::Array) {
    return "\"" + std::string(key) + "\" is not an array";
  }
  for (const util::json::Value& item : array->items) {
    if (item.kind != util::json::Value::Kind::String) {
      return "\"" + std::string(key) + "\" holds a non-string";
    }
    std::string unknown;
    const auto set = testing::decodeSignals(item.text, table, unknown);
    if (!set) return "unknown signal '" + unknown + "'";
    out.push_back(*set);
  }
  return {};
}

int usage() {
  std::fprintf(stderr,
               "usage: adapter_automaton <model.muml> <automaton>\n"
               "           [--instance NAME]\n"
               "           [--chaos crash-at=N|hang-at=N|garbage-at=N|"
               "exit-early]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string instance;
  std::string chaosSpec;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--instance" && i + 1 < argc) {
      instance = argv[++i];
    } else if (a == "--chaos" && i + 1 < argc) {
      chaosSpec = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) return usage();
  Chaos chaos;
  if (!chaosSpec.empty()) {
    const auto parsed = parseChaos(chaosSpec);
    if (!parsed) {
      std::fprintf(stderr, "adapter_automaton: bad --chaos spec '%s'\n",
                   chaosSpec.c_str());
      return 2;
    }
    chaos = *parsed;
  }

  muml::Model model;
  try {
    model = muml::loadModelFile(positional[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adapter_automaton: %s\n", e.what());
    return 2;
  }
  const auto it = model.automata.find(positional[1]);
  if (it == model.automata.end()) {
    std::fprintf(stderr, "adapter_automaton: no automaton named '%s' in %s\n",
                 positional[1].c_str(), positional[0].c_str());
    return 2;
  }
  automata::Automaton hidden = it->second;
  if (!instance.empty()) {
    hidden = automata::withInstanceName(hidden, instance);
  }
  testing::AutomatonLegacy legacy(std::move(hidden));
  const automata::SignalTable& table = *model.signals;

  // Counts one step (a `step` request, or a step inside a `run`) and plays
  // the chaos scheduled for it: crash and hang never return; garbage
  // answers the request with a non-JSON line and returns true.
  unsigned long steps = 0;
  const auto chaosStrikes = [&] {
    if (++steps != chaos.at) return false;
    if (chaos.mode == Chaos::Mode::CrashAt) ::_exit(3);
    if (chaos.mode == Chaos::Mode::HangAt) {
      for (;;) ::pause();
    }
    std::puts("!! this is not json !!");
    std::fflush(stdout);
    return true;
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    const auto req = util::json::parse(line);
    if (!req || req->kind != util::json::Value::Kind::Object) {
      respond(error("unparseable request"));
      continue;
    }
    const std::string cmd(req->str("cmd").value_or(""));
    if (cmd == "quit") break;
    if (cmd == "hello") {
      respond(ok().u("version", 2)
                  .s("name", legacy.name())
                  .s("inputs", testing::encodeSignals(legacy.inputs(), table))
                  .s("outputs",
                     testing::encodeSignals(legacy.outputs(), table)));
      if (chaos.mode == Chaos::Mode::ExitEarly) return 0;
      continue;
    }
    if (cmd == "reset") {
      legacy.reset();
      respond(ok());
      continue;
    }
    if (cmd == "probe") {
      respond(ok().s("state", legacy.currentStateName()));
      continue;
    }
    if (cmd == "run") {
      // The whole test from reset: stop at the first refusal or right
      // after the first output that differs from `expect`.
      std::vector<automata::SignalSet> inputs;
      std::vector<automata::SignalSet> expect;
      std::string why = decodeSets(*req, "inputs", table, inputs);
      if (why.empty() && req->find("expect") != nullptr) {
        why = decodeSets(*req, "expect", table, expect);
        if (why.empty() && expect.size() != inputs.size()) {
          why = "\"expect\" and \"inputs\" differ in length";
        }
      }
      if (!why.empty()) {
        respond(error(why));
        continue;
      }
      const bool probe = req->flag("probe") == true;
      legacy.reset();
      std::string outputs;
      std::string states;
      if (probe) states = util::json::quote(legacy.currentStateName());
      bool refused = false;
      bool garbled = false;
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        garbled = chaosStrikes();
        if (garbled) break;
        const auto out = legacy.step(inputs[k]);
        if (!out) {
          refused = true;
          break;
        }
        if (k > 0) outputs += ',';
        outputs += util::json::quote(testing::encodeSignals(*out, table));
        if (probe) {
          states += ',' + util::json::quote(legacy.currentStateName());
        }
        if (!expect.empty() && !(*out == expect[k])) break;
      }
      if (garbled) continue;
      auto resp = ok().raw("outputs", "[" + outputs + "]");
      if (refused) resp.b("refused", true);
      if (probe) resp.raw("states", "[" + states + "]");
      respond(resp);
      continue;
    }
    if (cmd == "step") {
      if (chaosStrikes()) continue;
      std::string unknown;
      const auto inputs =
          testing::decodeSignals(req->str("inputs").value_or(""), table,
                                 unknown);
      if (!inputs) {
        respond(error("unknown input signal '" + unknown + "'"));
        continue;
      }
      const auto out = legacy.step(*inputs);
      if (!out) {
        respond(ok().b("refused", true));
      } else {
        respond(ok().s("outputs", testing::encodeSignals(*out, table)));
      }
      continue;
    }
    respond(error("unknown command '" + cmd + "'"));
  }
  return 0;
}

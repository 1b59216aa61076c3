#include "muml/loader.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace mui::muml {

namespace {

using util::Cursor;

class Loader {
 public:
  Loader(Model& model, std::string_view text, std::string_view sourceName)
      : model_(model), cur_(text, std::string(sourceName)) {}

  void run() {
    // Semantic throws from the model classes (e.g. nondeterministic
    // transitions rejected by Automaton::addTransition) get the current
    // source location attached on the way out.
    try {
      runTopLevel();
    } catch (const util::SemanticError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      cur_.failSemantic(e.what());
    }
  }

 private:
  /// Location of the next token — recorded per definition so that lint
  /// diagnostics (mui::analysis) can point back into the source file.
  util::SourceLoc here() {
    cur_.skipWs();
    return {cur_.sourceName(), cur_.line(), cur_.col()};
  }

  /// `allow MUI003 MUI006;` — records lint-rule suppressions for `entity`.
  void parseAllow(const std::string& entity) {
    do {
      model_.source.allowedRules[entity].insert(cur_.identifier());
    } while (!peekStatementEnd());
    cur_.expect(";");
  }

  void runTopLevel() {
    while (true) {
      cur_.skipWs();
      if (cur_.atEnd()) break;
      if (cur_.tryKeyword("automaton")) {
        parseAutomaton();
      } else if (cur_.tryKeyword("rtsc")) {
        parseRtsc();
      } else if (cur_.tryKeyword("pattern")) {
        parsePattern();
      } else if (cur_.tryKeyword("legacy")) {
        parseLegacy();
      } else {
        cur_.fail("expected 'automaton', 'rtsc', 'pattern', or 'legacy'");
      }
    }
  }

  // ---- automaton -----------------------------------------------------------

  void parseAutomaton() {
    const util::SourceLoc loc = here();
    const std::string name = cur_.identifier();
    if (model_.automata.count(name)) {
      cur_.failSemantic("duplicate automaton '" + name +
                        "' (an automaton with this name is already defined)");
    }
    if (model_.externals.count(name)) {
      cur_.failSemantic("automaton '" + name +
                        "' clashes with a legacy external of the same name "
                        "(hidden-component names must be unambiguous)");
    }
    model_.source.automata.emplace(name, loc);
    automata::Automaton a(model_.signals, model_.props, name);
    cur_.expect("{");
    while (!cur_.tryConsume("}")) {
      if (cur_.tryKeyword("input")) {
        signalList([&](const std::string& s) { a.addInput(s); });
      } else if (cur_.tryKeyword("output")) {
        signalList([&](const std::string& s) { a.addOutput(s); });
      } else if (cur_.tryKeyword("initial")) {
        do {
          a.markInitial(ensureState(a, cur_.identifier()));
        } while (!peekStatementEnd());
        cur_.expect(";");
      } else if (cur_.tryKeyword("state")) {
        const automata::StateId s = ensureState(a, cur_.identifier());
        if (cur_.tryKeyword("labels")) {
          do {
            a.addLabel(s, cur_.identifier());
          } while (!peekStatementEnd());
        }
        cur_.expect(";");
      } else if (cur_.tryKeyword("allow")) {
        parseAllow(name);
      } else {
        parseAutomatonTransition(a);
      }
    }
    model_.automata.emplace(name, std::move(a));
  }

  void parseAutomatonTransition(automata::Automaton& a) {
    const util::SourceLoc loc = here();
    const auto from = ensureState(a, cur_.identifier());
    cur_.expect("->");
    const auto to = ensureState(a, cur_.identifier());
    cur_.expect(":");
    automata::Interaction x;
    // Input list up to '/', output list up to ';'. Both may be empty.
    while (!cur_.tryConsume("/")) {
      if (peekStatementEnd()) break;
      x.in.set(model_.signals->intern(cur_.identifier()));
    }
    while (!peekStatementEnd()) {
      x.out.set(model_.signals->intern(cur_.identifier()));
    }
    cur_.expect(";");
    // A textually repeated transition is kept once; the occurrence is
    // recorded so `mui lint` can surface it (rule MUI006).
    if (a.hasTransitionTo(from, x, to)) {
      model_.source.duplicateTransitions.push_back(
          {a.name(),
           a.stateName(from) + " -> " + a.stateName(to) + " : " +
               automata::toString(x, *model_.signals),
           loc});
      return;
    }
    a.addTransition(from, std::move(x), to);
  }

  static automata::StateId ensureState(automata::Automaton& a,
                                       const std::string& name) {
    if (auto s = a.stateByName(name)) return *s;
    const automata::StateId s = a.addState(name);
    a.labelWithStateName(s);
    return s;
  }

  // ---- rtsc ---------------------------------------------------------------

  void parseRtsc() {
    const util::SourceLoc loc = here();
    const std::string name = cur_.identifier();
    if (model_.statecharts.count(name)) {
      cur_.failSemantic("duplicate rtsc '" + name +
                        "' (an rtsc with this name is already defined)");
    }
    model_.source.statecharts.emplace(name, loc);
    rtsc::RealTimeStatechart sc(name);
    clockNames_.clear();
    cur_.expect("{");
    while (!cur_.tryConsume("}")) {
      if (cur_.tryKeyword("input")) {
        signalList([&](const std::string& s) { sc.declareInput(s); });
      } else if (cur_.tryKeyword("output")) {
        signalList([&](const std::string& s) { sc.declareOutput(s); });
      } else if (cur_.tryKeyword("clock")) {
        do {
          const std::string clock = cur_.identifier();
          sc.addClock(clock);
          clockNames_.push_back(clock);
        } while (!peekStatementEnd());
        cur_.expect(";");
      } else if (cur_.tryKeyword("location")) {
        const std::string loc = cur_.identifier();
        rtsc::Guard inv;
        if (cur_.tryKeyword("invariant")) inv = parseGuard(sc);
        sc.addLocation(loc, std::move(inv));
        cur_.expect(";");
      } else if (cur_.tryKeyword("initial")) {
        sc.setInitial(requireLocation(sc, cur_.identifier()));
        cur_.expect(";");
      } else if (cur_.tryKeyword("allow")) {
        parseAllow(name);
      } else {
        parseRtscTransition(sc);
      }
    }
    sc.checkWellFormed();
    model_.statecharts.emplace(name, std::move(sc));
  }

  void parseRtscTransition(rtsc::RealTimeStatechart& sc) {
    rtsc::RtscTransition t;
    t.from = requireLocation(sc, cur_.identifier());
    cur_.expect("->");
    t.to = requireLocation(sc, cur_.identifier());
    cur_.expect(":");
    while (!peekStatementEnd()) {
      if (cur_.tryKeyword("trigger")) {
        t.trigger = cur_.identifier();
      } else if (cur_.tryKeyword("emit")) {
        t.effects.push_back(cur_.identifier());
      } else if (cur_.tryKeyword("guard")) {
        for (auto& c : parseGuard(sc)) t.guard.push_back(c);
      } else if (cur_.tryKeyword("reset")) {
        t.resets.push_back(requireClock(sc, cur_.identifier()));
      } else {
        cur_.fail("expected 'trigger', 'emit', 'guard', or 'reset'");
      }
    }
    cur_.expect(";");
    sc.addTransition(std::move(t));
  }

  rtsc::Guard parseGuard(const rtsc::RealTimeStatechart& sc) {
    rtsc::Guard g;
    do {
      rtsc::ClockConstraint c;
      c.clock = requireClock(sc, cur_.identifier());
      if (cur_.tryConsume("<=")) {
        c.rel = rtsc::ClockConstraint::Rel::Le;
      } else if (cur_.tryConsume("<")) {
        c.rel = rtsc::ClockConstraint::Rel::Lt;
      } else if (cur_.tryConsume(">=")) {
        c.rel = rtsc::ClockConstraint::Rel::Ge;
      } else if (cur_.tryConsume(">")) {
        c.rel = rtsc::ClockConstraint::Rel::Gt;
      } else if (cur_.tryConsume("==")) {
        c.rel = rtsc::ClockConstraint::Rel::Eq;
      } else {
        cur_.fail("expected clock relation (<=, <, >=, >, ==)");
      }
      c.bound = static_cast<std::uint32_t>(cur_.integer());
      g.push_back(c);
    } while (cur_.tryConsume("&&"));
    return g;
  }

  rtsc::LocationId requireLocation(const rtsc::RealTimeStatechart& sc,
                                   const std::string& name) {
    if (auto l = sc.locationByName(name)) return *l;
    cur_.failSemantic("rtsc '" + sc.name() + "': unknown location '" + name +
                      "' (declare locations before use)");
  }

  rtsc::ClockId requireClock(const rtsc::RealTimeStatechart& sc,
                             const std::string& name) {
    // Clock ids are indices in declaration order; names are tracked here
    // for the statechart currently being parsed.
    for (rtsc::ClockId c = 0; c < clockNames_.size(); ++c) {
      if (clockNames_[c] == name) return c;
    }
    cur_.failSemantic("rtsc '" + sc.name() + "': unknown clock '" + name +
                      "'");
  }

  // ---- pattern -------------------------------------------------------------

  void parsePattern() {
    const util::SourceLoc loc = here();
    const std::string name = cur_.identifier();
    if (model_.patterns.count(name)) {
      cur_.failSemantic("duplicate pattern '" + name +
                        "' (a pattern with this name is already defined)");
    }
    model_.source.patterns.emplace(name, loc);
    CoordinationPattern p;
    p.name = name;
    cur_.expect("{");
    while (!cur_.tryConsume("}")) {
      if (cur_.tryKeyword("role")) {
        Role r;
        r.name = cur_.identifier();
        if (!cur_.tryKeyword("uses")) cur_.fail("expected 'uses'");
        const std::string scName = cur_.identifier();
        const auto it = model_.statecharts.find(scName);
        if (it == model_.statecharts.end()) {
          cur_.failSemantic("pattern '" + name + "': unknown rtsc '" + scName +
                            "'");
        }
        r.behavior = it->second;
        if (cur_.tryKeyword("invariant")) {
          model_.source.invariants.emplace(name + "." + r.name, here());
          r.invariant = cur_.quotedString();
        }
        cur_.expect(";");
        p.roles.push_back(std::move(r));
      } else if (cur_.tryKeyword("connector")) {
        if (cur_.tryKeyword("direct")) {
          p.connector.kind = ConnectorSpec::Kind::Direct;
        } else if (cur_.tryKeyword("channel")) {
          p.connector.kind = ConnectorSpec::Kind::Channel;
          p.connector.channel.name = name + "_channel";
          while (!peekStatementEnd()) {
            if (cur_.tryKeyword("delay")) {
              p.connector.channel.delay =
                  static_cast<std::uint32_t>(cur_.integer());
            } else if (cur_.tryKeyword("capacity")) {
              p.connector.channel.capacity =
                  static_cast<std::uint32_t>(cur_.integer());
            } else if (cur_.tryKeyword("lossy")) {
              p.connector.channel.lossy = true;
            } else if (cur_.tryKeyword("routes")) {
              while (!peekStatementEnd()) {
                ChannelRoute r;
                r.source = cur_.identifier();
                cur_.expect("->");
                r.destination = cur_.identifier();
                p.connector.channel.routes.push_back(std::move(r));
              }
            } else {
              cur_.fail("expected channel attribute");
            }
          }
        } else {
          cur_.fail("expected 'direct' or 'channel'");
        }
        cur_.expect(";");
      } else if (cur_.tryKeyword("constraint")) {
        model_.source.constraints.emplace(name, here());
        p.constraint = cur_.quotedString();
        cur_.expect(";");
      } else if (cur_.tryKeyword("allow")) {
        parseAllow(name);
      } else {
        cur_.fail("expected 'role', 'connector', 'constraint', or 'allow'");
      }
    }
    model_.patterns.emplace(name, std::move(p));
  }

  // ---- legacy external -----------------------------------------------------

  /// `legacy <name> external "<binary>" { input ...; output ...; arg "...";
  /// deadline-ms N; max-respawns N; allow ...; }` — an out-of-process
  /// legacy component (docs/ADAPTERS.md). Parsing records the clause; the
  /// binary is resolved and validated lazily (muml/external.hpp) so loading
  /// a model never touches the filesystem.
  void parseLegacy() {
    const util::SourceLoc loc = here();
    const std::string name = cur_.identifier();
    if (model_.externals.count(name)) {
      cur_.failSemantic("duplicate legacy external '" + name +
                        "' (an external with this name is already defined)");
    }
    if (model_.automata.count(name)) {
      cur_.failSemantic("legacy external '" + name +
                        "' clashes with an automaton of the same name "
                        "(hidden-component names must be unambiguous)");
    }
    if (!cur_.tryKeyword("external")) cur_.fail("expected 'external'");
    model_.source.externals.emplace(name, loc);
    ExternalLegacy ext;
    ext.name = name;
    ext.path = cur_.quotedString();
    if (ext.path.empty()) {
      cur_.failSemantic("legacy external '" + name +
                        "': the adapter binary path must not be empty");
    }
    cur_.expect("{");
    while (!cur_.tryConsume("}")) {
      if (cur_.tryKeyword("input")) {
        signalList(
            [&](const std::string& s) { ext.inputs.set(model_.signals->intern(s)); });
      } else if (cur_.tryKeyword("output")) {
        signalList([&](const std::string& s) {
          ext.outputs.set(model_.signals->intern(s));
        });
      } else if (cur_.tryKeyword("arg")) {
        ext.args.push_back(cur_.quotedString());
        cur_.expect(";");
      } else if (cur_.tryKeyword("deadline-ms")) {
        ext.stepDeadlineMs = static_cast<std::uint64_t>(cur_.integer());
        if (ext.stepDeadlineMs == 0) {
          cur_.failSemantic("legacy external '" + name +
                            "': deadline-ms must be positive");
        }
        cur_.expect(";");
      } else if (cur_.tryKeyword("max-respawns")) {
        ext.maxRespawns = cur_.integer();
        cur_.expect(";");
      } else if (cur_.tryKeyword("allow")) {
        parseAllow(name);
      } else {
        cur_.fail(
            "expected 'input', 'output', 'arg', 'deadline-ms', "
            "'max-respawns', or 'allow'");
      }
    }
    model_.externals.emplace(name, std::move(ext));
  }

  // ---- shared helpers ------------------------------------------------------

  template <typename F>
  void signalList(F&& declare) {
    do {
      declare(cur_.identifier());
    } while (!peekStatementEnd());
    cur_.expect(";");
  }

  /// True when the next token is ';' (does not consume it).
  bool peekStatementEnd() {
    cur_.skipWs();
    return cur_.peek() == ';';
  }

  Model& model_;
  Cursor cur_;
  // Clock names of the rtsc currently being parsed (ids are indices).
  std::vector<std::string> clockNames_;
};

}  // namespace

Model loadModel(std::string_view text, std::string_view sourceName) {
  Model m;
  m.signals = std::make_shared<automata::SignalTable>();
  m.props = std::make_shared<automata::SignalTable>();
  m.source.file = sourceName;
  loadModelInto(m, text, sourceName);
  return m;
}

Model loadModelFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open model file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return loadModel(buf.str(), path);
}

void loadModelInto(Model& model, std::string_view text,
                   std::string_view sourceName) {
  Loader(model, text, sourceName).run();
}

}  // namespace mui::muml

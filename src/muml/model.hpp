#pragma once
// The MECHATRONIC UML metamodel subset used by the paper (Sec. "Modeling"):
// coordination patterns with roles, connectors, constraints and role
// invariants; components with ports refining roles.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "muml/channel.hpp"
#include "rtsc/rtsc.hpp"
#include "util/parse.hpp"

namespace mui::muml {

/// A pattern role: protocol behavior (an RTSC) plus an optional role
/// invariant (timed ACTL, paper Fig. 1).
struct Role {
  std::string name;
  rtsc::RealTimeStatechart behavior;
  std::string invariant;  // CCTL text; empty = none
};

/// Connector between the roles. Direct connectors hand messages over
/// synchronously (the composition's matching condition is the handover);
/// Channel connectors insert an explicit QoS automaton (delay / capacity /
/// loss, see channel.hpp).
struct ConnectorSpec {
  enum class Kind { Direct, Channel };
  Kind kind = Kind::Direct;
  ChannelSpec channel;  // used when kind == Channel
};

/// A coordination pattern (paper Fig. 1): roles, a connector, and the
/// overall pattern constraint.
struct CoordinationPattern {
  std::string name;
  std::vector<Role> roles;
  ConnectorSpec connector;
  std::string constraint;  // CCTL text; empty = none
};

/// A component port: the refinement of one pattern role.
struct Port {
  std::string name;
  std::string roleName;
  automata::Automaton behavior;
};

/// A component: ports refining the roles of the patterns it participates in.
struct Component {
  std::string name;
  std::vector<Port> ports;
};

/// An out-of-process legacy component declared by a `legacy <name> external
/// "<binary>" { ... }` clause: an adapter binary speaking the JSONL stdio
/// protocol of docs/ADAPTERS.md, plus its declared I/O interface (always
/// known from the architectural model, paper Sec. 3). The path is kept as
/// written; resolution against the declaring file's directory and
/// MUI_ADAPTER_PATH happens in resolveExternalBinary (external.hpp), not at
/// parse time.
struct ExternalLegacy {
  static constexpr std::size_t kDefaultRespawns =
      static_cast<std::size_t>(-1);  // sentinel: harness default

  std::string name;
  std::string path;
  /// Extra argv entries (`arg "...";` clauses). The literal `%model%`
  /// expands to the declaring .muml file's path when the process is built.
  std::vector<std::string> args;
  std::uint64_t stepDeadlineMs = 0;  // 0 = harness default
  std::size_t maxRespawns = kDefaultRespawns;
  automata::SignalSet inputs;
  automata::SignalSet outputs;
};

/// Side information the loader records about where each definition came
/// from — consumed by the static analysis layer (mui::analysis) to attach
/// file:line:col locations to its diagnostics, to surface transitions that
/// were written twice (the loader keeps one copy), and to honor per-entity
/// `allow MUIxxx;` lint suppressions. Models built programmatically leave
/// this empty; every consumer treats absent entries as "location unknown".
struct ModelSource {
  /// The name the text was loaded under (loadModel's `sourceName`, usually
  /// the file path); names the model in binding errors.
  std::string file;

  /// A transition that textually duplicated an existing identical one; the
  /// loader dropped the copy and recorded it here.
  struct DuplicateTransition {
    std::string automaton;  // owning automaton name
    std::string text;       // rendering such as "s0 -> s1 : a / x"
    util::SourceLoc loc;    // where the duplicate occurrence starts
  };

  std::map<std::string, util::SourceLoc> automata;     // by automaton name
  std::map<std::string, util::SourceLoc> statecharts;  // by rtsc name
  std::map<std::string, util::SourceLoc> patterns;     // by pattern name
  std::map<std::string, util::SourceLoc> externals;    // by external name
  /// Pattern constraint locations by pattern name; role invariant locations
  /// by "pattern.role".
  std::map<std::string, util::SourceLoc> constraints;
  std::map<std::string, util::SourceLoc> invariants;
  std::vector<DuplicateTransition> duplicateTransitions;
  /// Lint rule ids suppressed per entity (`allow MUI003;` inside an
  /// automaton/rtsc/pattern body), keyed by the entity name.
  std::map<std::string, std::set<std::string>> allowedRules;

  [[nodiscard]] bool allows(const std::string& entity,
                            const std::string& ruleId) const {
    const auto it = allowedRules.find(entity);
    return it != allowedRules.end() && it->second.count(ruleId) != 0;
  }
};

/// Container produced by the .muml loader: named automata, statecharts and
/// patterns over one shared pair of tables.
struct Model {
  automata::SignalTableRef signals;
  automata::SignalTableRef props;
  std::map<std::string, automata::Automaton> automata;
  std::map<std::string, rtsc::RealTimeStatechart> statecharts;
  std::map<std::string, CoordinationPattern> patterns;
  /// Out-of-process legacy declarations. Disjoint from `automata` by
  /// construction (the loader rejects name clashes) so a job's `hidden`
  /// name picks exactly one of the two worlds.
  std::map<std::string, ExternalLegacy> externals;
  ModelSource source;
};

}  // namespace mui::muml

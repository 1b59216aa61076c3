#include "automata/rename.hpp"

#include <stdexcept>

namespace mui::automata {

Automaton renameSignals(const Automaton& a,
                        const std::map<std::string, std::string>& mapping) {
  const SignalTableRef& table = a.signalTable();

  // Build the id-level map and validate.
  std::map<util::NameId, util::NameId> idMap;
  SignalSet sources;
  for (const auto& [from, to] : mapping) {
    const auto fromId = table->lookup(from);
    if (!fromId || !(a.inputs().test(*fromId) || a.outputs().test(*fromId))) {
      throw std::invalid_argument("renameSignals: '" + from +
                                  "' is not a signal of '" + a.name() + "'");
    }
    idMap[*fromId] = table->intern(to);
    sources.set(*fromId);
  }
  const auto translate = [&](const SignalSet& s) {
    SignalSet out = s - sources;
    s.forEach([&](std::size_t bit) {
      const auto it = idMap.find(static_cast<util::NameId>(bit));
      if (it != idMap.end()) out.set(it->second);
    });
    return out;
  };

  const SignalSet newIns = translate(a.inputs());
  const SignalSet newOuts = translate(a.outputs());
  // Collision check: a target may not merge with a distinct remaining signal.
  if (newIns.count() != a.inputs().count() ||
      newOuts.count() != a.outputs().count()) {
    throw std::invalid_argument(
        "renameSignals: mapping target collides with an existing signal");
  }

  Automaton out(table, a.propTable(), a.name());
  out.declareSignals(newIns, newOuts);
  for (StateId s = 0; s < a.stateCount(); ++s) {
    const StateId n = out.addState(a.stateName(s));
    out.addLabels(n, a.labels(s));
  }
  for (StateId s = 0; s < a.stateCount(); ++s) {
    for (const auto& t : a.transitionsFrom(s)) {
      out.addTransition(s, {translate(t.label.in), translate(t.label.out)},
                        t.to);
    }
  }
  for (StateId q : a.initialStates()) out.markInitial(q);
  return out;
}

Automaton withInstanceName(const Automaton& a, const std::string& name) {
  Automaton out = a;
  out.renameInstance(name);
  return out;
}

}  // namespace mui::automata

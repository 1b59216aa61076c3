#include "muml/integration.hpp"

#include <stdexcept>

#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "muml/channel.hpp"
#include "muml/external.hpp"

namespace mui::muml {

IntegrationScenario makeIntegrationScenario(
    const CoordinationPattern& pattern, std::size_t legacyRoleIdx,
    const automata::SignalTableRef& signals,
    const automata::SignalTableRef& props) {
  if (legacyRoleIdx >= pattern.roles.size()) {
    throw std::out_of_range("makeIntegrationScenario: bad role index");
  }

  std::vector<automata::Automaton> parts;
  for (std::size_t i = 0; i < pattern.roles.size(); ++i) {
    if (i == legacyRoleIdx) continue;
    parts.push_back(
        pattern.roles[i].behavior.compile(signals, props,
                                          pattern.roles[i].name));
  }
  if (pattern.connector.kind == ConnectorSpec::Kind::Channel) {
    parts.push_back(makeChannel(signals, props, pattern.connector.channel));
  }
  if (parts.empty()) {
    throw std::invalid_argument(
        "makeIntegrationScenario: no context parts remain");
  }

  std::vector<const automata::Automaton*> ptrs;
  for (const auto& p : parts) ptrs.push_back(&p);

  IntegrationScenario out{automata::composeAll(ptrs).automaton, {}};

  const auto conjoin = [&](const std::string& f) {
    if (f.empty()) return;
    if (out.property.empty()) {
      out.property = f;
    } else {
      out.property = "(" + out.property + ") && (" + f + ")";
    }
  };
  conjoin(pattern.constraint);
  for (const auto& role : pattern.roles) conjoin(role.invariant);
  return out;
}

IntegrationBinding bindIntegration(const Model& model,
                                   const std::string& pattern,
                                   const std::string& role,
                                   const std::string& hidden) {
  const std::string in =
      model.source.file.empty() ? "" : " in " + model.source.file;
  const auto pit = model.patterns.find(pattern);
  if (pit == model.patterns.end()) {
    throw std::runtime_error("no pattern named '" + pattern + "'" + in);
  }
  const CoordinationPattern& p = pit->second;
  std::size_t roleIdx = p.roles.size();
  for (std::size_t i = 0; i < p.roles.size(); ++i) {
    if (p.roles[i].name == role) roleIdx = i;
  }
  if (roleIdx == p.roles.size()) {
    throw std::runtime_error("pattern '" + pattern + "' has no role '" +
                             role + "'");
  }
  const auto hit = model.automata.find(hidden);
  const auto eit = model.externals.find(hidden);
  if (hit == model.automata.end() && eit == model.externals.end()) {
    throw std::runtime_error("no automaton or legacy external named '" +
                             hidden + "'" + in);
  }

  IntegrationBinding out{
      makeIntegrationScenario(p, roleIdx, model.signals, model.props),
      {role, std::nullopt, nullptr}};
  if (eit != model.externals.end()) {
    checkExternalInterface(eit->second, p.roles[roleIdx], model.source,
                           model.signals);
    out.legacy.external = &eit->second;
  } else {
    out.legacy.hidden = automata::withInstanceName(hit->second, role);
  }
  return out;
}

}  // namespace mui::muml

#pragma once
// From pattern to integration scenario: when a legacy component plays one
// role of a verified coordination pattern, the *context* of the integration
// problem (paper Sec. 3, M_a^c) is the composition of all other roles plus
// the connector, and the property is the pattern constraint conjoined with
// the role invariants. This builder derives both mechanically from the
// pattern model; bindIntegration adds the legacy component that plays the
// role, which completes the problem: known parts plus one unknown part.

#include <optional>
#include <string>

#include "automata/automaton.hpp"
#include "muml/model.hpp"

namespace mui::muml {

struct IntegrationScenario {
  /// Composition of every role except the legacy one (plus the channel
  /// automaton for Channel connectors).
  automata::Automaton context;
  /// Pattern constraint ∧ all role invariants (non-empty ones), as CCTL
  /// text ready for synthesis::IntegrationConfig::property.
  std::string property;
};

/// Builds the scenario for the legacy component playing
/// `pattern.roles[legacyRoleIdx]`. Throws std::out_of_range for a bad index
/// and std::invalid_argument for patterns whose remaining parts cannot be
/// composed.
IntegrationScenario makeIntegrationScenario(
    const CoordinationPattern& pattern, std::size_t legacyRoleIdx,
    const automata::SignalTableRef& signals,
    const automata::SignalTableRef& props);

/// The legacy component of a binding: exactly one of `hidden` and
/// `external` is set.
struct LegacyBinding {
  /// Instance name of the role the legacy plays. The learned model takes
  /// this name, so the property's `role.state` atoms see its states.
  std::string instance;
  /// In process: the hidden automaton, renamed to `instance`.
  std::optional<automata::Automaton> hidden;
  /// Out of process: the `legacy ... external` clause, its interface
  /// already checked against the role. Points into the bound model.
  const ExternalLegacy* external = nullptr;
};

/// One integration problem bound from a model by name.
struct IntegrationBinding {
  IntegrationScenario scenario;
  LegacyBinding legacy;
};

/// Binds "the legacy `hidden` plays `role` of `pattern`" in `model`: the
/// scenario of makeIntegrationScenario plus the legacy component, an
/// automaton of the model (renamed with automata::withInstanceName) or a
/// `legacy ... external` clause (checked with checkExternalInterface).
/// Throws std::runtime_error naming the missing pattern, role or hidden
/// component, and util::SemanticError for an external whose interface does
/// not match the role.
IntegrationBinding bindIntegration(const Model& model,
                                   const std::string& pattern,
                                   const std::string& role,
                                   const std::string& hidden);

}  // namespace mui::muml

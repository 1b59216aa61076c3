#include "fuzz/oracles.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/semantic.hpp"
#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "automata/flat_product.hpp"
#include "automata/incomplete.hpp"
#include "automata/minimize.hpp"
#include "automata/random.hpp"
#include "automata/refine.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/checker.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "ctl/reference.hpp"
#include "synthesis/initial.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "util/rng.hpp"

namespace mui::fuzz {

namespace {

using automata::Automaton;
using automata::Interaction;
using automata::StateId;

/// The formula workload of an oracle: the scenario property (when present)
/// plus, unless pinned, a seed-derived batch of random CCTL formulas.
std::vector<std::pair<std::string, ctl::FormulaPtr>> formulasFor(
    const Scenario& s, const OracleOptions& opts, std::uint64_t salt) {
  std::vector<std::pair<std::string, ctl::FormulaPtr>> out;
  if (!s.property.empty()) {
    out.emplace_back(s.property, ctl::parseFormula(s.property));
  }
  if (!opts.propertyOnly) {
    util::Rng rng(s.seed * 0x9e3779b97f4a7c15ull + salt);
    const auto atoms = scenarioAtoms(s);
    for (std::size_t i = 0; i < opts.formulasPerScenario; ++i) {
      auto f = randomCctlFormula(rng, atoms, 1 + rng.below(3));
      out.emplace_back(f->toString(), std::move(f));
    }
  }
  return out;
}

OracleResult violation(std::string detail, std::string formula = {}) {
  OracleResult r;
  r.ok = false;
  r.detail = std::move(detail);
  r.failingFormula = std::move(formula);
  return r;
}

// ---- O1: worklist checker vs reference checker ----------------------------

OracleResult checkO1(const Scenario& s, const OracleOptions& opts) {
  const auto product = automata::compose(s.hidden, s.context);
  const Automaton& m = product.automaton;
  ctl::Checker fast(m);
  ctl::ReferenceChecker ref(m);
  for (StateId st = 0; st < m.stateCount(); ++st) {
    if (fast.isDeadlockState(st) != ref.isDeadlockState(st)) {
      return violation("O1: deadlock predicate disagrees on product state '" +
                       m.stateName(st) + "'");
    }
  }
  for (const auto& [text, f] : formulasFor(s, opts, 0xf1)) {
    ctl::SatSet fast_sat = fast.evaluate(f);
    if (opts.injectBug == BugInjection::O1DeadlockAF &&
        f->op == ctl::Op::AF) {
      // Fault injection: pretend the worklist checker concluded that stuck
      // states satisfy AF (vacuous liveness).
      for (StateId st = 0; st < m.stateCount(); ++st) {
        if (m.transitionsFrom(st).empty()) fast_sat.set(st);
      }
    }
    const std::vector<char> ref_sat = ref.evaluate(f);
    for (StateId st = 0; st < m.stateCount(); ++st) {
      if (fast_sat.test(st) != (ref_sat[st] != 0)) {
        return violation(
            "O1: worklist and reference checker disagree on product state '" +
                m.stateName(st) + "' (worklist=" +
                (fast_sat.test(st) ? "true" : "false") + ", reference=" +
                (ref_sat[st] != 0 ? "true" : "false") + ") for formula " +
                text,
            text);
      }
    }
  }
  return {};
}

// ---- O2: Thm. 1 safety + Lemma 5 transfer ---------------------------------

/// Learns a random partial model of the hidden behavior into `m0`, exactly
/// as the loop would: observation runs from the initial state (Def. 11) and
/// occasional verified refusals (Def. 12).
void learnRandomFacts(util::Rng& rng, const Automaton& hidden,
                      const std::vector<Interaction>& alphabet,
                      automata::IncompleteAutomaton& m0) {
  const std::size_t walks = rng.below(4);
  for (std::size_t w = 0; w < walks; ++w) {
    StateId cur = hidden.initialStates().front();
    automata::ObservedRun run;
    run.stateNames.push_back(hidden.stateName(cur));
    const std::size_t len = 1 + rng.below(5);
    for (std::size_t step = 0; step < len; ++step) {
      const auto& ts = hidden.transitionsFrom(cur);
      if (ts.empty()) break;
      const auto& t = ts[rng.below(ts.size())];
      run.labels.push_back(t.label);
      cur = t.to;
      run.stateNames.push_back(hidden.stateName(cur));
    }
    m0.learn(run);
    if (rng.chance(1, 2)) {
      // A genuine refusal at the walk's end state: any alphabet interaction
      // whose input set the hidden component does not respond to there.
      std::vector<Interaction> refused;
      for (const auto& x : alphabet) {
        bool enabled = false;
        for (const auto& t : hidden.transitionsFrom(cur)) {
          if (t.label.in == x.in) {
            enabled = true;
            break;
          }
        }
        if (!enabled) refused.push_back(x);
      }
      if (!refused.empty()) {
        automata::ObservedRun blocked = run;
        blocked.labels.push_back(refused[rng.below(refused.size())]);
        blocked.blocked = true;
        m0.learn(blocked);
      }
    }
  }
}

/// An automaton with the same states, labels and initials as `a` but no
/// transitions yet.
Automaton stateSkeleton(const Automaton& a) {
  Automaton out(a.signalTable(), a.propTable(), a.name());
  out.declareSignals(a.inputs(), a.outputs());
  for (StateId st = 0; st < a.stateCount(); ++st) {
    const StateId n = out.addState(a.stateName(st));
    out.addLabels(n, a.labels(st));
  }
  for (StateId q : a.initialStates()) out.markInitial(q);
  return out;
}

/// A random input-deterministic behavior consistent with the learned model:
/// every fact of M0's T is kept, T̄ entries are never contradicted, and the
/// unknown sites are freely kept, dropped, or re-invented — the space of
/// "rest of the component" behaviors Thm. 1 quantifies over.
Automaton consistentVariant(const Automaton& hidden,
                            const automata::IncompleteAutomaton& m0,
                            const std::vector<Interaction>& alphabet,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  Automaton v = stateSkeleton(hidden);
  for (StateId st = 0; st < hidden.stateCount(); ++st) {
    const auto ms = m0.base().stateByName(hidden.stateName(st));
    const auto knownInput = [&](const automata::SignalSet& in) {
      if (!ms) return false;
      for (const auto& kt : m0.base().transitionsFrom(*ms)) {
        if (kt.label.in == in) return true;
      }
      return false;
    };
    for (const auto& t : hidden.transitionsFrom(st)) {
      // M0 facts must be reproduced exactly; unknown behavior is kept with
      // high probability so variants stay close to realistic refinements.
      if (knownInput(t.label.in) || rng.chance(7, 10)) {
        v.addTransition(t.from, t.label, t.to);
      }
    }
    for (const auto& x : alphabet) {
      if (!rng.chance(1, 4)) continue;
      bool taken = false;  // input-determinism: one response per input set
      for (const auto& vt : v.transitionsFrom(st)) {
        if (vt.label.in == x.in) {
          taken = true;
          break;
        }
      }
      if (taken || knownInput(x.in)) continue;
      if (ms && m0.isForbidden(*ms, x)) continue;  // T̄ fact
      v.addTransition(st, x,
                      static_cast<StateId>(rng.below(hidden.stateCount())));
    }
  }
  return v;
}

OracleResult checkO2(const Scenario& s, const OracleOptions& opts) {
  util::Rng rng(s.seed * 0x2545f4914f6cdd1dull + 0xf2);
  const auto alphabet =
      automata::makeAlphabet(s.hidden.inputs(), s.hidden.outputs(),
                             automata::InteractionMode::AtMostOneSignal);
  testing::AutomatonLegacy probe(s.hidden);
  automata::IncompleteAutomaton m0 =
      synthesis::initialModel(probe, s.signals, s.props);
  learnRandomFacts(rng, s.hidden, alphabet, m0);
  const auto closure = automata::chaoticClosure(
      m0, alphabet, automata::ClosureStyle::DeterministicTarget,
      automata::ClosureCopies::Both);

  std::vector<Automaton> variants;
  variants.push_back(s.hidden);
  for (std::size_t i = 0; i < opts.variantsPerScenario; ++i) {
    variants.push_back(consistentVariant(s.hidden, m0, alphabet, rng.next()));
  }

  automata::RefinementOptions ropts;
  ropts.wildcardProp = automata::kChaosProp;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto r =
        automata::checkRefinement(variants[i], closure.automaton, alphabet,
                                  ropts);
    if (!r.holds) {
      return violation("O2: Thm. 1 violated — " +
                       std::string(i == 0 ? "the hidden behavior"
                                          : "consistent refinement #" +
                                                std::to_string(i)) +
                       " does not refine chaos(M0): " + r.reason);
    }
  }

  // Lemma 5 transfer, phrased exactly as the verifier's ProvenCorrect
  // condition (synthesis/verifier.cpp): deadlock freedom against the
  // pessimistic Both-copies closure, the weakened property against the
  // optimistic Copy1Only closure. When both pass, every consistent
  // refinement composed with the context must satisfy φ ∧ ¬δ.
  ctl::VerifyOptions deadlockOnly;
  const bool absDeadlockFree =
      ctl::verify(automata::compose(closure.automaton, s.context).automaton,
                  nullptr, deadlockOnly)
          .holds;
  bool absPropertyHolds = true;
  ctl::FormulaPtr phi;
  if (!s.property.empty()) {
    phi = ctl::parseFormula(s.property);
    const auto optimistic = automata::chaoticClosure(
        m0, alphabet, automata::ClosureStyle::DeterministicTarget,
        automata::ClosureCopies::Copy1Only);
    ctl::VerifyOptions propOnly;
    propOnly.requireDeadlockFree = false;
    absPropertyHolds =
        ctl::verify(
            automata::compose(optimistic.automaton, s.context).automaton,
            ctl::weakenForChaos(phi), propOnly)
            .holds;
  }
  if (absDeadlockFree && absPropertyHolds) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto conc = automata::compose(variants[i], s.context);
      if (!ctl::verify(conc.automaton, phi, {}).holds) {
        return violation(
            "O2: Lemma 5 transfer violated — the abstraction passes (weakened "
            "property + deadlock freedom) but " +
                std::string(i == 0 ? "the hidden behavior"
                                   : "refinement #" + std::to_string(i)) +
                " ∥ ctx violates φ ∧ ¬δ (φ = " +
                (s.property.empty() ? "true" : s.property) + ")",
            s.property);
      }
    }
  }
  return {};
}

// ---- O3: integration verdict vs ground truth ------------------------------

OracleResult checkO3(const Scenario& s, const OracleOptions& opts) {
  testing::AutomatonLegacy legacy(s.hidden);
  synthesis::IntegrationConfig cfg;
  cfg.property = s.property;
  cfg.requireDeadlockFree = true;
  cfg.maxIterations = opts.maxIterations;
  cfg.runId = "fuzz-O3";
  const auto res = synthesis::runIntegration(s.context, legacy, cfg);

  const ctl::FormulaPtr phi =
      s.property.empty() ? nullptr : ctl::parseFormula(s.property);
  const auto truth =
      ctl::verify(automata::compose(s.hidden, s.context).automaton, phi, {});

  if (res.verdict == synthesis::Verdict::ProvenCorrect && !truth.holds) {
    return violation(
        "O3: Lemma 5 broken — ProvenCorrect after " +
            std::to_string(res.iterations) +
            " iterations, but the concrete composition violates the "
            "obligation (" +
            (truth.counterexamples.empty() ? "?"
                                           : truth.cex().note) +
            ")",
        s.property);
  }
  if (res.verdict == synthesis::Verdict::RealError && truth.holds) {
    return violation(
        "O3: Lemma 6 broken — RealError claimed (" + res.explanation +
            ") but the concrete composition satisfies the property and "
            "deadlock freedom",
        s.property);
  }
  return {};
}

// ---- O5: verdict invariance under quotient and renaming -------------------

OracleResult checkO5(const Scenario& s, const OracleOptions& opts) {
  const Automaton product =
      automata::compose(s.hidden, s.context).automaton;
  ctl::Checker base(product);
  const Automaton minimized = automata::minimizeBisimulation(product);
  const Automaton renamed =
      automata::shuffledCopy(product, s.seed * 31 + 0xf5);
  ctl::Checker quotient(minimized);
  ctl::Checker shuffled(renamed);
  for (const auto& [text, f] : formulasFor(s, opts, 0xf5)) {
    const bool verdict = base.holds(f);
    if (quotient.holds(f) != verdict) {
      return violation(
          "O5: verdict changed under bisimulation minimization (product " +
              std::string(verdict ? "holds" : "violates") + ") for formula " +
              text,
          text);
    }
    if (shuffled.holds(f) != verdict) {
      return violation(
          "O5: verdict changed under state renaming/reordering for formula " +
              text,
          text);
    }
  }
  return {};
}

// ---- O6: semantic pre-solve vs ground truth --------------------------------

OracleResult checkO6(const Scenario& s, const OracleOptions&) {
  const analysis::PresolveOutcome pre =
      analysis::presolveIntegration(s.context, s.hidden, s.property);
  if (pre.verdict == analysis::PresolveVerdict::Skipped) return {};

  const ctl::FormulaPtr phi =
      s.property.empty() ? nullptr : ctl::parseFormula(s.property);
  const auto truth =
      ctl::verify(automata::compose(s.hidden, s.context).automaton, phi, {});

  if (pre.verdict == analysis::PresolveVerdict::Proved && !truth.holds) {
    return violation(
        "O6: pre-solver proved the integration (" + pre.explanation +
            ") but the concrete composition violates the obligation (" +
            (truth.counterexamples.empty() ? "?" : truth.cex().note) + ")",
        s.property);
  }
  if (pre.verdict == analysis::PresolveVerdict::Refuted && truth.holds) {
    return violation(
        "O6: pre-solver refuted the integration (" + pre.explanation +
            ") but the concrete composition satisfies the property and "
            "deadlock freedom",
        s.property);
  }
  return {};
}


// ---- O7: lean product engine vs the reference composer --------------------

/// What differs between two verify() results, or "" when nothing does.
/// `toRef`, if given, maps b's states to a's.
std::string verifyDiff(const ctl::VerifyResult& a, const ctl::VerifyResult& b,
                       const std::vector<StateId>* toRef = nullptr) {
  if (a.holds != b.holds) return "holds";
  if (a.stateCount != b.stateCount) return "stateCount";
  if (a.unknownAtoms != b.unknownAtoms) return "unknownAtoms";
  if (a.counterexamples.size() != b.counterexamples.size()) {
    return "counterexample count";
  }
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    const auto& x = a.counterexamples[i];
    const auto& y = b.counterexamples[i];
    std::vector<StateId> states = y.run.states;
    if (toRef != nullptr) {
      for (StateId& q : states) q = (*toRef)[q];
    }
    if (x.kind != y.kind || x.run.states != states ||
        x.run.labels != y.run.labels || x.run.deadlock != y.run.deadlock) {
      return "counterexample #" + std::to_string(i) + " run";
    }
    if (x.pathExact != y.pathExact) return "pathExact";
    if (x.note != y.note) return "note ('" + x.note + "' vs '" + y.note + "')";
  }
  return {};
}

/// What differs between the virtual closure and chaoticClosure's copy-1
/// automaton, or "".
std::string closureDiff(const automata::Closure& ref,
                        const automata::VirtualClosure& view) {
  const Automaton& a = ref.automaton;
  if (a.stateCount() != view.stateCount()) return "closure state count";
  if (a.initialStates() != view.initialStates()) return "closure initials";
  std::vector<automata::EdgeRef> edges;
  const std::size_t stride = view.stride();
  for (StateId c = 0; c < a.stateCount(); ++c) {
    const std::string at = " of closure state '" + a.stateName(c) + "'";
    if (a.stateName(c) != view.stateName(c)) return "name" + at;
    if (a.labels(c) != view.labels(c)) return "labels" + at;
    if (ref.isChaos(c) != view.isChaos(c) ||
        (!ref.isChaos(c) && ref.knownOrigin(c) != c)) {
      return "origin" + at;
    }
    view.edges(c, edges);
    const auto& ts = a.transitionsFrom(c);
    if (ts.size() != edges.size()) return "edge count" + at;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const Interaction label{
          automata::SignalSet::fromWords(edges[i].label, stride),
          automata::SignalSet::fromWords(edges[i].label + stride, stride)};
      if (ts[i].to != edges[i].to || ts[i].label != label) {
        return "edge #" + std::to_string(i) + at;
      }
    }
  }
  return {};
}

/// What differs between composeAll's product and the lean one, or "".
std::string productDiff(const automata::Product& ref,
                        const automata::FlatProduct& lean) {
  const Automaton& a = ref.automaton;
  if (a.stateCount() != lean.stateCount()) {
    return "state count " + std::to_string(a.stateCount()) + " vs " +
           std::to_string(lean.stateCount());
  }
  if (a.initialStates() != lean.initialStates()) return "initial states";
  for (StateId p = 0; p < a.stateCount(); ++p) {
    const std::string at = " of product state '" + a.stateName(p) + "'";
    if (a.stateName(p) != lean.stateName(p)) return "name" + at;
    for (std::size_t k = 0; k < ref.origins[p].size(); ++k) {
      if (ref.origins[p][k] != lean.origin(p, k)) return "origins" + at;
    }
    const auto& ts = a.transitionsFrom(p);
    if (ts.size() != lean.edgeEnd(p) - lean.edgeBegin(p)) {
      return "edge count" + at;
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const auto e = static_cast<std::uint32_t>(lean.edgeBegin(p) + i);
      if (ts[i].to != lean.edgeTarget(e) || ts[i].label != lean.edgeLabel(e)) {
        return "edge #" + std::to_string(i) + at;
      }
    }
  }
  const automata::SignalTable& props = *a.propTable();
  for (util::NameId prop = 0; prop < props.size(); ++prop) {
    const util::DenseBitset sat = lean.atomSat(prop);
    for (StateId p = 0; p < a.stateCount(); ++p) {
      if (a.labels(p).test(prop) != sat.test(p)) {
        return "sat-set of atom '" + props.name(prop) + "'";
      }
    }
  }
  return {};
}

/// A linked state that composeAll's product has no counterpart of: a
/// region state the product does not reach.
constexpr StateId kUnreached = UINT32_MAX;

/// What differs between composeAll's product and `linked`, a product over
/// a chaos region, up to renumbering, or "". composeAll numbers states in
/// breadth-first order from the initial states, so `toRef` receives that
/// order's number of every linked state (kUnreached for a region state no
/// initial state reaches); the states must then agree in names, origins,
/// edges in order, labels and every atom.
std::string linkedDiff(const automata::Product& ref,
                       const automata::FlatProduct& linked,
                       std::vector<StateId>& toRef) {
  const Automaton& a = ref.automaton;
  toRef.assign(linked.stateCount(), kUnreached);
  std::vector<StateId> order;
  const auto visit = [&](StateId q) {
    if (toRef[q] != kUnreached) return;
    toRef[q] = static_cast<StateId>(order.size());
    order.push_back(q);
  };
  for (const StateId q : linked.initialStates()) visit(q);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::uint32_t e = linked.edgeBegin(order[i]);
         e < linked.edgeEnd(order[i]); ++e) {
      visit(linked.edgeTarget(e));
    }
  }
  if (order.size() != a.stateCount() ||
      linked.fullStateCount() != a.stateCount()) {
    return "state count " + std::to_string(a.stateCount()) + " vs " +
           std::to_string(order.size()) + " reached, " +
           std::to_string(linked.fullStateCount()) + " counted";
  }
  for (StateId q = linked.regionBegin(); q < linked.stateCount(); ++q) {
    if (linked.regionReached(q) != (toRef[q] != kUnreached)) {
      return "reach of region state '" + linked.stateName(q) + "'";
    }
  }
  std::vector<StateId> initials;
  for (const StateId q : linked.initialStates()) initials.push_back(toRef[q]);
  if (a.initialStates() != initials) return "initial states";
  for (StateId p = 0; p < a.stateCount(); ++p) {
    const StateId q = order[p];
    const std::string at = " of product state '" + a.stateName(p) + "'";
    if (a.stateName(p) != linked.stateName(q)) return "name" + at;
    for (std::size_t k = 0; k < ref.origins[p].size(); ++k) {
      if (ref.origins[p][k] != linked.origin(q, k)) return "origins" + at;
    }
    const auto& ts = a.transitionsFrom(p);
    if (ts.size() != linked.edgeEnd(q) - linked.edgeBegin(q)) {
      return "edge count" + at;
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const auto e = static_cast<std::uint32_t>(linked.edgeBegin(q) + i);
      if (ts[i].to != toRef[linked.edgeTarget(e)] ||
          ts[i].label != linked.edgeLabel(e)) {
        return "edge #" + std::to_string(i) + at;
      }
    }
  }
  const automata::SignalTable& props = *a.propTable();
  for (util::NameId prop = 0; prop < props.size(); ++prop) {
    const util::DenseBitset sat = linked.atomSat(prop);
    for (StateId p = 0; p < a.stateCount(); ++p) {
      if (a.labels(p).test(prop) != sat.test(order[p])) {
        return "sat-set of atom '" + props.name(prop) + "'";
      }
    }
  }
  return {};
}

/// What differs between `capped`, composed under a bound of `cap` states,
/// and the first `cap` states of the unbounded product `full`, or "".
std::string prefixDiff(const automata::FlatProduct& full,
                       const automata::FlatProduct& capped, std::size_t cap) {
  const std::size_t n = std::min(full.stateCount(), cap);
  if (capped.stateCount() != n) {
    return "state count " + std::to_string(capped.stateCount()) + " vs " +
           std::to_string(n);
  }
  if (capped.capped() != (full.stateCount() > cap)) return "capped()";
  std::vector<StateId> initials;
  for (const StateId q : full.initialStates()) {
    if (q < n) initials.push_back(q);
  }
  if (capped.initialStates() != initials) return "initial states";
  const std::size_t words = 2 * full.stride();
  for (StateId p = 0; p < n; ++p) {
    const std::string at = " of product state '" + full.stateName(p) + "'";
    if (capped.stateName(p) != full.stateName(p)) return "name" + at;
    for (std::size_t k = 0; k < full.componentCount(); ++k) {
      if (capped.origin(p, k) != full.origin(p, k)) return "origins" + at;
    }
    // The full product's edges into the prefix, in their order.
    std::uint32_t e = capped.edgeBegin(p);
    for (std::uint32_t f = full.edgeBegin(p); f < full.edgeEnd(p); ++f) {
      if (full.edgeTarget(f) >= n) continue;
      if (e == capped.edgeEnd(p) ||
          capped.edgeTarget(e) != full.edgeTarget(f) ||
          !std::equal(full.edgeWords(f), full.edgeWords(f) + words,
                      capped.edgeWords(e))) {
        return "edge #" + std::to_string(e - capped.edgeBegin(p)) + at;
      }
      ++e;
    }
    if (e != capped.edgeEnd(p)) return "edge count" + at;
  }
  return {};
}

OracleResult checkO7(const Scenario& s, const OracleOptions& opts) {
  util::Rng rng(s.seed * 0x94d049bb133111ebull + 0xf7);
  util::Rng capRng(s.seed * 0xbf58476d1ce4e5b9ull + 0x5a);
  const auto alphabet =
      automata::makeAlphabet(s.hidden.inputs(), s.hidden.outputs(),
                             automata::InteractionMode::AtMostOneSignal);
  testing::AutomatonLegacy probe(s.hidden);
  automata::IncompleteAutomaton m =
      synthesis::initialModel(probe, s.signals, s.props);
  const std::size_t stride = automata::strideFor({&s.context, &m.base()});
  const automata::AutomatonComponent context(s.context, stride);

  const ctl::FormulaPtr phi =
      s.property.empty() ? nullptr
                         : ctl::weakenForChaos(ctl::parseFormula(s.property));
  std::vector<std::pair<ctl::FormulaPtr, ctl::VerifyOptions>> checks;
  ctl::VerifyOptions all;
  all.maxCounterexamples = 3;
  checks.emplace_back(nullptr, all);
  if (phi != nullptr) {
    checks.emplace_back(phi, all);
    ctl::VerifyOptions depthFirst;
    depthFirst.requireDeadlockFree = false;
    depthFirst.search = ctl::CexSearch::DepthFirst;
    depthFirst.maxCounterexamples = 2;
    checks.emplace_back(phi, depthFirst);
  }

  // ¬δ on Def. 9's pessimistic product, answered on the doubled view.
  std::vector<ctl::VerifyOptions> deadlockChecks(3);
  deadlockChecks[1].maxCounterexamples = 3;
  deadlockChecks[2].search = ctl::CexSearch::DepthFirst;
  deadlockChecks[2].maxCounterexamples = 2;

  // One chaos region across the stages and both closure styles, as the
  // loop keeps one per job, and a checker memo per formula on it, first of
  // the empty region and rebuilt whenever the region grew.
  automata::ChaosRegion region(context, {&m.base()}, {alphabet});
  struct Memo {
    std::string text;
    ctl::FormulaPtr f;
    std::optional<ctl::RegionMemo> memo;
  };
  std::vector<Memo> memos;
  if (phi != nullptr) memos.push_back({s.property, phi, std::nullopt});
  for (auto& [text, f] : formulasFor(s, opts, 0xf7)) {
    memos.push_back({text, std::move(f), std::nullopt});
  }
  for (Memo& mm : memos) mm.memo.emplace(region.product(), mm.f);

  // The initial model, then three rounds of random learning on top of it.
  for (int stage = 0; stage < 4; ++stage) {
    if (stage > 0) learnRandomFacts(rng, s.hidden, alphabet, m);
    for (const auto style : {automata::ClosureStyle::PaperExact,
                             automata::ClosureStyle::DeterministicTarget}) {
      const std::string where =
          " (model stage " + std::to_string(stage) + ", " +
          (style == automata::ClosureStyle::PaperExact ? "paper-exact"
                                                       : "deterministic") +
          ")";
      const auto closure = automata::chaoticClosure(
          m, alphabet, style, automata::ClosureCopies::Copy1Only);
      std::vector<automata::VirtualClosure> views;
      views.emplace_back(m, alphabet, style, stride);
      const automata::VirtualClosure& view = views.front();
      if (const auto d = closureDiff(closure, view); !d.empty()) {
        return violation("O7: virtual closure differs from chaoticClosure: " +
                         d + where);
      }
      const auto ref = automata::composeAll({&s.context, &closure.automaton});
      const auto lean = automata::composeFlat({&context, &view});
      if (const auto d = productDiff(ref, lean); !d.empty()) {
        return violation("O7: lean product differs from composeAll: " + d +
                         where);
      }
      const std::size_t cap = capRng.below(lean.stateCount() + 1);
      const auto capped = automata::composeFlat({&context, &view}, cap);
      if (const auto d = prefixDiff(lean, capped, cap); !d.empty()) {
        return violation("O7: the product capped at " + std::to_string(cap) +
                         " states is not the unbounded one's prefix: " + d +
                         where);
      }
      for (const auto& [f, vo] : checks) {
        const auto a = ctl::verify(ref.automaton, f, vo);
        const auto b = ctl::verify(lean, f, vo);
        std::string d = verifyDiff(a, b);
        for (std::size_t i = 0; d.empty() && i < a.counterexamples.size();
             ++i) {
          if (ref.renderRun(a.counterexamples[i].run) !=
              lean.renderRun(b.counterexamples[i].run)) {
            d = "rendering of counterexample #" + std::to_string(i);
          }
        }
        if (!d.empty()) {
          return violation("O7: ctl::verify differs on the lean product (" +
                               d + ") for " +
                               (f ? f->toString() : std::string("¬δ")) +
                               where,
                           s.property);
        }
      }
      // The same product linking the region.
      const auto linked = automata::composeFlat({&context, &view}, region);
      std::vector<StateId> toRef;
      if (const auto d = linkedDiff(ref, linked, toRef); !d.empty()) {
        return violation(
            "O7: the product over the chaos region differs from composeAll "
            "up to renumbering: " +
            d + where);
      }
      for (Memo& mm : memos) {
        if (mm.memo->stateCount() != region.stateCount() &&
            opts.injectBug != BugInjection::O7StaleRegion) {
          mm.memo.emplace(region.product(), mm.f);
        }
        ctl::Checker plain(linked);
        ctl::Checker memoized(linked, *mm.memo);
        const ctl::SatSet want = plain.evaluate(mm.f);
        const ctl::SatSet got = memoized.evaluate(mm.f);
        for (StateId q = 0; q < linked.stateCount(); ++q) {
          if (want[q] != got[q]) {
            // Only the property is pinned for the shrinker: O7 weakens it,
            // which not every random formula admits.
            return violation(
                "O7: the checker seeded by the region memo disagrees with a "
                "plain Checker on state '" +
                    linked.stateName(q) + "' (memo " +
                    (got[q] ? "true" : "false") + ") for formula " + mm.text +
                    where,
                mm.f == phi ? s.property : std::string());
          }
        }
      }
      for (const auto& [f, vo] : checks) {
        const auto a = ctl::verify(ref.automaton, f, vo);
        const auto b = ctl::verify(
            linked, f != nullptr ? &*memos.front().memo : nullptr, f, vo);
        std::string d = verifyDiff(a, b, &toRef);
        for (std::size_t i = 0; d.empty() && i < a.counterexamples.size();
             ++i) {
          if (ref.renderRun(a.counterexamples[i].run) !=
              linked.renderRun(b.counterexamples[i].run)) {
            d = "rendering of counterexample #" + std::to_string(i);
          }
        }
        if (!d.empty()) {
          return violation(
              "O7: ctl::verify differs on the product over the chaos region (" +
                  d + ") for " + (f ? f->toString() : std::string("¬δ")) +
                  where,
              s.property);
        }
      }
      const auto both = automata::chaoticClosure(
          m, alphabet, style, automata::ClosureCopies::Both);
      const auto pessimistic =
          automata::composeAll({&s.context, &both.automaton});
      const automata::DoubledProduct doubled(lean, views);
      const automata::DoubledProduct doubledLinked(linked, views);
      for (const auto& dopts : deadlockChecks) {
        for (const auto* view : {&doubled, &doubledLinked}) {
          if (const auto d =
                  doubledViewDiff(pessimistic, {&both}, *view, dopts);
              !d.empty()) {
            return violation(
                std::string("O7: the doubled view's deadlock search") +
                (view == &doubled ? "" : " over the chaos region") +
                " differs from ctl::verify on the two-copy product (" + d +
                ", " + std::to_string(dopts.maxCounterexamples) + " " +
                (dopts.search == ctl::CexSearch::Shortest ? "shortest"
                                                          : "depth-first") +
                ")" + where);
          }
        }
      }
    }
  }
  return {};
}

}  // namespace

std::string doubledViewDiff(const automata::Product& pess,
                            const std::vector<const automata::Closure*>& both,
                            const automata::DoubledProduct& view,
                            const ctl::VerifyOptions& opts) {
  const auto a = ctl::verify(pess.automaton, nullptr, opts);
  const auto b = ctl::verifyDeadlockFree(view, opts);
  if (a.holds != b.holds) return "holds";
  if (a.stateCount != b.stateCount) {
    return "state count " + std::to_string(a.stateCount) + " vs " +
           std::to_string(b.stateCount);
  }
  if (a.counterexamples.size() != b.counterexamples.size()) {
    return "counterexample count";
  }
  const automata::FlatProduct& lean = view.product();
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    const auto& x = a.counterexamples[i];
    const auto& y = b.counterexamples[i];
    const std::string which = "counterexample #" + std::to_string(i);
    if (x.kind != y.kind || x.pathExact != y.pathExact) return which + " kind";
    if (x.run.states.size() != y.run.states.size() ||
        y.copies.size() != y.run.states.size()) {
      return which + " length";
    }
    for (std::size_t pos = 0; pos < x.run.states.size(); ++pos) {
      const auto& row = pess.origins[x.run.states[pos]];
      const StateId q = y.run.states[pos];
      if (row[0] != lean.origin(q, 0)) return which + " context state";
      for (std::size_t k = 1; k < row.size(); ++k) {
        // Def. 9's closure state as (copy-1 closure state, copy bit).
        const automata::Closure& c = *both[k - 1];
        const auto n = static_cast<StateId>(c.copy1.size());
        const StateId r = row[k];
        const StateId state = r == c.sAll     ? n
                              : r == c.sDelta ? n + 1
                                              : c.knownOrigin(r);
        const bool copy = c.origins[r].kind == automata::Closure::Kind::Copy1;
        if (state != lean.origin(q, k) ||
            copy != ((y.copies[pos] >> (k - 1) & 1u) != 0)) {
          return which + " state of component " + std::to_string(k) +
                 " at position " + std::to_string(pos);
        }
      }
    }
    if (x.run.labels != y.run.labels || x.run.deadlock != y.run.deadlock) {
      return which + " labels";
    }
    if (x.note != y.note) return "note ('" + x.note + "' vs '" + y.note + "')";
    if (pess.renderRun(x.run) != view.renderRun(y.run, y.copies)) {
      return "rendering of " + which;
    }
  }
  return {};
}

const char* toString(OracleId id) {
  switch (id) {
    case OracleId::O1CheckerAgreement:
      return "O1";
    case OracleId::O2ChaosSafety:
      return "O2";
    case OracleId::O3VerdictSound:
      return "O3";
    case OracleId::O5VerdictInvariance:
      return "O5";
    case OracleId::O6PresolveSound:
      return "O6";
    case OracleId::O7LeanProduct:
      return "O7";
  }
  return "O?";
}

std::optional<OracleId> oracleFromString(std::string_view text) {
  for (const OracleId id : allOracles()) {
    if (text == toString(id)) return id;
  }
  return std::nullopt;
}

std::vector<OracleId> allOracles() {
  return {OracleId::O1CheckerAgreement, OracleId::O2ChaosSafety,
          OracleId::O3VerdictSound, OracleId::O5VerdictInvariance,
          OracleId::O6PresolveSound, OracleId::O7LeanProduct};
}

const char* describeOracle(OracleId id) {
  switch (id) {
    case OracleId::O1CheckerAgreement:
      return "worklist Checker agrees with ReferenceChecker state-by-state";
    case OracleId::O2ChaosSafety:
      return "Thm. 1: consistent refinements refine chaos(M0); verdicts "
             "transfer (Lemma 5)";
    case OracleId::O3VerdictSound:
      return "integration verdict matches the concrete ground truth "
             "(Lemmas 5/6)";
    case OracleId::O5VerdictInvariance:
      return "verdicts invariant under minimization and state renaming";
    case OracleId::O6PresolveSound:
      return "semantic pre-solve verdicts agree with the concrete ground "
             "truth";
    case OracleId::O7LeanProduct:
      return "lean product over virtual closures equals composeAll over "
             "chaoticClosure, also over a chaos region kept across learning "
             "stages (up to renumbering); ctl::verify agrees on all three, "
             "and the region-seeded checker with a plain one; a capped "
             "product is the unbounded one's prefix; the doubled view's "
             "deadlock search equals ctl::verify on the two-copy product";
  }
  return "";
}

std::optional<BugInjection> bugInjectionFromString(std::string_view text) {
  if (text == "none") return BugInjection::None;
  if (text == "o1-deadlock-af") return BugInjection::O1DeadlockAF;
  if (text == "o7-stale-region") return BugInjection::O7StaleRegion;
  return std::nullopt;
}

const char* toString(BugInjection b) {
  switch (b) {
    case BugInjection::None:
      return "none";
    case BugInjection::O1DeadlockAF:
      return "o1-deadlock-af";
    case BugInjection::O7StaleRegion:
      return "o7-stale-region";
  }
  return "none";
}

OracleResult checkOracle(OracleId id, const Scenario& s,
                         const OracleOptions& opts) {
  switch (id) {
    case OracleId::O1CheckerAgreement:
      return checkO1(s, opts);
    case OracleId::O2ChaosSafety:
      return checkO2(s, opts);
    case OracleId::O3VerdictSound:
      return checkO3(s, opts);
    case OracleId::O5VerdictInvariance:
      return checkO5(s, opts);
    case OracleId::O6PresolveSound:
      return checkO6(s, opts);
    case OracleId::O7LeanProduct:
      return checkO7(s, opts);
  }
  return {};
}

}  // namespace mui::fuzz

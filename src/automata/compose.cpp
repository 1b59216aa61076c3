#include "automata/compose.hpp"

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace mui::automata {

namespace {

struct ComposeMetrics {
  obs::Counter& products;
  obs::Counter& statesNew;
  obs::Histogram& productStates;

  static const ComposeMetrics& get() {
    static ComposeMetrics m{
        obs::Registry::global().counter("mui_compose_products_total",
                                        "Product automata built"),
        obs::Registry::global().counter(
            "mui_compose_product_states_new_total", "Product states built"),
        obs::Registry::global().histogram("mui_compose_product_states",
                                          "States per product automaton",
                                          "states"),
    };
    return m;
  }
};

}  // namespace

Interaction Product::projectInteraction(const Interaction& x,
                                        std::size_t k) const {
  return {x.in & componentInputs[k], x.out & componentOutputs[k]};
}

Run Product::projectRun(const Run& run, std::size_t k) const {
  Run out;
  out.deadlock = run.deadlock;
  out.states.reserve(run.states.size());
  for (StateId p : run.states) out.states.push_back(origins[p][k]);
  out.labels.reserve(run.labels.size());
  for (const auto& l : run.labels) out.labels.push_back(projectInteraction(l, k));
  return out;
}

std::string Product::renderRun(const Run& run) const {
  return renderProductRun(
      run, *automaton.signalTable(), componentNames, componentInputs,
      componentOutputs, [&](std::size_t i, std::size_t k, std::string& out) {
        out += componentStateNames[k][origins[run.states[i]][k]];
      });
}

std::string renderProductRun(const Run& run, const SignalTable& sig,
                             const std::vector<std::string>& componentNames,
                             const std::vector<SignalSet>& componentInputs,
                             const std::vector<SignalSet>& componentOutputs,
                             const StateAppender& appendState) {
  std::string out;
  // Two lines of roughly 16 chars per component and step is a good first
  // guess; appending in place below avoids the per-step temporaries.
  out.reserve(run.states.size() * componentNames.size() * 32 + 16);
  const auto appendStateLine = [&](std::size_t i) {
    for (std::size_t k = 0; k < componentNames.size(); ++k) {
      if (k) out += ", ";
      out += componentNames[k];
      out += '.';
      appendState(i, k, out);
    }
  };
  const auto appendInteractionLine = [&](const Interaction& x) {
    const std::size_t start = out.size();
    const auto add = [&](std::size_t k, const std::string& n, char dir) {
      if (out.size() != start) out += ", ";
      out += componentNames[k];
      out += '.';
      out += n;
      out += dir;
    };
    (x.in | x.out).forEach([&](std::size_t s) {
      const std::string& n = sig.name(static_cast<util::NameId>(s));
      if (x.out.test(s)) {
        for (std::size_t k = 0; k < componentNames.size(); ++k) {
          if (componentOutputs[k].test(s)) add(k, n, '!');
        }
      }
      if (x.in.test(s)) {
        for (std::size_t k = 0; k < componentNames.size(); ++k) {
          if (componentInputs[k].test(s)) add(k, n, '?');
        }
      }
    });
    if (out.size() == start) out += "(idle)";
  };
  const std::size_t regularSteps =
      run.deadlock ? run.labels.size() - 1 : run.labels.size();
  for (std::size_t i = 0; i < regularSteps; ++i) {
    appendStateLine(i);
    out += '\n';
    appendInteractionLine(run.labels[i]);
    out += '\n';
  }
  if (run.deadlock) {
    if (!run.labels.empty()) {
      appendStateLine(run.states.size() - 1);
      out += '\n';
      appendInteractionLine(run.labels.back());
      out += "  [blocked]\n";
    }
    out += "DEADLOCK\n";
  } else {
    appendStateLine(run.states.size() - 1);
    out += '\n';
  }
  return out;
}

namespace {

/// Wraps a single automaton as a trivial (1-component) Product.
Product wrap(const Automaton& a) {
  Product p{Automaton(a.signalTable(), a.propTable(), a.name()),
            {a.name()},
            {{}},
            {a.inputs()},
            {a.outputs()},
            {}};
  p.automaton = a;  // exact copy, including unreachable states
  p.componentStateNames[0].reserve(a.stateCount());
  for (StateId s = 0; s < a.stateCount(); ++s) {
    p.componentStateNames[0].push_back(a.stateName(s));
    p.origins.push_back({s});
  }
  return p;
}

/// Composes an accumulated product with one more component, flattening the
/// per-component origins.
Product composeStep(const Product& acc, const Automaton& b) {
  const Automaton& a = acc.automaton;
  if (a.signalTable() != b.signalTable() || a.propTable() != b.propTable()) {
    throw std::invalid_argument("compose: automata must share tables");
  }
  if (!a.composableWith(b)) {
    throw std::invalid_argument(
        "compose: not composable (I or O sets overlap)");
  }

  Product p{Automaton(a.signalTable(), a.propTable()), {}, {}, {}, {}, {}};
  p.componentNames = acc.componentNames;
  p.componentNames.push_back(b.name());
  p.componentStateNames = acc.componentStateNames;
  p.componentStateNames.emplace_back();
  for (StateId s = 0; s < b.stateCount(); ++s) {
    p.componentStateNames.back().push_back(b.stateName(s));
  }
  p.componentInputs = acc.componentInputs;
  p.componentInputs.push_back(b.inputs());
  p.componentOutputs = acc.componentOutputs;
  p.componentOutputs.push_back(b.outputs());

  Automaton prod(a.signalTable(), a.propTable(),
                 a.name().empty() || b.name().empty()
                     ? a.name() + b.name()
                     : a.name() + "|" + b.name());
  prod.declareSignals(a.inputs() | b.inputs(), a.outputs() | b.outputs());

  std::unordered_map<std::uint64_t, StateId> ids;
  std::deque<std::pair<StateId, StateId>> work;
  const auto key = [](StateId x, StateId y) {
    return (std::uint64_t{x} << 32) | y;
  };
  const auto ensure = [&](StateId sa, StateId sb) {
    const auto it = ids.find(key(sa, sb));
    if (it != ids.end()) return it->second;
    const StateId id =
        prod.addState(a.stateName(sa) + "|" + b.stateName(sb));
    // Def. 3: L''((s, s')) = L(s) ∪ L'(s').
    prod.addLabels(id, a.labels(sa));
    prod.addLabels(id, b.labels(sb));
    ids.emplace(key(sa, sb), id);
    // Flattened origins: component states of sa plus sb.
    auto origin = acc.origins[sa];
    origin.push_back(sb);
    p.origins.push_back(std::move(origin));
    work.emplace_back(sa, sb);
    return id;
  };

  // Q'' = Q × Q'.
  for (StateId qa : a.initialStates()) {
    for (StateId qb : b.initialStates()) {
      prod.markInitial(ensure(qa, qb));
    }
  }

  while (!work.empty()) {
    const auto [sa, sb] = work.front();
    work.pop_front();
    const StateId from = ids.at(key(sa, sb));
    for (const auto& ta : a.transitionsFrom(sa)) {
      for (const auto& tb : b.transitionsFrom(sb)) {
        // Matching condition of Def. 3, on the shared alphabet: what M reads
        // of M''s outputs must equal what M' writes into M's inputs (and
        // vice versa). For the paper's closed systems — every output wired
        // to a partner input — this is exactly (A ∩ O') = B' and
        // (A' ∩ O) = B; the restriction to the partner's input alphabet
        // additionally lets environment-facing outputs pass through
        // (DESIGN.md §6).
        if ((ta.label.in & b.outputs()) != (tb.label.out & a.inputs())) {
          continue;
        }
        if ((tb.label.in & a.outputs()) != (ta.label.out & b.inputs())) {
          continue;
        }
        const Interaction joint{ta.label.in | tb.label.in,
                                ta.label.out | tb.label.out};
        const StateId to = ensure(ta.to, tb.to);
        prod.addTransition(from, joint, to);
      }
    }
  }

  p.automaton = std::move(prod);
  return p;
}

}  // namespace

Product compose(const Automaton& a, const Automaton& b) {
  return composeStep(wrap(a), b);
}

Product composeAll(const std::vector<const Automaton*>& components) {
  if (components.empty()) {
    throw std::invalid_argument("composeAll: no components");
  }
  Product acc = wrap(*components.front());
  for (std::size_t i = 1; i < components.size(); ++i) {
    acc = composeStep(acc, *components[i]);
  }
  countProduct(acc.automaton.stateCount());
  return acc;
}

void countProduct(std::size_t states) {
  const ComposeMetrics& m = ComposeMetrics::get();
  m.products.inc();
  m.statesNew.add(states);
  m.productStates.observe(states);
}

}  // namespace mui::automata

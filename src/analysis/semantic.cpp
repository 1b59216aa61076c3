#include "analysis/semantic.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "automata/flat_product.hpp"
#include "automata/incomplete.hpp"
#include "automata/rename.hpp"
#include "automata/signals.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/checker.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "muml/channel.hpp"
#include "muml/integration.hpp"

namespace mui::analysis {

namespace {

using automata::Automaton;
using automata::FlatProduct;
using automata::Interaction;
using automata::SignalSet;
using automata::StateId;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// ---- AG-safety fragment ----------------------------------------------------

bool mentionsDeadlock(const ctl::Formula* f) {
  if (f == nullptr) return false;
  if (f->op == ctl::Op::Deadlock) return true;
  return mentionsDeadlock(f->lhs.get()) || mentionsDeadlock(f->rhs.get());
}

/// φ split into what the pre-solver decides by reachability: conjuncts of
/// *unbounded* AG over propositional bodies, plus top-level propositional
/// conjuncts (evaluated at the initial states). `complete` means the whole
/// property falls into the fragment — required for proving; refuting only
/// needs one violated conjunct.
struct SafetyFragment {
  std::vector<ctl::FormulaPtr> agConjuncts;  // the AG nodes
  std::vector<ctl::FormulaPtr> nowConjuncts;
  bool parsed = false;
  bool complete = false;
};

SafetyFragment splitSafety(const std::string& property) {
  SafetyFragment out;
  out.parsed = true;
  out.complete = true;
  if (property.empty()) return out;
  std::deque<ctl::FormulaPtr> work;
  try {
    work.push_back(ctl::parseFormula(property));
  } catch (const std::exception&) {
    out.parsed = false;
    out.complete = false;
    return out;
  }
  while (!work.empty()) {
    const ctl::FormulaPtr f = work.front();
    work.pop_front();
    if (f->op == ctl::Op::And) {
      work.push_back(f->lhs);
      work.push_back(f->rhs);
    } else if (f->op == ctl::Op::AG && !f->bound.bounded() &&
               f->bound.lo == 0 && ctl::isPropositional(f->lhs)) {
      out.agConjuncts.push_back(f);
    } else if (ctl::isPropositional(f)) {
      out.nowConjuncts.push_back(f);
    } else {
      out.complete = false;
    }
  }
  return out;
}

// ---- Products --------------------------------------------------------------

/// The components a product reads, on the heap so the product can move.
using Parts = std::vector<std::unique_ptr<automata::AutomatonComponent>>;

/// Def. 3 over `automata` by composeFlat, at their common word stride and
/// bounded by `cap` states (FlatProduct::capped() says whether the bound
/// cut it). `parts` receives the components the product reads.
FlatProduct composeCapped(const std::vector<const Automaton*>& automata,
                          std::size_t cap, Parts& parts) {
  const std::size_t stride = automata::strideFor(automata);
  std::vector<const automata::FlatComponent*> components;
  for (const Automaton* a : automata) {
    parts.push_back(std::make_unique<automata::AutomatonComponent>(*a, stride));
    components.push_back(parts.back().get());
  }
  return automata::composeFlat(std::move(components), cap);
}

/// Whether edge e exchanges no signals: its label words are all zero.
bool silent(const FlatProduct& g, std::uint32_t e) {
  const automata::Word* w = g.edgeWords(e);
  return std::all_of(w, w + 2 * g.stride(),
                     [](automata::Word x) { return x == 0; });
}

/// The shortest run from an initial state of `g` to a state of `target`,
/// if one is reachable. composeFlat numbers states in the breadth-first
/// order this search visits them in, so the run ends in the lowest-numbered
/// target and its length is that state's depth.
std::optional<automata::Run> shortestRunTo(const FlatProduct& g,
                                           const ctl::SatSet& target) {
  if (!target.any()) return std::nullopt;
  auto runs = ctl::searchPaths(g, target, 1, ctl::CexSearch::Shortest);
  if (runs.empty()) return std::nullopt;
  return std::move(runs.front());
}

// ---- Dominators (must-pass analysis) ---------------------------------------

/// Immediate dominators of the product graph under a virtual root that
/// feeds every initial state (Cooper–Harvey–Kennedy iteration over reverse
/// post-order). idom[n] == kNone means "dominated by the root only" (or
/// unreachable). The chain idom*(target) is exactly the set of states every
/// path from an initial state to `target` must pass through.
std::vector<std::size_t> immediateDominators(const FlatProduct& g) {
  const std::size_t n = g.stateCount();
  std::vector<char> initial(n, 0);
  for (const StateId r : g.initialStates()) initial[r] = 1;
  std::vector<std::size_t> order;  // post-order
  order.reserve(n);
  std::vector<char> seen(n, 0);
  for (const StateId r : g.initialStates()) {
    if (seen[r]) continue;
    // Iterative DFS with an explicit edge cursor.
    std::vector<std::pair<StateId, std::uint32_t>> stack{{r, g.edgeBegin(r)}};
    seen[r] = 1;
    while (!stack.empty()) {
      auto& [v, cursor] = stack.back();
      if (cursor < g.edgeEnd(v)) {
        const StateId w = g.edgeTarget(cursor++);
        if (!seen[w]) {
          seen[w] = 1;
          stack.emplace_back(w, g.edgeBegin(w));
        }
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }

  std::vector<std::size_t> rpoIndex(n, kNone);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rpoIndex[order[i]] = order.size() - 1 - i;
  }
  std::vector<std::vector<std::size_t>> preds(n);
  for (StateId v = 0; v < n; ++v) {
    for (std::uint32_t e = g.edgeBegin(v); e < g.edgeEnd(v); ++e) {
      preds[g.edgeTarget(e)].push_back(v);
    }
  }

  // idom in state indices; kNone plays the role of the virtual root.
  std::vector<std::size_t> idom(n, kNone);
  std::vector<char> processed = initial;

  const auto intersect = [&](std::size_t a, std::size_t b) {
    // Walk both fingers up to the common dominator; kNone (the root)
    // absorbs everything.
    while (a != b) {
      if (a == kNone || b == kNone) return kNone;
      while (a != kNone && b != kNone && rpoIndex[a] > rpoIndex[b]) {
        a = idom[a];
      }
      if (a == b) break;
      while (a != kNone && b != kNone && rpoIndex[b] > rpoIndex[a]) {
        b = idom[b];
      }
    }
    return a == b ? a : kNone;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // order[] is post-order; iterating it back to front is RPO.
    for (std::size_t i = order.size(); i-- > 0;) {
      const std::size_t v = order[i];
      if (initial[v]) continue;  // initials: dominated by the root
      std::size_t best = kNone;
      bool first = true;
      for (const std::size_t p : preds[v]) {
        if (!processed[p]) continue;
        best = first ? p : intersect(best, p);
        first = false;
      }
      if (first) continue;  // no processed predecessor yet
      processed[v] = 1;
      if (idom[v] != best) {
        idom[v] = best;
        changed = true;
      }
    }
  }
  return idom;
}

/// The must-pass chain to `target`: its proper dominators, initial-most
/// first. Capped at `maxLen`.
std::vector<std::size_t> mustPassChain(const std::vector<std::size_t>& idom,
                                       std::size_t target,
                                       std::size_t maxLen) {
  std::vector<std::size_t> chain;
  for (std::size_t d = idom[target]; d != kNone; d = idom[d]) {
    chain.push_back(d);
    if (chain.size() >= maxLen) break;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

// ---- Tarjan SCCs -----------------------------------------------------------

/// Iterative Tarjan over the product graph. Returns the component id per
/// state and the component count.
std::vector<std::size_t> stronglyConnected(const FlatProduct& g,
                                           std::size_t& componentCount) {
  const std::size_t n = g.stateCount();
  std::vector<std::size_t> comp(n, kNone), low(n, 0), index(n, kNone);
  std::vector<std::size_t> stack;
  std::vector<char> onStack(n, 0);
  std::size_t next = 0;
  componentCount = 0;

  struct Frame {
    StateId v;
    std::uint32_t cursor;  // edges of v visited so far
  };
  for (StateId root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    std::vector<Frame> frames{{root, 0}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = f.v;
      if (f.cursor == 0) {
        index[v] = low[v] = next++;
        stack.push_back(v);
        onStack[v] = 1;
      }
      if (g.edgeBegin(v) + f.cursor < g.edgeEnd(v)) {
        const StateId w = g.edgeTarget(g.edgeBegin(v) + f.cursor++);
        if (index[w] == kNone) {
          frames.push_back({w, 0});
        } else if (onStack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        if (low[v] == index[v]) {
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            onStack[w] = 0;
            comp[w] = componentCount;
            if (w == v) break;
          }
          ++componentCount;
        }
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  return comp;
}

// ---- Integration analysis (MUI101/MUI102 substrate) ------------------------

struct IntegrationAnalysis {
  Parts parts;  // what `graph` reads
  FlatProduct graph;
  SafetyFragment fragment;
  PresolveOutcome outcome;
  /// Refutation witness: violating/deadlocked state and the length of the
  /// shortest run to it, and the violated AG conjunct (null for a deadlock
  /// or initial-state violation).
  StateId witness = 0;
  std::size_t witnessDepth = 0;
  ctl::FormulaPtr violated;
  bool witnessIsDeadlock = false;
};

IntegrationAnalysis analyzeIntegration(const Automaton& context,
                                       const Automaton& hidden,
                                       const std::string& property,
                                       const SemanticOptions& opts) {
  IntegrationAnalysis a;
  auto& out = a.outcome;

  if (context.signalTable() != hidden.signalTable() ||
      context.propTable() != hidden.propTable()) {
    out.explanation = "context and stub do not share signal tables";
    return a;
  }
  if (!context.composableWith(hidden)) {
    out.explanation = "context and stub are not composable";
    return a;
  }
  a.fragment = splitSafety(property);
  if (!a.fragment.parsed) {
    out.explanation = "property does not parse";
    return a;
  }
  // Even with no supported conjunct the product is worth composing: a
  // reachable deadlock refutes φ ∧ ¬δ outright.
  a.graph = composeCapped({&context, &hidden}, opts.stateCap, a.parts);
  const FlatProduct& g = a.graph;
  out.productStates = g.stateCount();
  ctl::Checker checker(g);
  // Refutes at the end of the shortest run to a state of `bad`, if any.
  const auto refute = [&](const ctl::SatSet& bad) {
    const std::optional<automata::Run> run = shortestRunTo(g, bad);
    if (!run) return false;
    a.witness = run->states.back();
    a.witnessDepth = run->labels.size();
    out.verdict = PresolveVerdict::Refuted;
    out.ruleId = kGuaranteedViolation;
    return true;
  };

  // Refutation 1: a reachable state violating a supported AG conjunct.
  // Sound even when capped or when other conjuncts are unsupported — one
  // failing conjunct fails the conjunction. Deadlock-mentioning bodies are
  // only evaluated when the cap did not cut the product (edges are exact).
  for (const ctl::FormulaPtr& ag : a.fragment.agConjuncts) {
    if (g.capped() && mentionsDeadlock(ag->lhs.get())) continue;
    ctl::SatSet bad = checker.evaluate(ag->lhs);
    bad.flip();
    if (refute(bad)) {
      a.violated = ag;
      out.explanation = "presolved: real error - reachable state '" +
                        g.stateName(a.witness) + "' (depth " +
                        std::to_string(a.witnessDepth) + ") violates '" +
                        ag->toString() + "'";
      return a;
    }
  }

  // Refutation 2: a top-level propositional conjunct failing at an initial
  // state.
  for (const ctl::FormulaPtr& now : a.fragment.nowConjuncts) {
    if (g.capped() && mentionsDeadlock(now.get())) continue;
    const ctl::SatSet sat = checker.evaluate(now);
    ctl::SatSet bad(g.stateCount());
    for (const StateId n : g.initialStates()) {
      if (!sat[n]) bad.set(n);
    }
    if (refute(bad)) {
      out.explanation = "presolved: real error - initial state '" +
                        g.stateName(a.witness) + "' violates '" +
                        now->toString() + "'";
      return a;
    }
  }

  // Refutation 3: a reachable deadlock (¬δ is part of every integration
  // check). Only trustworthy on a product the cap did not cut.
  if (!g.capped() && refute(ctl::deadlockStates(g))) {
    a.witnessIsDeadlock = true;
    out.explanation = "presolved: real error - reachable deadlock state '" +
                      g.stateName(a.witness) + "' (depth " +
                      std::to_string(a.witnessDepth) + ")";
    return a;
  }

  // Proof: every conjunct supported, none violated, no deadlock, product
  // complete.
  if (a.fragment.complete && !g.capped()) {
    out.verdict = PresolveVerdict::Proved;
    out.ruleId = kStaticallyProven;
    out.explanation =
        "presolved: proven - " +
        std::string(property.empty()
                        ? "deadlock freedom holds"
                        : "AG-safety property and deadlock freedom hold") +
        " on all " + std::to_string(g.stateCount()) +
        " reachable product states";
    return a;
  }

  out.explanation = g.capped()
                        ? "state cap (" + std::to_string(opts.stateCap) +
                              ") exceeded before a definitive verdict"
                        : "property outside the AG-safety fragment";
  return a;
}

// ---- Model-level analyzer --------------------------------------------------

class SemanticAnalyzer {
 public:
  SemanticAnalyzer(const muml::Model& model, const RuleSet& rules,
                   const SemanticOptions& opts)
      : model_(model), rules_(rules), opts_(opts) {}

  Report run() {
    for (const auto& [name, pattern] : model_.patterns) {
      analyzePattern(pattern);
    }
    return std::move(report_);
  }

 private:
  void emit(const char* ruleId, const std::string& subject,
            const std::string& message, const util::SourceLoc& loc,
            std::vector<RelatedNote> related = {}) {
    if (!rules_.enabled(ruleId)) return;
    if (model_.source.allows(subject, ruleId)) {
      ++report_.suppressed;
      return;
    }
    const RuleInfo* info = findRule(ruleId);
    Diagnostic d{ruleId, info ? info->defaultSeverity : Severity::Warning,
                 subject, message, loc, std::move(related)};
    report_.diagnostics.push_back(std::move(d));
  }

  [[nodiscard]] util::SourceLoc locOf(
      const std::map<std::string, util::SourceLoc>& table,
      const std::string& key) const {
    const auto it = table.find(key);
    return it == table.end() ? util::SourceLoc{} : it->second;
  }

  void analyzePattern(const muml::CoordinationPattern& p) {
    const util::SourceLoc loc = locOf(model_.source.patterns, p.name);

    // Compile the parts exactly as verification would; ill-formed patterns
    // are the syntactic tier's business.
    std::vector<Automaton> parts;
    std::vector<std::string> partNames;
    std::vector<char> partIsRole;
    try {
      for (const auto& role : p.roles) {
        parts.push_back(
            role.behavior.compile(model_.signals, model_.props, role.name));
        partNames.push_back("role '" + role.name + "'");
        partIsRole.push_back(1);
      }
      if (p.connector.kind == muml::ConnectorSpec::Kind::Channel) {
        parts.push_back(muml::makeChannel(model_.signals, model_.props,
                                          p.connector.channel));
        partNames.push_back("channel connector");
        partIsRole.push_back(0);
      }
    } catch (const std::exception&) {
      return;
    }

    checkPatternProduct(p, parts, partNames, partIsRole, loc);

    for (std::size_t r = 0; r < p.roles.size(); ++r) {
      analyzeRoleCandidates(p, r);
    }
  }

  /// MUI103 + MUI104 over the full role composition, unless it has more
  /// states than the cap.
  void checkPatternProduct(const muml::CoordinationPattern& p,
                           const std::vector<Automaton>& parts,
                           const std::vector<std::string>& partNames,
                           const std::vector<char>& partIsRole,
                           const util::SourceLoc& loc) {
    std::vector<const Automaton*> ptrs;
    ptrs.reserve(parts.size());
    for (const auto& part : parts) ptrs.push_back(&part);
    Parts components;
    FlatProduct prod;
    try {
      prod = composeCapped(ptrs, opts_.stateCap, components);
    } catch (const std::exception&) {
      return;  // not composable: MUI004 reports the cause
    }
    if (prod.capped()) return;

    reportLivelocks(p.name, "pattern '" + p.name + "'", loc, prod);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      if (!partIsRole[k]) continue;
      reportDeadTransitions(p.name,
                            "pattern '" + p.name + "': " + partNames[k],
                            "role composition", loc, prod, k);
    }
  }

  /// MUI103 over a product: reachable non-trivial SCCs whose internal steps
  /// exchange no signals and which cannot be left.
  void reportLivelocks(const std::string& subject, const std::string& where,
                       const util::SourceLoc& loc, const FlatProduct& g) {
    const std::size_t stateCount = g.stateCount();
    std::size_t componentCount = 0;
    const std::vector<std::size_t> comp = stronglyConnected(g, componentCount);

    std::vector<std::size_t> compSize(componentCount, 0);
    std::vector<char> nontrivial(componentCount, 0), exits(componentCount, 0),
        loud(componentCount, 0);
    for (std::size_t s = 0; s < stateCount; ++s) ++compSize[comp[s]];
    for (StateId s = 0; s < stateCount; ++s) {
      for (std::uint32_t e = g.edgeBegin(s); e < g.edgeEnd(s); ++e) {
        if (comp[g.edgeTarget(e)] != comp[s]) {
          exits[comp[s]] = 1;
        } else {
          nontrivial[comp[s]] = 1;  // an internal edge: cycle exists
          if (!silent(g, e)) loud[comp[s]] = 1;
        }
      }
    }
    for (std::size_t c = 0; c < componentCount; ++c) {
      if (!nontrivial[c] || exits[c] || loud[c]) continue;
      std::vector<RelatedNote> related;
      std::string members;
      std::size_t listed = 0;
      for (StateId s = 0; s < stateCount && listed < opts_.maxRelated; ++s) {
        if (comp[s] != c) continue;
        related.push_back({"cycle member '" + g.stateName(s) + "'", {}});
        if (!members.empty()) members += ", ";
        members += "'" + g.stateName(s) + "'";
        ++listed;
      }
      emit(kLivelockScc, subject,
           where + ": " + std::to_string(compSize[c]) +
               "-state cycle through " + members +
               (compSize[c] > listed ? " (and more)" : "") +
               " exchanges no signals and has no exit; the composition can "
               "diverge here",
           loc, std::move(related));
    }
  }

  /// MUI104 on component k of a product: a transition of k whose source
  /// state the product visits but which no product edge fires. An edge
  /// fires the transitions of k that lead from k's state at the edge's
  /// source to k's state at its target under the edge's label projected
  /// onto k.
  void reportDeadTransitions(const std::string& subject,
                             const std::string& head,
                             const char* composition,
                             const util::SourceLoc& loc, const FlatProduct& g,
                             std::size_t k) {
    const Automaton& a = g.component(k).base();
    std::vector<char> visited(a.stateCount(), 0);
    std::vector<std::vector<char>> fired(a.stateCount());
    for (StateId s = 0; s < a.stateCount(); ++s) {
      fired[s].assign(a.transitionsFrom(s).size(), 0);
    }
    for (StateId p = 0; p < g.stateCount(); ++p) {
      const StateId from = g.origin(p, k);
      visited[from] = 1;
      const auto& ts = a.transitionsFrom(from);
      for (std::uint32_t e = g.edgeBegin(p); e < g.edgeEnd(p); ++e) {
        const StateId to = g.origin(g.edgeTarget(e), k);
        const Interaction x = g.projectInteraction(g.edgeLabel(e), k);
        for (std::size_t j = 0; j < ts.size(); ++j) {
          if (ts[j].to == to && ts[j].label == x) fired[from][j] = 1;
        }
      }
    }
    for (StateId s = 0; s < a.stateCount(); ++s) {
      if (!visited[s]) continue;  // MUI001-style causes, not dead syncs
      const auto& ts = a.transitionsFrom(s);
      for (std::size_t j = 0; j < ts.size(); ++j) {
        if (fired[s][j]) continue;
        emit(kDeadTransition, subject,
             head + " transition '" + a.stateName(s) + " -" +
                 a.interactionToString(ts[j].label) + "-> " +
                 a.stateName(ts[j].to) +
                 "' fires in no reachable step of the " + composition,
             loc);
      }
    }
  }

  /// Integration-level rules for every model automaton that can stand in as
  /// `role` of `p`: MUI105 (flow coverage), MUI101/MUI102 (verdict
  /// pre-solving), MUI103/MUI104 on the context ‖ candidate product.
  void analyzeRoleCandidates(const muml::CoordinationPattern& p,
                             std::size_t roleIdx) {
    std::optional<muml::IntegrationScenario> scenario;
    try {
      scenario = muml::makeIntegrationScenario(p, roleIdx, model_.signals,
                                               model_.props);
    } catch (const std::exception&) {
      return;
    }
    const std::string& roleName = p.roles[roleIdx].name;
    const Automaton& context = scenario->context;

    // Flow-sensitive context signal usage (the context automaton contains
    // exactly the reachable composed states).
    SignalSet ctxEmits, ctxConsumes;
    for (StateId s = 0; s < context.stateCount(); ++s) {
      for (const auto& t : context.transitionsFrom(s)) {
        ctxEmits |= t.label.out;
        ctxConsumes |= t.label.in;
      }
    }

    for (const auto& [candName, cand] : model_.automata) {
      Automaton stub(model_.signals, model_.props);
      try {
        stub = automata::withInstanceName(cand, roleName);
      } catch (const std::exception&) {
        continue;
      }
      if (!context.composableWith(stub)) continue;
      const util::SourceLoc candLoc = locOf(model_.source.automata, candName);
      const std::string where = "automaton '" + candName + "' as role '" +
                                roleName + "' of pattern '" + p.name + "'";

      checkInterfaceCoverage(candName, where, candLoc, context, stub,
                             ctxEmits, ctxConsumes);

      const IntegrationAnalysis a =
          analyzeIntegration(context, stub, scenario->property, opts_);
      if (a.outcome.verdict == PresolveVerdict::Proved) {
        emitProof(candName, where, candLoc, a, scenario->property);
      } else if (a.outcome.verdict == PresolveVerdict::Refuted) {
        emitRefutation(candName, where, candLoc, a, context, stub);
      }

      if (!a.graph.capped() && a.graph.stateCount() > 0) {
        reportLivelocks(candName, where, candLoc, a.graph);
        reportDeadTransitions(candName, where + ":", "composition", candLoc,
                              a.graph, 1);
      }
    }
  }

  void checkInterfaceCoverage(const std::string& subject,
                              const std::string& where,
                              const util::SourceLoc& loc,
                              const Automaton& context, const Automaton& stub,
                              const SignalSet& ctxEmits,
                              const SignalSet& ctxConsumes) {
    const std::vector<bool> reach = stub.reachableStates();
    SignalSet stubTriggers, stubEmits;
    for (StateId s = 0; s < stub.stateCount(); ++s) {
      if (!reach[s]) continue;
      for (const auto& t : stub.transitionsFrom(s)) {
        stubTriggers |= t.label.in;
        stubEmits |= t.label.out;
      }
    }
    // Beyond MUI004 (declared-name matching): restrict to signals the
    // context *declares* but never actually moves on a reachable transition.
    ((stubTriggers & context.outputs()) - ctxEmits).forEach([&](std::size_t b) {
      emit(kInterfaceGap, subject,
           where + ": stub transitions trigger on '" + signalName(b) +
               "' but no reachable context transition emits it; those "
               "transitions are flow-dead in every product",
           loc);
    });
    ((stubEmits & context.inputs()) - ctxConsumes).forEach([&](std::size_t b) {
      emit(kInterfaceGap, subject,
           where + ": stub emits '" + signalName(b) +
               "' but no reachable context transition consumes it; the send "
               "can never synchronize",
           loc);
    });
  }

  [[nodiscard]] std::string signalName(std::size_t bit) const {
    return model_.signals->name(static_cast<util::NameId>(bit));
  }

  void emitProof(const std::string& subject, const std::string& where,
                 const util::SourceLoc& loc, const IntegrationAnalysis& a,
                 const std::string& property) {
    std::vector<RelatedNote> related;
    for (const ctl::FormulaPtr& ag : a.fragment.agConjuncts) {
      if (related.size() >= opts_.maxRelated) break;
      related.push_back({"conjunct '" + ag->toString() + "': no reachable " +
                             "state among " +
                             std::to_string(a.graph.stateCount()) +
                             " can violate it",
                         {}});
    }
    related.push_back({"no reachable deadlock state", {}});
    emit(kStaticallyProven, subject,
         where + ": " +
             (property.empty() ? std::string("deadlock freedom holds")
                               : "the AG-safety property and deadlock "
                                 "freedom hold") +
             " on all " + std::to_string(a.graph.stateCount()) +
             " reachable product states; the engine pre-solves this "
             "integration to proven",
         loc, std::move(related));
  }

  void emitRefutation(const std::string& subject, const std::string& where,
                      const util::SourceLoc& loc, const IntegrationAnalysis& a,
                      const Automaton& context, const Automaton& stub) {
    std::vector<RelatedNote> related;
    // Dominator-style must-pass chain: the states every counterexample
    // must traverse to reach the witness.
    const std::vector<std::size_t> idom = immediateDominators(a.graph);
    for (const std::size_t d :
         mustPassChain(idom, a.witness, opts_.maxRelated)) {
      related.push_back({"every path to the violation passes through '" +
                             a.graph.stateName(d) + "'",
                         {}});
    }
    related.push_back(
        {a.witnessIsDeadlock
             ? "witness '" + a.graph.stateName(a.witness) + "' deadlocks"
             : "witness '" + a.graph.stateName(a.witness) + "' violates '" +
                   (a.violated ? a.violated->toString()
                               : std::string("an initial-state conjunct")) +
                   "'",
         {}});
    related.push_back({chaosNote(context, stub), {}});
    emit(kGuaranteedViolation, subject,
         where + ": " +
             (a.witnessIsDeadlock
                  ? "a deadlock is reachable"
                  : "a property violation is reachable") +
             " at depth " + std::to_string(a.witnessDepth) +
             "; the engine pre-solves this integration to real-error",
         loc, std::move(related));
  }

  /// Iteration-0 chaos diagnosis: does the chaotic closure of the empty
  /// behavioral model (interface + initial state only, Lemma 4) already
  /// reach chaos when composed with the context? If so the pessimistic
  /// product cannot prove anything before learning. The copy-1 closure
  /// answers for Def. 9's: chaos is entered from (s, 1) copies only, so
  /// both products reach s_all first, at the same depth.
  [[nodiscard]] std::string chaosNote(const Automaton& context,
                                      const Automaton& stub) const {
    try {
      automata::IncompleteAutomaton m0(model_.signals, model_.props,
                                       stub.name());
      m0.declareSignals(stub.inputs(), stub.outputs());
      for (const StateId s0 : stub.initialStates()) {
        const StateId s = m0.ensureState(stub.stateName(s0));
        m0.markInitial(s);
        m0.labelWithStateName(s);
      }
      const std::size_t stride = automata::strideFor({&context, &m0.base()});
      const automata::AutomatonComponent ctx(context, stride);
      const automata::VirtualClosure closure(
          m0,
          automata::makeAlphabet(stub.inputs(), stub.outputs(),
                                 automata::InteractionMode::AtMostOneSignal),
          automata::ClosureStyle::DeterministicTarget, stride);
      const FlatProduct g =
          automata::composeFlat({&ctx, &closure}, opts_.stateCap);
      ctl::SatSet chaos(g.stateCount());
      for (StateId n = 0; n < g.stateCount(); ++n) {
        if (closure.isChaos(g.origin(n, 1))) chaos.set(n);
      }
      if (const auto run = shortestRunTo(g, chaos)) {
        return "the iteration-0 chaotic closure reaches chaos ('" +
               closure.stateName(g.origin(run->states.back(), 1)) +
               "') at depth " + std::to_string(run->labels.size()) +
               "; the refinement loop must learn before concluding on its "
               "own";
      }
      return g.capped() ? "iteration-0 chaos reachability not decided (cap)"
                        : "the iteration-0 chaotic closure never reaches "
                          "chaos: the pessimistic product alone decides this "
                          "integration";
    } catch (const std::exception& e) {
      return std::string("iteration-0 chaos analysis unavailable: ") +
             e.what();
    }
  }

  const muml::Model& model_;
  const RuleSet& rules_;
  const SemanticOptions& opts_;
  Report report_;
};

}  // namespace

const char* presolveVerdictName(PresolveVerdict v) {
  switch (v) {
    case PresolveVerdict::Proved:
      return "proved";
    case PresolveVerdict::Refuted:
      return "refuted";
    case PresolveVerdict::Skipped:
      return "skipped";
  }
  return "skipped";
}

PresolveOutcome presolveIntegration(const automata::Automaton& context,
                                    const automata::Automaton& hidden,
                                    const std::string& property,
                                    const SemanticOptions& opts) {
  try {
    return analyzeIntegration(context, hidden, property, opts).outcome;
  } catch (const std::exception& e) {
    PresolveOutcome out;
    out.explanation = std::string("presolve error: ") + e.what();
    return out;
  } catch (...) {
    PresolveOutcome out;
    out.explanation = "presolve error: unknown exception";
    return out;
  }
}

Report runSemantic(const muml::Model& model, const RuleSet& rules,
                   const SemanticOptions& opts) {
  return SemanticAnalyzer(model, rules, opts).run();
}

}  // namespace mui::analysis

#include "ctl/counterexample.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "obs/trace.hpp"

namespace mui::ctl {

using automata::Automaton;
using automata::DoubledProduct;
using automata::FlatProduct;
using automata::Run;

namespace {

/// The run from a root to nodes[idx]; `Node` has s, parent and edge.
template <typename Node>
Run buildRun(const FlatProduct& m, const std::vector<Node>& nodes,
             std::size_t idx) {
  Run run;
  std::size_t i = idx;
  while (nodes[i].parent != i) {
    run.states.push_back(nodes[i].s);
    run.labels.push_back(m.edgeLabel(nodes[i].edge));
    i = nodes[i].parent;
  }
  run.states.push_back(nodes[i].s);
  std::reverse(run.states.begin(), run.states.end());
  std::reverse(run.labels.begin(), run.labels.end());
  return run;
}

/// A path the search found: its nodes from a root, and the edge taken
/// into each node after the first.
template <typename Node>
struct Path {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> edges;
};

/// The search loop of searchPaths and of the doubled view's deadlock
/// search. From the initial nodes, in order, it takes nodes breadth-first
/// (Shortest) or last-in-first-out (DepthFirst), marks each node when it is
/// first reached, and follows each taken node's successors in order; it
/// returns the paths to the first k target nodes taken. `G` provides
///   Node; nodeCount(); index(Node) < nodeCount(), distinct per node;
///   initialNodes(); isTarget(Node); forEachSuccessor(Node, f), calling
///   f(Node, edge), which follows isTarget for the same node.
template <typename G>
std::vector<Path<typename G::Node>> searchGraph(const G& g, std::size_t k,
                                                CexSearch order) {
  using Node = typename G::Node;
  struct Entry {
    Node node;
    std::size_t parent;  // self-index for roots
    std::uint32_t edge;  // edge from parent (labels are built for runs only)
  };
  std::vector<Entry> nodes;
  std::vector<char> visited(g.nodeCount(), 0);
  std::deque<std::size_t> work;
  std::vector<Path<Node>> out;

  const auto visit = [&](Node n, std::size_t parent, std::uint32_t via,
                         bool root) {
    char& seen = visited[g.index(n)];
    if (seen) return;
    seen = 1;
    const std::size_t idx = nodes.size();
    nodes.push_back({n, root ? idx : parent, via});
    work.push_back(idx);
  };

  for (const Node n : g.initialNodes()) visit(n, 0, 0, true);

  while (!work.empty() && out.size() < k) {
    std::size_t idx;
    if (order == CexSearch::Shortest) {
      idx = work.front();
      work.pop_front();
    } else {
      idx = work.back();
      work.pop_back();
    }
    const Node n = nodes[idx].node;
    if (g.isTarget(n)) {
      Path<Node>& path = out.emplace_back();
      for (std::size_t i = idx;; i = nodes[i].parent) {
        path.nodes.push_back(nodes[i].node);
        if (nodes[i].parent == i) break;
        path.edges.push_back(nodes[i].edge);
      }
      std::reverse(path.nodes.begin(), path.nodes.end());
      std::reverse(path.edges.begin(), path.edges.end());
      if (out.size() >= k) break;
    }
    g.forEachSuccessor(n, [&](Node to, std::uint32_t e) {
      visit(to, idx, e, false);
    });
  }
  return out;
}

/// A flat product's states toward a target set, for searchGraph.
struct ProductGraph {
  using Node = StateId;
  const FlatProduct& m;
  const SatSet& target;

  [[nodiscard]] std::size_t nodeCount() const { return m.stateCount(); }
  [[nodiscard]] std::size_t index(StateId s) const { return s; }
  [[nodiscard]] const std::vector<StateId>& initialNodes() const {
    return m.initialStates();
  }
  [[nodiscard]] bool isTarget(StateId s) const { return target[s]; }
  template <typename F>
  void forEachSuccessor(StateId s, F&& f) const {
    for (std::uint32_t e = m.edgeBegin(s); e < m.edgeEnd(s); ++e) {
      f(m.edgeTarget(e), e);
    }
  }
};

/// The doubled view toward its deadlocked nodes, for searchGraph. A node
/// is deadlocked when it has no successors, so isTarget lists them, and
/// forEachSuccessor, which searchGraph calls next for the same node, reads
/// that list.
struct DoubledGraph {
  using Node = DoubledProduct::Node;
  const DoubledProduct& v;
  mutable std::vector<DoubledProduct::Step> steps;

  [[nodiscard]] std::size_t nodeCount() const { return v.slotCount(); }
  [[nodiscard]] std::size_t index(Node n) const { return v.index(n); }
  [[nodiscard]] std::vector<Node> initialNodes() const {
    return v.initialNodes();
  }
  [[nodiscard]] bool isTarget(Node n) const {
    v.successors(n, steps);
    return steps.empty();
  }
  template <typename F>
  void forEachSuccessor(Node, F&& f) const {
    for (const auto& [to, e] : steps) f(to, e);
  }
};

/// Depth-window search for windowed AG violations: runs of length in
/// [lo, hi] ending in a target state. Nodes are keyed on (state, depth);
/// for hi = ∞ every depth ≥ lo shares the key lo, so a target-free cycle
/// is walked once instead of forever. With k = 1 and Shortest that prunes
/// nothing the search could need: the first target found has minimal
/// depth, and no path to it passes a pruned duplicate.
std::vector<Run> searchPathsInWindow(const FlatProduct& m,
                                     const SatSet& target, std::size_t lo,
                                     std::size_t hi, std::size_t k,
                                     CexSearch order) {
  struct DepthNode {
    StateId s;
    std::size_t depth;
    std::size_t parent;
    std::uint32_t edge;
  };
  std::vector<DepthNode> nodes;
  std::unordered_set<std::uint64_t> visited;
  std::deque<std::size_t> work;
  std::vector<Run> out;

  const auto key = [](StateId s, std::size_t d) {
    return (static_cast<std::uint64_t>(d) << 32) | s;
  };
  const auto visit = [&](StateId s, std::size_t depth, std::size_t parent,
                         std::uint32_t via, bool root) {
    if (hi == Bound::kInf) depth = std::min(depth, lo);
    if (depth > hi || !visited.insert(key(s, depth)).second) return;
    const std::size_t idx = nodes.size();
    nodes.push_back({s, depth, root ? idx : parent, via});
    work.push_back(idx);
  };

  for (StateId q : m.initialStates()) visit(q, 0, 0, 0, true);

  while (!work.empty() && out.size() < k) {
    std::size_t idx;
    if (order == CexSearch::Shortest) {
      idx = work.front();
      work.pop_front();
    } else {
      idx = work.back();
      work.pop_back();
    }
    const StateId s = nodes[idx].s;
    const std::size_t depth = nodes[idx].depth;
    if (depth >= lo && target[s]) {
      out.push_back(buildRun(m, nodes, idx));
      continue;
    }
    for (std::uint32_t e = m.edgeBegin(s); e < m.edgeEnd(s); ++e) {
      visit(m.edgeTarget(e), depth + 1, idx, e, false);
    }
  }
  return out;
}

/// Appends to `run` a suffix from its final state witnessing ¬AF[a,b]χ for
/// afNode = AF[a,b]χ: a maximal-path prefix along which χ never holds
/// inside the window. Each step takes the first edge, in insertion order,
/// whose target violates the AF seen from the next position. Returns false
/// if the invariant (final state violates the AF) does not hold.
bool appendNotAFWitness(Checker& checker, const FlatProduct& m, Run& run,
                        const FormulaPtr& afNode) {
  const Bound bound = afNode->bound;
  const AFPositions af = checker.afPositions(afNode);
  StateId cur = run.states.back();
  std::size_t i = 0;
  std::unordered_set<StateId> seenSinceLo;
  while (true) {
    if (bound.bounded() && i >= bound.hi) return true;  // window exhausted
    if (m.edgeBegin(cur) == m.edgeEnd(cur)) return true;  // died without χ
    if (i >= bound.lo && !bound.bounded()) {
      // Unbounded tail: stop at a lasso (state revisited after lo).
      if (!seenSinceLo.insert(cur).second) return true;
    }
    bool advanced = false;
    for (std::uint32_t e = m.edgeBegin(cur); e < m.edgeEnd(cur); ++e) {
      if (!af.holds(m.edgeTarget(e), i + 1)) {
        run.labels.push_back(m.edgeLabel(e));
        run.states.push_back(m.edgeTarget(e));
        cur = m.edgeTarget(e);
        advanced = true;
        break;
      }
    }
    if (!advanced) return false;  // should not happen if cur violates AF
    ++i;
  }
}

/// Flattens an Or-chain into its arms.
void orArms(const FormulaPtr& f, std::vector<FormulaPtr>& arms) {
  if (f->op == Op::Or) {
    orArms(f->lhs, arms);
    orArms(f->rhs, arms);
  } else {
    arms.push_back(f);
  }
}

/// Extends `run` (ending in a state violating ψ) with a suffix making the
/// violation observable. Returns whether the resulting path is exact.
bool extendWitness(Checker& checker, const FlatProduct& m, Run& run,
                   const FormulaPtr& psi, const SatSet& psiSat) {
  const StateId s = run.states.back();
  if (isPropositional(psi)) return true;
  switch (psi->op) {
    case Op::And: {
      const auto l = checker.evaluate(psi->lhs);
      if (!l[s]) return extendWitness(checker, m, run, psi->lhs, l);
      const auto r = checker.evaluate(psi->rhs);
      return extendWitness(checker, m, run, psi->rhs, r);
    }
    case Op::Or: {
      // Every arm is false at s. Propositional arms are witnessed by the
      // state itself; a single temporal AF arm gets a path suffix. Multiple
      // temporal arms would need a joint witness — approximate then.
      std::vector<FormulaPtr> arms;
      orArms(psi, arms);
      const FormulaPtr* temporal = nullptr;
      for (const auto& arm : arms) {
        if (isPropositional(arm)) continue;
        if (arm->op == Op::AF && temporal == nullptr) {
          temporal = &arm;
        } else {
          return false;
        }
      }
      if (temporal == nullptr) return true;
      return appendNotAFWitness(checker, m, run, *temporal);
    }
    case Op::Implies: {
      // ¬(a → b): a holds here, b fails — extend along b's failure.
      const auto r = checker.evaluate(psi->rhs);
      return extendWitness(checker, m, run, psi->rhs, r);
    }
    case Op::AF:
      return appendNotAFWitness(checker, m, run, psi);
    default:
      (void)psiSat;
      return false;  // approximate witness
  }
}

void collectPropertyCexs(Checker& checker, const FlatProduct& m,
                         const FormulaPtr& phi, const VerifyOptions& opts,
                         std::vector<Counterexample>& out) {
  if (out.size() >= opts.maxCounterexamples) return;
  const auto sat = checker.evaluate(phi);
  bool fails = false;
  StateId badInitial = 0;
  for (StateId q : m.initialStates()) {
    if (!sat[q]) {
      fails = true;
      badInitial = q;
      break;
    }
  }
  if (!fails) return;

  const std::size_t want = opts.maxCounterexamples - out.size();

  switch (phi->op) {
    case Op::And: {
      collectPropertyCexs(checker, m, phi->lhs, opts, out);
      collectPropertyCexs(checker, m, phi->rhs, opts, out);
      if (!out.empty()) return;
      break;  // conjunction fails only jointly — fall through to approximate
    }
    case Op::AG: {
      const auto inner = checker.evaluate(phi->lhs);
      SatSet bad = inner;
      bad.flip();
      const bool windowed = phi->bound.lo > 0 || phi->bound.bounded();
      auto runs = windowed
                      ? searchPathsInWindow(m, bad, phi->bound.lo,
                                            phi->bound.bounded()
                                                ? phi->bound.hi
                                                : Bound::kInf,
                                            want, opts.search)
                      : searchPaths(m, bad, want, opts.search);
      for (auto& run : runs) {
        Counterexample cex;
        cex.kind = Counterexample::Kind::Property;
        cex.run = std::move(run);
        cex.pathExact =
            extendWitness(checker, m, cex.run, phi->lhs, inner);
        cex.note = "violates " + phi->toString();
        out.push_back(std::move(cex));
        if (out.size() >= opts.maxCounterexamples) return;
      }
      if (!out.empty()) return;
      break;
    }
    case Op::AF: {
      Counterexample cex;
      cex.kind = Counterexample::Kind::Property;
      cex.run.states.push_back(badInitial);
      cex.pathExact = appendNotAFWitness(checker, m, cex.run, phi);
      cex.note = "violates " + phi->toString();
      out.push_back(std::move(cex));
      return;
    }
    case Op::Atom:
    case Op::Deadlock:
    case Op::Not:
    case Op::Or:
    case Op::Implies:
    case Op::True:
    case Op::False: {
      Counterexample cex;
      cex.kind = Counterexample::Kind::Property;
      cex.run.states.push_back(badInitial);
      cex.pathExact = true;  // the initial state itself is the witness
      cex.note = "initial state violates " + phi->toString();
      out.push_back(std::move(cex));
      return;
    }
    default:
      break;
  }

  // Fallback: approximate witness at a violating initial state.
  Counterexample cex;
  cex.kind = Counterexample::Kind::Property;
  cex.run.states.push_back(badInitial);
  cex.pathExact = false;
  cex.note = "approximate witness for " + phi->toString();
  out.push_back(std::move(cex));
}

}  // namespace

std::vector<Run> searchPaths(const FlatProduct& m, const SatSet& target,
                             std::size_t k, CexSearch order) {
  std::vector<Run> out;
  for (auto& path : searchGraph(ProductGraph{m, target}, k, order)) {
    Run& run = out.emplace_back();
    run.states = std::move(path.nodes);
    for (const std::uint32_t e : path.edges) {
      run.labels.push_back(m.edgeLabel(e));
    }
  }
  return out;
}

VerifyResult verify(const Automaton& m, const FormulaPtr& phi,
                    const VerifyOptions& opts) {
  return verify(FlatProduct::of(m), phi, opts);
}

VerifyResult verify(const FlatProduct& m, const FormulaPtr& phi,
                    const VerifyOptions& opts) {
  return verify(m, nullptr, phi, opts);
}

VerifyResult verify(const FlatProduct& m, const RegionMemo* memo,
                    const FormulaPtr& phi, const VerifyOptions& opts) {
  const obs::ObsSpan span("verify", opts.traceId);
  VerifyResult result;
  result.stateCount = m.fullStateCount();
  auto& cexs = result.counterexamples;

  if (phi != nullptr) {
    std::optional<Checker> checker;
    if (memo != nullptr) {
      checker.emplace(m, *memo);
    } else {
      checker.emplace(m);
    }
    if (!checker->holds(phi)) {
      collectPropertyCexs(*checker, m, phi, opts, cexs);
    }
    result.unknownAtoms = checker->unknownAtoms();
  }

  // Deadlock freedom needs no checker: the deadlock set is read off the
  // empty edge ranges.
  if (opts.requireDeadlockFree && cexs.size() < opts.maxCounterexamples) {
    const SatSet dead = deadlockStates(m);
    if (dead.any()) {
      auto runs = searchPaths(m, dead, opts.maxCounterexamples - cexs.size(),
                              opts.search);
      for (auto& run : runs) {
        Counterexample cex;
        cex.kind = Counterexample::Kind::Deadlock;
        cex.run = std::move(run);
        cex.pathExact = true;
        cex.note = "reachable deadlock state '" +
                   m.stateName(cex.run.states.back()) + "'";
        cexs.push_back(std::move(cex));
      }
    }
  }

  result.holds = cexs.empty();
  return result;
}

VerifyResult verifyDeadlockFree(const DoubledProduct& v,
                                const VerifyOptions& opts) {
  const obs::ObsSpan span("verify", opts.traceId);
  VerifyResult result;
  result.stateCount = v.stateCount();
  if (v.anyDeadlock()) {
    for (const auto& path : searchGraph(DoubledGraph{v, {}},
                                        opts.maxCounterexamples,
                                        opts.search)) {
      Counterexample cex;
      cex.kind = Counterexample::Kind::Deadlock;
      for (const DoubledProduct::Node n : path.nodes) {
        cex.run.states.push_back(n.state);
        cex.copies.push_back(n.copies);
      }
      for (const std::uint32_t e : path.edges) {
        cex.run.labels.push_back(v.product().edgeLabel(e));
      }
      cex.note =
          "reachable deadlock state '" + v.stateName(path.nodes.back()) + "'";
      result.counterexamples.push_back(std::move(cex));
    }
  }
  result.holds = result.counterexamples.empty();
  return result;
}

}  // namespace mui::ctl

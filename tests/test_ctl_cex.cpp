// Tests for counterexample generation: shortest paths to invariant
// violations and deadlocks, exact suffixes for bounded leads-to violations,
// multiple counterexamples, and search-order variants (experiment E7).

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "automata/random.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "ctl/reference.hpp"
#include "helpers.hpp"

namespace mui::ctl {
namespace {

using automata::Automaton;
using automata::Interaction;
using test::Tables;

/// s0 -> s1 -> bad(p). s0 -> far -> far2 -> bad2(p). bad2 deadlocks.
Automaton invariantModel(const Tables& t) {
  Automaton a(t.signals, t.props, "m");
  a.addOutput("step");
  const Interaction x = test::ia(*t.signals, {}, {"step"});
  for (const char* n : {"s0", "s1", "bad", "far", "far2", "bad2"}) {
    a.addState(n);
  }
  a.markInitial(0);
  a.addTransition(0, x, 1);
  a.addTransition(1, x, 2);
  a.addTransition(2, x, 2);
  a.addTransition(0, x, 3);
  a.addTransition(3, x, 4);
  a.addTransition(4, x, 5);
  a.addLabel(2, "p");
  a.addLabel(5, "p");
  return a;
}

TEST(Cex, InvariantViolationShortestPath) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG !p"), opts);
  ASSERT_FALSE(r.holds);
  ASSERT_EQ(r.counterexamples.size(), 1u);
  const auto& cex = r.cex();
  EXPECT_EQ(cex.kind, Counterexample::Kind::Property);
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  // BFS: the 2-step route to `bad`, not the 3-step route to `bad2`.
  EXPECT_EQ(cex.run.length(), 2u);
  EXPECT_EQ(a.stateName(cex.run.states.back()), "bad");
}

TEST(Cex, HoldingPropertyHasNoCounterexample) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG (p || !p)"), opts);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.counterexamples.empty());
}

TEST(Cex, DeadlockWitness) {
  Tables t;
  const Automaton a = invariantModel(t);
  const auto r = verify(a, nullptr, {});
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  EXPECT_EQ(cex.kind, Counterexample::Kind::Deadlock);
  EXPECT_TRUE(a.admitsRun(cex.run));
  EXPECT_EQ(a.stateName(cex.run.states.back()), "bad2");
  EXPECT_EQ(cex.run.length(), 3u);
  EXPECT_NE(cex.note.find("bad2"), std::string::npos);
}

TEST(Cex, PropertyCheckedBeforeDeadlock) {
  Tables t;
  const Automaton a = invariantModel(t);
  const auto r = verify(a, parseFormula("AG !p"), {});
  ASSERT_FALSE(r.holds);
  EXPECT_EQ(r.cex().kind, Counterexample::Kind::Property);
}

TEST(Cex, MultipleCounterexamplesAreDistinct) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.maxCounterexamples = 4;
  const auto r = verify(a, parseFormula("AG !p"), opts);
  ASSERT_EQ(r.counterexamples.size(), 2u);  // two distinct violating states
  EXPECT_NE(r.counterexamples[0].run.states.back(),
            r.counterexamples[1].run.states.back());
  for (const auto& cex : r.counterexamples) {
    EXPECT_TRUE(a.admitsRun(cex.run));
  }
}

TEST(Cex, LeadsToViolationGetsExactSuffix) {
  // AG(p -> AF[1,2] q): from `trigger` (p) the model can wander 3 steps
  // without q — the counterexample must extend past the trigger to show the
  // window expiring.
  Tables t;
  Automaton a(t.signals, t.props, "m");
  a.addOutput("step");
  const Interaction x = test::ia(*t.signals, {}, {"step"});
  for (const char* n : {"s0", "trigger", "w1", "w2", "q1"}) a.addState(n);
  a.markInitial(0);
  a.addTransition(0, x, 1);   // s0 -> trigger
  a.addTransition(1, x, 2);   // trigger -> w1
  a.addTransition(1, x, 4);   // trigger -> q1 (the good branch)
  a.addTransition(2, x, 3);   // w1 -> w2
  a.addTransition(3, x, 3);   // w2 loops
  a.addTransition(4, x, 4);
  a.addLabel(1, "p");
  a.addLabel(4, "q");

  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG (p -> AF[1,2] q)"), opts);
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  // Prefix reaches `trigger` (1 step), suffix shows 2 q-less steps.
  EXPECT_GE(cex.run.length(), 3u);
  EXPECT_EQ(a.stateName(cex.run.states[1]), "trigger");
  for (std::size_t i = 2; i < cex.run.states.size(); ++i) {
    EXPECT_NE(a.stateName(cex.run.states[i]), "q1");
  }
}

TEST(Cex, TopLevelBoundedAFWitness) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  // p is reachable but not guaranteed within 1 step.
  const auto r = verify(a, parseFormula("AF[0,1] p"), opts);
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  // Every state on the witness within the window must avoid p.
  for (automata::StateId s : cex.run.states) {
    EXPECT_NE(a.stateName(s), "bad");
    EXPECT_NE(a.stateName(s), "bad2");
  }
}

TEST(Cex, DepthFirstSearchFindsSomeViolation) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.search = CexSearch::DepthFirst;
  const auto r = verify(a, parseFormula("AG !p"), opts);
  ASSERT_FALSE(r.holds);
  EXPECT_TRUE(a.admitsRun(r.cex().run));
}

TEST(Cex, ConjunctionPeeling) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r =
      verify(a, parseFormula("AG (p || !p) && AG !p"), opts);
  ASSERT_FALSE(r.holds);
  EXPECT_TRUE(a.admitsRun(r.cex().run));
  EXPECT_NE(r.cex().note.find("AG"), std::string::npos);
}

TEST(Cex, UnknownAtomsSurfacedInResult) {
  Tables t;
  const Automaton a = invariantModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(a, parseFormula("AG !nonexistent_atom"), opts);
  EXPECT_TRUE(r.holds);  // atom is false everywhere, so AG ! holds
  ASSERT_EQ(r.unknownAtoms.size(), 1u);
  EXPECT_EQ(r.unknownAtoms[0], "nonexistent_atom");
}

/// s0 -> bad(p), s0 -> loop, loop -> loop; `bad` deadlocks. AG[1,inf] !p
/// fails through `bad` at depth 1, and `loop` is a p-free cycle.
Automaton pFreeLoopModel(const Tables& t) {
  Automaton a(t.signals, t.props, "m");
  a.addOutput("step");
  const Interaction x = test::ia(*t.signals, {}, {"step"});
  for (const char* n : {"s0", "bad", "loop"}) a.addState(n);
  a.markInitial(0);
  a.addTransition(0, x, 1);
  a.addTransition(0, x, 2);
  a.addTransition(2, x, 2);
  a.addLabel(1, "p");
  return a;
}

TEST(Cex, UnboundedWindowDepthFirstSearchTerminates) {
  // Depth first, the search enters `loop` before `bad`; keyed on the exact
  // depth it would walk the p-free cycle forever.
  Tables t;
  const Automaton a = pFreeLoopModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.search = CexSearch::DepthFirst;
  const auto r = verify(a, parseFormula("AG[1,inf] !p"), opts);
  ASSERT_FALSE(r.holds);
  ASSERT_EQ(r.counterexamples.size(), 1u);
  EXPECT_TRUE(a.admitsRun(r.cex().run));
  EXPECT_EQ(a.stateName(r.cex().run.states.back()), "bad");
}

TEST(Cex, UnboundedWindowSearchStopsWhenViolationsRunOut) {
  // Two counterexamples are asked for, but only one violation exists: once
  // `bad` is found the search must run dry instead of circling `loop`.
  Tables t;
  const Automaton a = pFreeLoopModel(t);
  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  opts.maxCounterexamples = 2;
  const auto r = verify(a, parseFormula("AG[1,inf] !p"), opts);
  ASSERT_FALSE(r.holds);
  ASSERT_EQ(r.counterexamples.size(), 1u);
  EXPECT_EQ(r.cex().run.length(), 1u);
  EXPECT_EQ(a.stateName(r.cex().run.states.back()), "bad");
}

/// The witness of AG (p -> AF[1,w] q) built by hand: a breadth-first prefix
/// (edges in insertion order) to the first state violating p -> AF[1,w] q,
/// then, at each position i of the window, the first edge whose target
/// violates the AF seen from position i + 1, by ReferenceChecker's
/// sat-sets; the suffix ends when the window is exhausted or at a deadlock.
automata::Run expectedLeadsToWitness(const Automaton& a, std::size_t w) {
  ReferenceChecker ref(a);
  const auto inner = ref.evaluate(parseFormula(
      "p -> AF[1," + std::to_string(w) + "] q"));
  struct Node {
    automata::StateId s;
    std::size_t parent;
    Interaction label;
  };
  std::vector<Node> nodes{{a.initialStates().front(), 0, {}}};
  std::vector<char> seen(a.stateCount(), 0);
  seen[nodes[0].s] = 1;
  std::size_t found = 0;
  for (std::size_t head = 0; head < nodes.size(); ++head) {
    if (!inner[nodes[head].s]) {
      found = head;
      break;
    }
    for (const auto& tr : a.transitionsFrom(nodes[head].s)) {
      if (seen[tr.to]) continue;
      seen[tr.to] = 1;
      nodes.push_back({tr.to, head, tr.label});
    }
  }
  automata::Run run;
  for (std::size_t i = found; i != 0; i = nodes[i].parent) {
    run.states.insert(run.states.begin(), nodes[i].s);
    run.labels.insert(run.labels.begin(), nodes[i].label);
  }
  run.states.insert(run.states.begin(), nodes[0].s);

  for (std::size_t i = 0; i < w; ++i) {
    const auto& out = a.transitionsFrom(run.states.back());
    if (out.empty()) break;
    // AF[1,w] q seen from position i + 1 ≥ 1 is AF[0, w − (i + 1)] q.
    const auto remaining = ref.evaluate(
        Formula::mkAF(Formula::mkAtom("q"), Bound{0, w - (i + 1)}));
    const automata::Transition* step = nullptr;
    for (const auto& tr : out) {
      if (!remaining[tr.to]) {
        step = &tr;
        break;
      }
    }
    if (step == nullptr) break;
    run.labels.push_back(step->label);
    run.states.push_back(step->to);
  }
  return run;
}

TEST(Cex, LongWindowLeadsToWitnessFollowsTheFirstViolatingEdge) {
  // s0 -> s1 -> trig(p) -> l0, and a 24-state q-free cycle l0 .. l23, longer
  // than the 18-tick window. Every l_i first offers a side chain of
  // k_i steps to a q-state, and every third also offers a q-state
  // directly; then two parallel edges to l_{i+1} ("next", then "skip").
  // l_i sits at window position i + 1, so its side chain violates the AF
  // seen from position i + 2 iff k_i > w − i − 2. Up to l8 every chain is
  // exactly that long (the last one that still reaches q in time), and l9's
  // is one step longer: the witness follows the cycle on "next", never
  // "skip", and leaves it at l9 for a chain that ends too late. A position
  // or threshold off by one moves the exit.
  constexpr std::size_t kCycle = 24;
  constexpr std::size_t kWindow = 18;
  Tables t;
  Automaton a(t.signals, t.props, "m");
  for (const char* o : {"next", "skip", "side", "done"}) a.addOutput(o);
  const Interaction next = test::ia(*t.signals, {}, {"next"});
  const Interaction skip = test::ia(*t.signals, {}, {"skip"});
  const Interaction side = test::ia(*t.signals, {}, {"side"});
  const Interaction done = test::ia(*t.signals, {}, {"done"});
  const auto s0 = a.addState("s0");
  const auto s1 = a.addState("s1");
  const auto trig = a.addState("trig");
  a.markInitial(s0);
  a.addLabel(trig, "p");
  a.addTransition(s0, next, s1);
  a.addTransition(s1, next, trig);
  std::vector<automata::StateId> cycle;
  for (std::size_t i = 0; i < kCycle; ++i) {
    cycle.push_back(a.addState("l" + std::to_string(i)));
  }
  a.addTransition(trig, next, cycle[0]);
  for (std::size_t i = 0; i < kCycle; ++i) {
    const std::string tag = std::to_string(i);
    const std::size_t k = i < 9    ? kWindow - i - 2
                          : i == 9 ? kWindow - i - 1
                                   : 2 + (i * 5) % 7;  // never reached
    automata::StateId prev = cycle[i];
    Interaction via = side;
    for (std::size_t j = 0; j < k; ++j) {
      const auto c = a.addState("c" + tag + "_" + std::to_string(j));
      a.addTransition(prev, via, c);
      prev = c;
      via = next;
    }
    const auto goal = a.addState("g" + tag);
    a.addLabel(goal, "q");
    a.addTransition(prev, done, goal);
    a.addTransition(goal, done, goal);
    if (i % 3 == 0) a.addTransition(cycle[i], done, goal);
    a.addTransition(cycle[i], next, cycle[(i + 1) % kCycle]);
    a.addTransition(cycle[i], skip, cycle[(i + 1) % kCycle]);
  }

  VerifyOptions opts;
  opts.requireDeadlockFree = false;
  const auto r = verify(
      a, parseFormula("AG (p -> AF[1," + std::to_string(kWindow) + "] q)"),
      opts);
  ASSERT_FALSE(r.holds);
  const auto& cex = r.cex();
  const automata::Run expected = expectedLeadsToWitness(a, kWindow);
  EXPECT_TRUE(cex.pathExact);
  EXPECT_TRUE(a.admitsRun(cex.run));
  EXPECT_EQ(cex.run.states, expected.states);
  EXPECT_EQ(cex.run.labels, expected.labels);
  // The prefix reaches the trigger in 2 steps and the suffix uses the whole
  // window, leaving the cycle at l9 for its side chain.
  ASSERT_EQ(cex.run.length(), 2 + kWindow);
  EXPECT_EQ(a.stateName(cex.run.states[2]), "trig");
  EXPECT_EQ(a.stateName(cex.run.states[12]), "l9");
  EXPECT_EQ(a.stateName(cex.run.states.back()), "c9_7");
}

}  // namespace
}  // namespace mui::ctl

// Tests for the lean product engine (automata/flat_product.hpp,
// automata/virtual_closure.hpp): the virtual closure keeps the copy-1
// chaoticClosure's numbering, names, labels and edge order on the shipped
// legacies, composeFlat equals composeAll's fold for any number of
// components and any signal count, under a state bound it keeps the
// unbounded product's prefix, the doubled view of a product over virtual
// closures is Def. 9's two-copy product, for any number of legacies, and a
// product linking a chaos region is the full product up to renumbering and
// is checked alike with the region's labels memoized.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "automata/flat_product.hpp"
#include "automata/random.hpp"
#include "automata/virtual_closure.hpp"
#include "ctl/checker.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "fuzz/oracles.hpp"
#include "helpers.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
#include "obs/metrics.hpp"
#include "synthesis/initial.hpp"
#include "testing/legacy.hpp"

namespace mui::automata {
namespace {

using test::Tables;

Interaction labelOf(const EdgeRef& e, std::size_t stride) {
  return {SignalSet::fromWords(e.label, stride),
          SignalSet::fromWords(e.label + stride, stride)};
}

void expectSameClosure(const Closure& ref, const VirtualClosure& view,
                       const std::string& what) {
  const Automaton& a = ref.automaton;
  ASSERT_EQ(view.stateCount(), a.stateCount()) << what;
  EXPECT_EQ(view.initialStates(), a.initialStates()) << what;
  EXPECT_EQ(view.sAll(), ref.sAll) << what;
  EXPECT_EQ(view.sDelta(), ref.sDelta) << what;
  std::vector<EdgeRef> edges;
  for (StateId c = 0; c < a.stateCount(); ++c) {
    const std::string at = what + " state " + a.stateName(c);
    EXPECT_EQ(view.stateName(c), a.stateName(c)) << at;
    EXPECT_EQ(view.labels(c), a.labels(c)) << at;
    EXPECT_EQ(view.isChaos(c), ref.isChaos(c)) << at;
    if (!ref.isChaos(c)) {
      EXPECT_EQ(ref.knownOrigin(c), c) << at;
    }
    view.edges(c, edges);
    const auto& ts = a.transitionsFrom(c);
    ASSERT_EQ(edges.size(), ts.size()) << at;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(edges[i].to, ts[i].to) << at << " edge " << i;
      EXPECT_EQ(labelOf(edges[i], view.stride()), ts[i].label)
          << at << " edge " << i;
    }
  }
}

void expectSameProduct(const Product& ref, const FlatProduct& lean) {
  const Automaton& a = ref.automaton;
  ASSERT_EQ(lean.stateCount(), a.stateCount());
  EXPECT_EQ(lean.initialStates(), a.initialStates());
  for (StateId p = 0; p < a.stateCount(); ++p) {
    EXPECT_EQ(lean.stateName(p), a.stateName(p));
    for (std::size_t k = 0; k < ref.origins[p].size(); ++k) {
      EXPECT_EQ(lean.origin(p, k), ref.origins[p][k]);
    }
    const auto& ts = a.transitionsFrom(p);
    ASSERT_EQ(lean.edgeEnd(p) - lean.edgeBegin(p), ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const auto e = static_cast<std::uint32_t>(lean.edgeBegin(p) + i);
      EXPECT_EQ(lean.edgeTarget(e), ts[i].to);
      EXPECT_EQ(lean.edgeLabel(e), ts[i].label);
    }
  }
  for (util::NameId prop = 0; prop < a.propTable()->size(); ++prop) {
    const auto sat = lean.atomSat(prop);
    for (StateId p = 0; p < a.stateCount(); ++p) {
      EXPECT_EQ(sat.test(p), a.labels(p).test(prop))
          << a.propTable()->name(prop);
    }
  }
}

/// The learned models the loop sees of `hidden`: the initial one, one
/// after a walk along the first transitions, and the complete model with
/// every unanswered alphabet interaction refused.
std::vector<IncompleteAutomaton> modelsOf(
    const Automaton& hidden, const SignalTableRef& signals,
    const SignalTableRef& props, const std::vector<Interaction>& alphabet) {
  testing::AutomatonLegacy probe(hidden);
  std::vector<IncompleteAutomaton> out;
  out.push_back(synthesis::initialModel(probe, signals, props));

  IncompleteAutomaton walked = out.front();
  ObservedRun run;
  StateId cur = hidden.initialStates().front();
  run.stateNames.push_back(hidden.stateName(cur));
  for (int step = 0; step < 4 && !hidden.transitionsFrom(cur).empty();
       ++step) {
    const auto& t = hidden.transitionsFrom(cur).front();
    run.labels.push_back(t.label);
    cur = t.to;
    run.stateNames.push_back(hidden.stateName(cur));
  }
  walked.learn(run);
  out.push_back(walked);

  IncompleteAutomaton complete(hidden);
  for (StateId s = 0; s < hidden.stateCount(); ++s) {
    for (const auto& x : alphabet) {
      if (!hidden.hasTransition(s, x)) complete.forbid(s, x);
    }
  }
  out.push_back(complete);
  return out;
}

TEST(VirtualClosure, MatchesChaoticClosureOnShippedLegacies) {
  struct Shipped {
    const char* file;
    const char* pattern;
    const char* role;
    std::vector<const char*> legacies;
  };
  const std::vector<Shipped> shipped{
      {"railcab.muml", "DistanceCoordination", "rearRole",
       {"rearShipped", "rearFaulty"}},
      {"watchdog.muml", "Watchdog", "device",
       {"deviceCompliant", "deviceSlow", "deviceCrawl", "deviceMute",
        "deviceDeaf"}},
      {"bci.muml", "BciSession", "firmware", {"firmwareRef"}},
  };
  std::size_t compared = 0;
  for (const auto& sh : shipped) {
    const muml::Model model =
        muml::loadModelFile(std::string(MUI_MODELS_DIR) + "/" + sh.file);
    for (const char* legacy : sh.legacies) {
      const auto binding =
          muml::bindIntegration(model, sh.pattern, sh.role, legacy);
      ASSERT_TRUE(binding.legacy.hidden.has_value()) << legacy;
      const Automaton& hidden = *binding.legacy.hidden;
      const auto alphabet =
          makeAlphabet(hidden.inputs(), hidden.outputs(),
                       InteractionMode::AtMostOneSignal);
      const std::size_t stride = strideFor({&hidden});
      for (const auto& m :
           modelsOf(hidden, model.signals, model.props, alphabet)) {
        for (const auto style : {ClosureStyle::PaperExact,
                                 ClosureStyle::DeterministicTarget}) {
          const Closure ref =
              chaoticClosure(m, alphabet, style, ClosureCopies::Copy1Only);
          const VirtualClosure view(m, alphabet, style, stride);
          expectSameClosure(ref, view, legacy);
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 8u * 3u * 2u);
}

/// `view` is `pess`, composeAll of a context and Def. 9's closures `both`:
/// the same states under index(), initial states, names, deadlocks and
/// edges, in order.
void expectSameDoubledGraph(const Product& pess,
                            const std::vector<Closure>& both,
                            const DoubledProduct& view) {
  const FlatProduct& lean = view.product();
  std::map<std::vector<StateId>, StateId> leanState;
  for (StateId p = 0; p < lean.stateCount(); ++p) {
    std::vector<StateId> row;
    for (std::size_t k = 0; k < lean.componentCount(); ++k) {
      row.push_back(lean.origin(p, k));
    }
    leanState.emplace(row, p);
  }
  // Def. 9's closure state (s, b) is copy-1 state s with copy bit b.
  const auto nodeOf = [&](StateId q) {
    const std::vector<StateId>& origins = pess.origins[q];
    std::vector<StateId> row{origins[0]};
    std::uint32_t copies = 0;
    for (std::size_t k = 1; k < origins.size(); ++k) {
      const Closure& c = both[k - 1];
      const auto n = static_cast<StateId>(c.copy1.size());
      const StateId r = origins[k];
      row.push_back(r == c.sAll     ? n
                    : r == c.sDelta ? n + 1
                                    : c.knownOrigin(r));
      if (c.origins[r].kind == Closure::Kind::Copy1) copies |= 1u << (k - 1);
    }
    return DoubledProduct::Node{leanState.at(row), copies};
  };
  const auto same = [](DoubledProduct::Node a, DoubledProduct::Node b) {
    return a.state == b.state && a.copies == b.copies;
  };
  const Automaton& a = pess.automaton;
  ASSERT_EQ(view.stateCount(), a.stateCount());
  const auto initial = view.initialNodes();
  ASSERT_EQ(initial.size(), a.initialStates().size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    EXPECT_TRUE(same(initial[i], nodeOf(a.initialStates()[i]))) << i;
  }
  std::set<std::size_t> indices;
  std::vector<DoubledProduct::Step> steps;
  bool anyDeadlock = false;
  for (StateId q = 0; q < a.stateCount(); ++q) {
    const DoubledProduct::Node n = nodeOf(q);
    EXPECT_LT(view.index(n), view.slotCount());
    EXPECT_TRUE(indices.insert(view.index(n)).second) << a.stateName(q);
    EXPECT_EQ(view.stateName(n), a.stateName(q));
    const auto& ts = a.transitionsFrom(q);
    view.successors(n, steps);
    ASSERT_EQ(steps.size(), ts.size()) << a.stateName(q);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_TRUE(same(steps[i].to, nodeOf(ts[i].to)))
          << a.stateName(q) << " edge " << i;
      EXPECT_EQ(lean.edgeLabel(steps[i].edge), ts[i].label);
    }
    EXPECT_EQ(view.deadlocked(n), ts.empty()) << a.stateName(q);
    anyDeadlock = anyDeadlock || ts.empty();
  }
  EXPECT_EQ(view.anyDeadlock(), anyDeadlock);
}

/// Two random legacies and their mirrored contexts: four components, where
/// each pair talks and the pairs interleave.
struct TwoPairs {
  Tables t;
  Automaton a, b, mirrorA, mirrorB;

  TwoPairs() : a(make(12, "sensorCtl")), b(make(21, "driveCtl")),
               mirrorA(mirrored(subAutomaton(a, 70, 3, "subA"), "busA")),
               mirrorB(mirrored(b, "busB")) {}

  Automaton make(std::uint64_t seed, const char* name) {
    RandomSpec spec;
    spec.states = 5;
    spec.inputs = 1;
    spec.outputs = 2;
    spec.seed = seed;
    spec.name = name;
    return randomAutomaton(spec, t.signals, t.props);
  }
};

TEST(FlatProduct, NaryCompositionMatchesTheFold) {
  TwoPairs w;
  const std::size_t stride = strideFor({&w.a, &w.b, &w.mirrorA, &w.mirrorB});
  const AutomatonComponent a(w.a, stride), b(w.b, stride),
      ma(w.mirrorA, stride), mb(w.mirrorB, stride);
  const FlatProduct four = composeFlat({&ma, &a, &mb, &b});
  expectSameProduct(composeAll({&w.mirrorA, &w.a, &w.mirrorB, &w.b}), four);
  EXPECT_GE(four.stateCount(), 10u);
  expectSameProduct(composeAll({&w.mirrorA, &w.b, &w.a}),
                    composeFlat({&ma, &b, &a}));
}

TEST(FlatProduct, TwoClosuresMatchTheFold) {
  // The multi-legacy loop's product: context ‖ chaos(M_a) ‖ chaos(M_b).
  TwoPairs w;
  const Automaton context = composeAll({&w.mirrorA, &w.mirrorB}).automaton;
  const auto alphaA = makeAlphabet(w.a.inputs(), w.a.outputs(),
                                   InteractionMode::AtMostOneSignal);
  const auto alphaB = makeAlphabet(w.b.inputs(), w.b.outputs(),
                                   InteractionMode::AtMostOneSignal);
  const auto modelsA = modelsOf(w.a, w.t.signals, w.t.props, alphaA);
  const auto modelsB = modelsOf(w.b, w.t.signals, w.t.props, alphaB);
  const std::size_t stride =
      strideFor({&context, &modelsA[0].base(), &modelsB[0].base()});
  const AutomatonComponent ctx(context, stride);
  std::size_t states = 0;
  for (std::size_t i = 0; i < modelsA.size(); ++i) {
    const auto style = ClosureStyle::DeterministicTarget;
    const auto copies = ClosureCopies::Copy1Only;
    const Closure ca = chaoticClosure(modelsA[i], alphaA, style, copies);
    const Closure cb = chaoticClosure(modelsB[i], alphaB, style, copies);
    std::vector<VirtualClosure> views;
    views.emplace_back(modelsA[i], alphaA, style, stride);
    views.emplace_back(modelsB[i], alphaB, style, stride);
    const FlatProduct lean = composeFlat({&ctx, &views[0], &views[1]});
    expectSameProduct(composeAll({&context, &ca.automaton, &cb.automaton}),
                      lean);
    // Def. 9's two-copy product is the doubled view of the same product.
    const std::vector<Closure> both{
        chaoticClosure(modelsA[i], alphaA, style, ClosureCopies::Both),
        chaoticClosure(modelsB[i], alphaB, style, ClosureCopies::Both)};
    const DoubledProduct doubled(lean, views);
    expectSameDoubledGraph(
        composeAll({&context, &both[0].automaton, &both[1].automaton}), both,
        doubled);
    states += lean.stateCount() + doubled.stateCount();
  }
  EXPECT_GT(states, 150u);
}

TEST(DoubledProduct, IsTheTwoCopyProductForTwoAndThreeLegacies) {
  // Random legacies under their mirrors (the first one under a mirror of
  // part of it), learned to three stages: the doubled view of the product
  // over virtual closures equals composeAll over Def. 9's closures, and
  // its deadlock search returns what ctl::verify returns there.
  std::vector<ctl::VerifyOptions> searches(3);
  searches[1].maxCounterexamples = 3;
  searches[2].search = ctl::CexSearch::DepthFirst;
  searches[2].maxCounterexamples = 2;
  std::size_t nodes = 0, runs = 0;
  for (const std::size_t count : {2, 3}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Tables t;
      std::vector<Automaton> hidden, mirrors;
      for (std::size_t k = 0; k < count; ++k) {
        RandomSpec spec;
        spec.states = 4;
        spec.inputs = 1;
        spec.outputs = 1 + k % 2;
        spec.seed = 10 * seed + k;
        spec.name = "g" + std::to_string(k);
        hidden.push_back(randomAutomaton(spec, t.signals, t.props));
      }
      for (std::size_t k = 0; k < count; ++k) {
        const std::string name = "m" + std::to_string(k);
        mirrors.push_back(
            k == 0 ? mirrored(subAutomaton(hidden[k], 60, seed, "sub"), name)
                   : mirrored(hidden[k], name));
      }
      std::vector<const Automaton*> parts;
      for (const auto& m : mirrors) parts.push_back(&m);
      const Automaton context = composeAll(parts).automaton;
      std::vector<std::vector<Interaction>> alphabets;
      std::vector<std::vector<IncompleteAutomaton>> models;
      std::vector<const Automaton*> interfaces{&context};
      for (const auto& h : hidden) {
        alphabets.push_back(makeAlphabet(h.inputs(), h.outputs(),
                                         InteractionMode::AtMostOneSignal));
        models.push_back(modelsOf(h, t.signals, t.props, alphabets.back()));
        interfaces.push_back(&models.back().front().base());
      }
      const std::size_t stride = strideFor(interfaces);
      const AutomatonComponent ctx(context, stride);
      for (std::size_t stage = 0; stage < 3; ++stage) {
        for (const auto style : {ClosureStyle::PaperExact,
                                 ClosureStyle::DeterministicTarget}) {
          SCOPED_TRACE(std::to_string(count) + " legacies, seed " +
                       std::to_string(seed) + ", stage " +
                       std::to_string(stage));
          std::vector<VirtualClosure> views;
          std::vector<Closure> both;
          std::vector<const FlatComponent*> components{&ctx};
          std::vector<const Automaton*> automata{&context};
          for (std::size_t k = 0; k < count; ++k) {
            views.emplace_back(models[k][stage], alphabets[k], style, stride);
            both.push_back(chaoticClosure(models[k][stage], alphabets[k],
                                          style, ClosureCopies::Both));
          }
          for (std::size_t k = 0; k < count; ++k) {
            components.push_back(&views[k]);
            automata.push_back(&both[k].automaton);
          }
          const FlatProduct lean = composeFlat(components);
          const DoubledProduct view(lean, views);
          const Product pess = composeAll(automata);
          expectSameDoubledGraph(pess, both, view);
          std::vector<const Closure*> bothPtrs;
          for (const auto& c : both) bothPtrs.push_back(&c);
          for (const auto& opts : searches) {
            EXPECT_EQ(fuzz::doubledViewDiff(pess, bothPtrs, view, opts), "");
            runs += ctl::verifyDeadlockFree(view, opts).counterexamples.size();
          }
          nodes += view.stateCount();
        }
      }
    }
  }
  EXPECT_GT(nodes, 10000u);
  EXPECT_GT(runs, 200u);
}

/// Expects `linked`, composed over a chaos region, to be `full`, the same
/// product composed without one, up to renumbering: composeFlat numbers
/// states breadth first from the initial states, so walking `linked` in
/// that order must meet `full`'s states in their order, with the same
/// names, origins, edges in order and atoms; the linked region states the
/// walk does not meet are the unreached ones.
void expectLinkedIsFull(const FlatProduct& full, const FlatProduct& linked) {
  constexpr StateId kNone = UINT32_MAX;
  std::vector<StateId> toFull(linked.stateCount(), kNone);
  std::vector<StateId> order;
  const auto visit = [&](StateId q) {
    if (toFull[q] != kNone) return;
    toFull[q] = static_cast<StateId>(order.size());
    order.push_back(q);
  };
  for (const StateId q : linked.initialStates()) visit(q);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::uint32_t e = linked.edgeBegin(order[i]);
         e < linked.edgeEnd(order[i]); ++e) {
      visit(linked.edgeTarget(e));
    }
  }
  ASSERT_EQ(order.size(), full.stateCount());
  EXPECT_EQ(linked.fullStateCount(), full.stateCount());
  for (StateId q = linked.regionBegin(); q < linked.stateCount(); ++q) {
    EXPECT_EQ(linked.regionReached(q), toFull[q] != kNone) << q;
  }
  std::vector<StateId> initials;
  for (const StateId q : linked.initialStates()) initials.push_back(toFull[q]);
  EXPECT_EQ(initials, full.initialStates());
  for (StateId p = 0; p < full.stateCount(); ++p) {
    const StateId q = order[p];
    ASSERT_EQ(linked.stateName(q), full.stateName(p));
    for (std::size_t k = 0; k < full.componentCount(); ++k) {
      EXPECT_EQ(linked.origin(q, k), full.origin(p, k));
    }
    ASSERT_EQ(linked.edgeEnd(q) - linked.edgeBegin(q),
              full.edgeEnd(p) - full.edgeBegin(p));
    for (std::uint32_t i = 0; i < full.edgeEnd(p) - full.edgeBegin(p); ++i) {
      const std::uint32_t e = linked.edgeBegin(q) + i;
      const std::uint32_t f = full.edgeBegin(p) + i;
      EXPECT_EQ(toFull[linked.edgeTarget(e)], full.edgeTarget(f));
      EXPECT_EQ(linked.edgeLabel(e), full.edgeLabel(f));
      EXPECT_EQ(linked.edgeBranch(e), full.edgeBranch(f));
    }
  }
  for (util::NameId prop = 0; prop < full.propTable()->size(); ++prop) {
    const auto want = full.atomSat(prop);
    const auto got = linked.atomSat(prop);
    for (StateId p = 0; p < full.stateCount(); ++p) {
      EXPECT_EQ(got.test(order[p]), want.test(p))
          << full.propTable()->name(prop);
    }
  }
}

TEST(ChaosRegion, LinkedProductsAreTheFullOnesForTwoAndThreeLegacies) {
  // The loop's rounds in miniature: one region per scenario, kept across
  // three learning stages and both closure styles. Each product composed
  // over it is the full product up to renumbering, its doubled view gives
  // Def. 9's answers, and a checker seeded by the region's memo labels
  // every state as a plain checker does.
  std::vector<ctl::VerifyOptions> searches(2);
  searches[1].search = ctl::CexSearch::DepthFirst;
  searches[1].maxCounterexamples = 2;
  const std::vector<std::string> properties{
      "AG !g1.g1_q1", "AG (g0.g0_q0 -> AF[1,3] g0.g0_q1)",
      "EF[2,4] (deadlock || p_chaos)", "A[!g0.g0_q2 U[0,5] g1.g1_q0]"};
  std::size_t linkedStates = 0;
  for (const std::size_t count : {2, 3}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Tables t;
      std::vector<Automaton> hidden, mirrors;
      for (std::size_t k = 0; k < count; ++k) {
        RandomSpec spec;
        spec.states = 4;
        spec.inputs = 1;
        spec.outputs = 1 + k % 2;
        spec.seed = 10 * seed + k;
        spec.name = "g" + std::to_string(k);
        hidden.push_back(randomAutomaton(spec, t.signals, t.props));
      }
      for (std::size_t k = 0; k < count; ++k) {
        const std::string name = "m" + std::to_string(k);
        mirrors.push_back(
            k == 0 ? mirrored(subAutomaton(hidden[k], 60, seed, "sub"), name)
                   : mirrored(hidden[k], name));
      }
      std::vector<const Automaton*> parts;
      for (const auto& m : mirrors) parts.push_back(&m);
      const Automaton context = composeAll(parts).automaton;
      std::vector<std::vector<Interaction>> alphabets;
      std::vector<std::vector<IncompleteAutomaton>> models;
      std::vector<const Automaton*> interfaces{&context};
      std::vector<const Automaton*> legacies;
      for (const auto& h : hidden) {
        alphabets.push_back(makeAlphabet(h.inputs(), h.outputs(),
                                         InteractionMode::AtMostOneSignal));
        models.push_back(modelsOf(h, t.signals, t.props, alphabets.back()));
        interfaces.push_back(&models.back().front().base());
        legacies.push_back(&models.back().front().base());
      }
      const std::size_t stride = strideFor(interfaces);
      const AutomatonComponent ctx(context, stride);
      ChaosRegion region(ctx, legacies, alphabets);
      std::vector<ctl::FormulaPtr> phis;
      for (const auto& text : properties) {
        phis.push_back(ctl::weakenForChaos(ctl::parseFormula(text)));
      }
      std::optional<FlatProduct> first;
      std::vector<std::vector<VirtualClosure>> firstViews;
      for (std::size_t stage = 0; stage < 3; ++stage) {
        for (const auto style : {ClosureStyle::PaperExact,
                                 ClosureStyle::DeterministicTarget}) {
          SCOPED_TRACE(std::to_string(count) + " legacies, seed " +
                       std::to_string(seed) + ", stage " +
                       std::to_string(stage));
          auto& views = firstViews.emplace_back();
          std::vector<Closure> both;
          std::vector<const FlatComponent*> components{&ctx};
          std::vector<const Automaton*> automata{&context};
          for (std::size_t k = 0; k < count; ++k) {
            views.emplace_back(models[k][stage], alphabets[k], style, stride);
            both.push_back(chaoticClosure(models[k][stage], alphabets[k],
                                          style, ClosureCopies::Both));
          }
          for (std::size_t k = 0; k < count; ++k) {
            components.push_back(&views[k]);
            automata.push_back(&both[k].automaton);
          }
          const FlatProduct full = composeFlat(components);
          FlatProduct linked = composeFlat(components, region);
          expectLinkedIsFull(full, linked);
          linkedStates += linked.regionBegin();

          const Product pess = composeAll(automata);
          std::vector<const Closure*> bothPtrs;
          for (const auto& c : both) bothPtrs.push_back(&c);
          const DoubledProduct view(linked, views);
          EXPECT_EQ(view.stateCount(), pess.automaton.stateCount());
          for (const auto& opts : searches) {
            EXPECT_EQ(fuzz::doubledViewDiff(pess, bothPtrs, view, opts), "");
          }
          for (const auto& phi : phis) {
            const ctl::RegionMemo memo(region.product(), phi);
            ctl::Checker plain(linked);
            ctl::Checker seeded(linked, memo);
            EXPECT_EQ(seeded.evaluate(phi), plain.evaluate(phi))
                << phi->toString();
            const auto want = ctl::verify(full, phi);
            const auto got = ctl::verify(linked, &memo, phi);
            EXPECT_EQ(got.holds, want.holds) << phi->toString();
            EXPECT_EQ(got.stateCount, want.stateCount);
            ASSERT_EQ(got.counterexamples.size(), want.counterexamples.size());
            for (std::size_t i = 0; i < got.counterexamples.size(); ++i) {
              EXPECT_EQ(linked.renderRun(got.counterexamples[i].run),
                        full.renderRun(want.counterexamples[i].run));
              EXPECT_EQ(got.counterexamples[i].note,
                        want.counterexamples[i].note);
            }
          }
          if (!first) first.emplace(std::move(linked));
        }
      }
      // The first product still reads as it did.
      std::vector<const FlatComponent*> firstComponents{&ctx};
      for (const auto& v : firstViews.front()) firstComponents.push_back(&v);
      expectLinkedIsFull(composeFlat(firstComponents), *first);
    }
  }
  EXPECT_GT(linkedStates, 1000u);
}

TEST(ChaosRegion, GrowsByTheRowsALaterRoundReaches) {
  // A context that only ever sends `go` along a chain c0 → c1 → c2 → c3,
  // and a device that reads it. A model that knows d0 -go-> d1 enters
  // chaos from d1, one step later than the initial model does from d0:
  // its region is {c2, c3} × {s_∀, s_δ}, and the initial model's product
  // adds c1's two rows to it.
  Tables t;
  Automaton context(t.signals, t.props, "ctl");
  context.declareSignals({}, test::sigs(*t.signals, {"go"}));
  std::vector<StateId> c;
  for (int i = 0; i < 4; ++i) {
    c.push_back(context.addState("c" + std::to_string(i)));
  }
  context.markInitial(c[0]);
  context.addLabel(c[3], "ctl.c3");
  const Interaction send = test::ia(*t.signals, {}, {"go"});
  for (int i = 0; i < 3; ++i) context.addTransition(c[i], send, c[i + 1]);
  context.addTransition(c[3], send, c[3]);
  const Interaction read = test::ia(*t.signals, {"go"}, {});
  IncompleteAutomaton initial(t.signals, t.props, "dev");
  initial.declareSignals(test::sigs(*t.signals, {"go"}), {});
  initial.markInitial(initial.addState("d0"));
  IncompleteAutomaton deep = initial;
  deep.addTransition(0, read, deep.addState("d1"));
  const auto alphabet = makeAlphabet(initial.base().inputs(), {},
                                     InteractionMode::AtMostOneSignal);
  const std::size_t stride = strideFor({&context, &initial.base()});
  const AutomatonComponent ctx(context, stride);
  ChaosRegion region(ctx, {&initial.base()}, {alphabet});
  obs::Counter& built = obs::Registry::global().counter(
      "mui_compose_product_states_new_total", "Product states built");

  const auto style = ClosureStyle::DeterministicTarget;
  const VirtualClosure deepView(deep, alphabet, style, stride);
  std::uint64_t before = built.value();
  const FlatProduct first = composeFlat({&ctx, &deepView}, region);
  EXPECT_EQ(region.stateCount(), 4u);
  EXPECT_EQ(first.regionBegin(), 2u);  // c0|d0, c1|d1
  EXPECT_EQ(built.value() - before, 2u + 4u);
  const auto phi = ctl::parseFormula("EF ctl.c3");
  const ctl::RegionMemo stale(region.product(), phi);

  const VirtualClosure initialView(initial, alphabet, style, stride);
  before = built.value();
  const FlatProduct second = composeFlat({&ctx, &initialView}, region);
  EXPECT_EQ(region.stateCount(), 6u);
  EXPECT_EQ(second.regionBegin(), 1u);  // c0|d0
  EXPECT_EQ(second.fullStateCount(), 7u);
  EXPECT_EQ(built.value() - before, 1u + 2u);
  expectLinkedIsFull(composeFlat({&ctx, &initialView}), second);
  expectLinkedIsFull(composeFlat({&ctx, &deepView}), first);
  // The same rows again build nothing new.
  before = built.value();
  const FlatProduct again = composeFlat({&ctx, &initialView}, region);
  EXPECT_EQ(built.value() - before, 1u);
  EXPECT_EQ(again.fullStateCount(), 7u);

  // A memo covers the region as it was built: c1's rows read false in the
  // stale one, and a rebuilt memo agrees with a plain checker.
  ctl::Checker plain(second);
  const ctl::SatSet want = plain.evaluate(phi);
  const ctl::RegionMemo fresh(region.product(), phi);
  EXPECT_EQ(stale.stateCount(), 4u);
  EXPECT_EQ(fresh.stateCount(), 6u);
  ctl::Checker seeded(second, fresh);
  EXPECT_EQ(seeded.evaluate(phi), want);
  EXPECT_TRUE(plain.holds(phi));
  ctl::Checker outgrown(second, stale);
  EXPECT_FALSE(outgrown.holds(phi));
}

TEST(ChaosRegion, RejectsComponentsOfAnotherRegion) {
  TwoPairs w;
  const auto alphaA = makeAlphabet(w.a.inputs(), w.a.outputs(),
                                   InteractionMode::AtMostOneSignal);
  const auto models = modelsOf(w.a, w.t.signals, w.t.props, alphaA);
  const std::size_t stride = strideFor({&w.mirrorA, &models[0].base()});
  const AutomatonComponent ctx(w.mirrorA, stride);
  const AutomatonComponent other(w.mirrorA, stride);
  ChaosRegion region(ctx, {&models[0].base()}, {alphaA});
  const VirtualClosure view(models[0], alphaA,
                            ClosureStyle::DeterministicTarget, stride);
  EXPECT_NO_THROW(composeFlat({&ctx, &view}, region));
  EXPECT_THROW(composeFlat({&other, &view}, region), std::invalid_argument);
  EXPECT_THROW(composeFlat({&ctx}, region), std::invalid_argument);
  // A legacy without chaos states is no closure.
  const AutomatonComponent plain(models[0].base(), stride);
  EXPECT_THROW(composeFlat({&ctx, &plain}, region), std::invalid_argument);
  // A checker memo belongs to the region it was built on.
  const FlatProduct unlinked = composeFlat({&ctx, &view});
  const ctl::RegionMemo memo(region.product(), ctl::parseFormula("true"));
  EXPECT_THROW(ctl::Checker(unlinked, memo), std::invalid_argument);
  const FlatProduct linked = composeFlat({&ctx, &view}, region);
  ctl::Checker seeded(linked, memo);
  EXPECT_THROW(seeded.evaluate(ctl::parseFormula("false")), std::logic_error);
}

TEST(DoubledProduct, RejectsACappedProductAndForeignClosures) {
  TwoPairs w;
  const auto alphaA = makeAlphabet(w.a.inputs(), w.a.outputs(),
                                   InteractionMode::AtMostOneSignal);
  const auto models = modelsOf(w.a, w.t.signals, w.t.props, alphaA);
  const std::size_t stride = strideFor({&w.mirrorA, &models[0].base()});
  const AutomatonComponent ctx(w.mirrorA, stride);
  std::vector<VirtualClosure> views, others;
  views.emplace_back(models[0], alphaA, ClosureStyle::DeterministicTarget,
                     stride);
  others.emplace_back(models[0], alphaA, ClosureStyle::DeterministicTarget,
                      stride);
  const FlatProduct full = composeFlat({&ctx, &views[0]});
  EXPECT_NO_THROW(DoubledProduct(full, views));
  EXPECT_THROW(DoubledProduct(full, others), std::invalid_argument);
  const FlatProduct capped = composeFlat({&ctx, &views[0]}, 1);
  ASSERT_TRUE(capped.capped());
  EXPECT_THROW(DoubledProduct(capped, views), std::invalid_argument);
}

TEST(FlatProduct, SignalsPastTheFirstWordWidenTheStride) {
  TwoPairs w;
  // Push the next signals past id 64 and 128.
  for (int i = 0; i < 130; ++i) w.t.signals->intern("pad" + std::to_string(i));
  RandomSpec spec;
  spec.states = 4;
  spec.seed = 5;
  spec.name = "wide";
  const Automaton wide = randomAutomaton(spec, w.t.signals, w.t.props);
  const Automaton mirror = mirrored(wide, "wideCtx");
  const std::size_t stride = strideFor({&w.a, &w.mirrorA, &wide, &mirror});
  EXPECT_EQ(stride, 3u);
  const AutomatonComponent a(w.a, stride), ma(w.mirrorA, stride),
      x(wide, stride), mx(mirror, stride);
  const Product ref = composeAll({&w.mirrorA, &w.a, &mirror, &wide});
  const FlatProduct lean = composeFlat({&ma, &a, &mx, &x});
  expectSameProduct(ref, lean);
  EXPECT_EQ(lean.stride(), 3u);
}

TEST(FlatProduct, OneComponentKeepsEveryState) {
  Tables t;
  Automaton a(t.signals, t.props, "a");
  a.addOutput("x");
  a.addState("q0");
  a.addState("unreachable");
  a.markInitial(0);
  a.labelWithStateName(1);
  a.addTransition(0, test::ia(*t.signals, {}, {"x"}), 0);
  const FlatProduct of = FlatProduct::of(a);
  const AutomatonComponent c(a, 1);
  const FlatProduct composed = composeFlat({&c});
  for (const FlatProduct* p : {&of, &composed}) {
    EXPECT_EQ(p->stateCount(), 2u);
    EXPECT_EQ(p->stateName(1), "unreachable");
    EXPECT_TRUE(p->atomSat(*t.props->lookup("a.unreachable")).test(1));
  }
  expectSameProduct(composeAll({&a}), composed);
}

/// `capped`, composed under a bound of `cap` states, is the first `cap`
/// states of `full` with their edges into that prefix, in order.
void expectPrefix(const FlatProduct& full, const FlatProduct& capped,
                  std::size_t cap) {
  const std::size_t n = std::min(full.stateCount(), cap);
  ASSERT_EQ(capped.stateCount(), n) << "cap " << cap;
  EXPECT_EQ(capped.capped(), full.stateCount() > cap) << "cap " << cap;
  std::vector<StateId> initials;
  for (const StateId q : full.initialStates()) {
    if (q < n) initials.push_back(q);
  }
  EXPECT_EQ(capped.initialStates(), initials) << "cap " << cap;
  for (StateId p = 0; p < n; ++p) {
    EXPECT_EQ(capped.stateName(p), full.stateName(p));
    for (std::size_t k = 0; k < full.componentCount(); ++k) {
      EXPECT_EQ(capped.origin(p, k), full.origin(p, k));
    }
    std::vector<std::uint32_t> kept;
    for (std::uint32_t e = full.edgeBegin(p); e < full.edgeEnd(p); ++e) {
      if (full.edgeTarget(e) < n) kept.push_back(e);
    }
    ASSERT_EQ(capped.edgeEnd(p) - capped.edgeBegin(p), kept.size())
        << "cap " << cap << " state " << p;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const auto e = static_cast<std::uint32_t>(capped.edgeBegin(p) + i);
      EXPECT_EQ(capped.edgeTarget(e), full.edgeTarget(kept[i]));
      EXPECT_EQ(capped.edgeLabel(e), full.edgeLabel(kept[i]));
    }
  }
}

TEST(FlatProduct, ABoundKeepsThePrefixOfTheUnboundedProduct) {
  TwoPairs w;
  const std::size_t stride = strideFor({&w.a, &w.b, &w.mirrorA, &w.mirrorB});
  const AutomatonComponent a(w.a, stride), b(w.b, stride),
      ma(w.mirrorA, stride), mb(w.mirrorB, stride);
  const FlatProduct full = composeFlat({&ma, &a, &mb, &b});
  ASSERT_GE(full.stateCount(), 10u);
  EXPECT_FALSE(full.capped());
  for (std::size_t cap = 0; cap <= full.stateCount() + 1; ++cap) {
    expectPrefix(full, composeFlat({&ma, &a, &mb, &b}, cap), cap);
  }
  // One component is wrapped as is, unreachable states too: the bound
  // keeps its first states in its own numbering.
  const FlatProduct single = composeFlat({&a});
  for (std::size_t cap = 0; cap <= single.stateCount(); ++cap) {
    expectPrefix(single, composeFlat({&a}, cap), cap);
  }
}

TEST(FlatProduct, RejectsWhatComposeAllRejects) {
  TwoPairs w;
  const AutomatonComponent a(w.a, 1);
  const Automaton twin = w.a;  // same I and O as a
  const AutomatonComponent b(twin, 1);
  EXPECT_THROW(static_cast<void>(composeAll({&w.a, &twin})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(composeFlat({&a, &b})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(composeFlat({})), std::invalid_argument);
  const Automaton foreign = Automaton::withFreshTables("foreign");
  const AutomatonComponent f(foreign, 1);
  EXPECT_THROW(static_cast<void>(composeFlat({&a, &f})), std::invalid_argument);
}

}  // namespace
}  // namespace mui::automata

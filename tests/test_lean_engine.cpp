// Tests for the lean product engine (automata/flat_product.hpp,
// automata/virtual_closure.hpp): the virtual closure keeps
// chaoticClosure's numbering, names, labels and edge order on the shipped
// legacies, composeFlat equals composeAll's fold for any number of
// components and any signal count, and under a state bound it keeps the
// unbounded product's prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/chaos.hpp"
#include "automata/compose.hpp"
#include "automata/flat_product.hpp"
#include "automata/random.hpp"
#include "automata/virtual_closure.hpp"
#include "helpers.hpp"
#include "muml/integration.hpp"
#include "muml/loader.hpp"
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
  for (StateId s = 0; s < ref.copy1.size(); ++s) {
    EXPECT_EQ(view.copy1(s), ref.copy1[s]) << what;
  }
  std::vector<EdgeRef> edges;
  for (StateId c = 0; c < a.stateCount(); ++c) {
    const std::string at = what + " state " + a.stateName(c);
    EXPECT_EQ(view.stateName(c), a.stateName(c)) << at;
    EXPECT_EQ(view.labels(c), a.labels(c)) << at;
    EXPECT_EQ(view.isChaos(c), ref.isChaos(c)) << at;
    EXPECT_EQ(view.knownOrigin(c), ref.knownOrigin(c)) << at;
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
        for (const auto copies : {ClosureCopies::Both, ClosureCopies::Copy1Only}) {
          for (const auto style : {ClosureStyle::PaperExact,
                                   ClosureStyle::DeterministicTarget}) {
            const Closure ref = chaoticClosure(m, alphabet, style, copies);
            const VirtualClosure view(m, alphabet, style, copies, stride);
            expectSameClosure(ref, view, legacy);
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 8u * 3u * 4u);
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
    for (const auto copies : {ClosureCopies::Both, ClosureCopies::Copy1Only}) {
      const auto style = ClosureStyle::DeterministicTarget;
      const Closure ca = chaoticClosure(modelsA[i], alphaA, style, copies);
      const Closure cb = chaoticClosure(modelsB[i], alphaB, style, copies);
      const VirtualClosure va(modelsA[i], alphaA, style, copies, stride);
      const VirtualClosure vb(modelsB[i], alphaB, style, copies, stride);
      const FlatProduct lean = composeFlat({&ctx, &va, &vb});
      expectSameProduct(composeAll({&context, &ca.automaton, &cb.automaton}),
                        lean);
      states += lean.stateCount();
    }
  }
  EXPECT_GT(states, 150u);
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

// Tests for the structural mutation operators and the end-to-end mutation
// property: the integration loop's verdict on any mutant agrees with ground
// truth (no escapes), extending the verdict-agreement property to
// structured, non-random models.

#include <gtest/gtest.h>

#include "automata/compose.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"
#include "helpers.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/mutation.hpp"

namespace mui::testing {
namespace {

using test::Tables;

automata::Automaton shippedRear() {
  return *test::Railcab().bind("rearShipped").legacy.hidden;
}

TEST(Mutation, OperatorsProduceTheAdvertisedChange) {
  const auto original = shippedRear();

  const auto del = mutateAutomaton(original, MutationOp::DeleteTransition, 3);
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(del->first.transitionCount(), original.transitionCount() - 1);
  EXPECT_EQ(del->first.stateCount(), original.stateCount());
  EXPECT_NE(del->second.describe(original).find("delete"), std::string::npos);

  const auto drop = mutateAutomaton(original, MutationOp::DropOutputs, 3);
  ASSERT_TRUE(drop.has_value());
  EXPECT_EQ(drop->first.transitionCount(), original.transitionCount());
  // The mutated transition now emits nothing.
  bool foundSilenced = false;
  for (const auto& tr : drop->first.transitionsFrom(drop->second.from)) {
    if (tr.label.in == drop->second.label.in && tr.label.out.empty()) {
      foundSilenced = true;
    }
  }
  EXPECT_TRUE(foundSilenced);

  const auto redir = mutateAutomaton(original, MutationOp::RedirectTarget, 3);
  ASSERT_TRUE(redir.has_value());
  EXPECT_EQ(redir->first.transitionCount(), original.transitionCount());
  EXPECT_TRUE(redir->first.hasTransitionTo(
      redir->second.from, redir->second.label, redir->second.newTarget));
}

TEST(Mutation, MutantsStayInputDeterministic) {
  const auto original = shippedRear();
  for (const auto op : {MutationOp::DeleteTransition, MutationOp::DropOutputs,
                        MutationOp::RedirectTarget}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto mutant = mutateAutomaton(original, op, seed);
      ASSERT_TRUE(mutant.has_value());
      // AutomatonLegacy validates input-determinism at construction.
      EXPECT_NO_THROW(AutomatonLegacy{mutant->first});
    }
  }
}

TEST(Mutation, DeterministicInSeed) {
  const auto original = shippedRear();
  const auto a = mutateAutomaton(original, MutationOp::RedirectTarget, 5);
  const auto b = mutateAutomaton(original, MutationOp::RedirectTarget, 5);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->second.from, b->second.from);
  EXPECT_EQ(a->second.newTarget, b->second.newTarget);
  EXPECT_EQ(a->first.toText(), b->first.toText());
}

TEST(Mutation, NoApplicableSiteReturnsNullopt) {
  Tables t;
  automata::Automaton tiny(t.signals, t.props, "tiny");
  tiny.addState("only");
  tiny.markInitial(0);
  tiny.addTransition(0, {}, 0);  // single silent self-loop
  EXPECT_FALSE(
      mutateAutomaton(tiny, MutationOp::DropOutputs, 1).has_value());
  EXPECT_FALSE(
      mutateAutomaton(tiny, MutationOp::RedirectTarget, 1).has_value());
  EXPECT_TRUE(
      mutateAutomaton(tiny, MutationOp::DeleteTransition, 1).has_value());
}

class MutantAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutantAgreement, LoopVerdictMatchesGroundTruthOnEveryMutant) {
  const test::Railcab rc;
  const auto shipped = rc.bind("rearShipped");
  const auto& front = shipped.scenario.context;
  const auto& original = *shipped.legacy.hidden;
  const std::uint64_t seed = GetParam();
  for (const auto op : {MutationOp::DeleteTransition, MutationOp::DropOutputs,
                        MutationOp::RedirectTarget}) {
    const auto mutant = mutateAutomaton(original, op, seed);
    ASSERT_TRUE(mutant.has_value());
    const bool truth =
        ctl::verify(automata::compose(front, mutant->first).automaton,
                    ctl::parseFormula(rc.constraint()), {})
            .holds;
    AutomatonLegacy legacy(mutant->first);
    synthesis::IntegrationConfig cfg;
    cfg.property = rc.constraint();
    const auto res =
        synthesis::IntegrationVerifier(front, legacy, cfg).run();
    ASSERT_TRUE(res.verdict == synthesis::Verdict::ProvenCorrect ||
                res.verdict == synthesis::Verdict::RealError)
        << res.explanation;
    EXPECT_EQ(res.verdict == synthesis::Verdict::ProvenCorrect, truth)
        << mutant->second.describe(original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutantAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mui::testing

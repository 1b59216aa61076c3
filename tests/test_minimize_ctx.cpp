// The minimizeContext option must be verdict-invariant: replacing the
// context by its bisimulation quotient changes sizes and names but never
// the outcome or the soundness of the loop.

#include <gtest/gtest.h>

#include "automata/minimize.hpp"
#include "automata/random.hpp"
#include "helpers.hpp"
#include "synthesis/verifier.hpp"
#include "testing/legacy.hpp"
#include "testing/legacy_shuttle.hpp"

namespace mui::synthesis {
namespace {

using test::Tables;

TEST(MinimizeContext, ShuttleVerdictsUnchanged) {
  for (const bool faulty : {false, true}) {
    const test::Railcab rc;
    const auto front = rc.bind("rearShipped").scenario.context;
    testing::FirmwareShuttleLegacy legacy(rc.model.signals, faulty);
    IntegrationConfig cfg;
    cfg.property = rc.constraint();
    cfg.minimizeContext = true;
    const auto res = IntegrationVerifier(front, legacy, cfg).run();
    EXPECT_EQ(res.verdict, faulty ? Verdict::RealError
                                  : Verdict::ProvenCorrect)
        << res.explanation;
  }
}

class MinCtxAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinCtxAgreement, SameVerdictWithAndWithoutQuotient) {
  Tables t;
  automata::RandomSpec spec;
  spec.states = 7;
  spec.seed = GetParam();
  spec.name = "lg";
  const auto hidden = automata::randomAutomaton(spec, t.signals, t.props);
  const auto context = automata::mirrored(
      automata::subAutomaton(hidden, 60, GetParam() + 3, "sub"), "ctx");

  testing::AutomatonLegacy l1(hidden);
  const auto plain = IntegrationVerifier(context, l1, {}).run();
  testing::AutomatonLegacy l2(hidden);
  IntegrationConfig cfg;
  cfg.minimizeContext = true;
  const auto quotient = IntegrationVerifier(context, l2, cfg).run();
  EXPECT_EQ(plain.verdict, quotient.verdict) << quotient.explanation;
  // The quotient context can only shrink the products.
  if (!plain.journal.empty() && !quotient.journal.empty()) {
    EXPECT_LE(quotient.journal.front().productStates,
              plain.journal.front().productStates);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCtxAgreement,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mui::synthesis

// Tests for the property-based fuzzing subsystem (src/fuzz): seeded
// scenario generation, the five metamorphic oracles, greedy shrinking,
// reproducer round-trips, and campaign determinism. The harness self-test —
// an intentionally injected checker bug must be caught by O1 and shrunk to a
// handful of states — lives here too.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reproducer.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"

namespace mui::fuzz {
namespace {

TEST(FuzzScenario, GenerationIsDeterministicInTheSeed) {
  for (std::uint64_t seed : {1ull, 42ull, 31337ull}) {
    const Scenario a = generateScenario(seed);
    const Scenario b = generateScenario(seed);
    EXPECT_EQ(canonicalText(a.hidden), canonicalText(b.hidden));
    EXPECT_EQ(canonicalText(a.context), canonicalText(b.context));
    EXPECT_EQ(a.property, b.property);
  }
}

TEST(FuzzScenario, SizesStayWithinSpecAndPropertiesVary) {
  const ScenarioSpec spec;
  bool sawProperty = false;
  bool sawNoProperty = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = generateScenario(seed);
    EXPECT_GE(s.hidden.stateCount(), spec.minStates);
    EXPECT_LE(s.hidden.stateCount(), spec.maxStates);
    EXPECT_GE(s.context.stateCount(), 1u);
    sawProperty |= !s.property.empty();
    sawNoProperty |= s.property.empty();
  }
  EXPECT_TRUE(sawProperty);
  EXPECT_TRUE(sawNoProperty);
}

TEST(FuzzOracles, AllFiveOraclesCleanOverSeedRange) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Scenario s = generateScenario(seed);
    for (const OracleId id : allOracles()) {
      const OracleResult r = checkOracle(id, s);
      EXPECT_TRUE(r.ok) << toString(id) << " violated at seed " << seed
                        << ": " << r.detail;
    }
  }
}

TEST(FuzzOracles, NameRoundTripAndCatalog) {
  for (const OracleId id : allOracles()) {
    const auto back = oracleFromString(toString(id));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, id);
    EXPECT_NE(std::string(describeOracle(id)), "");
  }
  EXPECT_FALSE(oracleFromString("O9").has_value());
  EXPECT_FALSE(bugInjectionFromString("bogus").has_value());
  EXPECT_EQ(*bugInjectionFromString(toString(BugInjection::O1DeadlockAF)),
            BugInjection::O1DeadlockAF);
}

/// First seed in [1, 80] whose scenario exposes the injected O1 bug; the
/// injection needs a transition-less (deadlock) state in the composed model
/// and a top-level AF formula, which not every tiny scenario provides.
std::optional<std::uint64_t> findInjectedFailure(const OracleOptions& opts) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    if (!checkOracle(OracleId::O1CheckerAgreement, generateScenario(seed),
                     opts)
             .ok) {
      return seed;
    }
  }
  return std::nullopt;
}

TEST(FuzzSelfTest, InjectedCheckerBugIsCaughtByO1AndShrunkSmall) {
  OracleOptions opts;
  opts.injectBug = BugInjection::O1DeadlockAF;
  const auto seed = findInjectedFailure(opts);
  ASSERT_TRUE(seed.has_value())
      << "no scenario in range exposed the injected bug";

  const ShrinkOutcome out =
      shrinkScenario(generateScenario(*seed), OracleId::O1CheckerAgreement,
                     opts);
  EXPECT_FALSE(out.crashed);
  EXPECT_FALSE(out.failure.empty());
  // Acceptance bar from the issue: the minimal reproducer has at most six
  // states across both automata (empirically it reaches two).
  EXPECT_LE(out.scenario.totalStates(), 6u);
  // The shrinker pins the exposing formula into the scenario property.
  EXPECT_TRUE(out.options.propertyOnly);
  EXPECT_FALSE(out.scenario.property.empty());
  // The shrunk scenario still fails the oracle (and only under injection).
  EXPECT_FALSE(
      checkOracle(OracleId::O1CheckerAgreement, out.scenario, out.options)
          .ok);
  OracleOptions noBug = out.options;
  noBug.injectBug = BugInjection::None;
  EXPECT_TRUE(
      checkOracle(OracleId::O1CheckerAgreement, out.scenario, noBug).ok);
}

TEST(FuzzReproducer, WriteParseRoundTripPreservesScenario) {
  const Scenario s = generateScenario(5);
  const Reproducer orig{OracleId::O3VerdictSound, 5, s, ""};
  const std::string text = writeReproducer(orig);
  const Reproducer back = parseReproducer(text, "roundtrip");
  EXPECT_EQ(back.oracle, OracleId::O3VerdictSound);
  EXPECT_EQ(back.seed, 5u);
  EXPECT_EQ(back.scenario.property, s.property);
  EXPECT_EQ(canonicalText(back.scenario.hidden), canonicalText(s.hidden));
  EXPECT_EQ(canonicalText(back.scenario.context), canonicalText(s.context));
  EXPECT_TRUE(back.injectBug.empty());
}

TEST(FuzzReproducer, InjectBugHeaderRoundTripsAndDrivesReplay) {
  OracleOptions opts;
  opts.injectBug = BugInjection::O1DeadlockAF;
  const auto seed = findInjectedFailure(opts);
  ASSERT_TRUE(seed.has_value());
  const ShrinkOutcome out =
      shrinkScenario(generateScenario(*seed), OracleId::O1CheckerAgreement,
                     opts);

  const Reproducer orig{OracleId::O1CheckerAgreement, *seed, out.scenario,
                        toString(BugInjection::O1DeadlockAF)};
  const std::string text = writeReproducer(orig);
  EXPECT_NE(text.find("# inject-bug: o1-deadlock-af"), std::string::npos);

  const Reproducer back = parseReproducer(text, "selftest");
  EXPECT_EQ(back.injectBug, "o1-deadlock-af");
  // replayReproducer applies the recorded injection automatically, so the
  // self-test reproducer keeps reproducing under default options...
  OracleOptions replayOpts;
  replayOpts.propertyOnly = !back.scenario.property.empty();
  EXPECT_FALSE(replayReproducer(back, replayOpts).ok);
  // ...while the same payload without the header is clean.
  Reproducer noHeader = back;
  noHeader.injectBug.clear();
  EXPECT_TRUE(replayReproducer(noHeader, replayOpts).ok);
}

TEST(FuzzReproducer, GarbledHeadersAreRejected) {
  EXPECT_THROW(parseReproducer("signals {}\n", "x"), std::invalid_argument);
  EXPECT_THROW(
      parseReproducer("# mui fuzz reproducer v1\nsignals {}\n", "x"),
      std::invalid_argument);  // missing oracle header
  EXPECT_THROW(parseReproducer(
                   "# mui fuzz reproducer v1\n# oracle: O9\nsignals {}\n",
                   "x"),
               std::invalid_argument);
  EXPECT_THROW(
      parseReproducer("# mui fuzz reproducer v1\n# oracle: O1\n"
                      "# inject-bug: nonsense\nsignals {}\n",
                      "x"),
      std::invalid_argument);
}

TEST(FuzzCampaign, SummaryIsDeterministicAcrossRunsAndJobCounts) {
  FuzzOptions opts;
  opts.seed = 7;
  opts.runs = 25;
  const std::string one = renderFuzzSummary(runCampaign(opts));
  const std::string two = renderFuzzSummary(runCampaign(opts));
  EXPECT_EQ(one, two);
  opts.jobs = 4;
  const std::string parallel = renderFuzzSummary(runCampaign(opts));
  EXPECT_EQ(one, parallel);
  EXPECT_NE(one.find("clean: no oracle violations"), std::string::npos);
}

TEST(FuzzCampaign, InjectedBugProducesShrunkO1Findings) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.runs = 50;
  opts.oracles = {OracleId::O1CheckerAgreement};
  opts.oracle.injectBug = BugInjection::O1DeadlockAF;
  const FuzzReport report = runCampaign(opts);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.executed, 50u);
  ASSERT_FALSE(report.findings.empty());
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.oracle, OracleId::O1CheckerAgreement);
    EXPECT_LE(f.shrunkStates, 6u);
    // The reproducer records the injection so replay self-applies it.
    EXPECT_NE(f.reproducer.find("# inject-bug: o1-deadlock-af"),
              std::string::npos);
    const Reproducer r = parseReproducer(f.reproducer, "campaign");
    OracleOptions replayOpts;
    replayOpts.propertyOnly = !r.scenario.property.empty();
    EXPECT_FALSE(replayReproducer(r, replayOpts).ok)
        << "finding at seed " << f.scenarioSeed << " does not reproduce";
  }
  const std::string summary = renderFuzzSummary(report);
  EXPECT_NE(summary.find("FINDING O1"), std::string::npos);
  EXPECT_NE(summary.find("violations="), std::string::npos);
}

TEST(FuzzCampaign, OracleSubsetOnlyRunsRequestedOracles) {
  FuzzOptions opts;
  opts.seed = 3;
  opts.runs = 5;
  opts.oracles = {OracleId::O2ChaosSafety, OracleId::O5VerdictInvariance};
  const FuzzReport report = runCampaign(opts);
  EXPECT_EQ(report.checks.size(), 2u);
  EXPECT_EQ(report.checks.at("O2"), 5u);
  EXPECT_EQ(report.checks.at("O5"), 5u);
  EXPECT_EQ(report.checks.count("O1"), 0u);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace mui::fuzz

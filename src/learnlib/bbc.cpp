#include "learnlib/bbc.hpp"

#include <unordered_map>

#include "automata/compose.hpp"
#include "ctl/counterexample.hpp"
#include "ctl/parser.hpp"

namespace mui::learnlib {

BlackBoxChecker::BlackBoxChecker(automata::Automaton context,
                                 testing::LegacyComponent& legacy,
                                 BbcConfig config)
    : context_(std::move(context)), legacy_(legacy), config_(std::move(config)) {}

BbcResult BlackBoxChecker::run() {
  BbcResult res;
  const auto alphabet =
      automata::makeAlphabet(legacy_.inputs(), legacy_.outputs(),
                             automata::InteractionMode::AtMostOneSignal);
  std::unordered_map<automata::Interaction, Symbol, automata::InteractionHash>
      symbolOf;
  for (Symbol a = 0; a < alphabet.size(); ++a) symbolOf.emplace(alphabet[a], a);

  LegacyMembershipOracle oracle(legacy_, alphabet);
  WMethodOracle conformance(oracle, config_.stateBound);
  LStar learner(oracle, alphabet.size(), config_.ceStrategy);

  const ctl::FormulaPtr phi =
      config_.property.empty() ? nullptr : ctl::parseFormula(config_.property);

  const auto wordOfRun = [&](const automata::Product& product,
                             const automata::Run& run) {
    Word w;
    w.reserve(run.labels.size());
    for (const auto& l : run.labels) {
      w.push_back(symbolOf.at(product.projectInteraction(l, 1)));
    }
    return w;
  };

  for (std::size_t round = 0; round < config_.maxRounds; ++round) {
    res.rounds = round + 1;
    const Dfa hypothesis = learner.buildHypothesis();
    res.hypothesisStates = hypothesis.stateCount();
    const automata::Automaton hAut =
        hypothesis.toAutomaton(alphabet, context_.signalTable(),
                               context_.propTable(), legacy_.name() + "_hyp");
    const automata::Product product = automata::compose(context_, hAut);

    ctl::VerifyOptions vo;
    vo.requireDeadlockFree = config_.requireDeadlockFree;
    const auto vres = ctl::verify(product.automaton, phi, vo);

    if (vres.holds) {
      // The hypothesis satisfies the requirement — but an
      // under-approximation proves nothing until conformance establishes
      // equivalence up to the state bound (the paper's Sec. 6 critique).
      const auto ce = conformance.findCounterexample(hypothesis);
      if (!ce) {
        res.verdict = BbcVerdict::ProvenCorrectUpToBound;
        res.explanation = "hypothesis passed the check and the W-method "
                          "suite for the assumed state bound";
        break;
      }
      learner.addCounterexample(*ce, hypothesis);
      continue;
    }

    const auto& cex = vres.cex();
    if (!cex.pathExact) {
      res.verdict = BbcVerdict::Inconclusive;
      res.explanation = "counterexample shape unsupported";
      break;
    }
    const Word word = wordOfRun(product, cex.run);
    const bool realizable = oracle.member(word);

    if (cex.kind == ctl::Counterexample::Kind::Property) {
      if (realizable) {
        res.verdict = BbcVerdict::RealError;
        res.explanation = "property counterexample realizable on the "
                          "component";
        break;
      }
      learner.addCounterexample(word, hypothesis);  // over-claimed trace
      continue;
    }

    // Deadlock counterexample.
    if (!realizable) {
      learner.addCounterexample(word, hypothesis);
      continue;
    }
    // The prefix is real; the deadlock is real iff every context offer at
    // the stuck state is refused by the component.
    const automata::StateId stuck = cex.run.states.back();
    const automata::StateId ctxState = product.origins[stuck][0];
    bool escaped = false;
    for (const auto& t : context_.transitionsFrom(ctxState)) {
      const automata::Interaction offer{t.label.out & legacy_.inputs(),
                                        t.label.in & legacy_.outputs()};
      const auto sym = symbolOf.find(offer);
      if (sym == symbolOf.end()) continue;
      Word extended = word;
      extended.push_back(sym->second);
      if (oracle.member(extended)) {
        learner.addCounterexample(extended, hypothesis);  // refusal over-claimed
        escaped = true;
        break;
      }
    }
    if (!escaped) {
      res.verdict = BbcVerdict::RealError;
      res.explanation = "reachable deadlock confirmed on the component";
      break;
    }
  }

  res.membershipQueries = oracle.queries();
  res.periods = oracle.periods();
  res.equivalenceSuites = conformance.suitesRun();
  if (res.verdict == BbcVerdict::Inconclusive && res.explanation.empty()) {
    res.explanation = "round budget exhausted";
  }
  return res;
}

}  // namespace mui::learnlib

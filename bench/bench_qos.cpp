// E9 — connector QoS ablation (extends the paper's modeling claim that
// connector statecharts "model channel delay and reliability, which are of
// crucial importance for real-time systems"): the RailCab integration is
// re-verified with an explicit channel automaton between the shuttles. The
// pattern constraint AG !(rearRole.convoy && frontRole.noConvoy) encodes a
// *synchronous* mode handover; any transit delay lets the front shuttle
// leave convoy mode while the breakConvoyAccepted message is still in
// flight — a real desynchronization the verifier must find.

#include <cstdio>

#include "automata/compose.hpp"
#include "automata/rename.hpp"
#include "bench_util.hpp"
#include "muml/channel.hpp"
#include "testing/legacy_shuttle.hpp"

namespace {

using namespace mui;

/// Builds the context "front shuttle behind a radio link": the front role
/// rebound to channel endpoint names, composed with the channel automaton.
automata::Automaton channeledContext(const bench::Railcab& rc,
                                     const automata::Automaton& front,
                                     std::uint32_t delay, bool lossy) {
  // Rear -> front messages arrive via *_d endpoints; front -> rear messages
  // leave via *_u endpoints.
  const auto frontR = automata::renameSignals(
      front, {
                 {"convoyProposal", "convoyProposal_d"},
                 {"breakConvoyProposal", "breakConvoyProposal_d"},
                 {"convoyProposalRejected", "convoyProposalRejected_u"},
                 {"startConvoy", "startConvoy_u"},
                 {"breakConvoyRejected", "breakConvoyRejected_u"},
                 {"breakConvoyAccepted", "breakConvoyAccepted_u"},
             });
  const auto channel = muml::makeChannel(
      rc.model.signals, rc.model.props,
      {"radio",
       {
           {"convoyProposal", "convoyProposal_d"},
           {"breakConvoyProposal", "breakConvoyProposal_d"},
           {"convoyProposalRejected_u", "convoyProposalRejected"},
           {"startConvoy_u", "startConvoy"},
           {"breakConvoyRejected_u", "breakConvoyRejected"},
           {"breakConvoyAccepted_u", "breakConvoyAccepted"},
       },
       delay,
       /*capacity=*/2,
       lossy});
  return automata::composeAll({&frontR, &channel}).automaton;
}

}  // namespace

int main() {
  bench::printHeader(
      "E9: integration verdict vs connector QoS (delay / loss)",
      "The shipped (correct) firmware integrates cleanly over the direct "
      "connector. Any transit delay breaks the synchronous mode handover "
      "the pattern constraint demands: the verifier finds the in-flight "
      "breakConvoyAccepted desynchronization as a real error.");

  util::TextTable table({"connector", "context states", "verdict",
                         "iterations", "test periods", "wall ms"});

  struct Config {
    const char* name;
    bool direct;
    std::uint32_t delay;
    bool lossy;
  };
  struct Full {
    Config cfg;
    bool minimizeContext;
  };
  const Full configs[] = {
      {{"direct (paper)", true, 0, false}, false},
      {{"channel delay 1", false, 1, false}, false},
      {{"channel delay 1 (min ctx)", false, 1, false}, true},
      {{"channel delay 2", false, 2, false}, false},
      {{"channel delay 1 lossy", false, 1, true}, false},
  };

  std::string desyncCex;
  for (const auto& [cfg, minimize] : configs) {
    const bench::Railcab rc;
    const automata::Automaton front = rc.bind("rearShipped").scenario.context;
    const automata::Automaton context =
        cfg.direct ? front : channeledContext(rc, front, cfg.delay, cfg.lossy);
    testing::FirmwareShuttleLegacy firmware(rc.model.signals,
                                            /*faultyRevision=*/false);
    synthesis::IntegrationConfig vcfg;
    vcfg.property = rc.constraint();
    vcfg.minimizeContext = minimize;
    bench::Stopwatch watch;
    const auto res =
        synthesis::IntegrationVerifier(context, firmware, vcfg).run();
    table.row({cfg.name, std::to_string(context.stateCount()),
               bench::verdictName(res.verdict),
               std::to_string(res.iterations),
               std::to_string(res.totalTestPeriods),
               util::fmt(watch.ms(), 1)});
    if (!cfg.direct && !cfg.lossy && desyncCex.empty() &&
        !res.counterexampleText.empty()) {
      desyncCex = res.counterexampleText;
    }
  }
  std::printf("%s\n", table.str().c_str());
  if (!desyncCex.empty()) {
    std::printf("Desynchronization witness (delayed channel):\n%s\n",
                desyncCex.c_str());
  }
  return 0;
}

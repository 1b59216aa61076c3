#include "testing/legacy_shuttle.hpp"

namespace mui::testing {

void ShuttleControllerFirmware::init() { mode_ = MODE_DEFAULT; }

int ShuttleControllerFirmware::tick(int rx, int* tx) {
  *tx = OUT_NONE;
  switch (mode_) {
    case MODE_DEFAULT:
      if (rx != MSG_NONE) return RC_UNEXPECTED_MSG;
      mode_ = MODE_READY;  // arm the proposal for the next period
      return RC_OK;
    case MODE_READY:
      if (rx != MSG_NONE) return RC_UNEXPECTED_MSG;
      *tx = OUT_CONVOY_PROPOSAL;
      // The faulty revision assumes the convoy is granted immediately; the
      // shipped firmware waits for the front shuttle's answer.
      mode_ = faulty_ ? MODE_CONVOY : MODE_WAIT;
      return RC_OK;
    case MODE_WAIT:
      switch (rx) {
        case MSG_NONE:
          return RC_OK;  // keep waiting
        case MSG_CONVOY_PROPOSAL_REJECTED:
          mode_ = MODE_DEFAULT;
          return RC_OK;
        case MSG_START_CONVOY:
          mode_ = MODE_CONVOY;
          return RC_OK;
        default:
          return RC_UNEXPECTED_MSG;
      }
    case MODE_CONVOY:
      if (rx != MSG_NONE) return RC_UNEXPECTED_MSG;
      if (faulty_) return RC_OK;  // the old revision just drives on
      mode_ = MODE_HOLD;
      return RC_OK;
    case MODE_HOLD:
      if (rx != MSG_NONE) return RC_UNEXPECTED_MSG;
      *tx = OUT_BREAK_CONVOY_PROPOSAL;
      mode_ = MODE_CONVOY_WAIT;
      return RC_OK;
    case MODE_CONVOY_WAIT:
      switch (rx) {
        case MSG_NONE:
          return RC_OK;
        case MSG_BREAK_CONVOY_REJECTED:
          mode_ = MODE_CONVOY;
          return RC_OK;
        case MSG_BREAK_CONVOY_ACCEPTED:
          mode_ = MODE_DEFAULT;
          return RC_OK;
        default:
          return RC_UNEXPECTED_MSG;
      }
  }
  return RC_UNEXPECTED_MSG;
}

const char* ShuttleControllerFirmware::debugModeName() const {
  switch (mode_) {
    case MODE_DEFAULT:
      return "noConvoy::default";
    case MODE_READY:
      return "noConvoy::ready";
    case MODE_WAIT:
      return "noConvoy::wait";
    case MODE_CONVOY:
      return "convoy::default";
    case MODE_HOLD:
      return "convoy::hold";
    case MODE_CONVOY_WAIT:
      return "convoy::wait";
  }
  return "?";
}

FirmwareShuttleLegacy::FirmwareShuttleLegacy(
    const automata::SignalTableRef& signals, bool faultyRevision)
    : signals_(signals), fw_(faultyRevision) {
  // The rear role's messages in models/railcab.muml.
  inRejected_ = signals_->intern("convoyProposalRejected");
  inStart_ = signals_->intern("startConvoy");
  inBreakRejected_ = signals_->intern("breakConvoyRejected");
  inBreakAccepted_ = signals_->intern("breakConvoyAccepted");
  outProposal_ = signals_->intern("convoyProposal");
  outBreakProposal_ = signals_->intern("breakConvoyProposal");
  inputs_.set(inRejected_);
  inputs_.set(inStart_);
  inputs_.set(inBreakRejected_);
  inputs_.set(inBreakAccepted_);
  outputs_.set(outProposal_);
  outputs_.set(outBreakProposal_);
  fw_.init();
}

void FirmwareShuttleLegacy::reset() { fw_.init(); }

std::optional<SignalSet> FirmwareShuttleLegacy::step(const SignalSet& inputs) {
  // Marshal the signal set onto the single-message legacy bus.
  if (inputs.count() > 1) return std::nullopt;  // the bus carries one message
  int rx = ShuttleControllerFirmware::MSG_NONE;
  if (inputs.test(inRejected_)) {
    rx = ShuttleControllerFirmware::MSG_CONVOY_PROPOSAL_REJECTED;
  } else if (inputs.test(inStart_)) {
    rx = ShuttleControllerFirmware::MSG_START_CONVOY;
  } else if (inputs.test(inBreakRejected_)) {
    rx = ShuttleControllerFirmware::MSG_BREAK_CONVOY_REJECTED;
  } else if (inputs.test(inBreakAccepted_)) {
    rx = ShuttleControllerFirmware::MSG_BREAK_CONVOY_ACCEPTED;
  } else if (!inputs.empty()) {
    return std::nullopt;  // signal outside the legacy interface
  }

  ShuttleControllerFirmware saved = fw_;  // roll back on refusal
  int tx = ShuttleControllerFirmware::OUT_NONE;
  if (fw_.tick(rx, &tx) != ShuttleControllerFirmware::RC_OK) {
    fw_ = saved;
    return std::nullopt;
  }
  SignalSet out;
  if (tx == ShuttleControllerFirmware::OUT_CONVOY_PROPOSAL) {
    out.set(outProposal_);
  } else if (tx == ShuttleControllerFirmware::OUT_BREAK_CONVOY_PROPOSAL) {
    out.set(outBreakProposal_);
  }
  return out;
}

std::string FirmwareShuttleLegacy::currentStateName() const {
  return fw_.debugModeName();
}

std::unique_ptr<LegacyComponent> FirmwareShuttleLegacy::clone() const {
  return std::make_unique<FirmwareShuttleLegacy>(*this);
}

}  // namespace mui::testing

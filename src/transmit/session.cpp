#include "transmit/session.hpp"

#include "obs/profile.hpp"
#include "transmit/round_driver.hpp"
#include "util/check.hpp"

namespace mobiweb::transmit {

TransferSession::TransferSession(const DocumentTransmitter& transmitter,
                                 ClientReceiver& receiver,
                                 channel::WirelessChannel& channel,
                                 SessionConfig config)
    : transmitter_(&transmitter), receiver_(&receiver), channel_(&channel),
      config_(config) {
  MOBIWEB_CHECK_MSG(config_.max_rounds >= 1, "TransferSession: max_rounds >= 1");
}

const char* status_name(SessionStatus s) {
  switch (s) {
    case SessionStatus::kCompleted: return "completed";
    case SessionStatus::kAbortedIrrelevant: return "aborted_irrelevant";
    case SessionStatus::kDegraded: return "degraded";
    case SessionStatus::kGaveUp: return "gave_up";
  }
  return "unknown";
}

SessionResult TransferSession::run() {
  MOBIWEB_PROFILE_SCOPE("session.transfer");
  RoundDriver driver(*channel_, {.relevance_threshold = config_.relevance_threshold,
                                 .max_rounds = config_.max_rounds,
                                 .request_delay_s = config_.request_delay_s,
                                 .trace = config_.trace});
  driver.serve(*transmitter_);
  driver.bind(*receiver_);
  return driver.run().session;
}

}  // namespace mobiweb::transmit

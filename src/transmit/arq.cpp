#include "transmit/arq.hpp"

#include "transmit/round_driver.hpp"
#include "util/check.hpp"

namespace mobiweb::transmit {

ArqSession::ArqSession(const DocumentTransmitter& transmitter,
                       ClientReceiver& receiver, channel::WirelessChannel& channel,
                       ArqConfig config)
    : transmitter_(&transmitter), receiver_(&receiver), channel_(&channel),
      config_(config) {
  MOBIWEB_CHECK_MSG(transmitter_->n() == transmitter_->m(),
                    "ArqSession: transmitter must carry no redundancy (gamma=1)");
  MOBIWEB_CHECK_MSG(config_.max_rounds >= 1, "ArqSession: max_rounds >= 1");
}

SessionResult ArqSession::run() {
  RoundDriver driver(*channel_, {.relevance_threshold = config_.relevance_threshold,
                                 .max_rounds = config_.max_rounds,
                                 .request_delay_s = config_.feedback_delay_s,
                                 .selective_repeat = true,
                                 .trace = config_.trace});
  driver.serve(*transmitter_);
  driver.bind(*receiver_);
  return driver.run().session;
}

}  // namespace mobiweb::transmit

#include "transmit/resilient.hpp"

#include "obs/profile.hpp"
#include "transmit/round_driver.hpp"
#include "util/check.hpp"

namespace mobiweb::transmit {

ResilientSession::ResilientSession(const DocumentTransmitter& transmitter,
                                   ClientReceiver& receiver,
                                   channel::WirelessChannel& channel,
                                   ResilientConfig config)
    : transmitter_(&transmitter), receiver_(&receiver), channel_(&channel),
      config_(config), jitter_rng_(config.jitter_seed) {
  MOBIWEB_CHECK_MSG(config_.max_rounds >= 1, "ResilientSession: max_rounds >= 1");
  config_.retry.validate();
}

ResilientResult ResilientSession::run() {
  MOBIWEB_PROFILE_SCOPE("session.resilient");
  RoundDriver driver(*channel_, {.relevance_threshold = config_.relevance_threshold,
                                 .max_rounds = config_.max_rounds,
                                 .retry = &config_.retry,
                                 .jitter = &jitter_rng_,
                                 .trace = config_.trace});
  driver.serve(*transmitter_);
  driver.bind(*receiver_);
  return driver.run();
}

}  // namespace mobiweb::transmit

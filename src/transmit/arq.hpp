// Selective-repeat ARQ — the classical alternative the paper contrasts with
// redundancy-based fault tolerance ("alternative mechanisms such as
// compression or ARQ are also implemented", §4.2).
//
// No erasure coding: the server streams the M raw packets (gamma = 1); the
// client NACKs the corrupted/missing sequence numbers at the end of each
// round and the server retransmits exactly those. Per-packet airtime is
// minimal, but every recovery round costs one feedback round trip, and the
// scheme fundamentally requires a back channel — the trade-off the ablation
// bench (bench_ablation_arq) quantifies against IDA redundancy.
// ArqSession is transmit::RoundDriver with selective repeat on; its analytic
// mirror is sim::simulate_arq_transfer.
#pragma once

#include "channel/channel.hpp"
#include "transmit/receiver.hpp"
#include "transmit/session.hpp"  // SessionResult
#include "transmit/transmitter.hpp"

namespace mobiweb::transmit {

struct ArqConfig {
  // < 0: relevant document (full download); otherwise abort at threshold F.
  double relevance_threshold = -1.0;
  // Time for the client's NACK to reach the server (charged per extra round).
  double feedback_delay_s = 0.0;
  int max_rounds = 1000;
  // Optional per-session event trace (see SessionConfig::trace).
  obs::SessionTrace* trace = nullptr;
};

// Drives one document transfer with selective repeat. The transmitter must
// have been built with gamma = 1 (no redundancy packets); the receiver's
// cache keeps everything received (ARQ is inherently caching).
class ArqSession {
 public:
  ArqSession(const DocumentTransmitter& transmitter, ClientReceiver& receiver,
             channel::WirelessChannel& channel, ArqConfig config = {});

  SessionResult run();

 private:
  const DocumentTransmitter* transmitter_;
  ClientReceiver* receiver_;
  channel::WirelessChannel* channel_;
  ArqConfig config_;
};

}  // namespace mobiweb::transmit

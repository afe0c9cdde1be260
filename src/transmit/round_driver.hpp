// The one round body of the real frame/CRC stack: the paper's transfer
// protocol (§4.2, see session.hpp) for TransferSession, ResilientSession,
// ArqSession (selective repeat) and proxy::ProxyResilientSession. Frames go
// through the channel to the receiver, whose CRC and decoder decide them. A
// stalled round's tail is plain (request_delay_s) or, given a retry policy,
// resilient: suspend while the link is down, then re-request until one
// request is delivered. Like sim::SessionWalk's, it branches on the policy.
// Internal: include it only to implement a session.
#pragma once

#include "channel/channel.hpp"
#include "sim/transfer.hpp"
#include "transmit/resilient.hpp"
#include "util/rng.hpp"

namespace mobiweb::transmit {

class RoundDriver;

// The edge tier's two points of entry into a resilient session (proxy depends
// on transmit, not the other way round). Both run between rounds only; each
// may swap the transmitter being served (RoundDriver::serve) and returns false
// to end the session degraded.
class EdgeHooks {
 public:
  // After the link came back from an outage: re-attach and reconcile.
  virtual bool after_resume(RoundDriver& driver) = 0;
  // Once per stalled round, before the re-request.
  virtual bool before_request(RoundDriver& driver) = 0;

 protected:
  ~EdgeHooks() = default;  // never owned through this interface
};

struct RoundConfig {
  // < 0: relevant document (full download); otherwise abort at threshold F.
  double relevance_threshold = -1.0;
  int max_rounds = 1000;
  // Plain tail: channel time one re-request costs.
  double request_delay_s = 0.0;
  // Selective repeat (ArqSession): send only the frames the client lacks, keep
  // its cache across rounds, and trace each request with the count missing.
  bool selective_repeat = false;
  // Resilient tail when set, with its client-side jitter stream (required
  // then). There a delivered request costs the channel's feedback_delay_s
  // instead of request_delay_s.
  const sim::RetryConfig* retry = nullptr;
  Rng* jitter = nullptr;
  obs::SessionTrace* trace = nullptr;  // nullptr = no-op sink
  EdgeHooks* edge = nullptr;           // resilient tail only
};

class RoundDriver {
 public:
  // Starts the session clock at the channel's current time. A NaN
  // relevance_threshold throws ContractViolation.
  RoundDriver(channel::WirelessChannel& channel, RoundConfig config);

  // What the rounds put on the air; `stale` counts every newly useful frame
  // it delivers as served stale. Set before run(), or by an edge hook.
  void serve(const DocumentTransmitter& transmitter, bool stale = false) {
    transmitter_ = &transmitter;
    serving_stale_ = stale;
  }
  // The client's receiver; set once, before run().
  void bind(ClientReceiver& receiver) { receiver_ = &receiver; }

  // Runs rounds to a terminal status. `partial` is filled on the resilient
  // tail only.
  ResilientResult run();
  // Ends the session with `status`, stamping the result and the trace: the
  // verdict and session_end share the terminating arrival, except that a
  // degraded session ends at the channel clock. Callable before any round
  // (and before bind()), when there is nothing to serve.
  ResilientResult finish(SessionStatus status);

  // Backs off until `up()` answers, each wait consuming one request attempt
  // of the retry budget. False when the budget or the deadline ran out
  // first. Resilient tail only.
  template <class Up>
  bool ride_out(Up up);

  [[nodiscard]] long stale_frames() const { return stale_frames_; }

 private:
  // The stalled-round tail; false = the session degraded.
  bool request_next_round();
  [[nodiscard]] bool budget_exhausted() const;
  void wait_one_backoff();

  channel::WirelessChannel* channel_;
  RoundConfig config_;
  const DocumentTransmitter* transmitter_ = nullptr;
  ClientReceiver* receiver_ = nullptr;
  bool serving_stale_ = false;
  long stale_frames_ = 0;
  double start_;
  double last_arrival_;  // client clock: arrival of the last frame received
  double backoff_ = 0.0;
  ResilientResult out_;
};

template <class Up>
bool RoundDriver::ride_out(Up up) {
  while (!up()) {
    if (budget_exhausted()) return false;
    ++out_.request_attempts;
    wait_one_backoff();
  }
  backoff_ = config_.retry->initial_timeout_s;  // it answered: start fresh
  return true;
}

}  // namespace mobiweb::transmit

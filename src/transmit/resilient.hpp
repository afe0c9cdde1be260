// Outage-tolerant transfer driver: TransferSession semantics hardened for a
// genuinely weakly-connected link.
//
// The paper's transfer loop assumes the link stays up and retransmission
// requests always reach the server. ResilientSession drops both assumptions:
//
//   * frames can be lost to a link outage (channel OutageModel) — the
//     receiver's intact-packet cache survives the disconnection, so when the
//     link comes back the transfer *resumes* instead of restarting (the
//     paper's Caching strategy, generalized across disconnections);
//   * the retransmission request itself can be dropped (lossy back channel) —
//     the client re-requests after a per-round timeout with exponential
//     backoff + jitter, up to a retry budget;
//   * a fully dead round suspends the session: the client backs off until the
//     link is observed up again, then resumes from the cache;
//   * when the retry budget or the response deadline is exhausted the session
//     degrades gracefully — it returns SessionStatus::kDegraded together with
//     a PartialDocument assembled from the systematic prefix and every unit
//     already decodable from cached packets, instead of failing empty.
#pragma once

#include <cstdint>

#include "channel/channel.hpp"
#include "obs/trace.hpp"
#include "sim/transfer.hpp"
#include "transmit/receiver.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"
#include "util/rng.hpp"

namespace mobiweb::transmit {

struct ResilientConfig {
  // < 0: relevant document (full download); otherwise abort at threshold F.
  double relevance_threshold = -1.0;
  int max_rounds = 1000;  // safety valve on transmitted rounds
  sim::RetryConfig retry;  // the one retry/backoff policy, shared with sim
  std::uint64_t jitter_seed = 0x6a69747465ull;  // client-side backoff rng
  // Optional per-session event trace (see SessionConfig::trace).
  obs::SessionTrace* trace = nullptr;
};

struct ResilientResult {
  SessionResult session;
  // Degraded-mode deliverable; assembled whenever the session terminates
  // without full reconstruction (status kDegraded or kGaveUp), and also on
  // kCompleted (then it simply carries every unit). Empty on an irrelevance
  // abort only if nothing was renderable yet.
  PartialDocument partial;
  int request_attempts = 0;  // re-requests sent (delivered or dropped)
  int timeouts = 0;          // re-requests that had to be retried
  int outages_ridden = 0;    // suspend/resume cycles around a dead link
  double backoff_total_s = 0.0;  // channel time spent waiting to retry
};

class ResilientSession {
 public:
  ResilientSession(const DocumentTransmitter& transmitter,
                   ClientReceiver& receiver, channel::WirelessChannel& channel,
                   ResilientConfig config = {});

  // Runs to termination. Never hangs: every loop either transmits a bounded
  // round, consumes retry budget, or trips the deadline; the worst case is a
  // Degraded/GaveUp result carrying whatever was decodable.
  ResilientResult run();

 private:
  const DocumentTransmitter* transmitter_;
  ClientReceiver* receiver_;
  channel::WirelessChannel* channel_;
  ResilientConfig config_;
  Rng jitter_rng_;
};

}  // namespace mobiweb::transmit

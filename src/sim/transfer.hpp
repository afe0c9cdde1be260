// Packet-level analytic transfer simulator.
//
// Mirrors transmit::TransferSession + ida::StreamingDecoder semantics exactly
// but replaces real encoding/CRC with Bernoulli corruption draws, so millions
// of document transfers run in seconds. The SimVsReal.* tests in
// tests/test_integration.cpp check the two paths agree on identical
// corruption patterns. Every oracle here runs one sim::SessionWalk
// (sim/walk.hpp) to its end.
#pragma once

#include <functional>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace mobiweb::sim {

struct TransferConfig {
  int m = 40;                        // raw packets
  int n = 60;                        // cooked packets per round
  double alpha = 0.1;                // per-packet corruption probability
  bool caching = true;               // keep intact packets across rounds
  double relevance_threshold = -1.0; // F; < 0 = relevant (full download)
  double time_per_packet = 260.0 * 8.0 / 19200.0;  // (s_p + O) * 8 / B
  double request_delay = 0.0;        // added per stalled round
  int max_rounds = 25;               // cap for hopeless (alpha, gamma) combos
  // Optional link-availability hook (fault injection): called with the
  // analytic clock after each packet's airtime; false = the packet was lost
  // to a link outage (airtime charged, nothing received). nullptr = link
  // always up. Mirrors channel::OutageModel on the analytic path.
  std::function<bool(double now)> link_up;
  // Optional back-channel loss draw: true = this retransmission request was
  // dropped, costing one extra request_delay (the client's timeout) before
  // the retry. Retries are capped (kMaxFeedbackTries) so a pathological
  // always-lost hook cannot hang the simulator. nullptr = reliable feedback.
  std::function<bool()> feedback_lost;
  // Optional per-session event trace, on the simulator's analytic clock
  // (packets * time_per_packet + stalls * request_delay). nullptr = no-op.
  obs::SessionTrace* trace = nullptr;

  // Throws ContractViolation unless 1 <= m <= n <= ida::kMaxPackets,
  // max_rounds >= 1, request_delay is finite and >= 0 and
  // relevance_threshold is not NaN.
  void validate() const;
};

// Bound on back-channel retries per stalled round in the analytic simulator.
inline constexpr int kMaxFeedbackTries = 64;

// The one retry/backoff policy. The analytic walk, fleet::FleetEngine and the
// real-stack sessions (transmit::ResilientSession,
// proxy::ProxyResilientSession, BrowseSession) all take this struct and its
// validate(), so every resilient path agrees on semantics.
struct RetryConfig {
  int retry_budget = 16;             // total request attempts before kDegraded
  double initial_timeout_s = 0.5;    // first backoff wait
  double backoff_multiplier = 2.0;   // exponential growth per wait
  double max_backoff_s = 30.0;       // backoff ceiling
  double jitter = 0.1;               // wait stretched by U[0, jitter)
  double deadline_s = -1.0;          // wall budget per session; < 0 = none

  // Throws ContractViolation on a budget < 1, a negative timeout or jitter,
  // a multiplier < 1, a ceiling below the initial timeout, a non-finite
  // multiplier, ceiling or jitter, or a NaN deadline.
  void validate() const;
};

struct ResilientTransferConfig {
  TransferConfig base;               // round body + link_up / feedback_lost hooks
  RetryConfig retry;
  std::uint64_t jitter_seed = 0x6a69747465ull;  // dedicated jitter RNG stream
};

struct TransferResult {
  double time = 0.0;
  long packets = 0;
  int rounds = 0;
  bool completed = false;          // M intact packets collected
  bool aborted_irrelevant = false; // stopped at the relevance threshold
  bool gave_up = false;            // hit max_rounds while stalled
  bool degraded = false;           // resilient path only: retry budget/deadline
                                   // exhausted; `content` holds the partial take
  double content = 0.0;            // information content at termination
  long frames_lost = 0;            // frames swallowed by a link outage
  int suspensions = 0;             // suspend→resume cycles ridden (resilient)
  int request_attempts = 0;        // retry budget consumed (resilient)
  double backoff_s = 0.0;          // time spent suspended / backing off (resilient)
};

// `clear_content[i]` = information content carried by clear-text packet i
// (size m, summing to the document's total content, normally 1).
TransferResult simulate_transfer(const std::vector<double>& clear_content,
                                 const TransferConfig& config, Rng& rng);

// Same, but with an arbitrary per-packet corruption source (one call per
// packet sent, true = corrupted). Used to drive the simulator with scripted
// patterns (equivalence tests against the real transmit stack) and with
// burst-error models (channel ablation); config.alpha is ignored.
TransferResult simulate_transfer(const std::vector<double>& clear_content,
                                 const TransferConfig& config,
                                 const std::function<bool()>& next_corrupted);

// Analytic mirror of transmit::ResilientSession — the weakly-connected round
// body. Per round the n frames go out with airtime charged whether or not the
// link is up (config.base.link_up decides frame loss); a stalled round whose
// end falls inside a fade suspends the client, which backs off exponentially
// (jittered, consuming retry budget) until the link is observed up; every
// retransmission request — including successful ones — consumes budget, and
// an exhausted budget or deadline terminates with `degraded = true` carrying
// the partial content collected so far. Draw order matches ResilientSession
// draw-for-draw: corruption from `rng`, jitter from a dedicated stream seeded
// by `jitter_seed` (one draw per wait even at jitter = 0), link-availability
// queries in the exact sequence the real session makes them — which is what
// keeps the fleet-vs-oracle parity tests exact. With link_up unset and
// retry_budget > max_rounds the walk is bit-identical to simulate_transfer.
TransferResult simulate_resilient_transfer(
    const std::vector<double>& clear_content,
    const ResilientTransferConfig& config, Rng& rng);
TransferResult simulate_resilient_transfer(
    const std::vector<double>& clear_content,
    const ResilientTransferConfig& config,
    const std::function<bool()>& next_corrupted);

// Selective-repeat ARQ baseline (no erasure coding): round 1 sends the m raw
// packets, every later round resends exactly the still-missing ones, each
// extra round charging `request_delay` of feedback latency: the walk in its
// resend-missing-only mode, mirroring transmit::ArqSession. `n` and `caching`
// are ignored (ARQ is inherently caching and carries no redundancy).
TransferResult simulate_arq_transfer(const std::vector<double>& clear_content,
                                     const TransferConfig& config, Rng& rng);
TransferResult simulate_arq_transfer(const std::vector<double>& clear_content,
                                     const TransferConfig& config,
                                     const std::function<bool()>& next_corrupted);

}  // namespace mobiweb::sim

// Proxied resilient transfer driver: ResilientSession semantics with the
// edge tier underneath — origin failover, scripted cell handoffs, and
// reconnect reconciliation, all on the real frame/CRC/decoder stack.
//
// The client attaches to an edge proxy and streams the served replica's
// cooked frames over the wireless channel exactly like ResilientSession.
// Three things change:
//
//   * the serving replica can be stale (origin down at attach/validate time,
//     EdgeProxy failed over): delivery continues, but every packet banked
//     while stale is counted and the result carries the flag — stale bytes
//     are never passed off as fresh;
//   * a scripted channel::HandoffSchedule moves the client to the next proxy
//     of the pool mid-transfer: the attach cost is charged, the new proxy
//     serves (possibly a different generation, possibly failing over), and
//     the client's partial cache is reconciled;
//   * after every link-outage resume the client re-validates its serving
//     replica the same way — resume-then-reconcile is the paper's Caching
//     strategy generalized across replica generations: matching packets are
//     kept, a generation mismatch drops the cache for re-fetch
//     (proxy::reconcile decides, all-or-nothing here because a session's
//     cached packets always share one generation).
//
// A cold proxy with a dead origin has nothing to serve: the client suspends
// under the shared retry/backoff policy (consuming budget, so a dead origin
// still terminates) until the origin answers or the session degrades.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/channel.hpp"
#include "channel/handoff.hpp"
#include "proxy/proxy.hpp"
#include "sim/proxied.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "util/rng.hpp"

namespace mobiweb::proxy {

struct ProxySessionConfig {
  // < 0: relevant document (full download); otherwise abort at threshold F.
  double relevance_threshold = -1.0;
  int max_rounds = 1000;  // safety valve on transmitted rounds
  sim::RetryConfig retry;
  std::uint64_t jitter_seed = 0x6a69747465ull;  // client-side backoff rng
  bool caching = true;  // keep intact packets across stalled rounds
  // Scripted cell switches (channel-clock instants). Each handoff advances
  // the client to the next proxy of the pool (round-robin) and charges
  // handoff_delay_s of attach latency.
  channel::HandoffSchedule handoffs;
  double handoff_delay_s = 0.3;
};

struct ProxySessionResult {
  transmit::SessionResult session;
  // Degraded-mode deliverable, as in ResilientResult. Empty when the session
  // degraded before any proxy could serve at all.
  transmit::PartialDocument partial;
  int request_attempts = 0;
  int timeouts = 0;
  int outages_ridden = 0;
  double backoff_total_s = 0.0;
  sim::ProxyStats proxy;         // edge-tier accounting (shared shape)
  std::uint32_t serving_proxy = 0;  // pool index serving at session end
};

class ProxyResilientSession {
 public:
  // `proxies` is the cell pool (non-empty, non-null entries); the session
  // starts attached to proxies[initial % size].
  ProxyResilientSession(std::vector<EdgeProxy*> proxies,
                        channel::WirelessChannel& channel,
                        ProxySessionConfig config = {},
                        std::size_t initial = 0);

  // Runs one document transfer to termination. Never hangs: every loop
  // either transmits a bounded round, consumes retry budget, or trips the
  // deadline (worst case kDegraded with whatever was decodable).
  ProxySessionResult run(const fleet::CacheKey& key);

 private:
  class Edge;  // the edge tier's side of one run (session.cpp)

  std::vector<EdgeProxy*> proxies_;
  channel::WirelessChannel* channel_;
  ProxySessionConfig config_;
  Rng jitter_rng_;
  std::size_t current_;
};

}  // namespace mobiweb::proxy

// Analytic proxied-transfer simulator: the edge-proxy tier as a second,
// independent failure domain layered under the resilient walk.
//
// The paper assumes the origin server is reachable whenever the wireless link
// is up. simulate_proxied_transfer breaks that assumption the way src/proxy
// does for the real stack: the client attaches to an edge proxy that may hold
// a pre-encoded replica of the document (warm with probability `warm_hit`,
// aged exponentially), the origin has its own availability process
// (`origin_up`), replicas carry an origin *generation* stamp that advances
// every `update_interval_s` seconds, and the proxy
//   * validates/refreshes the replica when the origin answers,
//   * fails over to the stale-but-flagged replica when it does not,
//   * suspends the client under the retry/backoff policy when it is cold AND
//     the origin is down (nothing to serve at all).
// A cell handoff (one Bernoulli draw per stalled round) moves the client to a
// fresh proxy with new warm/age draws; after a handoff — and after every
// link-outage resume — the client's partial-document cache is *reconciled*
// against the serving replica's generation: matching packets are kept, a
// generation mismatch drops the cached packets for re-fetch.
//
// The walk itself is sim::SessionWalk with an edge tier engaged; the fleet
// engine's proxied mode (FleetConfig::proxy) runs the same walk, so
// per-session results are EXPECT_EQ-able (tests/test_fleet.cpp pins it).
// With warm_hit = 1, a static corpus (update_interval_s = 0), handoff_rate =
// 0, and no origin_up hook, the walk is bit-identical to
// simulate_resilient_transfer (pinned in tests/test_sim.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/transfer.hpp"
#include "util/rng.hpp"

namespace mobiweb::sim {

// Shape of the analytic edge tier. All rates/means are per session.
struct ProxyModelConfig {
  // Probability a newly-attached proxy already holds a replica of the
  // requested document (edge hit rate of the ablation).
  double warm_hit = 0.6;
  // A warm replica's age is exponential with this mean; its generation stamp
  // is the origin generation as of (attach time - age). 0 = always current.
  double replica_age_mean_s = 120.0;
  // Proxy->origin fetch/refresh round-trip charged to the client's clock.
  double origin_fetch_delay_s = 0.5;
  // Per-stalled-round probability the client hands off to a new cell/proxy.
  double handoff_rate = 0.0;
  // Attach cost of a handoff (rebind + replica lookup on the new proxy).
  double handoff_delay_s = 0.3;
  // The origin publishes a new document version every this many seconds of
  // session time; replicas stamped with an older generation are stale.
  // 0 = static corpus (generation 0 forever).
  double update_interval_s = 0.0;
  // Size of the proxy pool (per-session assignment in the fleet engine; the
  // analytic walk itself treats proxies as i.i.d.).
  std::uint32_t proxies = 4;

  // Throws ContractViolation on a probability outside its range
  // (handoff_rate must stay < 1), a negative or non-finite
  // delay/mean/interval, or an empty proxy pool.
  void validate() const;
};

struct ProxiedTransferConfig {
  TransferConfig base;   // round body + wireless link_up / feedback_lost hooks
  RetryConfig retry;     // shared suspend/backoff/budget policy
  ProxyModelConfig proxy;
  // Origin availability at session time `now` (its own OutageModel clone in
  // the fleet). Queries are non-decreasing in time. nullptr = always up.
  std::function<bool(double now)> origin_up;
  std::uint64_t jitter_seed = 0x6a69747465ull;  // dedicated jitter RNG stream
  std::uint64_t proxy_seed = 0x70726f7879ull;   // warm/age/handoff RNG stream
};

// Per-session edge-tier accounting, alongside the base TransferResult.
struct ProxyStats {
  int replica_hits = 0;       // validations that found the replica current
  int stale_serves = 0;       // servings from a stale-but-flagged replica
  int failovers = 0;          // origin found down at a validate/fetch point
  int handoffs = 0;           // cell/proxy switches mid-transfer
  int origin_fetches = 0;     // proxy->origin fetch/refresh round-trips
  int origin_suspensions = 0; // suspend->resume cycles waiting out an origin
                              // fade with nothing cached to serve
  int reconciliations = 0;    // partial-cache validations (resume + handoff)
  long packets_refetched = 0; // cached packets dropped as stale on reconcile
  long stale_frames = 0;      // intact packets delivered while serving stale
  bool ended_stale = false;   // final serving replica was stale-flagged
  // Origin-up validations that found a live replica's generation behind and
  // refreshed it (the replica existed but had to be replaced).
  int origin_generation_bumps = 0;
  // Held packets dropped by reconnect reconciliation. In this analytic walk
  // every dropped packet is queued for re-fetch, so it always equals
  // packets_refetched; the real proxy::reconcile can keep a subset, which is
  // why the drop side gets its own counter.
  long reconcile_dropped_packets = 0;
};

struct ProxiedTransferResult {
  TransferResult transfer;
  ProxyStats proxy;
};

// Origin generation as of session time `time`: one bump per update interval.
// Pure and monotone in `time`, so it is deterministic and shard-invariant.
// Past 2^64 intervals (or at a NaN time) it is the last representable one.
std::uint64_t generation_at(double time, double update_interval_s);

// `clear_content[i]` = information content of clear-text packet i (size m).
// The Rng overload draws per-frame corruption Bernoulli(alpha) from `rng`;
// the functional overload takes an arbitrary per-frame corruption source.
ProxiedTransferResult simulate_proxied_transfer(
    const std::vector<double>& clear_content,
    const ProxiedTransferConfig& config, Rng& rng);
ProxiedTransferResult simulate_proxied_transfer(
    const std::vector<double>& clear_content,
    const ProxiedTransferConfig& config,
    const std::function<bool()>& next_corrupted);

}  // namespace mobiweb::sim

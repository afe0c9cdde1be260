// Edge proxy: a replica cache between the origin server and the wireless
// channel.
//
// A proxy holds replicas (a pointer to the origin's fleet::CookedDocument plus
// the origin generation stamp it was fetched at). Every replica it fetches
// stays held until drop(); a refresh replaces the stamp in place. The cooked
// bytes themselves live in the origin's fleet::DocumentCache, which keeps
// every document it builds for its lifetime, so a replica's pointer never
// dangles while the origin lives.
//
// serve() is the whole protocol. With the origin reachable the replica is
// validated (current -> fresh hit; stale -> refreshed from the origin); with
// the origin down the proxy fails over to whatever replica it holds, flagged
// stale — ServeOutcome::stale is true on *every* path where the origin did
// not vouch for the bytes, never silently cleared (the edge tier's core
// safety property, pinned in tests/test_proxy.cpp) — and a cold proxy with a
// dead origin reports the document unavailable, leaving the client to back
// off and retry.
//
// Single-threaded by design: one proxy serves one simulated cell, and the
// drivers (ProxyResilientSession, benches) run a cell's sessions on one
// thread. The shared concurrency-hardened cook path stays inside
// fleet::DocumentCache, which the origin owns.
#pragma once

#include <cstdint>
#include <map>

#include "obs/metrics.hpp"
#include "proxy/origin.hpp"

namespace mobiweb::proxy {

struct EdgeProxyConfig {
  std::uint32_t proxy_id = 0;  // label in traces/metrics
};

enum class ServeSource {
  kFreshHit,       // replica held and origin-validated current
  kRefreshed,      // replica held but stale; re-fetched from the origin
  kOriginFetch,    // cold proxy, origin fetch succeeded
  kStaleFailover,  // origin down; serving the held replica flagged stale
  kUnavailable,    // origin down and nothing cached: cannot serve at all
};

struct ServeOutcome {
  const fleet::CookedDocument* doc = nullptr;  // nullptr iff kUnavailable
  std::uint64_t generation = 0;
  // True whenever the origin did not validate the bytes as current at serve
  // time. Never false on a failover path.
  bool stale = false;
  ServeSource source = ServeSource::kUnavailable;
};

struct EdgeProxyStats {
  long fresh_hits = 0;
  long refreshes = 0;
  long origin_fetches = 0;   // cold fetches (kOriginFetch servings)
  long stale_serves = 0;     // kStaleFailover servings
  long failovers = 0;        // origin found down at a serve point
  long unavailable = 0;      // kUnavailable servings
};

class EdgeProxy {
 public:
  EdgeProxy(EdgeProxyConfig config, OriginServer& origin);

  // One client request for `key` at clock time `now` (non-decreasing per
  // proxy). Never returns a stale replica with `stale == false`.
  [[nodiscard]] ServeOutcome serve(const fleet::CacheKey& key, double now);

  // Whether a replica of `key` is currently resident (no origin traffic).
  [[nodiscard]] bool holds(const fleet::CacheKey& key) const;
  // Resident replica's generation stamp; requires holds(key).
  [[nodiscard]] std::uint64_t replica_generation(const fleet::CacheKey& key) const;

  // Pre-warms the replica cache (deployment prefill / test setup). A no-op
  // when the origin is down at `now`.
  void warm(const fleet::CacheKey& key, double now);

  // Drops a resident replica (test hook for cold-restart scenarios).
  void drop(const fleet::CacheKey& key);

  [[nodiscard]] std::size_t resident() const { return replicas_.size(); }
  [[nodiscard]] const EdgeProxyStats& stats() const { return stats_; }
  [[nodiscard]] const EdgeProxyConfig& config() const { return config_; }

  // Mirrors EdgeProxyStats into `proxy.edge.*` counters of `registry` from
  // now on; nullptr detaches (the default).
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  EdgeProxyConfig config_;
  OriginServer* origin_;
  std::map<fleet::CacheKey, Replica> replicas_;
  EdgeProxyStats stats_;
  obs::Counter* metric_fresh_ = nullptr;
  obs::Counter* metric_refresh_ = nullptr;
  obs::Counter* metric_fetch_ = nullptr;
  obs::Counter* metric_stale_ = nullptr;
  obs::Counter* metric_failover_ = nullptr;
  obs::Counter* metric_unavailable_ = nullptr;
};

}  // namespace mobiweb::proxy

// Sharded fleet engine: one server, 100k+ concurrent
// weakly-connected browsing sessions.
//
// The paper's evaluation simulates one client at a time; this engine answers
// the server-scale question — what does a γ-redundant multicast/unicast mix
// cost when tens of thousands of clients fetch from a shared corpus
// concurrently? Sessions are partitioned into contiguous shards; each shard
// runs on one ThreadPool worker and walks its slice in index order, one
// session alive at a time. Cooked packets come from a shared read-only
// fleet::DocumentCache (encode once per (document, γ), serve everyone).
//
// Each session is one sim::SessionWalk — the same walk the analytic oracles
// (sim::simulate_transfer and friends) run to completion — seeded from
// (seed, i), so per-session results are bit-equal to the oracle run
// standalone with the same per-session streams (tests/test_fleet.cpp pins
// this). Walks share no state, so the engine runs each to its end before it
// builds the next.
//
// Weak connectivity: when `config.outage` is set, every session owns a
// session_clone() of the prototype outage model, driven on the session's own
// clock (time since the session's start) by a dedicated per-session RNG
// stream, and the walk runs its resilient tail under `config.retry`: frames
// transmitted into a fade are lost outright with the airtime still charged,
// a round that ends inside a fade suspends the session under exponential
// backoff + jitter until the link is observed up, every retransmission
// request consumes retry budget, and an exhausted budget or deadline
// terminates the session as degraded, carrying partial content. With
// `outage == nullptr` (and no proxy tier) the walk runs its plain tail.
//
// Workload shape: `zipf_s > 0` replaces round-robin document assignment with
// a Zipf(s) popularity draw, and `arrival_rate_hz > 0` replaces the uniform
// `arrival_spread_s` stagger with a Poisson arrival process. Both draws
// depend only on (seed, i) / (seed), so they are deterministic and
// shard-invariant; both default off, reproducing today's workload exactly.
//
// Edge proxy tier: when `config.proxy` is set, sessions fetch through an
// edge proxy instead of straight from the origin, and each walk engages its
// edge tier — warm-replica draws on attach, origin validation (the origin
// owning its own per-session OutageModel clone), failover to
// stale-but-flagged replicas during origin fades, per-round cell-handoff
// draws, and reconnect reconciliation of the client's partial cache against
// the serving replica's generation. Each session's proxy assignment and its
// proxy/origin RNG streams depend only on (seed, i), so proxied runs stay
// deterministic and shard-invariant, with per-session bit-parity against
// sim::simulate_proxied_transfer.
//
// Determinism: session i's RNGs (corruption, outage, jitter, document draw)
// are seeded from (seed, i) only, so every session's result is independent
// of the shard count. The run keeps each session's time, content and backoff
// in session-indexed columns and sums them in session order; integer sums and
// the makespan (a max) do not depend on order. So every FleetResult aggregate
// (plus the cache hit/miss counts) is bit-identical at any shard count. The
// same purity makes any session explainable after the fact: explain(i)
// re-runs session i's walk alone with a full trace attached.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/outage.hpp"
#include "fleet/cache.hpp"
#include "fleet/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "sim/proxied.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"
#include "util/thread_pool.hpp"

namespace mobiweb::sim {
class SessionWalk;
}  // namespace mobiweb::sim

namespace mobiweb::fleet {

// Edge proxy tier configuration (FleetConfig::proxy). The analytic model
// shape is shared with the oracle; the origin gets its own outage prototype,
// cloned per session exactly like the wireless-link model.
struct FleetProxyConfig {
  sim::ProxyModelConfig model;
  // Origin failure domain, independent of the wireless link. nullptr =
  // origin always reachable (replicas only ever refresh, never fail over).
  std::shared_ptr<const channel::OutageModel> origin_outage;
};

// Fleet telemetry (FleetConfig::telemetry): time-bucketed counters over the
// simulated clock plus tail-based trace retention (see fleet/telemetry.hpp).
// Everything it produces is a pure function of (config, seed) — the exported
// timeline document is bit-identical across shard counts.
// FleetEngine's constructor rejects a bucket width that is not finite and
// positive, zero buckets, a fraction outside [0, 1] and a tolerance that is
// not finite and non-negative.
struct FleetTelemetryConfig {
  double bucket_width_s = 1.0;      // simulated seconds per bucket
  std::size_t max_buckets = 4096;   // adds past the window clamp into the last
  // After the run, the slowest ceil(trace_top_fraction * sessions) sessions
  // plus every degraded / gave-up session are replayed into full traces
  // (FleetResult::traces, via FleetEngine::explain); the run itself keeps
  // only their (time, session) ranks, so trace memory stays bounded at 1M
  // sessions.
  double trace_top_fraction = 0.01;
  double slo_tolerance = 0.5;       // relative drift allowed by the SLO gate
};

struct FleetConfig {
  CacheConfig corpus;                // corpus shape + seed + LOD
  std::size_t sessions = 10000;
  std::size_t shards = 0;            // 0 = pool concurrency
  std::uint64_t seed = 1;            // fleet seed (sessions draw from (seed, i))
  std::vector<double> gammas = {1.5};  // session i uses gammas[i % size]
  double alpha = 0.1;                // per-frame corruption probability
  bool caching = true;               // client keeps intact packets across rounds
  double relevance_threshold = -1.0; // F; < 0 = full download
  double bandwidth_bps = 19200.0;    // per-client link rate
  double request_delay = 1.0;        // seconds per stalled-round request
  int max_rounds = 25;
  double arrival_spread_s = 0.0;     // session starts staggered over [0, spread); finite
  bool record_outcomes = false;      // keep per-session results (tests; O(sessions) memory)

  // Weak connectivity: prototype outage model cloned per session (see the
  // header comment). nullptr = link always up, legacy bit-identical walk.
  std::shared_ptr<const channel::OutageModel> outage;
  // Suspend/backoff policy; used iff `outage` or `proxy` is set (the edge
  // tier backs off on origin fades too).
  sim::RetryConfig retry;
  // Workload shape. zipf_s > 0: document popularity ~ Zipf(s) over the corpus
  // (0 = round-robin). arrival_rate_hz > 0: Poisson session arrivals at this
  // rate (0 = uniform stagger over arrival_spread_s).
  double zipf_s = 0.0;
  double arrival_rate_hz = 0.0;
  // Edge proxy tier (see the header comment). nullopt = sessions talk to the
  // origin directly, legacy bit-identical walk. When set, `retry` governs the
  // origin-fade backoff too, whether or not `outage` is also set.
  std::optional<FleetProxyConfig> proxy;
  // Fleet telemetry: time-bucketed metrics + tail-based trace retention.
  // nullopt (the default) records nothing and adds nothing to the hot path
  // beyond one null check per frame. Never alters session draws or results.
  std::optional<FleetTelemetryConfig> telemetry;
};

struct SessionOutcome {
  std::uint32_t session = 0;
  CacheKey key;
  double start_s = 0.0;
  std::uint32_t proxy_id = 0;  // assigned edge proxy (proxied runs only)
  sim::TransferResult result;
  sim::ProxyStats proxy;       // zeros unless FleetConfig::proxy engaged
};

// Fleet-wide edge-tier aggregates (sums of the per-session ProxyStats).
struct FleetProxyTotals {
  long replica_hits = 0;
  long stale_serves = 0;
  long failovers = 0;
  long handoffs = 0;
  long origin_fetches = 0;
  long origin_suspensions = 0;
  long reconciliations = 0;
  long packets_refetched = 0;
  long stale_frames = 0;
  long sessions_ended_stale = 0;  // final serving replica was stale-flagged
  long origin_generation_bumps = 0;   // live replicas refreshed past a stale gen
  long reconcile_dropped_packets = 0; // held packets dropped by reconciliation

  void add(const sim::ProxyStats& session);  // one session's counters
  FleetProxyTotals& operator+=(const FleetProxyTotals& other);
};

struct FleetResult {
  std::size_t sessions = 0;
  std::size_t shards = 0;
  long completed = 0;
  long gave_up = 0;
  long aborted_irrelevant = 0;
  long degraded = 0;                   // retry budget / deadline exhausted
  long frames_sent = 0;
  long frames_lost = 0;                // frames swallowed by link fades
  long rounds = 0;
  long suspensions = 0;                // suspend→resume cycles across the fleet
  double backoff_s = 0.0;              // Σ time sessions spent suspended
  unsigned long long bytes_sent = 0;   // wire bytes (frames × frame size)
  double content = 0.0;                // Σ per-session information content
  double session_time_s = 0.0;         // Σ per-session transfer times
  double makespan_s = 0.0;             // last session end on the simulated clock
  long cache_hits = 0;
  long cache_misses = 0;
  double elapsed_s = 0.0;              // engine wall time
  // Distribution of per-session transfer times (exact order statistics over
  // the whole fleet). This is what bench_fleet exports as
  // session_time_s_{p50,p95,p99,p999,mean,ci95} and what the perf gate
  // compares tail-first.
  stats::TailSummary session_time_tails;
  FleetProxyTotals proxy;                // zeros unless FleetConfig::proxy
  std::vector<SessionOutcome> outcomes;  // empty unless record_outcomes
  // Telemetry products; disengaged/empty unless FleetConfig::telemetry.
  // The merged time series is bit-identical across shard counts; the retained
  // traces are the slowest trace_tail_target sessions plus every degraded /
  // gave-up session, sorted by session index.
  obs::TimeSeries timeseries;
  std::vector<RetainedTrace> traces;
  std::size_t trace_tail_target = 0;     // k used for the tail selection

  [[nodiscard]] double sessions_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(sessions) / elapsed_s : 0.0;
  }
  [[nodiscard]] double frames_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(frames_sent) / elapsed_s : 0.0;
  }
  // Offered load on the simulated clock: aggregate wire Mbps across clients.
  [[nodiscard]] double aggregate_mbps() const {
    return makespan_s > 0.0
               ? static_cast<double>(bytes_sent) * 8.0 / makespan_s / 1e6
               : 0.0;
  }
};

// Deterministic per-session RNG seed; depends on (seed, session index) only.
std::uint64_t session_seed(std::uint64_t fleet_seed, std::uint64_t session);
// Independent per-session streams for the outage model, the backoff jitter,
// and the Zipf document draw (distinct salts over session_seed), plus the
// fleet-wide arrival-process seed. Exposed so parity tests can reproduce a
// session's exact draw sequence outside the engine.
std::uint64_t session_outage_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t session_jitter_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t session_zipf_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t fleet_arrival_seed(std::uint64_t fleet_seed);
// Edge tier streams: the warm-replica/age/handoff draws and the origin's
// outage-model clone each get their own salted stream, and the session's
// proxy assignment is a deterministic hash into the pool — all functions of
// (seed, i) only, like every other per-session stream.
std::uint64_t session_proxy_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint64_t session_origin_seed(std::uint64_t fleet_seed, std::uint64_t session);
std::uint32_t session_proxy_assignment(std::uint64_t fleet_seed,
                                       std::uint64_t session,
                                       std::uint32_t proxies);

class FleetEngine {
 public:
  explicit FleetEngine(FleetConfig config);

  // Prefills the cache (batched), then runs every session to termination on
  // `pool` (global pool when nullptr). Reentrant-safe: may itself be called
  // from inside a pool task (the nested run executes inline).
  FleetResult run(ThreadPool* pool = nullptr);

  // Session `session`'s full trace (per-frame events captured, absolute
  // clock), from a standalone re-run of its walk: the same verdict and
  // counters run() gives it, whether or not run() ever ran. Looks its
  // document up in cache(), so it counts one more hit or miss there.
  [[nodiscard]] obs::SessionTrace explain(std::size_t session);

  [[nodiscard]] DocumentCache& cache() { return cache_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  [[nodiscard]] CacheKey key_of(std::size_t session) const;
  [[nodiscard]] double start_of(std::size_t session) const;
  // Session `session`'s walk over `doc` (its document, read in place), with
  // every per-session stream seeded from (seed, session) and no sink attached.
  sim::SessionWalk make_walk(std::size_t session, const CookedDocument& doc) const;

  FleetConfig config_;
  DocumentCache cache_;
  std::vector<double> zipf_cum_;  // Zipf weights by rank, cumulative (zipf_s > 0)
  std::vector<double> poisson_starts_;  // per-session starts (arrival_rate_hz > 0)
};

}  // namespace mobiweb::fleet

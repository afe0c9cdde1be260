// Fleet telemetry: tail-based trace retention and the exported timeline
// document.
//
// Watching a 100k-session run as it unfolds needs two things the end-of-run
// aggregates cannot give: time-bucketed metrics over the *simulated* clock
// (obs::TimeSeries, one per shard, merged order-independently) and full
// traces for the sessions that matter. Keeping a full obs::SessionTrace per
// session is out of the question at 1M sessions, so the run keeps only each
// session's (time, session) rank. After the run, the slowest
// ceil(trace_top_fraction * sessions) sessions plus every degraded / gave-up
// session are re-run alone by FleetEngine::explain — every session is a pure
// function of (seed, i) — into full SessionTraces, which export through the
// existing Perfetto timeline_json with the cross-tier span annotations.
//
// Everything here is deterministic: replays reproduce simulated timestamps,
// the tail selection breaks ties on (time desc, session asc), and the
// timeline document contains no wall-clock value — so a fixed (seed,
// sessions) run renders a bit-identical document at any shard count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "stats/slo.hpp"

namespace mobiweb::fleet {

struct FleetConfig;
struct FleetResult;

// A session whose full trace survived retention: the slowest tail or a
// degraded / gave-up failure (always kept).
struct RetainedTrace {
  std::uint32_t session = 0;
  double time_s = 0.0;        // transfer time — the tail ranking key
  bool failed = false;        // degraded or gave up
  obs::SessionTrace trace;    // replayed by FleetEngine::explain
};

// Tail ranking: slower first, session index breaks ties — total order, so
// the retained set is identical whatever order shards produced candidates.
[[nodiscard]] inline bool ranks_before(double time_a, std::uint32_t session_a,
                                       double time_b, std::uint32_t session_b) {
  if (time_a != time_b) return time_a > time_b;
  return session_a < session_b;
}

// One derived per-bucket series: integer-channel ratios (or rates), computed
// from the merged TimeSeries only, so they are shard-invariant by
// construction. NaN marks buckets where the metric is undefined.
struct DerivedSeries {
  std::string name;
  int direction = 0;  // SLO direction: +1 higher-better, -1 lower, 0 info
  std::vector<double> values;
};

// The standard fleet dashboard: sessions in flight, frames/s, and the
// stationary ratio series the SLO engine gates (loss, degraded-end,
// suspension, stale-serve, origin-up, replica-hit fractions).
[[nodiscard]] std::vector<DerivedSeries> derived_fleet_series(
    const obs::TimeSeries& ts);

// SLO verdicts for every derived series at the given drift tolerance.
[[nodiscard]] std::vector<stats::SloSeries> evaluate_fleet_slo(
    const obs::TimeSeries& ts, double tolerance);

// The whole timeline document ("mobiweb-timeline/1"): meta, the raw integer
// time series, the derived ratio series, the SLO verdict, and the retained
// traces as Perfetto traceEvents — loadable directly in ui.perfetto.dev.
// Contains no wall-clock value and nothing shard-dependent: bit-identical
// across shard counts for a fixed (seed, sessions) run.
[[nodiscard]] std::string timeline_document(const FleetResult& result,
                                            const FleetConfig& config);

}  // namespace mobiweb::fleet

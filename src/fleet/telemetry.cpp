#include "fleet/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "fleet/engine.hpp"
#include "obs/export.hpp"

namespace mobiweb::fleet {

namespace {

using obs::Channel;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// num / (den_a + den_b + den_c) per bucket; NaN when the denominator is 0.
// Built purely from merged integer channels, so shard-invariant.
std::vector<double> ratio_series(const obs::TimeSeries& ts, Channel num,
                                 std::vector<Channel> den) {
  std::vector<double> out(ts.buckets(), kNaN);
  for (std::size_t i = 0; i < out.size(); ++i) {
    long d = 0;
    for (const Channel c : den) d += ts.at(c, i);
    if (d > 0) out[i] = static_cast<double>(ts.at(num, i)) / static_cast<double>(d);
  }
  return out;
}

std::vector<double> rate_series(const obs::TimeSeries& ts, Channel c) {
  std::vector<double> out(ts.buckets(), 0.0);
  const double w = ts.bucket_width_s();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = w > 0.0 ? static_cast<double>(ts.at(c, i)) / w : 0.0;
  }
  return out;
}

// Sessions in flight at the close of each bucket: running Σstarted − Σended.
std::vector<double> in_flight_series(const obs::TimeSeries& ts) {
  std::vector<double> out(ts.buckets(), 0.0);
  long live = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    live += ts.at(Channel::kSessionsStarted, i) -
            ts.at(Channel::kSessionsEnded, i);
    out[i] = static_cast<double>(live);
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

std::vector<DerivedSeries> derived_fleet_series(const obs::TimeSeries& ts) {
  std::vector<DerivedSeries> out;
  out.push_back({"sessions_in_flight", 0, in_flight_series(ts)});
  out.push_back({"frames_per_s", 0, rate_series(ts, Channel::kFramesSent)});
  // The raw series above ramp up and drain with the arrival process, so a
  // linear fit over them always "drifts" — they stay informational. The
  // ratio series below are stationary under a healthy run and are what the
  // SLO engine gates.
  out.push_back({"link_loss_fraction", -1,
                 ratio_series(ts, Channel::kFramesLost,
                              {Channel::kFramesSent})});
  out.push_back({"degraded_end_fraction", -1,
                 ratio_series(ts, Channel::kSessionsFailed,
                              {Channel::kSessionsEnded})});
  out.push_back({"suspension_rate", -1,
                 ratio_series(ts, Channel::kSuspensions, {Channel::kRounds})});
  out.push_back({"stale_serve_fraction", -1,
                 ratio_series(ts, Channel::kStaleServes,
                              {Channel::kReplicaHits, Channel::kStaleServes,
                               Channel::kOriginFetches})});
  out.push_back({"origin_up_fraction", 1,
                 ratio_series(ts, Channel::kOriginUp,
                              {Channel::kOriginProbes})});
  out.push_back({"replica_hit_fraction", 1,
                 ratio_series(ts, Channel::kReplicaHits,
                              {Channel::kReplicaHits,
                               Channel::kOriginFetches})});
  return out;
}

std::vector<stats::SloSeries> evaluate_fleet_slo(const obs::TimeSeries& ts,
                                                 double tolerance) {
  // Gate only inside the arrival window (through the last bucket that
  // started a session), discarding its first half as warmup. Outside that
  // span the ratio series drift for structural reasons, not regressions:
  //   * warmup — every session's link/origin chain starts in the up state,
  //     so loss and suspension ratios ramp from ~0 to their stationary value
  //     over the outage model's mixing time;
  //   * drain — after arrivals stop, the surviving sessions are
  //     disproportionately the slow ones riding out fades (survivorship).
  // Both bounds are derived from a merged integer channel, so the gated span
  // — and the verdict — is shard-invariant.
  std::size_t window = 0;
  for (std::size_t i = 0; i < ts.buckets(); ++i) {
    if (ts.at(Channel::kSessionsStarted, i) > 0) window = i + 1;
  }
  const std::size_t warmup = window / 2;
  std::vector<stats::SloSeries> out;
  for (DerivedSeries& d : derived_fleet_series(ts)) {
    if (d.direction != 0) {
      if (d.values.size() > window) d.values.resize(window);
      d.values.erase(d.values.begin(),
                     d.values.begin() +
                         static_cast<std::ptrdiff_t>(
                             std::min(warmup, d.values.size())));
    }
    out.push_back(stats::evaluate_slo_series(std::move(d.name), d.values,
                                             d.direction, tolerance));
  }
  return out;
}

std::string timeline_document(const FleetResult& result,
                              const FleetConfig& config) {
  const FleetTelemetryConfig tc =
      config.telemetry.value_or(FleetTelemetryConfig{});
  long failed_traces = 0;
  for (const RetainedTrace& rt : result.traces) {
    if (rt.failed) ++failed_traces;
  }

  // No wall-clock value and nothing shard-dependent may enter this document:
  // it is diffed byte-for-byte across shard counts.
  std::string out = "{\"schema\": \"mobiweb-timeline/1\",\n\"meta\": {";
  out += "\"sessions\": " + std::to_string(result.sessions);
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"trace_tail_target\": " + std::to_string(result.trace_tail_target);
  out += ", \"retained_traces\": " + std::to_string(result.traces.size());
  out += ", \"failed_traces\": " + std::to_string(failed_traces);
  out += "},\n\"timeseries\": " + result.timeseries.to_json();

  out += ",\n\"derived\": {";
  const std::vector<DerivedSeries> derived =
      derived_fleet_series(result.timeseries);
  for (std::size_t d = 0; d < derived.size(); ++d) {
    if (d) out += ", ";
    out += '"' + derived[d].name + "\": [";
    for (std::size_t i = 0; i < derived[d].values.size(); ++i) {
      if (i) out += ", ";
      const double v = derived[d].values[i];
      if (std::isfinite(v)) {
        append_number(out, v);
      } else {
        out += "null";  // undefined bucket (ratio with a zero denominator)
      }
    }
    out += ']';
  }
  out += '}';

  out += ",\n\"slo\": " +
         stats::slo_json(evaluate_fleet_slo(result.timeseries, tc.slo_tolerance),
                         tc.slo_tolerance);

  out += ",\n\"traceEvents\": [\n";
  bool first = true;
  // Round spans carry the frame counts; per-frame instants would multiply
  // the document's size by the frames per round.
  obs::TimelineOptions options;
  options.frames = false;
  int tid = 1;
  for (const RetainedTrace& rt : result.traces) {
    obs::append_timeline_events(rt.trace, tid, out, first, options);
    ++tid;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace mobiweb::fleet

// Exporters: Chrome/Perfetto trace-event JSON for session timelines, and
// Prometheus text exposition for a MetricsRegistry.
//
// The paper's evaluation is all about *when* content arrives under a lossy
// 19.2 kbps link; end-of-run averages hide the dynamics. timeline_json()
// converts one or many SessionTraces into the Trace Event Format that
// chrome://tracing and ui.perfetto.dev load directly: the session, every
// round, and every outage/backoff window become nested "X" (complete) spans,
// per-frame classifications become instant events when the trace captured
// them (and TimelineOptions::frames is on), and content progress becomes a
// counter track. Multi-session runs (bench_outage sweeps, experiment
// repetitions) render as one track (tid) per session so concurrent
// schedules line up visually.
//
// prometheus_text() renders counters/gauges/histograms in the text
// exposition format (one # TYPE block per metric family, cumulative
// histogram buckets with an le="+Inf" series). Registry names may embed
// labels with the `name{key=value,key2=value2}` convention; the exporter
// splits and escapes them per the Prometheus spec.
//
// Both exporters use obs/json.hpp's escaping, the one escaping routine for
// every JSON producer in src/obs (labels containing quotes, backslashes and
// control characters survive round trips).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mobiweb::obs {

// ---------------------------------------------------------------- timeline

// Every event is stamped pid 1, with trace seconds scaled to Perfetto's
// microseconds.
struct TimelineOptions {
  // Per-frame instants plus the content counter they step, when the trace
  // captured them. Off, a track keeps its spans, control instants and the
  // closing content value.
  bool frames = true;
};

// Appends the trace's events (comma-separated, no enclosing brackets) to
// `out` as one Perfetto track with thread id `tid`. `first` tracks whether a
// comma is needed before the next event and is updated in place.
void append_timeline_events(const SessionTrace& trace, int tid,
                            std::string& out, bool& first,
                            const TimelineOptions& options = {});

// One trace -> a complete {"traceEvents": [...]} document.
[[nodiscard]] std::string timeline_json(const SessionTrace& trace,
                                        const TimelineOptions& options = {});

// Many traces -> one document, one track (tid = 1, 2, ...) per trace, each
// named after its label via thread_name metadata.
[[nodiscard]] std::string timeline_json(
    const std::vector<const SessionTrace*>& traces,
    const TimelineOptions& options = {});

// All traces held by a collector, same track-per-session layout.
[[nodiscard]] std::string timeline_json(const Collector& collector,
                                        const TimelineOptions& options = {});

// -------------------------------------------------------------- prometheus

// Valid Prometheus metric name from a registry name: dots and other illegal
// characters become underscores; a leading digit gets a '_' prefix. The
// `{labels}` suffix, when present, is not part of the name.
[[nodiscard]] std::string prometheus_name(std::string_view registry_name);

// Renders the whole registry in text exposition format. Every metric name is
// prefixed with `prefix` + "_" (pass "" for none). Counters map to `counter`,
// gauges to `gauge`, histograms to `histogram` with cumulative `_bucket`
// series (inclusive upper edges match Prometheus `le` semantics), `_sum` and
// `_count`. Series sharing a base name (differing only in labels) are grouped
// under one # TYPE header.
[[nodiscard]] std::string prometheus_text(const MetricsRegistry& registry,
                                          std::string_view prefix = "mobiweb");

}  // namespace mobiweb::obs

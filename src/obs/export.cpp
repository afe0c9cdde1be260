#include "obs/export.hpp"

#include <cstdio>

namespace mobiweb::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

// ---------------------------------------------------------------- timeline

namespace {

constexpr double kMicrosPerSecond = 1e6;

// Emits the shared `"pid": 1, "tid": T, "ts": t` fields (scaled).
void append_event_head(std::string& out, bool& first, const char* phase,
                       std::string_view name, const char* category, int tid,
                       double ts) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"ph\": \"";
  out += phase;
  out += "\", \"name\": ";
  append_json_string(out, name);
  if (category != nullptr) {
    out += ", \"cat\": \"";
    out += category;
    out += '"';
  }
  out += ", \"pid\": 1, \"tid\": " + std::to_string(tid);
  out += ", \"ts\": ";
  append_number(out, ts * kMicrosPerSecond);
}

void append_complete_event(std::string& out, bool& first, std::string_view name,
                           const char* category, int tid, double start,
                           double end, std::string_view args_body) {
  append_event_head(out, first, "X", name, category, tid, start);
  out += ", \"dur\": ";
  append_number(out, (end > start ? end - start : 0.0) * kMicrosPerSecond);
  if (!args_body.empty()) {
    out += ", \"args\": {";
    out += args_body;
    out += '}';
  }
  out += '}';
}

void append_instant_event(std::string& out, bool& first, std::string_view name,
                          const char* category, int tid, double ts,
                          std::string_view args_body) {
  append_event_head(out, first, "i", name, category, tid, ts);
  out += ", \"s\": \"t\"";
  if (!args_body.empty()) {
    out += ", \"args\": {";
    out += args_body;
    out += '}';
  }
  out += '}';
}

void append_counter_event(std::string& out, bool& first, int tid, double ts,
                          double value) {
  append_event_head(out, first, "C", "content/" + std::to_string(tid), nullptr,
                    tid, ts);
  out += ", \"args\": {\"content\": ";
  append_number(out, value);
  out += "}}";
}

void append_thread_name(std::string& out, bool& first, int tid,
                        std::string_view name) {
  if (!first) out += ",\n";
  first = false;
  out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": " +
         std::to_string(tid) + ", \"args\": {\"name\": ";
  append_json_string(out, name);
  out += "}}";
}

bool is_frame_event(Event e) {
  switch (e) {
    case Event::kFrameSent:
    case Event::kFrameIntact:
    case Event::kFrameCorrupted:
    case Event::kFrameDuplicate:
    case Event::kFrameForeign:
    case Event::kFrameLost:
      return true;
    default:
      return false;
  }
}

}  // namespace

void append_timeline_events(const SessionTrace& trace, int tid,
                            std::string& out, bool& first,
                            const TimelineOptions& options) {
  const std::string label =
      trace.label().empty() ? "session " + std::to_string(tid) : trace.label();
  append_thread_name(out, first, tid, label);

  // Session span with the terminal verdict in args.
  {
    std::string args = "\"completed\": ";
    args += trace.completed() ? "true" : "false";
    args += ", \"aborted_irrelevant\": ";
    args += trace.aborted_irrelevant() ? "true" : "false";
    args += ", \"degraded\": ";
    args += trace.degraded() ? "true" : "false";
    args += ", \"gave_up\": ";
    args += trace.gave_up() ? "true" : "false";
    args += ", \"rounds\": " + std::to_string(trace.rounds().size());
    args += ", \"final_content\": ";
    append_number(args, trace.final_content());
    append_complete_event(out, first, label, "session", tid,
                          trace.start_time(), trace.end_time(), args);
  }

  // One nested span per round (always available: RoundSummary is maintained
  // even when per-frame capture is off).
  for (const RoundSummary& r : trace.rounds()) {
    std::string args = "\"sent\": " + std::to_string(r.frames_sent);
    args += ", \"intact\": " + std::to_string(r.frames_intact);
    args += ", \"corrupted\": " + std::to_string(r.frames_corrupted);
    args += ", \"duplicate\": " + std::to_string(r.frames_duplicate);
    args += ", \"foreign\": " + std::to_string(r.frames_foreign);
    args += ", \"lost\": " + std::to_string(r.frames_lost);
    args += ", \"content\": ";
    append_number(args, r.content_end);
    append_complete_event(out, first, "round " + std::to_string(r.round),
                          "round", tid, r.start_time, r.end_time, args);
  }

  // Outage/backoff windows and per-frame instants need the captured event
  // log; without it the track simply has no third nesting level.
  double open_outage = -1.0;
  double open_origin_outage = -1.0;
  for (const TraceEvent& e : trace.events()) {
    switch (e.type) {
      case Event::kOutageBegin:
        open_outage = e.time;
        break;
      case Event::kOutageEnd: {
        const double begin = open_outage >= 0.0 ? open_outage : e.time - e.value;
        append_complete_event(out, first, "outage", "outage", tid, begin,
                              e.time, {});
        open_outage = -1.0;
        break;
      }
      case Event::kOriginOutageBegin:
        open_origin_outage = e.time;
        break;
      case Event::kOriginOutageEnd: {
        const double begin =
            open_origin_outage >= 0.0 ? open_origin_outage : e.time - e.value;
        append_complete_event(out, first, "origin outage", "origin", tid,
                              begin, e.time, {});
        open_origin_outage = -1.0;
        break;
      }
      case Event::kHandoff:
        // Recorded after the handoff delay was charged; e.value is the delay.
        append_complete_event(out, first, "handoff", "proxy", tid,
                              e.time - e.value, e.time, {});
        break;
      case Event::kStaleFailover:
        append_instant_event(out, first, event_name(e.type), "proxy", tid,
                             e.time, {});
        break;
      case Event::kReconcileDrop: {
        std::string args = "\"dropped\": ";
        append_number(args, e.value);
        append_instant_event(out, first, event_name(e.type), "proxy", tid,
                             e.time, args);
        break;
      }
      case Event::kBackoff:
        // Recorded after the wait completed; e.value is the wait length.
        append_complete_event(out, first, "backoff", "backoff", tid,
                              e.time - e.value, e.time, {});
        break;
      case Event::kResume:
      case Event::kRetransmitRequest:
      case Event::kDecodeComplete:
      case Event::kAbortIrrelevant:
      case Event::kDegraded:
      case Event::kGiveUp:
        append_instant_event(out, first, event_name(e.type), "control", tid,
                             e.time, {});
        break;
      default:
        if (options.frames && is_frame_event(e.type)) {
          std::string args;
          if (e.seq >= 0) args = "\"seq\": " + std::to_string(e.seq);
          append_instant_event(out, first, event_name(e.type), "frame", tid,
                               e.time, args);
          if (e.type == Event::kFrameIntact) {
            append_counter_event(out, first, tid, e.time, e.value);
          }
        }
        break;
    }
  }
  if (open_outage >= 0.0) {
    // Session ended inside an outage (degraded/gave up while the link was
    // dead): close the span at the session end so it still renders.
    append_complete_event(out, first, "outage", "outage", tid, open_outage,
                          trace.end_time(), {});
  }
  if (open_origin_outage >= 0.0) {
    // Same for a session that degraded while waiting out an origin fade with
    // no replica to fail over to.
    append_complete_event(out, first, "origin outage", "origin", tid,
                          open_origin_outage, trace.end_time(), {});
  }
  append_counter_event(out, first, tid, trace.end_time(), trace.final_content());
}

std::string timeline_json(const SessionTrace& trace,
                          const TimelineOptions& options) {
  return timeline_json(std::vector<const SessionTrace*>{&trace}, options);
}

std::string timeline_json(const std::vector<const SessionTrace*>& traces,
                          const TimelineOptions& options) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  int tid = 1;
  for (const SessionTrace* trace : traces) {
    if (trace != nullptr) append_timeline_events(*trace, tid, out, first, options);
    ++tid;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string timeline_json(const Collector& collector,
                          const TimelineOptions& options) {
  std::vector<const SessionTrace*> traces;
  traces.reserve(collector.traces().size());
  for (const SessionTrace& t : collector.traces()) traces.push_back(&t);
  return timeline_json(traces, options);
}

// -------------------------------------------------------------- prometheus

namespace {

bool name_char_ok(char c, bool leading) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') {
    return true;
  }
  return !leading && c >= '0' && c <= '9';
}

// Splits `registry_name` into its base name and the `{...}` label block (the
// block's inner text, or empty when absent).
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view registry_name) {
  const std::size_t brace = registry_name.find('{');
  if (brace == std::string_view::npos || registry_name.back() != '}') {
    return {registry_name, {}};
  }
  return {registry_name.substr(0, brace),
          registry_name.substr(brace + 1, registry_name.size() - brace - 2)};
}

void append_label_value(std::string& out, std::string_view v) {
  out += '"';
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  out += '"';
}

// `inner` is the text between the braces of the name{k=v,k2=v2} convention.
// Renders it as {k="v",k2="v2"}; `extra` (e.g. le="0.5") is appended last.
std::string render_labels(std::string_view inner, std::string_view extra) {
  if (inner.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  while (!inner.empty()) {
    const std::size_t comma = inner.find(',');
    const std::string_view pair = inner.substr(0, comma);
    inner = comma == std::string_view::npos ? std::string_view{}
                                            : inner.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;  // malformed pair
    if (!first) out += ',';
    first = false;
    out += prometheus_name(pair.substr(0, eq));
    out += '=';
    append_label_value(out, pair.substr(eq + 1));
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct Family {
  const char* type = "counter";
  std::string body;  // the rendered series lines
};

void emit(std::string& out, const std::map<std::string, Family>& families) {
  for (const auto& [name, family] : families) {
    out += "# TYPE " + name + " " + family.type + "\n";
    out += family.body;
  }
}

}  // namespace

std::string prometheus_name(std::string_view registry_name) {
  const auto [base, labels] = split_labels(registry_name);
  (void)labels;
  std::string out;
  out.reserve(base.size());
  for (const char c : base) {
    out += name_char_ok(c, /*leading=*/out.empty()) ? c : '_';
  }
  if (out.empty()) return "_";
  return out;
}

std::string prometheus_text(const MetricsRegistry& registry,
                            std::string_view prefix) {
  const std::string pre = prefix.empty() ? "" : std::string(prefix) + "_";
  std::map<std::string, Family> counters;
  std::map<std::string, Family> gauges;
  std::map<std::string, Family> histograms;

  for (const auto& [name, c] : registry.counters()) {
    const auto [base, labels] = split_labels(name);
    (void)base;
    const std::string metric = pre + prometheus_name(name);
    Family& fam = counters[metric];
    fam.type = "counter";
    fam.body += metric + render_labels(labels, {}) + " " +
                std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, g] : registry.gauges()) {
    const auto [base, labels] = split_labels(name);
    (void)base;
    const std::string metric = pre + prometheus_name(name);
    Family& fam = gauges[metric];
    fam.type = "gauge";
    fam.body += metric + render_labels(labels, {}) + " " +
                format_value(g.value()) + "\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    const auto [base, labels] = split_labels(name);
    (void)base;
    const std::string metric = pre + prometheus_name(name);
    Family& fam = histograms[metric];
    fam.type = "histogram";
    long cumulative = 0;
    const std::vector<long> counts = h.bucket_counts();
    for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
      cumulative += counts[i];
      fam.body += metric + "_bucket" +
                  render_labels(labels,
                                "le=\"" + format_value(h.upper_bounds()[i]) +
                                    "\"") +
                  " " + std::to_string(cumulative) + "\n";
    }
    fam.body += metric + "_bucket" + render_labels(labels, "le=\"+Inf\"") +
                " " + std::to_string(h.count()) + "\n";
    fam.body += metric + "_sum" + render_labels(labels, {}) + " " +
                format_value(h.sum()) + "\n";
    fam.body += metric + "_count" + render_labels(labels, {}) + " " +
                std::to_string(h.count()) + "\n";
  }

  std::string out;
  emit(out, counters);
  emit(out, gauges);
  emit(out, histograms);
  return out;
}

}  // namespace mobiweb::obs

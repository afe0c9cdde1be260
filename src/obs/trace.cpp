#include "obs/trace.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace mobiweb::obs {

// The -Wswitch-covered switch below pins event_name() to the enum; this pins
// the exported count, so both fail loudly when an enumerator is added.
static_assert(kEventCount == 24,
              "obs::Event changed: update kEventCount, event_name() and the "
              "timeline exporter's event classification");

const char* event_name(Event e) {
  switch (e) {
    case Event::kSessionStart: return "session_start";
    case Event::kRoundStart: return "round_start";
    case Event::kFrameSent: return "frame_sent";
    case Event::kFrameIntact: return "frame_intact";
    case Event::kFrameCorrupted: return "frame_corrupted";
    case Event::kFrameDuplicate: return "frame_duplicate";
    case Event::kFrameForeign: return "frame_foreign";
    case Event::kFrameLost: return "frame_lost";
    case Event::kRetransmitRequest: return "retransmit_request";
    case Event::kRoundEnd: return "round_end";
    case Event::kOutageBegin: return "outage_begin";
    case Event::kOutageEnd: return "outage_end";
    case Event::kBackoff: return "backoff";
    case Event::kResume: return "resume";
    case Event::kDecodeComplete: return "decode_complete";
    case Event::kAbortIrrelevant: return "abort_irrelevant";
    case Event::kDegraded: return "degraded";
    case Event::kGiveUp: return "give_up";
    case Event::kOriginOutageBegin: return "origin_outage_begin";
    case Event::kOriginOutageEnd: return "origin_outage_end";
    case Event::kStaleFailover: return "stale_failover";
    case Event::kHandoff: return "handoff";
    case Event::kReconcileDrop: return "reconcile_drop";
    case Event::kSessionEnd: return "session_end";
  }
  return "unknown";
}

namespace {

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

void SessionTrace::clear() {
  events_.clear();
  rounds_.clear();
  start_time_ = end_time_ = final_content_ = 0.0;
  completed_ = aborted_ = gave_up_ = degraded_ = false;
  outage_count_ = backoff_count_ = 0;
  origin_outage_count_ = stale_failover_count_ = handoff_count_ = 0;
  reconcile_dropped_ = 0;
  backoff_total_s_ = 0.0;
}

void SessionTrace::push(Event type, double time, long seq, double value) {
  if (!capture_events_) return;
  events_.push_back(TraceEvent{type, time,
                               rounds_.empty() ? 0 : rounds_.back().round, seq,
                               value});
}

RoundSummary& SessionTrace::round_at(double time) {
  if (rounds_.empty()) {
    // Frame recorded before any explicit round_start: open round 1.
    rounds_.push_back(RoundSummary{.round = 1, .start_time = time,
                                   .end_time = time});
  }
  return rounds_.back();
}

void SessionTrace::session_start(double time) {
  start_time_ = end_time_ = time;
  push(Event::kSessionStart, time, -1, 0.0);
}

void SessionTrace::round_start(int round, double time) {
  rounds_.push_back(RoundSummary{.round = round, .start_time = time,
                                 .end_time = time});
  push(Event::kRoundStart, time, -1, 0.0);
}

void SessionTrace::frame_sent(long seq, double time) {
  RoundSummary& r = round_at(time);
  ++r.frames_sent;
  r.end_time = time;
  push(Event::kFrameSent, time, seq, 0.0);
}

void SessionTrace::frame_intact(long seq, double time, double content) {
  RoundSummary& r = round_at(time);
  ++r.frames_intact;
  r.end_time = time;
  r.content_end = content;
  push(Event::kFrameIntact, time, seq, content);
}

void SessionTrace::frame_corrupted(double time) {
  RoundSummary& r = round_at(time);
  ++r.frames_corrupted;
  r.end_time = time;
  push(Event::kFrameCorrupted, time, -1, 0.0);
}

void SessionTrace::frame_duplicate(long seq, double time) {
  RoundSummary& r = round_at(time);
  ++r.frames_duplicate;
  r.end_time = time;
  push(Event::kFrameDuplicate, time, seq, 0.0);
}

void SessionTrace::frame_foreign(double time) {
  RoundSummary& r = round_at(time);
  ++r.frames_foreign;
  r.end_time = time;
  push(Event::kFrameForeign, time, -1, 0.0);
}

void SessionTrace::frame_lost(double time) {
  RoundSummary& r = round_at(time);
  ++r.frames_lost;
  r.end_time = time;
  push(Event::kFrameLost, time, -1, 0.0);
}

void SessionTrace::retransmit_request(double time, long pending) {
  push(Event::kRetransmitRequest, time, -1, static_cast<double>(pending));
}

void SessionTrace::outage_begin(double time) {
  ++outage_count_;
  push(Event::kOutageBegin, time, -1, 0.0);
}

void SessionTrace::outage_end(double time, double duration_s) {
  push(Event::kOutageEnd, time, -1, duration_s);
}

void SessionTrace::backoff(double time, double wait_s) {
  ++backoff_count_;
  backoff_total_s_ += wait_s;
  push(Event::kBackoff, time, -1, wait_s);
}

void SessionTrace::resume(double time) { push(Event::kResume, time, -1, 0.0); }

void SessionTrace::origin_outage_begin(double time) {
  ++origin_outage_count_;
  push(Event::kOriginOutageBegin, time, -1, 0.0);
}

void SessionTrace::origin_outage_end(double time, double duration_s) {
  push(Event::kOriginOutageEnd, time, -1, duration_s);
}

void SessionTrace::stale_failover(double time) {
  ++stale_failover_count_;
  push(Event::kStaleFailover, time, -1, 0.0);
}

void SessionTrace::handoff(double time, double delay_s) {
  ++handoff_count_;
  push(Event::kHandoff, time, -1, delay_s);
}

void SessionTrace::reconcile_drop(double time, long dropped) {
  reconcile_dropped_ += dropped;
  push(Event::kReconcileDrop, time, -1, static_cast<double>(dropped));
}

void SessionTrace::round_end(double time) {
  if (!rounds_.empty()) rounds_.back().end_time = time;
  push(Event::kRoundEnd, time, -1, 0.0);
}

void SessionTrace::decode_complete(double time) {
  completed_ = true;
  push(Event::kDecodeComplete, time, -1, 0.0);
}

void SessionTrace::abort_irrelevant(double time, double content) {
  aborted_ = true;
  push(Event::kAbortIrrelevant, time, -1, content);
}

void SessionTrace::degraded(double time, double content) {
  degraded_ = true;
  push(Event::kDegraded, time, -1, content);
}

void SessionTrace::give_up(double time) {
  gave_up_ = true;
  push(Event::kGiveUp, time, -1, 0.0);
}

void SessionTrace::session_end(double time, double content) {
  end_time_ = time;
  final_content_ = content;
  if (!rounds_.empty()) {
    // Close a round that terminated mid-flight (complete/abort).
    rounds_.back().end_time = time;
    rounds_.back().content_end = content;
  }
  push(Event::kSessionEnd, time, -1, content);
}

long SessionTrace::frames_sent() const {
  long total = 0;
  for (const auto& r : rounds_) total += r.frames_sent;
  return total;
}

std::string SessionTrace::to_json() const {
  std::string out = "{\"label\": ";
  append_json_string(out, label_);
  out += ", \"completed\": ";
  out += completed_ ? "true" : "false";
  out += ", \"aborted_irrelevant\": ";
  out += aborted_ ? "true" : "false";
  out += ", \"gave_up\": ";
  out += gave_up_ ? "true" : "false";
  out += ", \"degraded\": ";
  out += degraded_ ? "true" : "false";
  if (outage_count_ > 0) {
    out += ", \"outages\": " + std::to_string(outage_count_);
  }
  if (origin_outage_count_ > 0) {
    out += ", \"origin_outages\": " + std::to_string(origin_outage_count_);
  }
  if (stale_failover_count_ > 0) {
    out += ", \"stale_failovers\": " + std::to_string(stale_failover_count_);
  }
  if (handoff_count_ > 0) {
    out += ", \"handoffs\": " + std::to_string(handoff_count_);
  }
  if (reconcile_dropped_ > 0) {
    out += ", \"reconcile_dropped\": " + std::to_string(reconcile_dropped_);
  }
  if (backoff_count_ > 0) {
    out += ", \"backoffs\": " + std::to_string(backoff_count_);
    out += ", \"backoff_total_s\": ";
    append_number(out, backoff_total_s_);
  }
  out += ", \"response_time\": ";
  append_number(out, response_time());
  out += ", \"final_content\": ";
  append_number(out, final_content_);
  out += ", \"rounds\": [";
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    const RoundSummary& r = rounds_[i];
    if (i) out += ", ";
    out += "{\"round\": " + std::to_string(r.round);
    out += ", \"start\": ";
    append_number(out, r.start_time);
    out += ", \"end\": ";
    append_number(out, r.end_time);
    out += ", \"sent\": " + std::to_string(r.frames_sent);
    out += ", \"intact\": " + std::to_string(r.frames_intact);
    out += ", \"corrupted\": " + std::to_string(r.frames_corrupted);
    out += ", \"duplicate\": " + std::to_string(r.frames_duplicate);
    out += ", \"foreign\": " + std::to_string(r.frames_foreign);
    out += ", \"lost\": " + std::to_string(r.frames_lost);
    out += ", \"content\": ";
    append_number(out, r.content_end);
    out += "}";
  }
  out += "]";
  if (capture_events_) {
    out += ", \"events\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const TraceEvent& e = events_[i];
      if (i) out += ", ";
      out += std::string("{\"type\": \"") + event_name(e.type) + "\", \"t\": ";
      append_number(out, e.time);
      out += ", \"round\": " + std::to_string(e.round);
      out += ", \"seq\": " + std::to_string(e.seq);
      out += ", \"value\": ";
      append_number(out, e.value);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

namespace {

std::vector<double> latency_buckets() {
  return {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0};
}

std::vector<double> frame_count_buckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 255};
}

std::vector<double> round_buckets() {
  return {1, 2, 3, 4, 6, 8, 12, 16, 25};
}

std::vector<double> content_buckets() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

}  // namespace

void aggregate_trace(const SessionTrace& trace, MetricsRegistry& registry) {
  registry.counter("session.count").inc();
  if (trace.completed()) registry.counter("session.completed").inc();
  if (trace.aborted_irrelevant()) registry.counter("session.aborted_irrelevant").inc();
  if (trace.gave_up()) registry.counter("session.gave_up").inc();
  if (trace.degraded()) registry.counter("session.degraded").inc();
  if (trace.outage_count() > 0) {
    registry.counter("session.outages").inc(trace.outage_count());
  }
  if (trace.backoff_count() > 0) {
    registry.counter("session.backoffs").inc(trace.backoff_count());
    registry.histogram("session.backoff_total_s", latency_buckets())
        .observe(trace.backoff_total_s());
  }

  registry.histogram("session.response_time_s", latency_buckets())
      .observe(trace.response_time());
  registry.histogram("session.rounds", round_buckets())
      .observe(static_cast<double>(trace.rounds().size()));
  registry.histogram("session.final_content", content_buckets())
      .observe(trace.final_content());

  long intact = 0;
  long corrupted = 0;
  long duplicate = 0;
  long foreign = 0;
  long lost = 0;
  for (const RoundSummary& r : trace.rounds()) {
    intact += r.frames_intact;
    corrupted += r.frames_corrupted;
    duplicate += r.frames_duplicate;
    foreign += r.frames_foreign;
    lost += r.frames_lost;
    registry.histogram("round.latency_s", latency_buckets()).observe(r.latency());
    registry.histogram("round.frames_intact", frame_count_buckets())
        .observe(static_cast<double>(r.frames_intact));
    registry.histogram("round.frames_corrupted", frame_count_buckets())
        .observe(static_cast<double>(r.frames_corrupted));
    registry.histogram("round.content_progress", content_buckets())
        .observe(r.content_end);
  }
  registry.counter("frames.sent").inc(trace.frames_sent());
  registry.counter("frames.intact").inc(intact);
  registry.counter("frames.corrupted").inc(corrupted);
  registry.counter("frames.duplicate").inc(duplicate);
  registry.counter("frames.foreign").inc(foreign);
  registry.counter("frames.lost").inc(lost);
}

SessionTrace& Collector::begin_trace(std::string label) {
  traces_.emplace_back(std::move(label));
  return traces_.back();
}

std::string Collector::to_json() const {
  std::string out = "{\"metrics\": " + metrics_.to_json() + ", \"traces\": [";
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    if (i) out += ", ";
    out += traces_[i].to_json();
  }
  out += "]}";
  return out;
}

}  // namespace mobiweb::obs

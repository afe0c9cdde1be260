#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace mobiweb::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  MOBIWEB_CHECK_MSG(capacity >= 1, "FlightRecorder: capacity >= 1");
  ring_.resize(capacity);
}

void FlightRecorder::record(const TraceEvent& event) {
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::size_t FlightRecorder::size() const {
  return std::min(static_cast<std::size_t>(recorded_), ring_.size());
}

long FlightRecorder::dropped() const {
  return std::max(0L, recorded_ - static_cast<long>(ring_.size()));
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  const std::size_t n = size();
  std::vector<TraceEvent> out;
  out.reserve(n);
  // When the ring wrapped, the oldest retained event sits at next_.
  const std::size_t start =
      static_cast<std::size_t>(recorded_) > ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::clear() {
  next_ = 0;
  recorded_ = 0;
}

std::string FlightRecorder::to_json(std::string_view reason) const {
  std::string out = "{\"reason\": ";
  append_json_string(out, reason);
  out += ", \"recorded\": " + std::to_string(recorded_);
  out += ", \"dropped\": " + std::to_string(dropped());
  out += ", \"events\": [";
  bool first = true;
  for (const TraceEvent& e : snapshot()) {
    if (!first) out += ", ";
    first = false;
    out += std::string("{\"type\": \"") + event_name(e.type) + "\", \"t\": ";
    append_number(out, e.time);
    out += ", \"round\": " + std::to_string(e.round);
    out += ", \"seq\": " + std::to_string(e.seq);
    out += ", \"value\": ";
    append_number(out, e.value);
    out += "}";
  }
  out += "]}";
  return out;
}

void FlightRecorder::dump(std::string_view reason) {
  ++dump_count_;
  const std::string json = to_json(reason);
  if (sink_) {
    sink_(json);
  } else {
    std::fprintf(stderr, "[flight-recorder] %s\n", json.c_str());
  }
}

}  // namespace mobiweb::obs

// Flight recorder: a fixed-size ring buffer of the most recent trace events.
//
// Full per-frame capture on a 25-round lossy session costs thousands of
// heap-allocated events, so production-shaped runs leave it off — and then a
// weak-connectivity failure (kDegraded / kGaveUp) leaves nothing to examine.
// The recorder closes that gap: SessionTrace::set_flight mirrors every event
// into the ring regardless of the capture mode, the ring overwrites its
// oldest entry at capacity (O(1), no allocation after construction), and
// ResilientSession dumps it automatically when a session degrades or gives
// up, so the last moments before the failure are always on record.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace mobiweb::obs {

class FlightRecorder {
 public:
  // `capacity` is the number of most-recent events retained (>= 1).
  explicit FlightRecorder(std::size_t capacity = 256);

  void record(const TraceEvent& event);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t size() const;
  // Events recorded beyond capacity (overwritten, no longer retrievable).
  [[nodiscard]] long dropped() const;
  [[nodiscard]] long recorded() const { return recorded_; }

  // Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  // Forgets every event (capacity and sink persist).
  void clear();

  // {"reason": ..., "dropped": N, "events": [...]} — events oldest first.
  [[nodiscard]] std::string to_json(std::string_view reason = {}) const;

  // Where dump() sends the rendered JSON; default writes a single line to
  // stderr. Tests install a capturing sink.
  using Sink = std::function<void(const std::string& json)>;
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  // Renders to_json(reason) into the sink. Called automatically by
  // ResilientSession on kDegraded / kGaveUp; callers can also invoke it
  // manually on any condition they consider a postmortem.
  void dump(std::string_view reason);
  [[nodiscard]] int dump_count() const { return dump_count_; }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;     // ring slot the next event lands in
  long recorded_ = 0;        // total events ever recorded
  int dump_count_ = 0;
  Sink sink_;
};

}  // namespace mobiweb::obs

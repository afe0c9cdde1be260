// Flight recorder: a fixed-size ring buffer of the most recent trace events,
// and CrumbLog, its compact per-session cousin.
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
#include <cstdint>
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

// One retained span breadcrumb. `aux` carries the small integer payload
// (round number, dropped-packet count); `value` the double one (durations,
// content).
struct Crumb {
  Event type = Event::kSessionStart;
  std::int32_t aux = 0;
  double time = 0.0;
  double value = 0.0;
};

// Fixed-capacity ring of the most recent crumbs — the per-session analogue
// of FlightRecorder, sized in the tens of bytes so a 1M-session fleet can
// afford one each. Overwrites oldest at capacity; O(1) per push, no
// allocation after construction.
class CrumbLog {
 public:
  explicit CrumbLog(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void push(Event type, double time, std::int32_t aux = 0, double value = 0.0) {
    ring_[next_] = Crumb{type, aux, time, value};
    next_ = (next_ + 1) % ring_.size();
    ++recorded_;
  }

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] long recorded() const { return recorded_; }
  [[nodiscard]] long dropped() const {
    const long cap = static_cast<long>(ring_.size());
    return recorded_ > cap ? recorded_ - cap : 0;
  }

  // Retained crumbs, oldest first.
  [[nodiscard]] std::vector<Crumb> snapshot() const;

 private:
  std::vector<Crumb> ring_;
  std::size_t next_ = 0;
  long recorded_ = 0;
};

}  // namespace mobiweb::obs

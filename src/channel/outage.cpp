#include "channel/outage.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace mobiweb::channel {

std::unique_ptr<OutageModel> OutageModel::session_clone() const {
  std::unique_ptr<OutageModel> copy = clone();
  copy->reset();
  return copy;
}

MarkovOutageModel::MarkovOutageModel(double mean_up_s, double mean_down_s)
    : mean_up_s_(mean_up_s), mean_down_s_(mean_down_s) {
  MOBIWEB_CHECK_MSG(std::isfinite(mean_up_s_) && mean_up_s_ > 0.0,
                    "MarkovOutageModel: mean_up_s > 0");
  MOBIWEB_CHECK_MSG(std::isfinite(mean_down_s_) && mean_down_s_ > 0.0,
                    "MarkovOutageModel: mean_down_s > 0");
}

MarkovOutageModel MarkovOutageModel::with_duty_cycle(double duty,
                                                     double mean_down_s) {
  MOBIWEB_CHECK_MSG(duty > 0.0 && duty < 1.0,
                    "MarkovOutageModel: duty in (0,1)");
  return MarkovOutageModel(mean_down_s * (1.0 - duty) / duty, mean_down_s);
}

bool MarkovOutageModel::link_up(double time, Rng& rng) {
  // Exponential dwell; 1 - next_double() is in (0, 1], so the log is finite.
  const auto draw_dwell = [&rng](double mean) {
    return -mean * std::log(1.0 - rng.next_double());
  };
  if (next_transition_ < 0.0) {
    next_transition_ = time + draw_dwell(up_ ? mean_up_s_ : mean_down_s_);
  }
  constexpr int kMaxFlipsPerQuery = 1024;
  for (int flips = 0; time >= next_transition_; ++flips) {
    if (flips == kMaxFlipsPerQuery) {
      // Too many dwells to walk (a tiny mean, a huge gap, or dwells below the
      // clock's resolution): draw the state at `time` from the chain's exact
      // transition law given the state entered at the pending transition,
      // then a fresh dwell, strictly after `time` so repeated queries agree.
      const double pi_up = mean_up_s_ / (mean_up_s_ + mean_down_s_);
      const double decay = std::exp(-(time - next_transition_) *
                                    (1.0 / mean_up_s_ + 1.0 / mean_down_s_));
      const double p_up = up_ ? pi_up * (1.0 - decay) : pi_up + (1.0 - pi_up) * decay;
      up_ = rng.next_double() < p_up;
      next_transition_ = std::max(time + draw_dwell(up_ ? mean_up_s_ : mean_down_s_),
                                  std::nextafter(time, HUGE_VAL));
      break;
    }
    up_ = !up_;
    next_transition_ += draw_dwell(up_ ? mean_up_s_ : mean_down_s_);
  }
  return up_;
}

void MarkovOutageModel::reset() {
  up_ = true;
  next_transition_ = -1.0;
}

double MarkovOutageModel::outage_fraction() const {
  return mean_down_s_ / (mean_up_s_ + mean_down_s_);
}

std::unique_ptr<OutageModel> MarkovOutageModel::clone() const {
  auto copy = std::make_unique<MarkovOutageModel>(mean_up_s_, mean_down_s_);
  copy->up_ = up_;
  copy->next_transition_ = next_transition_;
  return copy;
}

FaultSchedule::FaultSchedule(std::vector<Window> outages) {
  for (const Window& w : outages) {
    MOBIWEB_CHECK_MSG(std::isfinite(w.begin) && std::isfinite(w.end),
                      "FaultSchedule: window times must be finite");
    MOBIWEB_CHECK_MSG(w.begin >= 0.0, "FaultSchedule: window begin >= 0");
    MOBIWEB_CHECK_MSG(w.end >= w.begin, "FaultSchedule: window end >= begin");
  }
  std::sort(outages.begin(), outages.end(),
            [](const Window& a, const Window& b) { return a.begin < b.begin; });
  for (const Window& w : outages) {
    if (w.end <= w.begin) continue;  // empty window carries no outage
    if (!windows_.empty() && w.begin <= windows_.back().end) {
      windows_.back().end = std::max(windows_.back().end, w.end);
    } else {
      windows_.push_back(w);
    }
  }
}

std::optional<FaultSchedule> FaultSchedule::parse(std::string_view text) {
  std::vector<Window> windows;
  std::size_t pos = 0;
  const auto skip_separators = [&] {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r' || text[pos] == ',' || text[pos] == ';')) {
      ++pos;
    }
  };
  // strtod needs NUL termination; copy once instead of scanning in place.
  const std::string owned(text);
  const auto take_number = [&](double& out) {
    char* end = nullptr;
    const double v = std::strtod(owned.c_str() + pos, &end);
    if (end == owned.c_str() + pos) return false;  // no digits consumed
    if (!std::isfinite(v)) return false;
    pos = static_cast<std::size_t>(end - owned.c_str());
    out = v;
    return true;
  };
  for (;;) {
    skip_separators();
    if (pos >= text.size()) break;
    Window w;
    if (!take_number(w.begin)) return std::nullopt;
    if (pos >= text.size() || text[pos] != '-') return std::nullopt;
    ++pos;
    if (!take_number(w.end)) return std::nullopt;
    w.begin = std::max(w.begin, 0.0);
    w.end = std::max(w.end, 0.0);
    if (w.end > w.begin) windows.push_back(w);
    if (windows.size() > kMaxWindows) return std::nullopt;
  }
  return FaultSchedule(std::move(windows));
}

std::string FaultSchedule::to_string() const {
  std::string out;
  char buf[64];
  for (const Window& w : windows_) {
    if (!out.empty()) out += ',';
    std::snprintf(buf, sizeof buf, "%.17g-%.17g", w.begin, w.end);
    out += buf;
  }
  return out;
}

bool FaultSchedule::link_up(double time, Rng& /*rng*/) {
  // First window strictly after `time`; the one before it (if any) is the
  // only candidate containing `time`.
  const auto it = std::upper_bound(
      windows_.begin(), windows_.end(), time,
      [](double t, const Window& w) { return t < w.begin; });
  if (it == windows_.begin()) return true;
  const Window& w = *(it - 1);
  return time >= w.end;
}

double FaultSchedule::total_outage_s() const {
  double total = 0.0;
  for (const Window& w : windows_) total += w.end - w.begin;
  return total;
}

double FaultSchedule::outage_fraction() const {
  if (windows_.empty()) return 0.0;
  const double horizon = windows_.back().end;
  return horizon > 0.0 ? total_outage_s() / horizon : 0.0;
}

std::unique_ptr<OutageModel> FaultSchedule::clone() const {
  return std::make_unique<FaultSchedule>(*this);
}

}  // namespace mobiweb::channel

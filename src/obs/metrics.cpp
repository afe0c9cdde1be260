#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace mobiweb::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_quoted(std::string& out, std::string_view s) {
  append_json_string(out, s);
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0),
      bucket_lo_(bounds_.size() + 1, 0.0), bucket_hi_(bounds_.size() + 1, 0.0) {
  MOBIWEB_CHECK_MSG(!bounds_.empty(), "Histogram: at least one bucket bound");
  MOBIWEB_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                    "Histogram: bounds must be increasing");
}

Histogram::Histogram(Histogram&& other) noexcept
    : bounds_(std::move(other.bounds_)), counts_(std::move(other.counts_)),
      bucket_lo_(std::move(other.bucket_lo_)),
      bucket_hi_(std::move(other.bucket_hi_)), count_(other.count_),
      sum_(other.sum_), sum_sq_(other.sum_sq_), min_(other.min_),
      max_(other.max_) {}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto b = static_cast<std::size_t>(it - bounds_.begin());
  std::scoped_lock lock(mu_);
  if (counts_[b] == 0) {
    bucket_lo_[b] = bucket_hi_[b] = v;
  } else {
    bucket_lo_[b] = std::min(bucket_lo_[b], v);
    bucket_hi_[b] = std::max(bucket_hi_[b], v);
  }
  ++counts_[b];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  sum_sq_ += v * v;
}

long Histogram::count() const {
  std::scoped_lock lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::scoped_lock lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::scoped_lock lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::scoped_lock lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::scoped_lock lock(mu_);
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::variance() const {
  std::scoped_lock lock(mu_);
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double centered = sum_sq_ - sum_ * sum_ / n;
  return std::max(centered, 0.0) / (n - 1.0);
}

std::vector<long> Histogram::bucket_counts() const {
  std::scoped_lock lock(mu_);
  return counts_;
}

QuantileEstimate Histogram::quantile_with_bounds(double q) const {
  std::scoped_lock lock(mu_);
  QuantileEstimate est;
  if (count_ == 0) {
    est.value = est.lower = est.upper =
        std::numeric_limits<double>::quiet_NaN();
    return est;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Type-7 fractional rank over the exact bucketed counts. Resolving both
  // bracketing ranks independently is what fixes the bucket-boundary case:
  // when the rank straddles two buckets we interpolate between the lower
  // bucket's observed max and the upper bucket's observed min, never across
  // a nominal bucket edge no sample sits on.
  const double h = q * static_cast<double>(count_ - 1);
  const auto rank_lo = static_cast<long>(h);
  const long rank_hi = std::min(rank_lo + 1, count_ - 1);
  const double frac = h - static_cast<double>(rank_lo);

  // Value and bucket of the 0-based order statistic `rank`, assuming the
  // samples inside a bucket are evenly spaced over its observed [lo, hi]
  // range — exact when the bucket holds one distinct value (lo == hi) and
  // bounded by the bucket's observed range otherwise.
  const auto value_at = [this](long rank, std::size_t& bucket) {
    long before = 0;
    std::size_t b = 0;
    while (b < counts_.size() && before + counts_[b] <= rank) {
      before += counts_[b];
      ++b;
    }
    bucket = b;
    const long c = counts_[b];
    const double lo = bucket_lo_[b];
    const double hi = bucket_hi_[b];
    if (c <= 1 || lo == hi) return lo;
    const double j = static_cast<double>(rank - before);
    return lo + (hi - lo) * j / static_cast<double>(c - 1);
  };

  std::size_t bucket_of_lo = 0;
  std::size_t bucket_of_hi = 0;
  const double v_lo = value_at(rank_lo, bucket_of_lo);
  const double v_hi = value_at(rank_hi, bucket_of_hi);
  est.value = v_lo + frac * (v_hi - v_lo);
  // The exact order statistics at both ranks are samples of their buckets,
  // so the true quantile is pinned inside these observed ranges.
  est.lower = bucket_lo_[bucket_of_lo];
  est.upper = bucket_hi_[bucket_of_hi];
  return est;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  {
    std::shared_lock lock(mu_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string(name), Histogram(std::move(upper_bounds)))
      .first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  std::shared_lock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  std::shared_lock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  std::shared_lock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    append_quoted(out, name);
    out += ": " + std::to_string(c.value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    append_quoted(out, name);
    out += ": ";
    append_number(out, g.value());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    append_quoted(out, name);
    out += ": {\"buckets\": [";
    for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
      if (i) out += ", ";
      append_number(out, h.upper_bounds()[i]);
    }
    out += "], \"counts\": [";
    const std::vector<long> counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count());
    out += ", \"sum\": ";
    append_number(out, h.sum());
    out += ", \"min\": ";
    append_number(out, h.min());
    out += ", \"max\": ";
    append_number(out, h.max());
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace mobiweb::obs

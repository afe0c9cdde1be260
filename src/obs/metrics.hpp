// Transmit-layer metrics: counters, gauges and fixed-bucket histograms,
// grouped in a MetricsRegistry with JSON export (the same machine-readable
// convention as `bench_micro_coding --json`).
//
// Design constraints (see DESIGN.md §"Observability"):
//   * zero cost when unused — every instrumented component holds a plain
//     pointer that defaults to nullptr, so the uninstrumented hot path pays
//     one predictable branch and nothing else;
//   * recording is thread-safe — the fleet engine's shards write into one
//     shared registry from every pool worker, so counters and gauges are
//     atomics (relaxed; they are statistics, not synchronization) and each
//     histogram serializes observes behind its own mutex. Lookup-or-create
//     takes a registry-wide shared_mutex; hot paths resolve their Counter /
//     Gauge / Histogram references once and then record lock-free (counters,
//     gauges) or under the per-histogram lock;
//   * stable iteration order (std::map) so JSON output is diffable. The
//     whole-registry accessors (counters()/gauges()/histograms()/to_json())
//     may run concurrently with *recording*, but not with lookup-or-create
//     of new names — export after the writers have registered their series,
//     or after they have finished.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mobiweb::obs {

// Monotonically increasing event count. inc() is safe from any thread.
class Counter {
 public:
  void inc(long delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] long value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<long> value_{0};
};

// Last-written (or accumulated) scalar. set()/add() are safe from any thread;
// concurrent set() keeps one of the written values.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    // fetch_add on atomic<double> needs C++20 library support that is not
    // universal yet; a CAS loop is equivalent and contention here is rare.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// A quantile read off a histogram, calibrated with hard error bounds: the
// exact sample quantile is guaranteed to lie in [lower, upper] (the observed
// value ranges of the bucket(s) holding the quantile's rank), whatever the
// within-bucket sample placement. `value` interpolates linearly inside that
// range; when the winning bucket holds a single distinct value the three
// fields coincide and the answer is exact.
struct QuantileEstimate {
  double value = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

// Fixed-bucket histogram: `upper_bounds` are the inclusive upper edges of the
// finite buckets (must be strictly increasing); one implicit overflow bucket
// catches everything above the last edge. observe() may be called from any
// thread; readers see a consistent snapshot (count/sum/min/max/buckets are
// updated together under the histogram's mutex).
//
// Besides the bucket counters, each bucket tracks the min and max value it
// has absorbed. That is what makes quantile() well-behaved at bucket
// boundaries: the fractional rank is resolved inside the *observed* value
// range of the winning bucket (never the nominal bucket edges), a rank that
// straddles two buckets interpolates between the lower bucket's max and the
// upper bucket's min, and a bucket holding one distinct value answers
// exactly.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  // Moves are only used while inserting into the registry map, under the
  // registry's exclusive lock; the mutex itself is not moved.
  Histogram(Histogram&& other) noexcept;

  void observe(double v);

  [[nodiscard]] long count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  // Sample variance reconstructed from the running sum of squares (n-1
  // denominator); 0 below two observations.
  [[nodiscard]] double variance() const;
  // Quantile q in [0, 1] with type-7 fractional ranks over the bucketed
  // counts (see QuantileEstimate for the error contract). NaN when empty.
  [[nodiscard]] QuantileEstimate quantile_with_bounds(double q) const;
  [[nodiscard]] double quantile(double q) const {
    return quantile_with_bounds(q).value;
  }
  // Immutable after construction — safe to reference without locking.
  [[nodiscard]] const std::vector<double>& upper_bounds() const { return bounds_; }
  // Snapshot; size() == upper_bounds().size() + 1 (overflow last).
  [[nodiscard]] std::vector<long> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<long> counts_;
  std::vector<double> bucket_lo_;  // observed min per bucket
  std::vector<double> bucket_hi_;  // observed max per bucket
  long count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  // Lookup-or-create by name, safe to race from multiple threads. References
  // stay valid for the registry's lifetime (node-based map), so hot paths
  // cache them and record without re-entering the registry.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `upper_bounds` is consulted only when the histogram is first created.
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] bool empty() const {
    std::shared_lock lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Whole-registry read access in stable (sorted) order, for exporters. Safe
  // concurrently with recording on already-created series; do not race these
  // against lookup-or-create of *new* names (map insertion).
  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {"buckets": [...],
  //  "counts": [...], "count": c, "sum": s, "min": lo, "max": hi}}}
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::shared_mutex mu_;  // guards the three maps' structure
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace mobiweb::obs

// Order statistics over full sample sets: exact type-7 quantiles, the
// interpolation numpy and R use by default. summarize_tails (describe.hpp),
// and so the fleet's session tails, reads its percentiles from these.
#pragma once

#include <vector>

namespace mobiweb::stats {

// Exact sample quantile with linear interpolation between order statistics
// (type 7, the numpy/R default): for n samples the quantile q sits at
// fractional rank h = q (n - 1). `sorted` must be ascending; NaN-free.
// Returns NaN for an empty input; q is clamped to [0, 1].
double exact_quantile_sorted(const std::vector<double>& sorted, double q);

// Convenience: copies, drops NaNs, sorts, then reads exact_quantile_sorted.
double exact_quantile(std::vector<double> samples, double q);

}  // namespace mobiweb::stats

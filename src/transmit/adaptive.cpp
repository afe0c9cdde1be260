#include "transmit/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/negbinom.hpp"
#include "ida/ida.hpp"
#include "util/check.hpp"

namespace mobiweb::transmit {

AdaptiveGamma::AdaptiveGamma(AdaptiveGammaConfig config)
    : config_(config), estimate_(config.ewma_alpha) {
  MOBIWEB_CHECK_MSG(config_.initial_gamma >= 1.0, "AdaptiveGamma: initial_gamma >= 1");
  MOBIWEB_CHECK_MSG(config_.target_success > 0.0 && config_.target_success < 1.0,
                    "AdaptiveGamma: target_success in (0,1)");
  MOBIWEB_CHECK_MSG(config_.max_gamma >= config_.initial_gamma,
                    "AdaptiveGamma: max_gamma >= initial_gamma");
}

void AdaptiveGamma::observe(double corruption_rate) {
  // The observation arrives over the (now lossy, outage-prone) feedback
  // channel, so garbage is reachable in production, not just in tests: a
  // mangled report can carry NaN, a negative value, or a rate >= 1. Hostile
  // or degenerate inputs must not poison the EWMA or trip a contract check —
  // drop what carries no information and clamp the rest.
  if (std::isnan(corruption_rate)) return;  // no information: ignore
  // Rates at/above 1 (including +inf) would make the negative binomial
  // degenerate; clamp just under so a fully dead round still pushes the
  // estimate up hard. Negative rates clamp to a clean channel.
  estimate_.observe(std::clamp(corruption_rate, 0.0, 0.99));
}

double AdaptiveGamma::gamma(int m) const {
  MOBIWEB_CHECK_MSG(m >= 1 && m <= static_cast<int>(ida::kMaxPackets),
                    "AdaptiveGamma::gamma: m in [1, 255]");
  const double max_gamma = std::min(
      config_.max_gamma, static_cast<double>(ida::kMaxPackets) / static_cast<double>(m));
  if (!estimate_.initialized()) return std::min(config_.initial_gamma, max_gamma);
  const double alpha = std::clamp(estimate_.value(), 0.0, 0.99);
  const double g = analysis::redundancy_ratio(m, alpha, config_.target_success);
  // A non-finite ratio (numerically degenerate alpha) must still yield a
  // usable redundancy: assume the worst and send the maximum.
  if (!std::isfinite(g)) return max_gamma;
  return std::clamp(g, 1.0, max_gamma);
}

}  // namespace mobiweb::transmit

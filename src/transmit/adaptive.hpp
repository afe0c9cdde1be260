// Adaptive redundancy-ratio controller (paper §4.2): "the value of γ could be
// defined as an adaptive function of the observed summarized value of α,
// using perhaps a kind of EWMA measure."
//
// The server observes per-document corruption rates (reported by the client
// with its retransmission/completion feedback), smooths them with an EWMA,
// and picks γ as the optimal N/M for the estimated α at the configured
// success target.
#pragma once

#include "util/ewma.hpp"

namespace mobiweb::transmit {

struct AdaptiveGammaConfig {
  double initial_gamma = 1.5;   // used until the first observation
  double target_success = 0.95; // the paper's S
  double ewma_alpha = 0.25;     // smoothing factor
  double max_gamma = 4.0;       // safety clamp
};

class AdaptiveGamma {
 public:
  explicit AdaptiveGamma(AdaptiveGammaConfig config = {});

  // Records an observed corruption rate (corrupted / sent) for one transfer.
  // The report crosses the lossy feedback channel, so degenerate values are
  // tolerated rather than rejected: NaN is ignored, anything else is clamped
  // into [0, 0.99] before feeding the EWMA.
  void observe(double corruption_rate);

  // γ to use for the next document of `m` raw packets, 1 <= m <= 255. Never
  // above max_gamma, nor above 255 / m: ida::cooked_count(m, γ) always fits
  // one dispersal group.
  [[nodiscard]] double gamma(int m) const;

  [[nodiscard]] double estimated_alpha() const { return estimate_.value_or(-1.0); }
  [[nodiscard]] bool has_estimate() const { return estimate_.initialized(); }
  [[nodiscard]] const AdaptiveGammaConfig& config() const { return config_; }

 private:
  AdaptiveGammaConfig config_;
  Ewma estimate_;
};

}  // namespace mobiweb::transmit

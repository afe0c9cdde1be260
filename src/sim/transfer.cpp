#include "sim/transfer.hpp"

#include <cmath>

#include "ida/ida.hpp"
#include "obs/profile.hpp"
#include "sim/walk.hpp"
#include "util/check.hpp"

namespace mobiweb::sim {

void TransferConfig::validate() const {
  MOBIWEB_CHECK_MSG(m >= 1, "TransferConfig: m >= 1");
  MOBIWEB_CHECK_MSG(n >= m, "TransferConfig: n >= m");
  MOBIWEB_CHECK_MSG(n <= static_cast<int>(ida::kMaxPackets),
                    "TransferConfig: n <= 255 (one GF(2^8) dispersal group)");
  MOBIWEB_CHECK_MSG(max_rounds >= 1, "TransferConfig: max_rounds >= 1");
  MOBIWEB_CHECK_MSG(std::isfinite(request_delay) && request_delay >= 0.0,
                    "TransferConfig: request_delay finite and >= 0");
  MOBIWEB_CHECK_MSG(!std::isnan(relevance_threshold),
                    "TransferConfig: relevance_threshold is not NaN");
}

void RetryConfig::validate() const {
  MOBIWEB_CHECK_MSG(retry_budget >= 1, "RetryConfig: retry_budget >= 1");
  MOBIWEB_CHECK_MSG(initial_timeout_s >= 0.0, "RetryConfig: initial_timeout_s >= 0");
  MOBIWEB_CHECK_MSG(std::isfinite(backoff_multiplier) && backoff_multiplier >= 1.0,
                    "RetryConfig: backoff_multiplier finite and >= 1");
  MOBIWEB_CHECK_MSG(std::isfinite(max_backoff_s) && max_backoff_s >= initial_timeout_s,
                    "RetryConfig: max_backoff_s finite and >= initial_timeout_s");
  MOBIWEB_CHECK_MSG(std::isfinite(jitter) && jitter >= 0.0, "RetryConfig: jitter finite and >= 0");
  MOBIWEB_CHECK_MSG(!std::isnan(deadline_s), "RetryConfig: deadline_s is not NaN");
}

TransferResult simulate_transfer(const std::vector<double>& clear_content,
                                 const TransferConfig& config,
                                 const std::function<bool()>& next_corrupted) {
  MOBIWEB_PROFILE_SCOPE("sim.transfer");
  SessionWalk walk(clear_content, config);
  walk.corrupt_with(next_corrupted);
  return run_oracle(walk, config).transfer;
}

TransferResult simulate_transfer(const std::vector<double>& clear_content,
                                 const TransferConfig& config, Rng& rng) {
  MOBIWEB_CHECK_MSG(config.alpha >= 0.0 && config.alpha < 1.0,
                    "simulate_transfer: alpha in [0,1)");
  return simulate_transfer(clear_content, config,
                           [&rng, &config] { return rng.next_bernoulli(config.alpha); });
}

TransferResult simulate_resilient_transfer(
    const std::vector<double>& clear_content,
    const ResilientTransferConfig& config,
    const std::function<bool()>& next_corrupted) {
  MOBIWEB_PROFILE_SCOPE("sim.resilient_transfer");
  SessionWalk walk(clear_content, config.base, &config.retry);
  walk.corrupt_with(next_corrupted);
  walk.seed_streams(config.jitter_seed, 0);
  return run_oracle(walk, config.base).transfer;
}

TransferResult simulate_resilient_transfer(
    const std::vector<double>& clear_content,
    const ResilientTransferConfig& config, Rng& rng) {
  MOBIWEB_CHECK_MSG(config.base.alpha >= 0.0 && config.base.alpha < 1.0,
                    "simulate_resilient_transfer: alpha in [0,1)");
  return simulate_resilient_transfer(
      clear_content, config,
      [&rng, &config] { return rng.next_bernoulli(config.base.alpha); });
}

TransferResult simulate_arq_transfer(const std::vector<double>& clear_content,
                                     const TransferConfig& config,
                                     const std::function<bool()>& next_corrupted) {
  TransferConfig arq = config;  // no redundancy; held packets are kept
  arq.n = arq.m;
  arq.caching = true;
  SessionWalk walk(clear_content, arq);
  walk.resend_missing_only();
  walk.corrupt_with(next_corrupted);
  return run_oracle(walk, config).transfer;
}

TransferResult simulate_arq_transfer(const std::vector<double>& clear_content,
                                     const TransferConfig& config, Rng& rng) {
  MOBIWEB_CHECK_MSG(config.alpha >= 0.0 && config.alpha < 1.0,
                    "simulate_arq_transfer: alpha in [0,1)");
  return simulate_arq_transfer(
      clear_content, config,
      [&rng, &config] { return rng.next_bernoulli(config.alpha); });
}

}  // namespace mobiweb::sim

#include "sim/proxied.hpp"

#include <cmath>

#include "obs/profile.hpp"
#include "sim/walk.hpp"
#include "util/check.hpp"

namespace mobiweb::sim {

std::uint64_t generation_at(double time, double update_interval_s) {
  if (update_interval_s <= 0.0 || time <= 0.0) return 0;
  const double generation = time / update_interval_s;
  return generation < 0x1p64 ? static_cast<std::uint64_t>(generation) : ~std::uint64_t{0};
}

void ProxyModelConfig::validate() const {
  MOBIWEB_CHECK_MSG(warm_hit >= 0.0 && warm_hit <= 1.0,
                    "ProxyModelConfig: warm_hit in [0,1]");
  MOBIWEB_CHECK_MSG(std::isfinite(replica_age_mean_s) && replica_age_mean_s >= 0.0,
                    "ProxyModelConfig: replica_age_mean_s finite and >= 0");
  MOBIWEB_CHECK_MSG(std::isfinite(origin_fetch_delay_s) && origin_fetch_delay_s >= 0.0,
                    "ProxyModelConfig: origin_fetch_delay_s finite and >= 0");
  MOBIWEB_CHECK_MSG(handoff_rate >= 0.0 && handoff_rate < 1.0,
                    "ProxyModelConfig: handoff_rate in [0,1)");
  MOBIWEB_CHECK_MSG(std::isfinite(handoff_delay_s) && handoff_delay_s >= 0.0,
                    "ProxyModelConfig: handoff_delay_s finite and >= 0");
  MOBIWEB_CHECK_MSG(std::isfinite(update_interval_s) && update_interval_s >= 0.0,
                    "ProxyModelConfig: update_interval_s finite and >= 0");
  MOBIWEB_CHECK_MSG(proxies >= 1, "ProxyModelConfig: proxies >= 1");
}

ProxiedTransferResult simulate_proxied_transfer(
    const std::vector<double>& clear_content,
    const ProxiedTransferConfig& config,
    const std::function<bool()>& next_corrupted) {
  MOBIWEB_PROFILE_SCOPE("sim.proxied_transfer");
  SessionWalk walk(clear_content, config.base, &config.retry, &config.proxy);
  walk.corrupt_with(next_corrupted);
  walk.seed_streams(config.jitter_seed, config.proxy_seed);
  return run_oracle(walk, config.base, config.origin_up);
}

ProxiedTransferResult simulate_proxied_transfer(
    const std::vector<double>& clear_content,
    const ProxiedTransferConfig& config, Rng& rng) {
  MOBIWEB_CHECK_MSG(config.base.alpha >= 0.0 && config.base.alpha < 1.0,
                    "simulate_proxied_transfer: alpha in [0,1)");
  return simulate_proxied_transfer(
      clear_content, config,
      [&rng, &config] { return rng.next_bernoulli(config.base.alpha); });
}

}  // namespace mobiweb::sim

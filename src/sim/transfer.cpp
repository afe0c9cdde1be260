#include "sim/transfer.hpp"

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
}

void RetryConfig::validate() const {
  MOBIWEB_CHECK_MSG(retry_budget >= 1, "RetryConfig: retry_budget >= 1");
  MOBIWEB_CHECK_MSG(initial_timeout_s >= 0.0, "RetryConfig: initial_timeout_s >= 0");
  MOBIWEB_CHECK_MSG(backoff_multiplier >= 1.0, "RetryConfig: backoff_multiplier >= 1");
  MOBIWEB_CHECK_MSG(max_backoff_s >= initial_timeout_s,
                    "RetryConfig: max_backoff_s >= initial_timeout_s");
  MOBIWEB_CHECK_MSG(jitter >= 0.0, "RetryConfig: jitter >= 0");
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
  MOBIWEB_CHECK_MSG(config.m >= 1, "simulate_arq_transfer: m >= 1");
  MOBIWEB_CHECK_MSG(static_cast<int>(clear_content.size()) == config.m,
                    "simulate_arq_transfer: clear_content must have m entries");
  MOBIWEB_CHECK_MSG(config.max_rounds >= 1, "simulate_arq_transfer: max_rounds >= 1");

  double total_content = 0.0;
  for (double c : clear_content) total_content += c;
  const bool relevance_check = config.relevance_threshold >= 0.0;

  TransferResult result;
  std::vector<bool> seen(static_cast<std::size_t>(config.m), false);
  int received = 0;
  double content = 0.0;
  double stall_delay = 0.0;
  obs::SessionTrace* trace = config.trace;
  double clock = 0.0;
  if (trace != nullptr) trace->session_start(clock);

  const auto finish = [&] {
    result.content = content;
    result.time = static_cast<double>(result.packets) * config.time_per_packet +
                  stall_delay;
    if (trace != nullptr) trace->session_end(clock, content);
  };

  std::vector<int> pending(static_cast<std::size_t>(config.m));
  for (int i = 0; i < config.m; ++i) pending[static_cast<std::size_t>(i)] = i;

  for (result.rounds = 1; result.rounds <= config.max_rounds; ++result.rounds) {
    if (trace != nullptr) trace->round_start(result.rounds, clock);
    for (const int i : pending) {
      ++result.packets;
      clock += config.time_per_packet;
      if (trace != nullptr) trace->frame_sent(i, clock);
      if (config.link_up && !config.link_up(clock)) {
        ++result.frames_lost;
        if (trace != nullptr) trace->frame_lost(clock);
        continue;
      }
      if (next_corrupted()) {
        if (trace != nullptr) trace->frame_corrupted(clock);
      } else if (!seen[static_cast<std::size_t>(i)]) {
        seen[static_cast<std::size_t>(i)] = true;
        ++received;
        content += clear_content[static_cast<std::size_t>(i)];
        if (trace != nullptr) trace->frame_intact(i, clock, content);
      } else if (trace != nullptr) {
        trace->frame_duplicate(i, clock);
      }
      // Completion wins over the relevance abort (see ArqSession).
      if (received >= config.m) {
        result.completed = true;
        if (trace != nullptr) trace->decode_complete(clock);
        finish();
        return result;
      }
      if (relevance_check && content >= config.relevance_threshold) {
        result.aborted_irrelevant = true;
        if (trace != nullptr) trace->abort_irrelevant(clock, content);
        finish();
        return result;
      }
    }
    if (trace != nullptr) trace->round_end(clock);
    if (result.rounds == config.max_rounds) break;  // giving up: no NACK
    std::vector<int> missing;
    for (int i = 0; i < config.m; ++i) {
      if (!seen[static_cast<std::size_t>(i)]) missing.push_back(i);
    }
    int tries = 1;
    if (config.feedback_lost) {
      while (tries < kMaxFeedbackTries && config.feedback_lost()) ++tries;
    }
    if (trace != nullptr) {
      trace->retransmit_request(clock, static_cast<long>(missing.size()));
    }
    const double stall = static_cast<double>(tries) * config.request_delay;
    clock += stall;
    stall_delay += stall;
    pending = std::move(missing);
  }

  result.rounds = config.max_rounds;
  result.gave_up = true;
  if (trace != nullptr) trace->give_up(clock);
  finish();
  return result;
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

#include "transmit/round_driver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace mobiweb::transmit {

RoundDriver::RoundDriver(channel::WirelessChannel& channel, RoundConfig config)
    : channel_(&channel), config_(config), start_(channel.now()),
      last_arrival_(start_) {
  MOBIWEB_CHECK_MSG(!std::isnan(config_.relevance_threshold),
                    "RoundDriver: relevance_threshold is not NaN");
  if (config_.retry != nullptr) {
    MOBIWEB_CHECK_MSG(config_.jitter != nullptr, "RoundDriver: retry needs a jitter stream");
    backoff_ = config_.retry->initial_timeout_s;
  }
}

ResilientResult RoundDriver::run() {
  SessionResult& result = out_.session;
  const bool relevance_check = config_.relevance_threshold >= 0.0;
  obs::SessionTrace* trace = config_.trace;
  if (trace != nullptr) {
    receiver_->set_trace(trace);
    trace->session_start(start_);
  }

  for (int round = 1; round <= config_.max_rounds; ++round) {
    result.rounds = round;
    if (trace != nullptr) trace->round_start(round, channel_->now());
    const DocumentTransmitter& tx = *transmitter_;  // hooks swap it between rounds
    for (std::size_t i = 0; i < tx.n(); ++i) {
      if (config_.selective_repeat && receiver_->has_packet(i)) continue;
      channel::WirelessChannel::Delivery d = channel_->send(ByteSpan(tx.frame(i)));
      ++result.frames_sent;
      if (trace != nullptr) trace->frame_sent(static_cast<long>(i), d.arrive_time);
      if (d.lost) {
        // Link outage: only the airtime passed; nothing reached the client.
        if (trace != nullptr) trace->frame_lost(d.arrive_time);
        continue;
      }
      last_arrival_ = d.arrive_time;
      const FrameResult fr = receiver_->on_frame(ByteSpan(d.frame), d.arrive_time);
      if (fr.newly_useful && serving_stale_) ++stale_frames_;
      // Condition 1 before condition 3: a document whose decoder completes on
      // this very frame is a completed download, not an irrelevance abort,
      // even when the jump in content crosses the threshold.
      if (receiver_->complete()) return finish(SessionStatus::kCompleted);
      if (relevance_check &&
          receiver_->content_received() >= config_.relevance_threshold) {
        return finish(SessionStatus::kAbortedIrrelevant);
      }
    }
    // Condition 2 without reconstruction: a stalled round.
    if (trace != nullptr) trace->round_end(channel_->now());
    if (round == config_.max_rounds) break;  // giving up: no further request
    if (!config_.selective_repeat) receiver_->on_round_end();
    if (!request_next_round()) return finish(SessionStatus::kDegraded);
  }
  // Gave up after max_rounds. The receiver is reported as it stood when the
  // final round closed: no round-end cache flush erases what the user saw.
  return finish(SessionStatus::kGaveUp);
}

ResilientResult RoundDriver::finish(SessionStatus status) {
  SessionResult& result = out_.session;
  result.status = status;
  result.completed = status == SessionStatus::kCompleted;
  result.aborted_irrelevant = status == SessionStatus::kAbortedIrrelevant;
  if (receiver_ != nullptr) {
    result.content_received = receiver_->content_received();
    if (config_.retry != nullptr) out_.partial = receiver_->partial_document();
  }
  // Measured at the client: the arrival of the terminating frame, which
  // (unlike the channel's depart clock) includes the propagation delay.
  result.response_time = last_arrival_ - start_;
  if (obs::SessionTrace* trace = config_.trace; trace != nullptr) {
    const double end =
        status == SessionStatus::kDegraded ? channel_->now() : last_arrival_;
    const double content = result.content_received;
    switch (status) {
      case SessionStatus::kCompleted: trace->decode_complete(end); break;
      case SessionStatus::kAbortedIrrelevant: trace->abort_irrelevant(end, content); break;
      case SessionStatus::kDegraded: trace->degraded(end, content); break;
      case SessionStatus::kGaveUp: trace->give_up(end); break;
    }
    trace->session_end(end, content);
  }
  return std::move(out_);
}

bool RoundDriver::request_next_round() {
  obs::SessionTrace* trace = config_.trace;
  if (config_.retry == nullptr) {
    if (config_.request_delay_s > 0.0) channel_->advance(config_.request_delay_s);
    if (trace != nullptr) {
      const long missing =
          config_.selective_repeat
              ? static_cast<long>(transmitter_->m() - receiver_->intact_count())
              : -1;
      trace->retransmit_request(channel_->now(), missing);
    }
    return true;
  }

  // Suspend-on-outage: while the link is observably dead, re-requesting is
  // futile. Hold off (consuming retry budget, so a link that never returns
  // still terminates) until it comes back, then resume from the cache.
  if (!channel_->link_up_now()) {
    const double outage_started = channel_->now();
    if (trace != nullptr) trace->outage_begin(outage_started);
    if (!ride_out([this] { return channel_->link_up_now(); })) return false;
    ++out_.outages_ridden;
    if (trace != nullptr) {
      trace->outage_end(channel_->now(), channel_->now() - outage_started);
      trace->resume(channel_->now());
    }
    if (config_.edge != nullptr && !config_.edge->after_resume(*this)) return false;
  }
  if (config_.edge != nullptr && !config_.edge->before_request(*this)) return false;

  // Re-request until one message survives the lossy back channel. A dropped
  // request looks like a slow server, so the client waits its timeout and
  // retries with exponential backoff and jitter.
  for (;;) {
    if (budget_exhausted()) return false;
    ++out_.request_attempts;
    if (channel_->send_feedback()) {
      if (trace != nullptr) trace->retransmit_request(channel_->now());
      backoff_ = config_.retry->initial_timeout_s;
      return true;
    }
    ++out_.timeouts;
    wait_one_backoff();
  }
}

bool RoundDriver::budget_exhausted() const {
  const sim::RetryConfig& rp = *config_.retry;
  return out_.request_attempts >= rp.retry_budget ||
         (rp.deadline_s >= 0.0 && channel_->now() - start_ >= rp.deadline_s);
}

// One client wait: the current backoff stretched by the jitter draw. Nothing
// is on the air while the client holds off.
void RoundDriver::wait_one_backoff() {
  const sim::RetryConfig& rp = *config_.retry;
  const double wait = backoff_ * (1.0 + rp.jitter * config_.jitter->next_double());
  if (wait > 0.0) channel_->advance(wait);
  out_.backoff_total_s += wait;
  if (config_.trace != nullptr) config_.trace->backoff(channel_->now(), wait);
  backoff_ = std::min(backoff_ * rp.backoff_multiplier, rp.max_backoff_s);
}

}  // namespace mobiweb::transmit

#include "channel/channel.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profile.hpp"
#include "util/check.hpp"

namespace mobiweb::channel {

WirelessChannel::WirelessChannel(ChannelConfig config,
                                 std::unique_ptr<ErrorModel> errors)
    : config_(config), errors_(std::move(errors)), rng_(config.seed) {
  MOBIWEB_CHECK_MSG(std::isfinite(config_.bandwidth_bps) && config_.bandwidth_bps > 0.0,
                    "WirelessChannel: bandwidth finite and > 0");
  MOBIWEB_CHECK_MSG(errors_ != nullptr, "WirelessChannel: error model required");
  // 1.0 is allowed: a completely dead back channel is a legitimate
  // fault-injection configuration (the resilient driver's retry budget is
  // what bounds the session, not this contract).
  MOBIWEB_CHECK_MSG(config_.feedback_loss_rate >= 0.0 &&
                        config_.feedback_loss_rate <= 1.0,
                    "WirelessChannel: feedback_loss_rate in [0,1]");
  MOBIWEB_CHECK_MSG(config_.feedback_delay_s >= 0.0,
                    "WirelessChannel: feedback_delay_s >= 0");
}

void WirelessChannel::set_outage(std::unique_ptr<OutageModel> outage) {
  outage_ = std::move(outage);
}

bool WirelessChannel::link_up_now() {
  return outage_ == nullptr || outage_->link_up(clock_, rng_);
}

bool WirelessChannel::send_feedback() {
  ++stats_.feedback_sent;
  if (metric_feedback_sent_ != nullptr) metric_feedback_sent_->inc();
  const bool dropped =
      (config_.feedback_loss_rate > 0.0 &&
       rng_.next_bernoulli(config_.feedback_loss_rate)) ||
      !link_up_now();
  if (dropped) {
    ++stats_.feedback_lost;
    if (metric_feedback_lost_ != nullptr) metric_feedback_lost_->inc();
    return false;
  }
  clock_ += config_.feedback_delay_s;
  return true;
}

double WirelessChannel::transmit_time(std::size_t frame_bytes) const {
  return static_cast<double>(frame_bytes) * 8.0 / config_.bandwidth_bps;
}

WirelessChannel::Delivery WirelessChannel::send(ByteSpan frame) {
  MOBIWEB_PROFILE_SCOPE("channel.send");
  MOBIWEB_CHECK_MSG(!frame.empty(), "WirelessChannel::send: empty frame");
  Delivery d;
  clock_ += transmit_time(frame.size());
  d.depart_time = clock_;
  d.arrive_time = clock_ + config_.propagation_delay_s;
  if (outage_ != nullptr && !outage_->link_up(d.depart_time, rng_)) {
    // Dead link: the frame never reaches the receiver at all. No corruption
    // draw — the error model only sees frames that make it onto the air.
    d.lost = true;
    ++stats_.frames_sent;
    ++stats_.frames_lost;
    stats_.bytes_sent += frame.size();
    if (metric_sent_ != nullptr) {
      metric_sent_->inc();
      metric_lost_->inc();
      metric_bytes_->inc(static_cast<long>(frame.size()));
    }
    return d;
  }
  d.frame = frame;
  d.corrupted = errors_->next_corrupted(rng_);
  if (d.corrupted) {
    // Flip a handful of bytes so the CRC check fails: each flipped position
    // is distinct and each mask nonzero, so the delivered frame is guaranteed
    // to differ from the original (two flips landing on the same byte with
    // the same mask used to cancel out, letting a frame counted as corrupted
    // sail through packet::decode). Because masks are nonzero, a position
    // was already flipped exactly when the copy differs from the frame there.
    scratch_.assign(frame.begin(), frame.end());
    const std::size_t flips =
        std::min(scratch_.size(), 1 + scratch_.size() / 64);
    for (std::size_t done = 0; done < flips;) {
      const std::size_t pos = rng_.next_below(scratch_.size());
      if (scratch_[pos] != frame[pos]) continue;
      const auto mask = static_cast<std::uint8_t>(1 + rng_.next_below(255));
      scratch_[pos] ^= mask;
      ++done;
    }
    d.frame = ByteSpan(scratch_);
  }
  ++stats_.frames_sent;
  if (d.corrupted) ++stats_.frames_corrupted;
  stats_.bytes_sent += frame.size();
  if (metric_sent_ != nullptr) {
    metric_sent_->inc();
    if (d.corrupted) metric_corrupted_->inc();
    metric_bytes_->inc(static_cast<long>(frame.size()));
  }
  return d;
}

void WirelessChannel::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_sent_ = metric_corrupted_ = metric_lost_ = metric_bytes_ = nullptr;
    metric_feedback_sent_ = metric_feedback_lost_ = nullptr;
    return;
  }
  metric_sent_ = &registry->counter("channel.frames_sent");
  metric_corrupted_ = &registry->counter("channel.frames_corrupted");
  metric_lost_ = &registry->counter("channel.frames_lost");
  metric_bytes_ = &registry->counter("channel.bytes_sent");
  metric_feedback_sent_ = &registry->counter("channel.feedback_sent");
  metric_feedback_lost_ = &registry->counter("channel.feedback_lost");
}

void WirelessChannel::advance(double seconds) {
  MOBIWEB_CHECK_MSG(seconds >= 0.0, "WirelessChannel::advance: negative time");
  clock_ += seconds;
}

}  // namespace mobiweb::channel

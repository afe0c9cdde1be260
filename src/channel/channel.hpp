// Simulated weakly-connected wireless link.
//
// The channel is FIFO with a fixed serialization bandwidth (the paper's
// typical 19.2 kbps) and a pluggable per-packet corruption model. Because the
// link is FIFO and the bandwidth constant, delivery order equals send order
// and a synchronous send loop computes exact timings — no event queue needed.
//
// The channel operates on real frames: a corrupted delivery has bytes
// actually flipped, so the receiving side detects it through the CRC exactly
// as a real client would.
#pragma once

#include <cstdint>
#include <memory>

#include "channel/error_model.hpp"
#include "channel/outage.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mobiweb::channel {

struct ChannelConfig {
  double bandwidth_bps = 19200.0;   // paper Table 2: B = 19.2 kbps
  double propagation_delay_s = 0.0; // one-way latency added to every frame
  std::uint64_t seed = 1;
  // Back channel (client -> server retransmission requests / NACKs): iid
  // probability that one feedback message is dropped, and its one-way
  // latency. The defaults reproduce the paper's assumption of an immediate,
  // reliable back channel.
  double feedback_loss_rate = 0.0;
  double feedback_delay_s = 0.0;
};

struct ChannelStats {
  long frames_sent = 0;
  long frames_corrupted = 0;
  long frames_lost = 0;      // swallowed by a link outage (never arrive)
  long feedback_sent = 0;
  long feedback_lost = 0;    // dropped back-channel messages
  std::size_t bytes_sent = 0;

  [[nodiscard]] double observed_corruption_rate() const {
    return frames_sent > 0
               ? static_cast<double>(frames_corrupted) / static_cast<double>(frames_sent)
               : 0.0;
  }
};

class WirelessChannel {
 public:
  WirelessChannel(ChannelConfig config, std::unique_ptr<ErrorModel> errors);

  // The delivered bytes are a view, not a copy. An intact frame views the
  // sender's buffer; a corrupted one views this channel's scratch copy, which
  // the next send() overwrites. So `frame` is valid until the next send() on
  // this channel and only while the sender's buffer lives; a caller that
  // keeps the bytes longer copies them.
  struct Delivery {
    ByteSpan frame;        // possibly corrupted bytes; empty when lost
    bool corrupted = false;
    bool lost = false;     // link was down: nothing reached the receiver
    double depart_time = 0.0;  // when the last bit left the sender
    double arrive_time = 0.0;  // when the last bit reached the receiver
  };

  // Serializes one frame onto the link, advancing the channel clock by the
  // transmission time. Corruption flips bytes in the channel's scratch copy;
  // `frame` itself is never modified (and must not view that scratch copy,
  // i.e. an earlier corrupted Delivery of this channel). With an
  // outage model installed, a frame departing while the link is down is lost
  // outright: `lost` is set and `frame` is empty (the sender still burned the
  // airtime — it has no way to know the link is dead).
  Delivery send(ByteSpan frame);

  // Installs a link-availability model composed with the error model; nullptr
  // (the default) restores the always-up link. Without a model, send() is
  // bit-for-bit identical to the pre-outage channel (same rng draws).
  void set_outage(std::unique_ptr<OutageModel> outage);
  [[nodiscard]] const OutageModel* outage() const { return outage_.get(); }

  // Whether the link is up at the current channel clock (no time passes).
  [[nodiscard]] bool link_up_now();

  // Attempts to deliver one client->server feedback message (retransmission
  // request / NACK). Returns true when it got through; on success the clock
  // advances by feedback_delay_s (the server acts only after the message
  // arrives). A message is dropped with probability feedback_loss_rate, or
  // when the link is down at send time — the client cannot distinguish the
  // two, so no time is charged on a drop (the caller's timeout covers it).
  bool send_feedback();

  // Seconds needed to serialize `frame_bytes` at the configured bandwidth.
  [[nodiscard]] double transmit_time(std::size_t frame_bytes) const;

  [[nodiscard]] double now() const { return clock_; }
  void advance(double seconds);  // e.g. a retransmission-request round trip

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const ErrorModel& errors() const { return *errors_; }

  // Mirrors ChannelStats into `channel.*` counters of `registry` from now on.
  // Counter references are resolved once here, so the per-frame cost with a
  // collector attached is three increments; nullptr detaches (the default).
  void set_metrics(obs::MetricsRegistry* registry);

  void reset_clock() { clock_ = 0.0; }

 private:
  ChannelConfig config_;
  std::unique_ptr<ErrorModel> errors_;
  std::unique_ptr<OutageModel> outage_;  // nullptr = always up
  Rng rng_;
  double clock_ = 0.0;
  ChannelStats stats_;
  Bytes scratch_;  // the last corrupted delivery's bytes
  obs::Counter* metric_sent_ = nullptr;
  obs::Counter* metric_corrupted_ = nullptr;
  obs::Counter* metric_lost_ = nullptr;
  obs::Counter* metric_bytes_ = nullptr;
  obs::Counter* metric_feedback_sent_ = nullptr;
  obs::Counter* metric_feedback_lost_ = nullptr;
};

}  // namespace mobiweb::channel

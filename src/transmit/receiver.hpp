// Client side: the prototype's Sequence Manager + Rendering Manager rolled
// into one receiver. Validates frames (CRC), feeds intact cooked packets to
// the streaming decoder, tracks the information content received so far, and
// fires a render hook for every clear-text unit fragment so a browser can
// display "each organizational unit incrementally at the proper position".
//
// The receiver's packet buffer doubles as the paper's client cache: with
// caching enabled it survives "stalled" rounds, so a retransmission only has
// to supply the still-missing packets.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "doc/linear.hpp"
#include "ida/ida.hpp"
#include "obs/trace.hpp"
#include "packet/packet.hpp"
#include "util/bytes.hpp"

namespace mobiweb::transmit {

struct ReceiverConfig {
  std::uint16_t doc_id = 1;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t packet_size = 256;
  std::size_t payload_size = 0;
  // Keep intact packets across stalled rounds (the paper's Caching strategy).
  bool caching = true;
};

// What the client can hand to the user when a transfer ends without full
// reconstruction (degraded-mode delivery): every organizational unit whose
// bytes are already readable in clear text — the systematic prefix plus any
// unit completed from the intact-packet cache. Units appear in transmission
// (i.e. ranked, highest-IC-first) order, so the most informative content
// survives a broken link.
struct PartialUnit {
  doc::Segment segment;  // unit map entry (label, payload range, content)
  Bytes bytes;           // the unit's payload bytes as transmitted
};

struct PartialDocument {
  std::vector<PartialUnit> units;
  double content = 0.0;        // information content the units carry
  std::size_t clear_packets = 0;  // clear-text raw packets held at assembly
  bool complete = false;       // whole document was reconstructable

  [[nodiscard]] bool empty() const { return units.empty(); }
};

struct FrameResult {
  bool intact = false;        // CRC passed and header consistent for this doc
  bool newly_useful = false;  // not a duplicate of an already-held packet
  bool corrupted = false;     // failed CRC / undecodable frame
  bool foreign = false;       // decodable but belongs to another document
  long seq = -1;              // cooked-packet index when intact
};

class ClientReceiver {
 public:
  // `segments` is the unit map of the transmitted (permuted) document — the
  // SC metadata the client needs to position units and account content.
  ClientReceiver(ReceiverConfig config, std::vector<doc::Segment> segments);

  // Called for every raw fragment of the document the client can newly
  // display: (raw packet index, bytes). Fired for clear-text packets as they
  // arrive and never twice for the same packet.
  using RenderHook = std::function<void(std::size_t raw_index, ByteSpan bytes)>;
  void set_render_hook(RenderHook hook) { render_hook_ = std::move(hook); }

  // Attaches a per-session event trace; nullptr (the default) is the no-op
  // sink and costs one branch per frame. Sessions install their configured
  // trace here before the first frame.
  void set_trace(obs::SessionTrace* trace) { trace_ = trace; }

  // `arrive_time` is the channel-clock arrival of the frame, used only to
  // timestamp trace events (pass the Delivery's arrive_time; defaults to 0
  // for direct/untimed feeding in tests).
  FrameResult on_frame(ByteSpan frame, double arrive_time = 0.0);

  // Information content received so far: the sum over clear-text raw packets
  // of the content their byte ranges carry, or the full document content once
  // reconstruction is possible.
  [[nodiscard]] double content_received() const;

  [[nodiscard]] bool complete() const { return decoder_.complete(); }
  [[nodiscard]] std::size_t intact_count() const { return decoder_.intact_count(); }

  // Whether cooked packet `index` has been received intact — the feedback a
  // selective-repeat (ARQ) server needs to decide what to resend.
  [[nodiscard]] bool has_packet(std::size_t index) const { return decoder_.has(index); }

  // Reconstructs the document payload; requires complete().
  [[nodiscard]] Bytes reconstruct() const { return decoder_.reconstruct(); }

  // Assembles the degraded-mode deliverable from whatever is decodable right
  // now: every unit all of whose covering raw packets are readable in clear
  // text (or the whole document when complete()). Safe to call at any point
  // of a transfer, including after give-up.
  [[nodiscard]] PartialDocument partial_document() const;

  // Signals the end of a (possibly stalled) round. Without caching the packet
  // buffer and content accounting reset — the default HTTP "reload" be-
  // haviour; with caching this is a no-op.
  void on_round_end();

  // Unconditionally drops the intact-packet cache and its content accounting,
  // caching strategy notwithstanding. Reconnect reconciliation calls this
  // when the serving replica's generation no longer matches the generation
  // the cached packets were fetched under — packets from different encodings
  // must never be mixed into one reconstruction. Frame statistics (seen /
  // corrupted / foreign) survive: they describe the channel, not the cache.
  void reset_cache();

  [[nodiscard]] const std::vector<doc::Segment>& segments() const {
    return content_map_.segments;
  }
  [[nodiscard]] long frames_seen() const { return frames_seen_; }
  // Frames that failed CRC / were undecodable. Foreign frames (intact but for
  // another document, e.g. on a shared broadcast channel) are counted
  // separately so they cannot pollute the corruption-rate estimate fed back
  // to AdaptiveGamma.
  [[nodiscard]] long frames_corrupted() const { return frames_corrupted_; }
  [[nodiscard]] long frames_foreign() const { return frames_foreign_; }

  // Corrupted fraction of the frames addressed to this receiver (foreign
  // frames excluded) — the client-side estimate of the channel's alpha.
  [[nodiscard]] double observed_corruption_rate() const {
    const long own = frames_seen_ - frames_foreign_;
    return own > 0 ? static_cast<double>(frames_corrupted_) /
                         static_cast<double>(own)
                   : 0.0;
  }

 private:
  [[nodiscard]] double packet_content(std::size_t raw_index) const;

  ReceiverConfig config_;
  doc::LinearDocument content_map_;  // the unit map; payload stays empty
  ida::StreamingDecoder decoder_;
  RenderHook render_hook_;
  obs::SessionTrace* trace_ = nullptr;
  double clear_content_ = 0.0;
  long frames_seen_ = 0;
  long frames_corrupted_ = 0;
  long frames_foreign_ = 0;
  double total_content_ = 0.0;
};

}  // namespace mobiweb::transmit

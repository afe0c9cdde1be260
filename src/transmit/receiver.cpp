#include "transmit/receiver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mobiweb::transmit {

ClientReceiver::ClientReceiver(ReceiverConfig config, std::vector<doc::Segment> segments)
    : config_(config),
      decoder_(config.m, config.n, config.packet_size, config.payload_size) {
  content_map_.segments = std::move(segments);
  total_content_ = content_map_.total_content();
}

double ClientReceiver::packet_content(std::size_t raw_index) const {
  const std::size_t begin = raw_index * config_.packet_size;
  const std::size_t end =
      std::min(begin + config_.packet_size, config_.payload_size);
  return content_map_.content_of_range(begin, end);
}

FrameResult ClientReceiver::on_frame(ByteSpan frame, double arrive_time) {
  ++frames_seen_;
  FrameResult result;
  const auto decoded = packet::decode(frame);
  if (!decoded) {
    // CRC failure (or truncation): genuinely corrupted on the air.
    ++frames_corrupted_;
    result.corrupted = true;
    if (trace_ != nullptr) trace_->frame_corrupted(arrive_time);
    return result;
  }
  if (decoded->doc_id != config_.doc_id || decoded->total != config_.n ||
      decoded->seq >= config_.n ||
      decoded->payload.size() != config_.packet_size) {
    // Intact frame of some other transfer (shared channel / stale doc_id):
    // not corruption, so it must not feed the corruption-rate estimate.
    ++frames_foreign_;
    result.foreign = true;
    if (trace_ != nullptr) trace_->frame_foreign(arrive_time);
    return result;
  }
  result.intact = true;
  const std::size_t index = decoded->seq;
  result.seq = static_cast<long>(index);
  result.newly_useful = decoder_.add(index, ByteSpan(decoded->payload));
  if (result.newly_useful && index < config_.m) {
    clear_content_ += packet_content(index);
    if (render_hook_) render_hook_(index, ByteSpan(decoded->payload));
  }
  if (trace_ != nullptr) {
    // content_received() already includes this frame here.
    if (result.newly_useful) {
      trace_->frame_intact(result.seq, arrive_time, content_received());
    } else {
      trace_->frame_duplicate(result.seq, arrive_time);
    }
  }
  return result;
}

double ClientReceiver::content_received() const {
  if (decoder_.complete()) return total_content_;
  return clear_content_;
}

void ClientReceiver::on_round_end() {
  if (config_.caching) return;
  reset_cache();
}

void ClientReceiver::reset_cache() {
  decoder_.reset();
  clear_content_ = 0.0;
}

PartialDocument ClientReceiver::partial_document() const {
  PartialDocument out;
  out.complete = decoder_.complete();
  out.clear_packets = out.complete ? config_.m : decoder_.clear_count();
  const Bytes payload = out.complete ? decoder_.reconstruct() : Bytes{};
  for (const doc::Segment& seg : content_map_.segments) {
    if (seg.offset + seg.size > config_.payload_size) continue;  // defensive
    // Complete: every unit. Otherwise every non-empty unit whose covering
    // raw packets are all held in clear text, read in place from the slab.
    std::optional<ByteSpan> bytes;
    if (out.complete) {
      bytes = ByteSpan(payload).subspan(seg.offset, seg.size);
    } else if (seg.size > 0) {
      bytes = decoder_.clear_bytes(seg.offset, seg.size);
    }
    if (!bytes) continue;
    PartialUnit unit;
    unit.segment = seg;
    unit.bytes.assign(bytes->begin(), bytes->end());
    out.content += seg.content;
    out.units.push_back(std::move(unit));
  }
  return out;
}

}  // namespace mobiweb::transmit

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
  const std::size_t ps = config_.packet_size;
  if (decoder_.complete()) {
    const Bytes payload = decoder_.reconstruct();
    for (const doc::Segment& seg : content_map_.segments) {
      if (seg.offset + seg.size > payload.size()) continue;  // defensive
      PartialUnit unit;
      unit.segment = seg;
      unit.bytes.assign(payload.begin() + static_cast<std::ptrdiff_t>(seg.offset),
                        payload.begin() +
                            static_cast<std::ptrdiff_t>(seg.offset + seg.size));
      out.content += seg.content;
      out.units.push_back(std::move(unit));
    }
    out.clear_packets = config_.m;
    out.complete = true;
    return out;
  }
  for (std::size_t raw = 0; raw < config_.m; ++raw) {
    if (decoder_.has_clear(raw)) ++out.clear_packets;
  }
  for (const doc::Segment& seg : content_map_.segments) {
    if (seg.size == 0) continue;  // nothing displayable
    if (seg.offset + seg.size > config_.payload_size) continue;  // defensive
    const std::size_t first = seg.offset / ps;
    const std::size_t last = (seg.offset + seg.size - 1) / ps;
    bool renderable = true;
    for (std::size_t raw = first; raw <= last && renderable; ++raw) {
      renderable = decoder_.has_clear(raw);
    }
    if (!renderable) continue;
    PartialUnit unit;
    unit.segment = seg;
    unit.bytes.reserve(seg.size);
    for (std::size_t raw = first; raw <= last; ++raw) {
      const ByteSpan packet = decoder_.clear_packet(raw);
      const std::size_t begin =
          raw == first ? seg.offset - raw * ps : 0;
      const std::size_t end =
          raw == last ? seg.offset + seg.size - raw * ps : ps;
      unit.bytes.insert(unit.bytes.end(), packet.begin() + begin,
                        packet.begin() + end);
    }
    out.content += seg.content;
    out.units.push_back(std::move(unit));
  }
  return out;
}

}  // namespace mobiweb::transmit

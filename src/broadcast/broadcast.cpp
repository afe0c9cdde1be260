#include "broadcast/broadcast.hpp"

#include "ida/ida.hpp"
#include "packet/packet.hpp"
#include "util/check.hpp"

namespace mobiweb::broadcast {

BroadcastServer::BroadcastServer(BroadcastConfig config) : config_(config) {
  MOBIWEB_CHECK_MSG(config_.gamma >= 1.0, "BroadcastServer: gamma >= 1");
  MOBIWEB_CHECK_MSG(config_.packet_size >= 1, "BroadcastServer: packet_size >= 1");
}

std::uint16_t BroadcastServer::publish(const doc::LinearDocument& document) {
  MOBIWEB_CHECK_MSG(!built_, "BroadcastServer: cycle already built");
  MOBIWEB_CHECK_MSG(documents_.size() < 0xfffe, "BroadcastServer: too many documents");
  const auto doc_id = static_cast<std::uint16_t>(documents_.size() + 1);
  documents_.emplace_back(document, transmit::TransmitterConfig{
                                        config_.packet_size, config_.gamma, doc_id});
  return doc_id;
}

void BroadcastServer::build_cycle() const {
  MOBIWEB_CHECK_MSG(!documents_.empty(), "BroadcastServer: nothing published");
  cycle_.clear();
  if (config_.interleave) {
    // Round-robin over documents until all frames are scheduled.
    std::size_t remaining = 0;
    for (const auto& d : documents_) remaining += d.n();
    std::vector<std::size_t> next(documents_.size(), 0);
    while (remaining > 0) {
      for (std::size_t d = 0; d < documents_.size(); ++d) {
        if (next[d] < documents_[d].n()) {
          cycle_.push_back(documents_[d].frame(next[d]));
          ++next[d];
          --remaining;
        }
      }
    }
  } else {
    for (const auto& d : documents_) {
      cycle_.insert(cycle_.end(), d.frames().begin(), d.frames().end());
    }
  }
  built_ = true;
}

const std::vector<Bytes>& BroadcastServer::cycle() const {
  if (!built_) build_cycle();
  return cycle_;
}

DocumentInfo BroadcastServer::info(std::uint16_t doc_id) const {
  MOBIWEB_CHECK_MSG(doc_id >= 1 && doc_id <= documents_.size(),
                    "BroadcastServer::info: unknown doc_id");
  const transmit::DocumentTransmitter& tx = documents_[doc_id - 1];
  return {tx.doc_id(), tx.m(), tx.n(), tx.packet_size(), tx.payload_size()};
}

ListenResult listen_for(const BroadcastServer& server, std::uint16_t doc_id,
                        std::size_t start_offset, channel::WirelessChannel& channel,
                        int max_cycles, obs::SessionTrace* trace) {
  const auto& cycle = server.cycle();
  MOBIWEB_CHECK_MSG(!cycle.empty(), "listen_for: empty cycle");
  const DocumentInfo info = server.info(doc_id);
  ida::StreamingDecoder decoder(info.m, info.n, info.packet_size,
                                info.payload_size);

  ListenResult result;
  const double start = channel.now();
  double last_arrival = start;
  if (trace != nullptr) trace->session_start(start);
  const std::size_t total = cycle.size();
  const std::size_t limit = total * static_cast<std::size_t>(max_cycles);
  for (std::size_t k = 0; k < limit; ++k) {
    const std::size_t idx = (start_offset + k) % total;
    if (trace != nullptr && idx == start_offset) {
      // Each pass over the full cycle is one "round" of the broadcast.
      trace->round_start(static_cast<int>(k / total) + 1, channel.now());
    }
    const auto delivery = channel.send(ByteSpan(cycle[idx]));
    ++result.frames_heard;
    last_arrival = delivery.arrive_time;
    const auto decoded = packet::decode(ByteSpan(delivery.frame));
    if (!decoded) {
      // CRC failure: the frame may have belonged to any document.
      ++result.frames_corrupted;
      if (trace != nullptr) trace->frame_corrupted(last_arrival);
      continue;
    }
    if (decoded->doc_id != doc_id) {
      if (trace != nullptr) trace->frame_foreign(last_arrival);
      continue;
    }
    ++result.frames_of_doc;
    if (decoded->payload.size() != info.packet_size || decoded->seq >= info.n) {
      if (trace != nullptr) trace->frame_foreign(last_arrival);
      continue;
    }
    const bool newly_useful = decoder.add(decoded->seq, ByteSpan(decoded->payload));
    if (trace != nullptr) {
      if (newly_useful) {
        trace->frame_intact(decoded->seq, last_arrival, decoder.clear_fraction());
      } else {
        trace->frame_duplicate(decoded->seq, last_arrival);
      }
    }
    if (decoder.complete()) {
      result.completed = true;
      result.payload = decoder.reconstruct();
      if (trace != nullptr) trace->decode_complete(last_arrival);
      break;
    }
  }
  result.time = channel.now() - start;
  if (trace != nullptr) {
    if (!result.completed) trace->give_up(last_arrival);
    trace->session_end(last_arrival, decoder.clear_fraction());
  }
  return result;
}

}  // namespace mobiweb::broadcast

#include "transmit/transmitter.hpp"

#include "util/check.hpp"

namespace mobiweb::transmit {

DocumentTransmitter::DocumentTransmitter(doc::LinearDocument document,
                                         TransmitterConfig config)
    : document_(std::move(document)), config_(config) {
  MOBIWEB_CHECK_MSG(!document_.payload.empty(),
                    "DocumentTransmitter: empty document payload");
  m_ = ida::packet_count(document_.payload.size(), config_.packet_size);
  MOBIWEB_CHECK_MSG(m_ <= ida::kMaxPackets,
                    "DocumentTransmitter: document too large for one dispersal "
                    "group (m > 255); increase packet_size");
  n_ = ida::cooked_count(m_, config_.gamma);

  ida::Encoder encoder(m_, n_);
  const std::size_t size = config_.packet_size;
  const Bytes cooked = encoder.encode_flat(ByteSpan(document_.payload), size);
  frames_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    packet::Packet p;
    p.doc_id = config_.doc_id;
    p.seq = static_cast<std::uint16_t>(i);
    p.total = static_cast<std::uint16_t>(n_);
    p.flags = 0;
    if (i < m_) p.flags |= packet::kFlagClearText;
    if (i + 1 == n_) p.flags |= packet::kFlagLast;
    p.payload = ByteSpan(cooked).subspan(i * size, size);
    frames_.push_back(packet::encode(p));
  }
}

const Bytes& DocumentTransmitter::frame(std::size_t index) const {
  MOBIWEB_CHECK_MSG(index < frames_.size(), "DocumentTransmitter::frame: range");
  return frames_[index];
}

}  // namespace mobiweb::transmit

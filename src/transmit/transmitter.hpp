// Server side of fault-tolerant multi-resolution transmission (§4.2): the
// prototype's "Document Transmitter". Takes a linearized (ranked) document,
// cuts it into M raw packets, expands them to N = ida::cooked_count(M, γ)
// cooked packets with the systematic IDA code, and frames each cooked packet for the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "doc/linear.hpp"
#include "ida/ida.hpp"
#include "packet/packet.hpp"
#include "util/bytes.hpp"

namespace mobiweb::transmit {

struct TransmitterConfig {
  std::size_t packet_size = 256;  // s_p, paper Table 2
  double gamma = 1.5;             // redundancy ratio γ = N/M
  std::uint16_t doc_id = 1;
};

class DocumentTransmitter {
 public:
  // The document payload must be non-empty and split into at most
  // ida::kMaxPackets raw packets; N = ida::cooked_count(M, γ) must fit the
  // same bound. Otherwise throws ContractViolation.
  DocumentTransmitter(doc::LinearDocument document, TransmitterConfig config);

  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t packet_size() const { return config_.packet_size; }
  [[nodiscard]] std::size_t payload_size() const { return document_.payload.size(); }
  [[nodiscard]] std::uint16_t doc_id() const { return config_.doc_id; }
  [[nodiscard]] const doc::LinearDocument& document() const { return document_; }

  // Wire frame of cooked packet `index` (header + payload + CRC). Frames are
  // encoded once; retransmission rounds resend the same frames.
  [[nodiscard]] const Bytes& frame(std::size_t index) const;
  [[nodiscard]] const std::vector<Bytes>& frames() const { return frames_; }

 private:
  doc::LinearDocument document_;
  TransmitterConfig config_;
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<Bytes> frames_;
};

}  // namespace mobiweb::transmit

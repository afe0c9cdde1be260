// Broadcast dissemination ("air storage").
//
// The authors' companion work (Leong & Si, "Database Caching over the
// Air-Storage", ref [13]; Chan/Si/Leong, ref [6]) serves hot data by cycling
// it on a broadcast channel: clients just tune in, no uplink needed. That is
// exactly the regime where the paper's fault-tolerant encoding beats ARQ —
// with thousands of listeners there is no per-client feedback, so recovery
// must come from redundancy alone, and "any M of N cooked packets" means a
// client can tune in at an arbitrary point of the cycle and still finish
// after ~M intact packets of its document.
//
// BroadcastServer builds the cycle (the transmit::DocumentTransmitter frames
// of every published document, either document-by-document or interleaved
// round-robin);
// BroadcastClient models one listener wanting one document.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "channel/channel.hpp"
#include "doc/linear.hpp"
#include "obs/trace.hpp"
#include "transmit/transmitter.hpp"
#include "util/bytes.hpp"

namespace mobiweb::broadcast {

struct BroadcastConfig {
  std::size_t packet_size = 256;
  double gamma = 1.5;
  // Interleave packets of different documents round-robin. Interleaving
  // shortens the expected wait for the *first* packet of a document at the
  // cost of stretching each document across the whole cycle.
  bool interleave = false;
};

struct DocumentInfo {
  std::uint16_t doc_id = 0;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t packet_size = 0;
  std::size_t payload_size = 0;
};

class BroadcastServer {
 public:
  // doc_ids are assigned 1..k in publication order.
  explicit BroadcastServer(BroadcastConfig config = {});

  // Publishes a document; returns its doc_id. All documents must be
  // published before the first cycle() call. Throws ContractViolation where
  // DocumentTransmitter does (an empty or oversized document).
  std::uint16_t publish(const doc::LinearDocument& document);

  // The broadcast cycle: every cooked frame of every document, in schedule
  // order. The cycle is immutable once built.
  [[nodiscard]] const std::vector<Bytes>& cycle() const;

  [[nodiscard]] std::size_t cycle_frames() const { return cycle().size(); }
  [[nodiscard]] DocumentInfo info(std::uint16_t doc_id) const;
  [[nodiscard]] std::size_t documents() const { return documents_.size(); }

 private:
  void build_cycle() const;

  BroadcastConfig config_;
  std::vector<transmit::DocumentTransmitter> documents_;
  mutable std::vector<Bytes> cycle_;
  mutable bool built_ = false;
};

struct ListenResult {
  bool completed = false;
  long frames_heard = 0;      // frames that went by while tuned in
  long frames_of_doc = 0;     // intact frames of the wanted document
  long frames_corrupted = 0;  // frames that failed CRC while tuned in
  double time = 0.0;          // listening time until reconstruction
  Bytes payload;              // reconstructed document payload
};

// One listener: tunes in at frame `start_offset` of the cycle and listens
// until its document is reconstructable (or `max_cycles` full cycles pass).
// A corrupted frame cannot be attributed to any document (the header is
// untrustworthy), so frames_of_doc counts only intact frames of `doc_id`;
// intact frames of other documents are "foreign" in the trace.
ListenResult listen_for(const BroadcastServer& server, std::uint16_t doc_id,
                        std::size_t start_offset, channel::WirelessChannel& channel,
                        int max_cycles = 50, obs::SessionTrace* trace = nullptr);

}  // namespace mobiweb::broadcast

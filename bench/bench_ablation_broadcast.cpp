// Ablation: unicast (per-client transfer with feedback) vs broadcast
// air-storage dissemination as the audience grows.
//
// K clients all want documents from a hot set of 8. Unicast serializes the
// transfers on the shared 19.2 kbps downlink, so mean latency grows linearly
// with K; the broadcast cycle serves every listener simultaneously — latency
// is flat in K (one cycle of airtime, amortized), and fault tolerance comes
// entirely from IDA redundancy since listeners have no uplink. This is the
// regime the paper's encoding (vs ARQ) is strongest in.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "broadcast/broadcast.hpp"
#include "channel/channel.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "stats/describe.hpp"
#include "transmit/receiver.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"
#include "util/rng.hpp"
#include "xml/parser.hpp"

namespace bench = mobiweb::bench;
namespace broadcast = mobiweb::broadcast;
namespace doc = mobiweb::doc;
namespace channel = mobiweb::channel;
namespace transmit = mobiweb::transmit;
using mobiweb::Rng;
using mobiweb::TextTable;

namespace {

std::vector<doc::LinearDocument> hot_set() {
  std::vector<doc::LinearDocument> docs;
  doc::ScGenerator gen;
  for (int d = 0; d < 8; ++d) {
    std::string src = "<paper>";
    for (int p = 0; p < 8; ++p) {
      src += "<para>";
      for (int w = 0; w < 22; ++w) {
        src += "hot" + std::to_string(d) + "p" + std::to_string(p) + "w" +
               std::to_string(w) + " ";
      }
      src += "</para>";
    }
    src += "</paper>";
    docs.push_back(doc::linearize(gen.generate(mobiweb::xml::parse(src)),
                                  {.lod = doc::Lod::kParagraph,
                                   .rank = doc::RankBy::kIc}));
  }
  return docs;
}

// Unicast: K requests served back-to-back on one shared channel.
double unicast_mean_latency(const std::vector<doc::LinearDocument>& docs,
                            int clients, double alpha, std::uint64_t seed) {
  channel::WirelessChannel ch({.seed = seed},
                              std::make_unique<channel::IidErrorModel>(alpha));
  Rng rng(seed);
  mobiweb::stats::Moments latency;
  const double t0 = ch.now();
  for (int k = 0; k < clients; ++k) {
    const auto& lin = docs[rng.next_below(docs.size())];
    transmit::DocumentTransmitter tx(
        lin, {.packet_size = 256, .gamma = 1.5,
              .doc_id = static_cast<std::uint16_t>(k + 1)});
    transmit::ClientReceiver rx({.doc_id = tx.doc_id(), .m = tx.m(), .n = tx.n(),
                                 .packet_size = 256,
                                 .payload_size = tx.payload_size(),
                                 .caching = true},
                                lin.segments);
    transmit::TransferSession session(tx, rx, ch);
    (void)session.run();
    // Latency as seen by client k: from the moment the *first* request was
    // queued (all K arrive together) until its own transfer completes.
    latency.add(ch.now() - t0);
  }
  return latency.mean();
}

// Broadcast: every client listens to the same cycle; each starts at a random
// offset. Latencies are independent of K by construction — measured once per
// client anyway to account for corruption randomness.
double broadcast_mean_latency(const std::vector<doc::LinearDocument>& docs,
                              int clients, double alpha, std::uint64_t seed) {
  broadcast::BroadcastServer server({.packet_size = 256, .gamma = 1.5,
                                     .interleave = true});
  std::vector<std::uint16_t> ids;
  for (const auto& d : docs) ids.push_back(server.publish(d));
  const std::size_t cycle = server.cycle_frames();
  Rng rng(seed);
  mobiweb::stats::Moments latency;
  for (int k = 0; k < clients; ++k) {
    channel::WirelessChannel ch(
        {.seed = seed * 977 + static_cast<std::uint64_t>(k)},
        std::make_unique<channel::IidErrorModel>(alpha));
    const auto id = ids[rng.next_below(ids.size())];
    const auto r = broadcast::listen_for(server, id, rng.next_below(cycle), ch);
    latency.add(r.time);
  }
  return latency.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — unicast transfers vs broadcast air-storage vs audience size",
      "8 hot documents, alpha on a 19.2 kbps downlink, gamma = 1.5. Unicast\n"
      "latency grows with the audience; broadcast stays flat and needs no\n"
      "uplink — redundancy alone recovers corruption for every listener.");

  const auto docs = hot_set();
  for (const double alpha : {0.1, 0.3}) {
    TextTable table({"clients K", "unicast mean latency (s)",
                     "broadcast mean latency (s)"});
    for (const int k : {1, 2, 4, 8, 16, 32}) {
      table.add_row({std::to_string(k),
                     TextTable::fmt(unicast_mean_latency(docs, k, alpha, 11), 2),
                     TextTable::fmt(broadcast_mean_latency(docs, k, alpha, 13), 2)});
    }
    bench::print_table("alpha = " + TextTable::fmt(alpha, 1), table);
  }
  return 0;
}

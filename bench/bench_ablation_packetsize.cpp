// Ablation: packet size s_p under a bit-error channel.
//
// The paper fixes s_p = 256 bytes (Table 2). Packet size trades two effects:
// smaller packets waste a larger fraction of airtime on the O = 4 bytes of
// framing, while larger packets are corrupted more often at a given bit error
// rate (alpha = 1 - (1-BER)^bits) and lose more data per corruption. This
// sweep locates the sweet spot at several BERs and checks where 256 sits.
#include <cmath>

#include "bench_common.hpp"
#include "ida/ida.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"
#include "util/rng.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
using mobiweb::Rng;
using mobiweb::TextTable;

namespace {

double mean_time(std::size_t packet_size, double ber, int docs,
                 std::uint64_t seed) {
  const std::size_t doc_size = 10240;
  const std::size_t overhead = 4;
  const double bits = static_cast<double>(packet_size + overhead) * 8.0;
  const double alpha = 1.0 - std::pow(1.0 - ber, bits);
  const std::size_t m = mobiweb::ida::packet_count(doc_size, packet_size);
  // Channel unusable at this size, or more raw packets than one group holds.
  if (alpha >= 0.95 || m > mobiweb::ida::kMaxPackets) return -1.0;

  sim::TransferConfig cfg;
  cfg.m = static_cast<int>(m);
  cfg.n = static_cast<int>(mobiweb::ida::cooked_count(m, 1.5));
  cfg.alpha = alpha;
  cfg.caching = true;
  cfg.time_per_packet =
      static_cast<double>(packet_size + overhead) * 8.0 / 19200.0;
  cfg.max_rounds = 200;

  const std::vector<double> content(static_cast<std::size_t>(cfg.m),
                                    1.0 / cfg.m);
  Rng rng(seed);
  mobiweb::stats::Moments stats;
  for (int d = 0; d < docs; ++d) {
    stats.add(sim::simulate_transfer(content, cfg, rng).time);
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — packet size s_p under a bit-error channel",
      "10240-byte documents, gamma = 1.5, caching, O = 4 bytes framing.\n"
      "alpha(s_p) = 1-(1-BER)^bits: small packets pay framing overhead,\n"
      "large ones get corrupted more often. '-' = channel unusable, or at\n"
      "s_p = 32 a document of m = 320 raw packets, past the 255 that one\n"
      "GF(2^8) dispersal group holds (DocumentTransmitter rejects it).\n"
      "BER 5e-5 corresponds to the paper's alpha ~ 0.1 at s_p = 256.");

  const int docs = bench::fast_mode() ? 2000 : 20000;
  TextTable table({"s_p (bytes)", "BER=1e-5", "BER=5e-5", "BER=1e-4",
                   "BER=2.5e-4"});
  for (const std::size_t sp : {32u, 64u, 128u, 256u, 512u, 1024u, 2048u}) {
    std::vector<std::string> row = {std::to_string(sp)};
    for (const double ber : {1e-5, 5e-5, 1e-4, 2.5e-4}) {
      const double t = mean_time(sp, ber, docs, 31000 + sp);
      row.push_back(t < 0 ? "-" : TextTable::fmt(t, 2));
    }
    table.add_row(std::move(row));
  }
  bench::print_table("Mean response time (s) for a relevant document", table);
  return 0;
}

// Ablation: IDA redundancy (the paper's scheme) vs selective-repeat ARQ vs
// naive full reload, as a function of feedback latency.
//
// With an instantaneous back channel ARQ is bandwidth-optimal: it resends
// exactly the corrupted packets. The paper's redundancy scheme spends gamma-1
// extra airtime up front but needs no per-round feedback — so as the
// feedback round trip grows (satellite links, deep fades, request queuing at
// the proxy) the crossover flips toward IDA. Naive reload (NoCaching, no
// redundancy) is the conventional HTTP behaviour both schemes beat.
#include "bench_common.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"
#include "util/rng.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
using mobiweb::Rng;
using mobiweb::TextTable;

namespace {

enum class Scheme { kIda, kArq, kReload };

double mean_time(Scheme scheme, double alpha, double feedback_delay, int docs) {
  const int m = 40;
  const std::vector<double> content(m, 1.0 / m);
  Rng rng(8600 + static_cast<std::uint64_t>(alpha * 100) +
          static_cast<std::uint64_t>(feedback_delay * 10));
  mobiweb::stats::Moments stats;
  for (int d = 0; d < docs; ++d) {
    sim::TransferConfig cfg;
    cfg.m = m;
    cfg.alpha = alpha;
    cfg.request_delay = feedback_delay;
    cfg.max_rounds = 1000;
    sim::TransferResult r;
    switch (scheme) {
      case Scheme::kIda:
        cfg.n = 60;  // gamma = 1.5
        cfg.caching = true;
        r = sim::simulate_transfer(content, cfg, rng);
        break;
      case Scheme::kArq:
        cfg.n = m;
        r = sim::simulate_arq_transfer(content, cfg, rng);
        break;
      case Scheme::kReload:
        cfg.n = m;
        cfg.caching = false;
        cfg.max_rounds = 200;
        r = sim::simulate_transfer(content, cfg, rng);
        break;
    }
    stats.add(r.time);
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — IDA redundancy vs selective-repeat ARQ vs full reload",
      "Mean response time (s) for a relevant 40-packet document vs the\n"
      "feedback (NACK) round-trip cost. ARQ wins with free feedback; IDA\n"
      "needs none within a round and overtakes as feedback gets expensive.\n"
      "Full reload collapses at moderate alpha (conventional behaviour).");

  const int docs = bench::fast_mode() ? 2000 : 20000;

  for (const double alpha : {0.1, 0.3}) {
    TextTable table({"feedback delay (s)", "IDA gamma=1.5 + cache",
                     "selective-repeat ARQ", "full reload"});
    for (const double delay : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}) {
      table.add_row({TextTable::fmt(delay, 2),
                     TextTable::fmt(mean_time(Scheme::kIda, alpha, delay, docs), 3),
                     TextTable::fmt(mean_time(Scheme::kArq, alpha, delay, docs), 3),
                     TextTable::fmt(mean_time(Scheme::kReload, alpha, delay, docs), 3)});
    }
    bench::print_table("alpha = " + TextTable::fmt(alpha, 1), table);
  }
  return 0;
}

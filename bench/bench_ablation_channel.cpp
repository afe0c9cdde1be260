// Ablation: iid corruption (the paper's model) vs Gilbert-Elliott burst
// errors at the same average corruption rate.
//
// Why it matters: the negative-binomial analysis of §4.1 assumes independent
// corruption. Real wireless fades corrupt packets in bursts. With the same
// average alpha, bursts concentrate damage in some rounds and spare others —
// this probes how robust the caching + redundancy design is when the
// independence assumption breaks.
#include "bench_common.hpp"
#include "channel/error_model.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"
#include "util/rng.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
namespace channel = mobiweb::channel;
using mobiweb::Rng;
using mobiweb::TextTable;

namespace {

struct Outcome {
  double mean_time = 0.0;
  double stall_fraction = 0.0;
  double gave_up = 0.0;
};

Outcome run(channel::ErrorModel& model, bool caching, int docs) {
  const int m = 40;
  Rng rng(8800);
  mobiweb::stats::Moments stats;
  long stalls = 0;
  long gave_up = 0;
  const std::vector<double> content(m, 1.0 / m);
  for (int d = 0; d < docs; ++d) {
    sim::TransferConfig cfg;
    cfg.m = m;
    cfg.n = 60;  // gamma = 1.5
    cfg.caching = caching;
    const auto r = sim::simulate_transfer(
        content, cfg, [&model, &rng] { return model.next_corrupted(rng); });
    stats.add(r.time);
    stalls += (r.rounds > 1);
    gave_up += r.gave_up;
  }
  Outcome out;
  out.mean_time = stats.mean();
  out.stall_fraction = static_cast<double>(stalls) / docs;
  out.gave_up = static_cast<double>(gave_up) / docs;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — iid vs Gilbert-Elliott burst errors at equal average alpha",
      "gamma = 1.5, M = 40, relevant documents. Bursts make single rounds\n"
      "either mostly-clean or devastated; caching should absorb most of the\n"
      "damage, while NoCaching suffers.");

  const int docs = bench::fast_mode() ? 2000 : 10000;

  for (const double alpha : {0.1, 0.3}) {
    TextTable table({"channel", "caching", "mean time (s)", "stall fraction",
                     "gave-up fraction"});
    for (const bool caching : {true, false}) {
      channel::IidErrorModel iid(alpha);
      const auto o_iid = run(iid, caching, docs);
      table.add_row({"iid", caching ? "yes" : "no", TextTable::fmt(o_iid.mean_time, 3),
                     TextTable::fmt(o_iid.stall_fraction, 3),
                     TextTable::fmt(o_iid.gave_up, 4)});
      for (const double burst : {4.0, 16.0}) {
        auto ge = channel::GilbertElliottModel::with_average_rate(alpha, burst);
        const auto o = run(ge, caching, docs);
        table.add_row({"GE burst=" + TextTable::fmt(burst, 0),
                       caching ? "yes" : "no", TextTable::fmt(o.mean_time, 3),
                       TextTable::fmt(o.stall_fraction, 3),
                       TextTable::fmt(o.gave_up, 4)});
      }
    }
    bench::print_table("alpha = " + TextTable::fmt(alpha, 1), table);
  }
  return 0;
}

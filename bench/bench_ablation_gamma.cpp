// Ablation: fixed redundancy ratio vs the EWMA-adaptive controller the paper
// sketches in §4.2 ("the value of gamma could be defined as an adaptive
// function of the observed summarized value of alpha, using perhaps a kind of
// EWMA measure").
//
// Scenario: a browsing session in which the channel quality drifts (the
// client walks from good coverage into a fade and back). A fixed gamma is
// either wasteful when the channel is clean or inadequate when it is bad; the
// adaptive controller should track the drift and come close to the
// per-phase-optimal gamma everywhere.
#include <algorithm>
#include <vector>

#include "analysis/negbinom.hpp"
#include "bench_common.hpp"
#include "ida/ida.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"
#include "transmit/adaptive.hpp"
#include "util/rng.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
using mobiweb::Rng;
using mobiweb::TextTable;

namespace {

// Channel drift profile over a 200-document session: alpha per document.
std::vector<double> drift_profile(int docs) {
  std::vector<double> alpha(static_cast<std::size_t>(docs));
  for (int d = 0; d < docs; ++d) {
    const double phase = static_cast<double>(d) / static_cast<double>(docs);
    if (phase < 0.3) {
      alpha[static_cast<std::size_t>(d)] = 0.05;  // good coverage
    } else if (phase < 0.6) {
      alpha[static_cast<std::size_t>(d)] = 0.4;   // fade
    } else {
      alpha[static_cast<std::size_t>(d)] = 0.15;  // recovering
    }
  }
  return alpha;
}

struct Outcome {
  double mean_time = 0.0;
  double mean_packets = 0.0;
  double stall_fraction = 0.0;
};

// Runs one session policy. gamma_fn(doc index, m) -> gamma for that document;
// observe_fn(corruption rate) feeds the controller afterwards.
template <typename GammaFn, typename ObserveFn>
Outcome run_policy(const GammaFn& gamma_fn, const ObserveFn& observe_fn,
                   int repetitions, int docs) {
  const int m = 40;
  mobiweb::stats::Moments time_stats;
  double packets = 0.0;
  long stalls = 0;
  long total_docs = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    Rng rng(9000 + static_cast<std::uint64_t>(rep));
    const auto alphas = drift_profile(docs);
    for (int d = 0; d < docs; ++d) {
      sim::TransferConfig cfg;
      cfg.m = m;
      const double gamma = gamma_fn(d, m);
      cfg.n = static_cast<int>(mobiweb::ida::cooked_count(m, gamma));
      cfg.alpha = alphas[static_cast<std::size_t>(d)];
      cfg.caching = true;
      const std::vector<double> content(m, 1.0 / m);
      const auto r = sim::simulate_transfer(content, cfg, rng);
      time_stats.add(r.time);
      packets += static_cast<double>(r.packets);
      stalls += (r.rounds > 1);
      ++total_docs;
      // The client reports the corruption rate it saw (corrupted = sent -
      // useful intact observations; approximate with the configured alpha
      // plus sampling noise from the realized pattern).
      const double observed =
          1.0 - static_cast<double>(m) /
                    std::max<double>(static_cast<double>(r.packets), m);
      observe_fn(r.completed ? observed : cfg.alpha);
    }
  }
  Outcome out;
  out.mean_time = time_stats.mean();
  out.mean_packets = packets / static_cast<double>(total_docs);
  out.stall_fraction = static_cast<double>(stalls) / static_cast<double>(total_docs);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — fixed gamma vs EWMA-adaptive gamma under channel drift",
      "Session: alpha = 0.05 (30% of docs) -> 0.40 (30%) -> 0.15 (40%).\n"
      "Metrics per document; lower is better. The adaptive controller should\n"
      "approach the oracle (per-phase optimal gamma).");

  const int reps = bench::fast_mode() ? 5 : 30;
  const int docs = 200;

  TextTable table({"policy", "mean time (s)", "mean packets", "stall fraction"});

  for (const double g : {1.1, 1.5, 2.0, 2.5}) {
    const auto o = run_policy([g](int, int) { return g; }, [](double) {}, reps, docs);
    table.add_row({"fixed gamma=" + TextTable::fmt(g, 1),
                   TextTable::fmt(o.mean_time, 3), TextTable::fmt(o.mean_packets, 1),
                   TextTable::fmt(o.stall_fraction, 3)});
  }

  {
    mobiweb::transmit::AdaptiveGamma controller(
        {.initial_gamma = 1.5, .target_success = 0.95, .ewma_alpha = 0.25});
    const auto o = run_policy(
        [&controller](int, int m) { return controller.gamma(m); },
        [&controller](double rate) { controller.observe(rate); }, reps, docs);
    table.add_row({"adaptive (EWMA 0.25, S=95%)", TextTable::fmt(o.mean_time, 3),
                   TextTable::fmt(o.mean_packets, 1),
                   TextTable::fmt(o.stall_fraction, 3)});
  }

  {
    // Oracle: knows the true alpha of each phase.
    const auto profile = drift_profile(docs);
    const auto o = run_policy(
        [&profile](int d, int m) {
          return mobiweb::analysis::redundancy_ratio(
              m, profile[static_cast<std::size_t>(d)], 0.95);
        },
        [](double) {}, reps, docs);
    table.add_row({"oracle (true alpha, S=95%)", TextTable::fmt(o.mean_time, 3),
                   TextTable::fmt(o.mean_packets, 1),
                   TextTable::fmt(o.stall_fraction, 3)});
  }

  bench::print_table("Adaptive-gamma ablation", table);
  return 0;
}

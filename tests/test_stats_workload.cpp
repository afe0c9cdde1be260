// Distribution-level coverage of the fleet workload generators, using the
// stats engine as the oracle: the Zipf document-popularity sampler must pass
// a chi-square goodness-of-fit test against its own cumulative weights, the
// Poisson arrival process must show unit index of dispersion, and the tail
// summary threaded through FleetResult must equal the exact order statistics
// recomputed from the per-session outcomes — bit-identically across shard
// counts. All draws are seeded; nothing here can flake.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "fleet/engine.hpp"
#include "stats/describe.hpp"
#include "stats/inference.hpp"
#include "util/thread_pool.hpp"

namespace mw = mobiweb;
namespace fleet = mobiweb::fleet;
namespace stats = mobiweb::stats;

namespace {

fleet::FleetConfig workload_config(std::size_t sessions) {
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size = 8;
  cfg.corpus.seed = 77;
  cfg.sessions = sessions;
  cfg.seed = 1234;
  cfg.alpha = 0.0;  // one clean round per session: keep the fleet fast
  cfg.record_outcomes = true;
  return cfg;
}

}  // namespace

// ---- Zipf popularity: chi-square goodness of fit ----

TEST(WorkloadGof, ZipfDocumentDrawPassesChiSquareAgainstItsWeights) {
  fleet::FleetConfig cfg = workload_config(8000);
  cfg.zipf_s = 1.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), cfg.sessions);

  std::vector<long> observed(cfg.corpus.corpus_size, 0);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    ASSERT_LT(out.key.doc_index, cfg.corpus.corpus_size);
    ++observed[out.key.doc_index];
  }
  // The sampler draws rank (doc index) with weight (rank + 1)^-s — the same
  // cumulative-weight table the engine builds.
  std::vector<double> weights(cfg.corpus.corpus_size);
  for (std::size_t d = 0; d < weights.size(); ++d) {
    weights[d] = std::pow(static_cast<double>(d + 1), -cfg.zipf_s);
  }
  const stats::TestResult gof = stats::chi_square_gof(observed, weights);
  EXPECT_GT(gof.p_value, 0.01)
      << "chi2=" << gof.statistic << " df=" << gof.df;

  // The same counts against a uniform hypothesis must reject hard: the draw
  // really is skewed, not just unrejectable.
  const std::vector<double> uniform(cfg.corpus.corpus_size, 1.0);
  EXPECT_LT(stats::chi_square_gof(observed, uniform).p_value, 1e-10);
}

TEST(WorkloadGof, SteeperExponentSkewsHarder) {
  std::vector<double> head_share;
  for (double s : {0.5, 1.5}) {
    fleet::FleetConfig cfg = workload_config(4000);
    cfg.zipf_s = s;
    fleet::FleetEngine engine(cfg);
    const fleet::FleetResult r = engine.run();
    long head = 0;
    for (const fleet::SessionOutcome& out : r.outcomes) {
      head += out.key.doc_index == 0 ? 1 : 0;
    }
    head_share.push_back(static_cast<double>(head) /
                         static_cast<double>(cfg.sessions));
  }
  EXPECT_GT(head_share[1], head_share[0] + 0.1);
}

// ---- Poisson arrivals: index of dispersion ----

TEST(WorkloadGof, PoissonArrivalWindowCountsHaveUnitDispersion) {
  fleet::FleetConfig cfg = workload_config(6000);
  cfg.arrival_rate_hz = 5.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), cfg.sessions);

  // Count arrivals per 2 s window; drop the final partial window so every
  // counted window saw the full process.
  const double window_s = 2.0;
  const double horizon = r.outcomes.back().start_s;
  const auto windows = static_cast<std::size_t>(horizon / window_s);
  ASSERT_GT(windows, 100u);
  std::vector<long> counts(windows, 0);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    const auto w = static_cast<std::size_t>(out.start_s / window_s);
    if (w < windows) ++counts[w];
  }
  // Poisson: variance == mean, so D = s^2/mean is ~1 and the chi-square
  // dispersion test does not reject.
  EXPECT_NEAR(stats::dispersion_index(counts), 1.0, 0.2);
  const stats::TestResult disp = stats::dispersion_test(counts);
  EXPECT_GT(disp.p_value, 0.01)
      << "D*(n-1)=" << disp.statistic << " df=" << disp.df;

  // Control: the uniform stagger (same session count over the same horizon)
  // is maximally regular — dispersion far below 1, test rejects.
  fleet::FleetConfig ucfg = workload_config(6000);
  ucfg.arrival_rate_hz = 0.0;
  ucfg.arrival_spread_s = horizon;
  fleet::FleetEngine uengine(ucfg);
  const fleet::FleetResult u = uengine.run();
  std::vector<long> ucounts(windows, 0);
  for (const fleet::SessionOutcome& out : u.outcomes) {
    const auto w = static_cast<std::size_t>(out.start_s / window_s);
    if (w < windows) ++ucounts[w];
  }
  EXPECT_LT(stats::dispersion_index(ucounts), 0.3);
  EXPECT_LT(stats::dispersion_test(ucounts).p_value, 1e-6);
}

TEST(WorkloadGof, ExponentialGapsMatchTheConfiguredRate) {
  fleet::FleetConfig cfg = workload_config(4000);
  cfg.arrival_rate_hz = 2.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  std::vector<double> gaps;
  gaps.reserve(r.outcomes.size() - 1);
  for (std::size_t i = 1; i < r.outcomes.size(); ++i) {
    gaps.push_back(r.outcomes[i].start_s - r.outcomes[i - 1].start_s);
  }
  stats::Moments m;
  for (double g : gaps) m.add(g);
  // Exponential(rate 2): mean 0.5, stddev 0.5; the t-based CI around the
  // sample mean must cover the true mean.
  EXPECT_NEAR(m.mean(), 0.5, 3.0 * stats::mean_ci95_halfwidth(m.count(),
                                                              m.stddev()));
  EXPECT_NEAR(m.stddev(), 0.5, 0.05);
  // Exponential skewness is 2; far from normal, so Jarque-Bera rejects.
  EXPECT_NEAR(m.skewness(), 2.0, 0.4);
  EXPECT_LT(stats::jarque_bera(m).p_value, 1e-6);
}

// ---- Tail threading: FleetResult::session_time_tails ----

TEST(FleetTails, SummaryEqualsExactOrderStatisticsOfOutcomes) {
  fleet::FleetConfig cfg = workload_config(500);
  cfg.alpha = 0.25;  // multi-round sessions: a real time distribution
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 500u);

  std::vector<double> times;
  times.reserve(r.outcomes.size());
  for (const fleet::SessionOutcome& out : r.outcomes) {
    times.push_back(out.result.time);
  }
  const stats::TailSummary expected = stats::summarize_tails(times);
  const stats::TailSummary& got = r.session_time_tails;
  EXPECT_EQ(got.count, expected.count);
  EXPECT_EQ(got.mean, expected.mean);      // bit-equal: same sorted fold
  EXPECT_EQ(got.stddev, expected.stddev);
  EXPECT_EQ(got.ci95, expected.ci95);
  EXPECT_EQ(got.min, expected.min);
  EXPECT_EQ(got.max, expected.max);
  EXPECT_EQ(got.p50, expected.p50);
  EXPECT_EQ(got.p95, expected.p95);
  EXPECT_EQ(got.p99, expected.p99);
  EXPECT_EQ(got.p999, expected.p999);
  // Internal consistency with the scalar aggregates.
  EXPECT_NEAR(got.mean * static_cast<double>(got.count), r.session_time_s,
              1e-6);
  EXPECT_LE(got.p50, got.p95);
  EXPECT_LE(got.p95, got.p99);
  EXPECT_LE(got.p99, got.p999);
  EXPECT_LE(got.p999, got.max);
  EXPECT_GE(got.p50, got.min);
}

TEST(FleetTails, BitIdenticalAcrossShardCounts) {
  fleet::FleetConfig cfg = workload_config(400);
  cfg.alpha = 0.25;
  cfg.record_outcomes = false;  // the tail path must not depend on outcomes
  cfg.shards = 1;
  fleet::FleetEngine serial(cfg);
  const fleet::FleetResult a = serial.run();

  mw::ThreadPool pool(3);
  cfg.shards = 4;
  fleet::FleetEngine sharded(cfg);
  const fleet::FleetResult b = sharded.run(&pool);

  EXPECT_EQ(a.session_time_tails.count, b.session_time_tails.count);
  EXPECT_EQ(a.session_time_tails.mean, b.session_time_tails.mean);
  EXPECT_EQ(a.session_time_tails.stddev, b.session_time_tails.stddev);
  EXPECT_EQ(a.session_time_tails.ci95, b.session_time_tails.ci95);
  EXPECT_EQ(a.session_time_tails.min, b.session_time_tails.min);
  EXPECT_EQ(a.session_time_tails.max, b.session_time_tails.max);
  EXPECT_EQ(a.session_time_tails.p50, b.session_time_tails.p50);
  EXPECT_EQ(a.session_time_tails.p95, b.session_time_tails.p95);
  EXPECT_EQ(a.session_time_tails.p99, b.session_time_tails.p99);
  EXPECT_EQ(a.session_time_tails.p999, b.session_time_tails.p999);
  EXPECT_EQ(a.session_time_tails.count, 400u);
}


// Reproduction regression tests: the paper's qualitative conclusions,
// asserted programmatically on reduced-size runs of the actual experiment
// harness. If a refactor breaks the science, these fail before anyone reads
// a bench table.
#include <gtest/gtest.h>

#include "analysis/negbinom.hpp"
#include "doc/lod.hpp"
#include "sim/experiment.hpp"

namespace sim = mobiweb::sim;
namespace doc = mobiweb::doc;
namespace analysis = mobiweb::analysis;

namespace {

// Reduced-size but statistically stable runs (10 reps x 100 docs).
sim::ExperimentParams base_params() {
  sim::ExperimentParams p;
  p.repetitions = 10;
  p.documents_per_session = 100;
  return p;
}

double mean_rt(const sim::ExperimentParams& p) {
  return sim::run_browsing_experiment(p).response_time.mean();
}

}  // namespace

// §5.1 / Figure 4: "the impact of the cache is very significant, especially
// when the error rate of the channel is high."
TEST(PaperConclusions, CachingGainGrowsWithErrorRate) {
  auto p = base_params();
  p.irrelevant_fraction = 0.0;
  p.gamma = 1.3;
  double prev_gain = 0.0;
  for (const double alpha : {0.1, 0.3, 0.5}) {
    p.alpha = alpha;
    p.caching = true;
    const double cached = mean_rt(p);
    p.caching = false;
    const double uncached = mean_rt(p);
    const double gain = uncached / cached;
    EXPECT_GE(gain, prev_gain * 0.95) << "alpha=" << alpha;  // monotone-ish
    if (alpha >= 0.3) {
      EXPECT_GT(gain, 1.5) << "alpha=" << alpha;
    }
    prev_gain = gain;
  }
}

// §5.1: gamma = 1.5 is a good choice for small-to-moderate alpha or with
// caching; going to 2.5 buys almost nothing with caching at alpha = 0.3.
TEST(PaperConclusions, Gamma15SufficesWithCaching) {
  auto p = base_params();
  p.alpha = 0.3;
  p.caching = true;
  p.gamma = 1.5;
  const double at_15 = mean_rt(p);
  p.gamma = 2.5;
  const double at_25 = mean_rt(p);
  EXPECT_LT(at_15, at_25 * 1.10);  // within 10% of the over-provisioned run
}

// §5.1: NoCaching at high alpha needs gamma raised toward 2.
TEST(PaperConclusions, NoCachingNeedsMoreRedundancy) {
  auto p = base_params();
  p.alpha = 0.4;
  p.caching = false;
  p.gamma = 1.5;
  const double at_15 = mean_rt(p);
  p.gamma = 2.0;
  const double at_20 = mean_rt(p);
  EXPECT_LT(at_20, at_15 * 0.7);  // raising gamma helps a lot
}

// §5.2 / Figure 5: response time decreases (essentially linearly) in I.
TEST(PaperConclusions, ResponseTimeLinearInIrrelevantFraction) {
  auto p = base_params();
  p.alpha = 0.2;
  std::vector<double> rt;
  for (const double i : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    p.irrelevant_fraction = i;
    rt.push_back(mean_rt(p));
  }
  for (std::size_t k = 1; k < rt.size(); ++k) EXPECT_LT(rt[k], rt[k - 1]);
  // Linearity: the midpoint is close to the average of the endpoints.
  EXPECT_NEAR(rt[2], (rt[0] + rt[4]) / 2.0, 0.05 * rt[0]);
}

// §5.2: versus F, slow rise then a jump once clear-text prefixes no longer
// suffice, then a plateau.
TEST(PaperConclusions, ResponseTimeVsFHasPlateau) {
  auto p = base_params();
  p.alpha = 0.3;
  p.irrelevant_fraction = 1.0;
  std::vector<double> rt;
  for (const double f : {0.1, 0.3, 0.9, 1.0}) {
    p.relevance_threshold = f;
    rt.push_back(mean_rt(p));
  }
  EXPECT_LT(rt[0], rt[1]);
  EXPECT_LT(rt[1], rt[2]);
  EXPECT_NEAR(rt[2], rt[3], 0.08 * rt[3]);  // plateau at the top
}

// §5.3 / Figure 6: paragraph LOD gives 30-50% improvement at F = 0.1..0.3;
// ordering paragraph > subsection > section > document.
TEST(PaperConclusions, LodImprovementOrdering) {
  auto p = base_params();
  p.alpha = 0.1;
  p.irrelevant_fraction = 1.0;
  for (const double f : {0.1, 0.2, 0.3}) {
    p.relevance_threshold = f;
    p.lod = doc::Lod::kDocument;
    const double rt_doc = mean_rt(p);
    p.lod = doc::Lod::kSection;
    const double rt_sec = mean_rt(p);
    p.lod = doc::Lod::kSubsection;
    const double rt_sub = mean_rt(p);
    p.lod = doc::Lod::kParagraph;
    const double rt_par = mean_rt(p);
    EXPECT_LT(rt_par, rt_sub) << f;
    EXPECT_LT(rt_sub, rt_sec) << f;
    EXPECT_LT(rt_sec, rt_doc) << f;
    const double improvement = rt_doc / rt_par;
    EXPECT_GT(improvement, 1.25) << f;
    EXPECT_LT(improvement, 1.7) << f;
  }
}

// §5.3: the improvement is "not as sensitive to the failure probability".
TEST(PaperConclusions, LodImprovementInsensitiveToAlpha) {
  auto p = base_params();
  p.irrelevant_fraction = 1.0;
  p.relevance_threshold = 0.2;
  std::vector<double> improvements;
  for (const double alpha : {0.1, 0.3, 0.5}) {
    p.alpha = alpha;
    p.lod = doc::Lod::kDocument;
    const double rt_doc = mean_rt(p);
    p.lod = doc::Lod::kParagraph;
    improvements.push_back(rt_doc / mean_rt(p));
  }
  const auto [lo, hi] = std::minmax_element(improvements.begin(), improvements.end());
  EXPECT_LT(*hi - *lo, 0.25);  // narrow band across alpha
}

// §5.4 / Figure 7: higher skew -> more improvement; peak near F = 0.1-0.2.
TEST(PaperConclusions, SkewIncreasesImprovement) {
  auto p = base_params();
  p.alpha = 0.1;
  p.irrelevant_fraction = 1.0;
  p.relevance_threshold = 0.2;
  double prev = 0.0;
  for (const double skew : {1.0, 2.0, 3.0, 5.0}) {
    p.document.skew = skew;
    p.lod = doc::Lod::kDocument;
    const double rt_doc = mean_rt(p);
    p.lod = doc::Lod::kParagraph;
    const double improvement = rt_doc / mean_rt(p);
    EXPECT_GE(improvement, prev - 0.02) << skew;
    prev = improvement;
  }
  // At skew 1 contents are uniform: ranked order ~ sequential, improvement ~1.
  p.document.skew = 1.0;
  p.lod = doc::Lod::kDocument;
  const double rt_doc = mean_rt(p);
  p.lod = doc::Lod::kParagraph;
  EXPECT_NEAR(rt_doc / mean_rt(p), 1.0, 0.05);
}

// §4.1 / Figure 2: N(M) is near-linear in M at fixed alpha.
TEST(PaperConclusions, OptimalNNearLinearInM) {
  for (const double alpha : {0.1, 0.3, 0.5}) {
    const int n20 = analysis::optimal_cooked_packets(20, alpha, 0.95);
    const int n50 = analysis::optimal_cooked_packets(50, alpha, 0.95);
    const int n100 = analysis::optimal_cooked_packets(100, alpha, 0.95);
    // Secant slopes agree within 15%.
    const double s1 = static_cast<double>(n50 - n20) / 30.0;
    const double s2 = static_cast<double>(n100 - n50) / 50.0;
    EXPECT_NEAR(s1, s2, 0.15 * s1) << alpha;
  }
}

// §4.2 / Figure 3: gamma as a function of alpha barely depends on M.
TEST(PaperConclusions, GammaBandNarrowAcrossM) {
  for (const double alpha : {0.1, 0.3, 0.5}) {
    const double g10 = analysis::redundancy_ratio(10, alpha, 0.95);
    const double g100 = analysis::redundancy_ratio(100, alpha, 0.95);
    EXPECT_LT(g10 - g100, 0.6) << alpha;
    EXPECT_GT(g10, g100) << alpha;  // small M needs relatively more slack
  }
}

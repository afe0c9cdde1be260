// Simulation harness: synthetic documents, analytic transfers, experiments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "channel/outage.hpp"
#include "sim/experiment.hpp"
#include "sim/proxied.hpp"
#include "sim/synthetic.hpp"
#include "sim/transfer.hpp"
#include "sim/walk.hpp"

namespace sim = mobiweb::sim;
namespace doc = mobiweb::doc;
using mobiweb::ContractViolation;
using mobiweb::Rng;

TEST(Synthetic, TableTwoDefaults) {
  const sim::SyntheticConfig cfg;
  EXPECT_EQ(cfg.paragraphs(), 20);
  EXPECT_EQ(cfg.raw_packets(), 40);
  EXPECT_EQ(cfg.doc_size, 10240u);
  EXPECT_EQ(cfg.packet_size, 256u);
  EXPECT_EQ(cfg.skew, 3.0);
}

TEST(Synthetic, ContentsNormalized) {
  Rng rng(60);
  const auto doc = sim::generate_document({}, rng);
  ASSERT_EQ(doc.paragraph_content.size(), 20u);
  const double sum = std::accumulate(doc.paragraph_content.begin(),
                                     doc.paragraph_content.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (double c : doc.paragraph_content) EXPECT_GT(c, 0.0);
}

TEST(Synthetic, SkewBoundsRatio) {
  Rng rng(61);
  sim::SyntheticConfig cfg;
  cfg.skew = 4.0;
  for (int i = 0; i < 50; ++i) {
    const auto doc = sim::generate_document(cfg, rng);
    const auto [lo, hi] = std::minmax_element(doc.paragraph_content.begin(),
                                              doc.paragraph_content.end());
    EXPECT_LE(*hi / *lo, 4.0 + 1e-9);
  }
}

TEST(Synthetic, SkewOneIsUniform) {
  Rng rng(62);
  sim::SyntheticConfig cfg;
  cfg.skew = 1.0;
  const auto doc = sim::generate_document(cfg, rng);
  for (double c : doc.paragraph_content) EXPECT_NEAR(c, 1.0 / 20.0, 1e-12);
}

TEST(Profile, SumsToOneAtEveryLod) {
  Rng rng(63);
  const auto doc = sim::generate_document({}, rng);
  for (const auto lod : {doc::Lod::kDocument, doc::Lod::kSection,
                         doc::Lod::kSubsection, doc::Lod::kParagraph}) {
    const auto profile = sim::packet_content_profile(doc, lod);
    ASSERT_EQ(profile.size(), 40u);
    const double sum = std::accumulate(profile.begin(), profile.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Profile, DocumentLodIsSequential) {
  Rng rng(64);
  const auto doc = sim::generate_document({}, rng);
  const auto profile = sim::packet_content_profile(doc, doc::Lod::kDocument);
  // 512-byte paragraphs over 256-byte packets: packet 2k and 2k+1 both carry
  // half of paragraph k, in document order.
  for (int k = 0; k < 20; ++k) {
    EXPECT_NEAR(profile[static_cast<std::size_t>(2 * k)],
                doc.paragraph_content[static_cast<std::size_t>(k)] / 2.0, 1e-12);
    EXPECT_NEAR(profile[static_cast<std::size_t>(2 * k + 1)],
                doc.paragraph_content[static_cast<std::size_t>(k)] / 2.0, 1e-12);
  }
}

TEST(Profile, ParagraphLodSortedDescending) {
  Rng rng(65);
  const auto doc = sim::generate_document({}, rng);
  const auto profile = sim::packet_content_profile(doc, doc::Lod::kParagraph);
  for (std::size_t i = 2; i < profile.size(); i += 2) {
    EXPECT_LE(profile[i], profile[i - 2] + 1e-12);
  }
}

TEST(Profile, ParagraphLodDominatesEveryPrefix) {
  // Sorting individual paragraphs descending is the greedy optimum: its
  // cumulative content dominates every other unit ordering at every prefix
  // (rearrangement inequality; packets are paragraph-aligned).
  Rng rng(66);
  for (int trial = 0; trial < 20; ++trial) {
    const auto doc = sim::generate_document({}, rng);
    const auto p_doc = sim::packet_content_profile(doc, doc::Lod::kDocument);
    const auto p_sec = sim::packet_content_profile(doc, doc::Lod::kSection);
    const auto p_sub = sim::packet_content_profile(doc, doc::Lod::kSubsection);
    const auto p_par = sim::packet_content_profile(doc, doc::Lod::kParagraph);
    double c_doc = 0, c_sec = 0, c_sub = 0, c_par = 0;
    for (std::size_t k = 0; k < p_doc.size(); ++k) {
      c_doc += p_doc[k];
      c_sec += p_sec[k];
      c_sub += p_sub[k];
      c_par += p_par[k];
      EXPECT_GE(c_par, c_sub - 1e-9);
      EXPECT_GE(c_par, c_sec - 1e-9);
      EXPECT_GE(c_par, c_doc - 1e-9);
    }
  }
}

TEST(Profile, FinerLodFrontLoadsContentOnAverage) {
  // Per-document the coarser rankings can be unlucky, but averaged over many
  // documents the cumulative content at any prefix is ordered paragraph >=
  // subsection >= section >= document (the multi-resolution property the
  // paper's Experiment #3 exploits).
  Rng rng(66);
  const int docs = 300;
  const std::size_t m = 40;
  std::vector<double> avg_doc(m, 0), avg_sec(m, 0), avg_sub(m, 0), avg_par(m, 0);
  for (int trial = 0; trial < docs; ++trial) {
    const auto doc = sim::generate_document({}, rng);
    const auto p_doc = sim::packet_content_profile(doc, doc::Lod::kDocument);
    const auto p_sec = sim::packet_content_profile(doc, doc::Lod::kSection);
    const auto p_sub = sim::packet_content_profile(doc, doc::Lod::kSubsection);
    const auto p_par = sim::packet_content_profile(doc, doc::Lod::kParagraph);
    double c_doc = 0, c_sec = 0, c_sub = 0, c_par = 0;
    for (std::size_t k = 0; k < m; ++k) {
      c_doc += p_doc[k];
      c_sec += p_sec[k];
      c_sub += p_sub[k];
      c_par += p_par[k];
      avg_doc[k] += c_doc;
      avg_sec[k] += c_sec;
      avg_sub[k] += c_sub;
      avg_par[k] += c_par;
    }
  }
  for (std::size_t k = 0; k + 1 < m; ++k) {  // final packet: all equal 1
    EXPECT_GE(avg_par[k], avg_sub[k] - 1e-9) << k;
    EXPECT_GE(avg_sub[k], avg_sec[k] - 1e-9) << k;
    EXPECT_GE(avg_sec[k], avg_doc[k] - 1e-9) << k;
  }
}

TEST(Profile, SubsubsectionFallsBackToSubsection) {
  Rng rng(67);
  const auto doc = sim::generate_document({}, rng);
  EXPECT_EQ(sim::packet_content_profile(doc, doc::Lod::kSubsubsection),
            sim::packet_content_profile(doc, doc::Lod::kSubsection));
}

namespace {
sim::TransferConfig base_config() {
  sim::TransferConfig cfg;
  cfg.m = 40;
  cfg.n = 60;
  cfg.alpha = 0.1;
  return cfg;
}

std::vector<double> uniform_content(int m) {
  return std::vector<double>(static_cast<std::size_t>(m), 1.0 / m);
}
}  // namespace

TEST(Transfer, CleanChannelExactlyMPackets) {
  auto cfg = base_config();
  cfg.alpha = 0.0;
  Rng rng(68);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.packets, 40);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_NEAR(r.time, 40 * cfg.time_per_packet, 1e-12);
}

TEST(Transfer, TimePerPacketMatchesPaper) {
  // 260 bytes at 19.2 kbps = 108.33 ms per cooked packet.
  const sim::TransferConfig cfg;
  EXPECT_NEAR(cfg.time_per_packet, 0.108333, 1e-4);
}

TEST(Transfer, RelevanceAbortUsesClearContent) {
  auto cfg = base_config();
  cfg.alpha = 0.0;
  cfg.relevance_threshold = 0.5;
  Rng rng(69);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.aborted_irrelevant);
  // Uniform content: F = 0.5 is reached exactly at packet 20.
  EXPECT_EQ(r.packets, 20);
}

TEST(Transfer, FrontLoadedContentAbortsSooner) {
  auto cfg = base_config();
  cfg.alpha = 0.0;
  cfg.relevance_threshold = 0.5;
  std::vector<double> front(40, 0.5 / 39.0);
  front[0] = 0.5;  // half the document in the first packet
  Rng rng(70);
  const auto r = sim::simulate_transfer(front, cfg, rng);
  EXPECT_EQ(r.packets, 1);
}

TEST(Transfer, StalledRoundsRetransmit) {
  auto cfg = base_config();
  cfg.n = 40;  // gamma = 1: any corruption stalls the round
  cfg.alpha = 0.2;
  cfg.caching = true;
  Rng rng(71);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.rounds, 1);
}

TEST(Transfer, CachingBeatsNoCachingOnAverage) {
  auto cfg = base_config();
  cfg.alpha = 0.4;
  Rng rng_a(72);
  Rng rng_b(72);
  double cached_time = 0.0;
  double uncached_time = 0.0;
  for (int i = 0; i < 400; ++i) {
    cfg.caching = true;
    cached_time += sim::simulate_transfer(uniform_content(cfg.m), cfg, rng_a).time;
    cfg.caching = false;
    uncached_time += sim::simulate_transfer(uniform_content(cfg.m), cfg, rng_b).time;
  }
  EXPECT_LT(cached_time, uncached_time);
}

TEST(Transfer, GivesUpAfterMaxRounds) {
  auto cfg = base_config();
  cfg.n = 40;
  cfg.alpha = 0.8;  // hopeless without caching
  cfg.caching = false;
  cfg.max_rounds = 5;
  Rng rng(73);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.gave_up);
  EXPECT_EQ(r.rounds, 5);
  EXPECT_EQ(r.packets, 5 * 40);
}

TEST(Transfer, RequestDelayCharged) {
  auto cfg = base_config();
  cfg.n = 40;
  cfg.alpha = 0.3;
  cfg.request_delay = 1.0;
  Rng rng(74);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  ASSERT_GT(r.rounds, 1);
  const double packet_time = static_cast<double>(r.packets) * cfg.time_per_packet;
  EXPECT_NEAR(r.time - packet_time, static_cast<double>(r.rounds - 1), 1e-9);
}

TEST(Transfer, ScriptedSourceHonored) {
  auto cfg = base_config();
  cfg.n = 40;
  // Corrupt exactly the first packet of round 1; everything else intact:
  // round 1 stalls (39/40 intact), round 2 retransmits and packet 0 completes
  // the set immediately (with caching).
  int call = 0;
  const auto r = sim::simulate_transfer(
      uniform_content(cfg.m), cfg, [&call] { return call++ == 0; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.packets, 41);
}

TEST(Transfer, InputValidation) {
  auto cfg = base_config();
  Rng rng(75);
  EXPECT_THROW(sim::simulate_transfer(uniform_content(39), cfg, rng),
               ContractViolation);
  cfg.n = 10;  // < m
  EXPECT_THROW(sim::simulate_transfer(uniform_content(cfg.m), cfg, rng),
               ContractViolation);
}

TEST(Transfer, RejectsNanRelevanceThreshold) {
  // NaN >= 0 is false, so a NaN threshold would silently mean "relevant".
  auto cfg = base_config();
  cfg.relevance_threshold = std::nan("");
  EXPECT_THROW(cfg.validate(), ContractViolation);
  Rng rng(76);
  EXPECT_THROW(sim::simulate_transfer(uniform_content(cfg.m), cfg, rng),
               ContractViolation);
}

TEST(Transfer, CookedSetsPast256PacketsAreNotCapped) {
  // One dispersal group holds at most ida::kMaxPackets = 255 cooked packets:
  // a walk past it is rejected, never capped.
  sim::TransferConfig cfg;
  cfg.m = 170;
  cfg.n = 256;
  cfg.alpha = 0.0;
  Rng clean(1);
  EXPECT_THROW(sim::simulate_transfer(uniform_content(cfg.m), cfg, clean),
               ContractViolation);

  cfg.n = 255;
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, clean);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.packets, 170);
  EXPECT_EQ(r.rounds, 1);

  // A lossy two-round transfer: its first round sends all 255 frames, so
  // its receipts set bits in all four bitmap words. Pinned bit-for-bit.
  cfg.alpha = 0.4;
  cfg.request_delay = 1.0;
  Rng rng(69);
  const auto lossy = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(lossy.completed);
  EXPECT_EQ(lossy.packets, 372);
  EXPECT_EQ(lossy.rounds, 2);
  EXPECT_EQ(lossy.time, 41.300000000000004);
}

TEST(Experiment, DefaultsMatchTableTwo) {
  const sim::ExperimentParams p;
  EXPECT_EQ(p.m(), 40);
  EXPECT_EQ(p.n(), 60);
  EXPECT_NEAR(p.time_per_packet(), 260.0 * 8.0 / 19200.0, 1e-12);
  const std::string desc = sim::describe_parameters(p);
  EXPECT_NE(desc.find("10240"), std::string::npos);
  EXPECT_NE(desc.find("19.2"), std::string::npos);
}

TEST(Experiment, AccumulatedGammaCooksTheLabelledCount) {
  // bench_fig4 steps gamma += 0.1 from 1.1; the row labelled 1.2 holds
  // 1.2000000000000002, which must still cook 1.2 * 40 = 48 packets.
  sim::ExperimentParams p;
  p.gamma = 1.1;
  p.gamma += 0.1;
  ASSERT_NE(p.gamma, 1.2);
  EXPECT_EQ(p.n(), 48);
}

TEST(Experiment, ReproducibleWithSameSeed) {
  sim::ExperimentParams p;
  p.repetitions = 3;
  p.documents_per_session = 20;
  const auto a = sim::run_browsing_experiment(p);
  const auto b = sim::run_browsing_experiment(p);
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean());
  EXPECT_EQ(a.total_packets, b.total_packets);
}

TEST(Experiment, AllRelevantCleanChannelExactTime) {
  sim::ExperimentParams p;
  p.alpha = 0.0;
  p.irrelevant_fraction = 0.0;
  p.repetitions = 2;
  p.documents_per_session = 10;
  const auto r = sim::run_browsing_experiment(p);
  // Every document needs exactly M = 40 packets.
  EXPECT_NEAR(r.response_time.mean(), 40 * p.time_per_packet(), 1e-9);
  EXPECT_EQ(r.stall_fraction, 0.0);
}

TEST(Experiment, MoreIrrelevantMeansFaster) {
  sim::ExperimentParams p;
  p.repetitions = 5;
  p.documents_per_session = 50;
  p.irrelevant_fraction = 0.0;
  const double all_relevant = sim::run_browsing_experiment(p).response_time.mean();
  p.irrelevant_fraction = 1.0;
  const double all_irrelevant = sim::run_browsing_experiment(p).response_time.mean();
  EXPECT_LT(all_irrelevant, all_relevant);
}

TEST(Experiment, HigherAlphaMeansSlower) {
  sim::ExperimentParams p;
  p.repetitions = 5;
  p.documents_per_session = 50;
  p.alpha = 0.1;
  const double low = sim::run_browsing_experiment(p).response_time.mean();
  p.alpha = 0.4;
  const double high = sim::run_browsing_experiment(p).response_time.mean();
  EXPECT_GT(high, low);
}

TEST(Experiment, ParagraphLodFasterForIrrelevant) {
  sim::ExperimentParams p;
  p.repetitions = 10;
  p.documents_per_session = 100;
  p.irrelevant_fraction = 1.0;
  p.relevance_threshold = 0.2;
  p.lod = doc::Lod::kDocument;
  const double at_doc = sim::run_browsing_experiment(p).response_time.mean();
  p.lod = doc::Lod::kParagraph;
  const double at_para = sim::run_browsing_experiment(p).response_time.mean();
  EXPECT_LT(at_para, at_doc);
}

TEST(Transfer, CompletionBeatsRelevanceAbort) {
  // Regression (mirrors the real session): the relevance threshold must not
  // swallow a transfer that completes on the same packet. Corrupt all m
  // clear-text packets; the redundancy packets complete the decode with the
  // accumulated clear content still 0.
  sim::TransferConfig cfg;
  cfg.m = 4;
  cfg.n = 8;
  cfg.relevance_threshold = 0.5;
  const std::vector<bool> pattern = {true, true, true, true,
                                     false, false, false, false};
  std::size_t pos = 0;
  const std::vector<double> content(4, 0.25);
  const auto r =
      sim::simulate_transfer(content, cfg, [&] { return pattern[pos++]; });
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.aborted_irrelevant);
  EXPECT_EQ(r.packets, 8);
  EXPECT_NEAR(r.content, 1.0, 1e-12);
}

TEST(Transfer, TraceMirrorsResult) {
  sim::TransferConfig cfg;
  cfg.m = 4;
  cfg.n = 6;
  cfg.max_rounds = 10;
  cfg.request_delay = 0.5;
  mobiweb::obs::SessionTrace trace;
  trace.capture_events(true);
  cfg.trace = &trace;
  // Round 1 all corrupted, round 2 clean: completes on its 4th packet.
  const std::vector<bool> pattern = {true, true, true, true, true, true,
                                     false, false, false, false};
  std::size_t pos = 0;
  const std::vector<double> content(4, 0.25);
  const auto r =
      sim::simulate_transfer(content, cfg, [&] { return pattern[pos++]; });
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.rounds, 2);
  ASSERT_EQ(trace.rounds().size(), 2u);
  EXPECT_EQ(trace.rounds()[0].frames_sent, 6);
  EXPECT_EQ(trace.rounds()[0].frames_corrupted, 6);
  EXPECT_EQ(trace.rounds()[1].frames_intact, 4);
  EXPECT_TRUE(trace.completed());
  EXPECT_FALSE(trace.gave_up());
  EXPECT_EQ(trace.frames_sent(), r.packets);
  EXPECT_NEAR(trace.response_time(), r.time, 1e-9);
  EXPECT_NEAR(trace.final_content(), r.content, 1e-12);
}

TEST(Experiment, BurstStateResetsBetweenDocuments) {
  // A Gilbert-Elliott channel with a near-absorbing bad state: once a
  // transfer falls into the burst it never gets out, so that document gives
  // up. The runner must reset() the model between documents — without the
  // reset the first burst would poison every later document of the session
  // and the gave-up fraction would approach 1.
  const mobiweb::channel::GilbertElliottModel model(0.01, 1e-9, 0.0, 1.0);
  sim::ExperimentParams p;
  p.repetitions = 3;
  p.documents_per_session = 30;
  p.irrelevant_fraction = 0.0;
  p.max_rounds = 5;
  p.error_model = &model;
  const auto r = sim::run_browsing_experiment(p);
  EXPECT_GT(r.gave_up_fraction, 0.0);   // some documents do hit a burst
  EXPECT_LT(r.gave_up_fraction, 0.9);   // ...but bursts don't leak across docs
}

TEST(Experiment, ErrorModelDefaultsEquivalentToAlpha) {
  // An explicit iid model must reproduce the built-in alpha path draw for
  // draw (same rng stream, same decisions).
  sim::ExperimentParams p;
  p.repetitions = 2;
  p.documents_per_session = 20;
  p.alpha = 0.3;
  const auto builtin = sim::run_browsing_experiment(p);
  const mobiweb::channel::IidErrorModel iid(0.3);
  p.error_model = &iid;
  const auto external = sim::run_browsing_experiment(p);
  EXPECT_EQ(builtin.total_packets, external.total_packets);
  EXPECT_EQ(builtin.response_time.mean(), external.response_time.mean());
}

TEST(Experiment, MetricsAggregateEveryDocument) {
  sim::ExperimentParams p;
  p.repetitions = 2;
  p.documents_per_session = 10;
  p.alpha = 0.0;
  p.irrelevant_fraction = 0.0;
  mobiweb::obs::MetricsRegistry registry;
  p.metrics = &registry;
  const auto r = sim::run_browsing_experiment(p);
  EXPECT_EQ(registry.counter("session.count").value(), 20);
  EXPECT_EQ(registry.counter("session.completed").value(), 20);
  EXPECT_EQ(registry.counter("session.gave_up").value(), 0);
  EXPECT_EQ(registry.counter("frames.sent").value(), r.total_packets);
  EXPECT_EQ(registry.counter("frames.corrupted").value(), 0);
  const auto* hist = registry.find_histogram("session.response_time_s");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 20);
  EXPECT_NEAR(hist->sum() / 20.0, r.response_time.mean(), 1e-9);
}

// ---- Resilient oracle (simulate_resilient_transfer) ----

namespace {
sim::ResilientTransferConfig resilient_config() {
  sim::ResilientTransferConfig cfg;
  cfg.base = base_config();
  cfg.base.request_delay = 1.0;
  cfg.retry.jitter = 0.1;
  return cfg;
}
}  // namespace

TEST(ResilientTransfer, MatchesPlainTransferWhenLinkAlwaysUp) {
  // With no link_up hook, reliable feedback, and a retry budget that can
  // never bind (one attempt per stalled round, at most max_rounds - 1 of
  // them), the resilient walk degenerates to simulate_transfer bit-for-bit.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::ResilientTransferConfig cfg = resilient_config();
    cfg.base.alpha = 0.35;
    cfg.retry.retry_budget = cfg.base.max_rounds;
    Rng a(seed);
    Rng b(seed);
    const auto plain = sim::simulate_transfer(uniform_content(cfg.base.m),
                                              cfg.base, a);
    const auto resilient = sim::simulate_resilient_transfer(
        uniform_content(cfg.base.m), cfg, b);
    EXPECT_EQ(resilient.packets, plain.packets);
    EXPECT_EQ(resilient.rounds, plain.rounds);
    EXPECT_EQ(resilient.completed, plain.completed);
    EXPECT_EQ(resilient.aborted_irrelevant, plain.aborted_irrelevant);
    EXPECT_EQ(resilient.gave_up, plain.gave_up);
    EXPECT_EQ(resilient.content, plain.content);  // bit-equal
    EXPECT_EQ(resilient.time, plain.time);
    EXPECT_FALSE(resilient.degraded);
    EXPECT_EQ(resilient.suspensions, 0);
    EXPECT_EQ(resilient.frames_lost, 0);
    EXPECT_EQ(resilient.backoff_s, 0.0);
  }
}

TEST(ResilientTransfer, SuspendsAcrossAFadeAndResumes) {
  sim::ResilientTransferConfig cfg = resilient_config();
  cfg.base.alpha = 0.0;
  // Fade covering the tail of round 1 and the stall after it: round 1 cannot
  // reconstruct (its tail is lost), and the round ends inside the fade, so
  // the client suspends and backs off until t >= 20.
  cfg.base.link_up = [](double t) { return !(t >= 3.0 && t < 20.0); };
  Rng rng(404);
  const auto r = sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                  cfg, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.suspensions, 1);
  EXPECT_GT(r.frames_lost, 0);
  EXPECT_GT(r.backoff_s, 0.0);
  // Suspension attempts plus one successful re-request, all on the budget.
  EXPECT_GT(r.request_attempts, 1);
  EXPECT_LE(r.request_attempts, cfg.retry.retry_budget);
  // Backoff waits are charged to the transfer time like any other stall.
  EXPECT_NEAR(r.time, r.packets * cfg.base.time_per_packet + r.backoff_s +
                          cfg.base.request_delay,
              1e-9);
}

TEST(ResilientTransfer, DegradesWhenTheLinkNeverReturns) {
  sim::ResilientTransferConfig cfg = resilient_config();
  cfg.base.alpha = 0.0;
  cfg.base.link_up = [](double) { return false; };
  cfg.retry.retry_budget = 6;
  Rng rng(405);
  const auto r = sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                  cfg, rng);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.gave_up);
  EXPECT_EQ(r.rounds, 1);                 // one all-lost round, then suspended
  EXPECT_EQ(r.frames_lost, r.packets);    // every frame fell into the fade
  EXPECT_EQ(r.request_attempts, 6);       // full budget burned backing off
  EXPECT_EQ(r.suspensions, 0);            // never saw the link come back
  EXPECT_EQ(r.content, 0.0);
  EXPECT_GT(r.backoff_s, 0.0);
}

TEST(ResilientTransfer, DeadlineExhaustionDegrades) {
  sim::ResilientTransferConfig cfg = resilient_config();
  cfg.base.alpha = 0.0;
  cfg.base.link_up = [](double t) { return t < 3.0; };  // dies and stays dead
  cfg.retry.retry_budget = 1000000;
  cfg.retry.deadline_s = 30.0;
  Rng rng(406);
  const auto r = sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                  cfg, rng);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.content, 0.0);  // partial-content accounting survives
  EXPECT_LT(r.content, 1.0);
  EXPECT_LT(r.request_attempts, 1000);  // deadline bound it, not the budget
}

TEST(ResilientTransfer, LossyFeedbackConsumesBudgetWithBackoff) {
  sim::ResilientTransferConfig cfg = resilient_config();
  cfg.base.alpha = 0.9;  // stall every round
  cfg.base.max_rounds = 10;
  cfg.retry.retry_budget = 4;
  int calls = 0;
  cfg.base.feedback_lost = [&calls] {
    ++calls;
    return true;  // the back channel never delivers
  };
  Rng rng(407);
  const auto r = sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                  cfg, rng);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.request_attempts, 4);
  EXPECT_EQ(calls, 4);
  EXPECT_GT(r.backoff_s, 0.0);
}

TEST(ResilientTransfer, GivesUpAtTheRoundCapBeforeTouchingTheBackChannel) {
  sim::ResilientTransferConfig cfg = resilient_config();
  cfg.base.alpha = 0.9;
  cfg.base.max_rounds = 3;
  cfg.retry.retry_budget = 2;  // two stalled rounds fit exactly
  Rng rng(408);
  const auto r = sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                  cfg, rng);
  // Rounds 1 and 2 each consume one attempt; round 3 hits the cap and gives
  // up without another request, so the budget never trips.
  EXPECT_TRUE(r.gave_up);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.request_attempts, 2);
}

TEST(ResilientTransfer, InputValidation) {
  Rng rng(409);
  sim::ResilientTransferConfig cfg = resilient_config();
  cfg.retry.retry_budget = 0;
  EXPECT_THROW(sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                cfg, rng),
               ContractViolation);
  cfg = resilient_config();
  cfg.retry.backoff_multiplier = 0.5;
  EXPECT_THROW(sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                cfg, rng),
               ContractViolation);
  cfg = resilient_config();
  cfg.retry.max_backoff_s = cfg.retry.initial_timeout_s / 2.0;
  EXPECT_THROW(sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                cfg, rng),
               ContractViolation);
  cfg = resilient_config();
  cfg.retry.jitter = -0.1;
  EXPECT_THROW(sim::simulate_resilient_transfer(uniform_content(cfg.base.m),
                                                cfg, rng),
               ContractViolation);
}

// ---- Proxied oracle (simulate_proxied_transfer) ----

namespace {
// warm_hit = 1, a static corpus, no handoffs, no origin_up hook: the edge
// tier is transparent — always a current replica, never a charge.
sim::ProxiedTransferConfig transparent_proxy_config() {
  sim::ProxiedTransferConfig cfg;
  cfg.base = base_config();
  cfg.base.request_delay = 1.0;
  cfg.retry.jitter = 0.1;
  cfg.proxy.warm_hit = 1.0;
  cfg.proxy.update_interval_s = 0.0;
  cfg.proxy.handoff_rate = 0.0;
  return cfg;
}
}  // namespace

TEST(ProxiedTransfer, GenerationAdvancesOncePerInterval) {
  EXPECT_EQ(sim::generation_at(123.0, 0.0), 0u);   // static corpus
  EXPECT_EQ(sim::generation_at(-5.0, 10.0), 0u);   // pre-session times clamp
  EXPECT_EQ(sim::generation_at(0.0, 10.0), 0u);
  EXPECT_EQ(sim::generation_at(9.999, 10.0), 0u);
  EXPECT_EQ(sim::generation_at(10.0, 10.0), 1u);
  EXPECT_EQ(sim::generation_at(35.0, 10.0), 3u);
  std::uint64_t prev = 0;
  for (double t = 0.0; t < 100.0; t += 1.7) {  // monotone in time
    const std::uint64_t g = sim::generation_at(t, 4.0);
    EXPECT_GE(g, prev);
    prev = g;
  }
}

TEST(ProxiedTransfer, TransparentProxyMatchesResilientTransfer) {
  // The anchor pinning the proxied oracle to the resilient one: with a
  // transparent edge tier the walk must be bit-identical under the same link
  // fades — the proxy/warm/handoff draws live on their own RNG stream and
  // cannot perturb the corruption or jitter sequences.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::ProxiedTransferConfig pc = transparent_proxy_config();
    pc.base.alpha = 0.3;
    pc.base.link_up = [](double t) { return !(t >= 3.0 && t < 20.0); };
    sim::ResilientTransferConfig rc;
    rc.base = pc.base;
    rc.retry = pc.retry;
    rc.jitter_seed = pc.jitter_seed;
    Rng a(seed);
    Rng b(seed);
    const auto proxied =
        sim::simulate_proxied_transfer(uniform_content(pc.base.m), pc, a);
    const auto resilient =
        sim::simulate_resilient_transfer(uniform_content(rc.base.m), rc, b);
    EXPECT_EQ(proxied.transfer.packets, resilient.packets);
    EXPECT_EQ(proxied.transfer.rounds, resilient.rounds);
    EXPECT_EQ(proxied.transfer.completed, resilient.completed);
    EXPECT_EQ(proxied.transfer.aborted_irrelevant, resilient.aborted_irrelevant);
    EXPECT_EQ(proxied.transfer.gave_up, resilient.gave_up);
    EXPECT_EQ(proxied.transfer.degraded, resilient.degraded);
    EXPECT_EQ(proxied.transfer.content, resilient.content);  // bit-equal
    EXPECT_EQ(proxied.transfer.time, resilient.time);
    EXPECT_EQ(proxied.transfer.frames_lost, resilient.frames_lost);
    EXPECT_EQ(proxied.transfer.suspensions, resilient.suspensions);
    EXPECT_EQ(proxied.transfer.request_attempts, resilient.request_attempts);
    EXPECT_EQ(proxied.transfer.backoff_s, resilient.backoff_s);
    // Transparent-tier accounting: the initial attach is a hit, every resume
    // revalidates (hit) and reconciles; nothing is ever stale or refetched.
    EXPECT_EQ(proxied.proxy.replica_hits, 1 + resilient.suspensions);
    EXPECT_EQ(proxied.proxy.reconciliations, resilient.suspensions);
    EXPECT_EQ(proxied.proxy.origin_fetches, 0);
    EXPECT_EQ(proxied.proxy.stale_serves, 0);
    EXPECT_EQ(proxied.proxy.failovers, 0);
    EXPECT_EQ(proxied.proxy.handoffs, 0);
    EXPECT_EQ(proxied.proxy.origin_suspensions, 0);
    EXPECT_EQ(proxied.proxy.packets_refetched, 0);
    EXPECT_EQ(proxied.proxy.stale_frames, 0);
    EXPECT_FALSE(proxied.proxy.ended_stale);
  }
}

TEST(ProxiedTransfer, StaleFramesAreFlaggedDuringAnOriginFade) {
  // Origin down for the whole session, replica warm and current at attach:
  // every serving is a flagged stale failover and every intact frame counts
  // as a stale frame — the "never serve stale as fresh" ledger.
  sim::ProxiedTransferConfig cfg = transparent_proxy_config();
  cfg.base.alpha = 0.0;
  cfg.proxy.replica_age_mean_s = 0.0;  // replica current at attach
  cfg.origin_up = [](double) { return false; };
  Rng rng(7);
  const auto r =
      sim::simulate_proxied_transfer(uniform_content(cfg.base.m), cfg, rng);
  EXPECT_TRUE(r.transfer.completed);
  EXPECT_EQ(r.proxy.failovers, 1);
  EXPECT_EQ(r.proxy.stale_serves, 1);
  EXPECT_EQ(r.proxy.stale_frames, static_cast<long>(cfg.base.m));
  EXPECT_TRUE(r.proxy.ended_stale);
  EXPECT_EQ(r.proxy.origin_fetches, 0);
}

TEST(ProxiedTransfer, ColdProxyAndDeadOriginDegradeOnTheBudget) {
  // Nothing cached and nothing reachable: the origin-fade suspend loop must
  // drain the retry budget and terminate degraded with zero content, before
  // a single frame is sent.
  sim::ProxiedTransferConfig cfg = transparent_proxy_config();
  cfg.proxy.warm_hit = 0.0;
  cfg.origin_up = [](double) { return false; };
  cfg.retry.retry_budget = 5;
  Rng rng(8);
  const auto r =
      sim::simulate_proxied_transfer(uniform_content(cfg.base.m), cfg, rng);
  EXPECT_TRUE(r.transfer.degraded);
  EXPECT_EQ(r.transfer.packets, 0);
  EXPECT_EQ(r.transfer.request_attempts, 5);
  EXPECT_EQ(r.transfer.content, 0.0);
  EXPECT_GT(r.transfer.backoff_s, 0.0);
  EXPECT_EQ(r.proxy.origin_suspensions, 0);  // the origin never came back
  EXPECT_EQ(r.proxy.failovers, 1);
}

TEST(ProxiedTransfer, InputValidation) {
  Rng rng(9);
  sim::ProxiedTransferConfig cfg = transparent_proxy_config();
  cfg.proxy.warm_hit = 1.5;
  EXPECT_THROW(
      sim::simulate_proxied_transfer(uniform_content(cfg.base.m), cfg, rng),
      ContractViolation);
  cfg = transparent_proxy_config();
  cfg.proxy.handoff_rate = 1.0;  // must be < 1: a.s. infinite handoffs
  EXPECT_THROW(
      sim::simulate_proxied_transfer(uniform_content(cfg.base.m), cfg, rng),
      ContractViolation);
  cfg = transparent_proxy_config();
  cfg.proxy.origin_fetch_delay_s = -1.0;
  EXPECT_THROW(
      sim::simulate_proxied_transfer(uniform_content(cfg.base.m), cfg, rng),
      ContractViolation);
  cfg = transparent_proxy_config();
  cfg.proxy.proxies = 0;
  EXPECT_THROW(
      sim::simulate_proxied_transfer(uniform_content(cfg.base.m), cfg, rng),
      ContractViolation);
}

// ---- SessionWalk ----

TEST(SessionWalk, RunOnAFinishedWalkThrows) {
  // A walk runs once: a second run() would replay nothing and report the
  // verdict twice, so it throws instead, with or without an edge tier.
  const sim::ProxiedTransferConfig cfg = transparent_proxy_config();
  const std::vector<double> content = uniform_content(cfg.base.m);
  sim::SessionWalk plain(content, cfg.base);
  plain.corrupt_with(Rng(11));
  plain.run();
  EXPECT_TRUE(plain.result().completed);
  EXPECT_THROW(plain.run(), ContractViolation);

  sim::SessionWalk edge(content, cfg.base, &cfg.retry, &cfg.proxy);
  edge.corrupt_with(Rng(21));
  edge.seed_streams(24, 25);
  edge.run();
  EXPECT_TRUE(edge.result().completed);
  EXPECT_THROW(edge.run(), ContractViolation);
}

// Transmitter, receiver, transfer session, adaptive gamma.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "analysis/negbinom.hpp"
#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "obs/trace.hpp"
#include "transmit/adaptive.hpp"
#include "transmit/receiver.hpp"
#include "transmit/round_driver.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"
#include "xml/parser.hpp"

namespace doc = mobiweb::doc;
namespace obs = mobiweb::obs;
namespace xml = mobiweb::xml;
namespace transmit = mobiweb::transmit;
namespace ida = mobiweb::ida;
namespace channel = mobiweb::channel;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::Rng;

namespace {

doc::LinearDocument make_linear(std::size_t paragraphs = 12,
                                std::size_t words_per_para = 40) {
  std::string src = "<paper>";
  for (std::size_t p = 0; p < paragraphs; ++p) {
    src += "<para>";
    for (std::size_t w = 0; w < words_per_para; ++w) {
      src += "word" + std::to_string(p) + "x" + std::to_string(w) + " ";
    }
    src += "</para>";
  }
  src += "</paper>";
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(src));
  return doc::linearize(sc, {.lod = doc::Lod::kParagraph, .rank = doc::RankBy::kIc});
}

channel::WirelessChannel make_channel(double alpha, std::uint64_t seed = 1) {
  channel::ChannelConfig cfg;
  cfg.seed = seed;
  return channel::WirelessChannel(cfg,
                                  std::make_unique<channel::IidErrorModel>(alpha));
}

transmit::ReceiverConfig receiver_config(const transmit::DocumentTransmitter& tx,
                                         bool caching = true) {
  transmit::ReceiverConfig rc;
  rc.doc_id = tx.doc_id();
  rc.m = tx.m();
  rc.n = tx.n();
  rc.packet_size = tx.packet_size();
  rc.payload_size = tx.payload_size();
  rc.caching = caching;
  return rc;
}

// Corrupts exactly the first `corrupt_first` packets sent, then goes clean —
// lets tests script where in a session the losses fall.
class ScriptedErrorModel final : public channel::ErrorModel {
 public:
  explicit ScriptedErrorModel(long corrupt_first) : remaining_(corrupt_first) {}

  bool next_corrupted(Rng&) override {
    if (remaining_ <= 0) return false;
    --remaining_;
    return true;
  }
  [[nodiscard]] double steady_state_rate() const override { return 0.0; }
  [[nodiscard]] std::unique_ptr<channel::ErrorModel> clone() const override {
    return std::make_unique<ScriptedErrorModel>(remaining_);
  }

 private:
  long remaining_;
};

}  // namespace

TEST(CookedCount, GammaMath) {
  EXPECT_EQ(ida::cooked_count(40, 1.5), 60u);
  EXPECT_EQ(ida::cooked_count(40, 1.0), 40u);
  EXPECT_EQ(ida::cooked_count(40, 1.01), 41u);  // ceil
  EXPECT_THROW(ida::cooked_count(200, 2.0), ContractViolation);  // N = 400
  EXPECT_THROW(ida::cooked_count(40, 0.5), ContractViolation);
}

TEST(Transmitter, FramesWellFormed) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5,
                                         .doc_id = 3});
  EXPECT_EQ(tx.n(), ida::cooked_count(tx.m(), 1.5));
  ASSERT_EQ(tx.frames().size(), tx.n());
  for (std::size_t i = 0; i < tx.n(); ++i) {
    const auto p = mobiweb::packet::decode(ByteSpan(tx.frame(i)));
    ASSERT_TRUE(p.has_value()) << i;
    EXPECT_EQ(p->doc_id, 3);
    EXPECT_EQ(p->seq, i);
    EXPECT_EQ(p->total, tx.n());
    EXPECT_EQ(p->is_clear_text(), i < tx.m());
    EXPECT_EQ(p->is_last(), i + 1 == tx.n());
    EXPECT_EQ(p->payload.size(), 128u);
  }
}

TEST(Transmitter, ClearTextPrefixMatchesPayload) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5,
                                         .doc_id = 1});
  // Concatenating the clear-text packets reproduces the payload (+ padding).
  Bytes clear;
  for (std::size_t i = 0; i < tx.m(); ++i) {
    const auto p = mobiweb::packet::decode(ByteSpan(tx.frame(i)));
    clear.insert(clear.end(), p->payload.begin(), p->payload.end());
  }
  ASSERT_GE(clear.size(), lin.payload.size());
  EXPECT_TRUE(std::equal(lin.payload.begin(), lin.payload.end(), clear.begin()));
}

TEST(Transmitter, RejectsOversizedDocument) {
  doc::LinearDocument huge;
  huge.payload.assign(256 * 300, 1);  // needs 300 raw packets
  huge.segments.push_back({"0", 0, huge.payload.size(), 1.0});
  EXPECT_THROW(
      transmit::DocumentTransmitter(huge, {.packet_size = 256, .gamma = 1.5}),
      ContractViolation);
}

TEST(Session, CleanChannelSendsExactlyM) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  auto ch = make_channel(0.0);
  transmit::TransferSession session(tx, rx, ch);
  const auto result = session.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.frames_sent, static_cast<long>(tx.m()));
  EXPECT_EQ(result.rounds, 1);
  EXPECT_NEAR(result.response_time,
              static_cast<double>(tx.m()) * ch.transmit_time(tx.frame(0).size()),
              1e-9);
  // Reconstruction gives back the exact payload.
  EXPECT_EQ(rx.reconstruct(), lin.payload);
}

// NaN >= 0 is false, so a NaN threshold would silently mean "relevant":
// the round driver every session runs rejects it before sending a frame.
TEST(Session, RejectsNanRelevanceThreshold) {
  auto ch = make_channel(0.0);
  EXPECT_THROW(transmit::RoundDriver(ch, {.relevance_threshold = std::nan("")}),
               ContractViolation);
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  transmit::TransferSession session(tx, rx, ch, {.relevance_threshold = std::nan("")});
  EXPECT_THROW((void)session.run(), ContractViolation);
  EXPECT_EQ(ch.now(), 0.0);
}

TEST(Session, LossyChannelRecovers) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 2.0});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  auto ch = make_channel(0.3, 77);
  transmit::TransferSession session(tx, rx, ch);
  const auto result = session.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(rx.reconstruct(), lin.payload);
  EXPECT_GT(result.frames_sent, static_cast<long>(tx.m()));
}

TEST(Session, CachingSurvivesStalledRounds) {
  const auto lin = make_linear();
  // gamma = 1: no redundancy, so a single corruption stalls the round and
  // forces retransmission; caching should finish in few rounds.
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx, /*caching=*/true), lin.segments);
  auto ch = make_channel(0.3, 123);
  transmit::TransferSession session(tx, rx, ch);
  const auto result = session.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.rounds, 1);
  EXPECT_EQ(rx.reconstruct(), lin.payload);
}

TEST(Session, NoCachingNeedsAFullCleanRound) {
  // Small document (few packets) so a clean NoCaching round at alpha = 0.25
  // happens within a handful of retries.
  const auto lin = make_linear(4, 20);
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});

  auto run_with = [&](bool caching, std::uint64_t seed) {
    transmit::ClientReceiver rx(receiver_config(tx, caching), lin.segments);
    auto ch = make_channel(0.25, seed);
    transmit::TransferSession session(tx, rx, ch);
    return session.run();
  };
  // Across several seeds, NoCaching can never need fewer rounds than Caching
  // (same corruption pattern per seed).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto with_cache = run_with(true, seed);
    const auto without_cache = run_with(false, seed);
    ASSERT_TRUE(with_cache.completed);
    ASSERT_TRUE(without_cache.completed);
    EXPECT_LE(with_cache.rounds, without_cache.rounds) << "seed=" << seed;
  }
}

TEST(Session, IrrelevantDocumentAbortsEarly) {
  const auto lin = make_linear(24, 60);
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  auto ch = make_channel(0.0);
  transmit::SessionConfig cfg;
  cfg.relevance_threshold = 0.3;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_TRUE(result.aborted_irrelevant);
  EXPECT_GE(result.content_received, 0.3);
  EXPECT_LT(result.frames_sent, static_cast<long>(tx.m()));
}

TEST(Session, ZeroThresholdAbortsImmediately) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  auto ch = make_channel(0.0);
  transmit::SessionConfig cfg;
  cfg.relevance_threshold = 0.0;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_TRUE(result.aborted_irrelevant);
  EXPECT_EQ(result.frames_sent, 1);
}

TEST(Receiver, ContentAccruesWithClearPackets) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  EXPECT_EQ(rx.content_received(), 0.0);
  double prev = 0.0;
  for (std::size_t i = 0; i < tx.m(); ++i) {
    rx.on_frame(ByteSpan(tx.frame(i)));
    EXPECT_GE(rx.content_received(), prev);
    prev = rx.content_received();
  }
  EXPECT_TRUE(rx.complete());
  EXPECT_NEAR(rx.content_received(), lin.total_content(), 1e-9);
}

TEST(Receiver, RedundancyCompletionJumpsToFullContent) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 2.0});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  // Feed only redundancy packets (indices >= m): no clear content until the
  // decoder completes, then content snaps to the total.
  for (std::size_t i = tx.m(); i < 2 * tx.m() - 1; ++i) {
    rx.on_frame(ByteSpan(tx.frame(i)));
    EXPECT_EQ(rx.content_received(), 0.0);
  }
  rx.on_frame(ByteSpan(tx.frame(2 * tx.m() - 1)));
  EXPECT_TRUE(rx.complete());
  EXPECT_NEAR(rx.content_received(), lin.total_content(), 1e-9);
  EXPECT_EQ(rx.reconstruct(), lin.payload);
}

TEST(Receiver, CorruptedFramesCounted) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  Bytes bad = tx.frame(0);
  bad[3] ^= 0xff;
  const auto res = rx.on_frame(ByteSpan(bad));
  EXPECT_FALSE(res.intact);
  EXPECT_TRUE(res.corrupted);
  EXPECT_FALSE(res.foreign);
  EXPECT_EQ(rx.frames_corrupted(), 1);
  EXPECT_EQ(rx.frames_foreign(), 0);
  EXPECT_EQ(rx.intact_count(), 0u);
  EXPECT_DOUBLE_EQ(rx.observed_corruption_rate(), 1.0);
}

TEST(Receiver, ForeignDocIdRejected) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5,
                                         .doc_id = 9});
  auto rc = receiver_config(tx);
  rc.doc_id = 4;  // expecting a different document
  transmit::ClientReceiver rx(rc, lin.segments);
  const auto res = rx.on_frame(ByteSpan(tx.frame(0)));
  EXPECT_FALSE(res.intact);
  EXPECT_TRUE(res.foreign);
  EXPECT_FALSE(res.corrupted);
  // A frame of another transfer is not corruption: it must not leak into the
  // corruption counters that feed the adaptive-gamma estimate.
  EXPECT_EQ(rx.frames_corrupted(), 0);
  EXPECT_EQ(rx.frames_foreign(), 1);
  EXPECT_DOUBLE_EQ(rx.observed_corruption_rate(), 0.0);
}

TEST(Receiver, CorruptionRateIgnoresForeignFrames) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter own(lin, {.packet_size = 128, .gamma = 1.5,
                                          .doc_id = 1});
  transmit::DocumentTransmitter other(lin, {.packet_size = 128, .gamma = 1.5,
                                            .doc_id = 2});
  transmit::ClientReceiver rx(receiver_config(own), lin.segments);
  Bytes bad = own.frame(0);
  bad[5] ^= 0x42;
  rx.on_frame(ByteSpan(bad));                // corrupted (own)
  rx.on_frame(ByteSpan(own.frame(1)));       // intact
  rx.on_frame(ByteSpan(other.frame(0)));     // foreign
  rx.on_frame(ByteSpan(other.frame(1)));     // foreign
  // 1 corrupted of 2 own frames; the 2 foreign frames are excluded.
  EXPECT_DOUBLE_EQ(rx.observed_corruption_rate(), 0.5);
}

TEST(Receiver, RenderHookFiresOncePerClearPacket) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  std::vector<std::size_t> rendered;
  rx.set_render_hook([&](std::size_t idx, ByteSpan) { rendered.push_back(idx); });
  rx.on_frame(ByteSpan(tx.frame(2)));
  rx.on_frame(ByteSpan(tx.frame(2)));               // duplicate
  rx.on_frame(ByteSpan(tx.frame(tx.m())));          // redundancy: no render
  rx.on_frame(ByteSpan(tx.frame(0)));
  EXPECT_EQ(rendered, (std::vector<std::size_t>{2, 0}));
}

TEST(Receiver, RoundEndResetsOnlyWithoutCaching) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});

  transmit::ClientReceiver cached(receiver_config(tx, true), lin.segments);
  cached.on_frame(ByteSpan(tx.frame(0)));
  cached.on_round_end();
  EXPECT_EQ(cached.intact_count(), 1u);

  transmit::ClientReceiver uncached(receiver_config(tx, false), lin.segments);
  uncached.on_frame(ByteSpan(tx.frame(0)));
  EXPECT_GT(uncached.content_received(), 0.0);
  uncached.on_round_end();
  EXPECT_EQ(uncached.intact_count(), 0u);
  EXPECT_EQ(uncached.content_received(), 0.0);
}

TEST(Session, GivesUpAfterMaxRounds) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx, /*caching=*/false), lin.segments);
  auto ch = make_channel(0.6, 5);  // nocaching at 60% corruption: hopeless
  transmit::SessionConfig cfg;
  cfg.max_rounds = 4;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 4);
  EXPECT_EQ(result.frames_sent, 4 * static_cast<long>(tx.n()));
}

TEST(Session, RequestDelayChargedPerStalledRound) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx, /*caching=*/true), lin.segments);
  auto ch = make_channel(0.3, 11);
  transmit::SessionConfig cfg;
  cfg.request_delay_s = 1.5;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.rounds, 1);
  const double frame_time = ch.transmit_time(tx.frame(0).size());
  const double packet_time = static_cast<double>(result.frames_sent) * frame_time;
  EXPECT_NEAR(result.response_time - packet_time, 1.5 * (result.rounds - 1), 1e-9);
}

TEST(Session, CompletionOnFinalFrameBeatsRelevanceAbort) {
  // Regression: the relevance threshold used to be checked before completion,
  // so a document whose decoder completed on its final frame (content jumping
  // from 0 to the total, across the threshold) was misfiled as an
  // irrelevance abort. Corrupt exactly the m clear-text packets: content
  // stays 0 until the redundancy packets alone complete the decode.
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 2.0});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  channel::ChannelConfig cc;
  channel::WirelessChannel ch(
      cc, std::make_unique<ScriptedErrorModel>(static_cast<long>(tx.m())));
  transmit::SessionConfig cfg;
  cfg.relevance_threshold = 0.5;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.aborted_irrelevant);
  EXPECT_EQ(result.frames_sent, static_cast<long>(2 * tx.m()));
  EXPECT_NEAR(result.content_received, lin.total_content(), 1e-9);
}

TEST(Session, ResponseTimeIncludesPropagationDelay) {
  // Regression: response_time was taken from the channel's depart clock, so
  // a configured propagation delay never reached the accounting even though
  // the user cannot have seen the final frame before it arrived.
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  channel::ChannelConfig cc;
  cc.propagation_delay_s = 0.25;
  channel::WirelessChannel ch(cc, std::make_unique<channel::IidErrorModel>(0.0));
  transmit::TransferSession session(tx, rx, ch);
  const auto result = session.run();
  ASSERT_TRUE(result.completed);
  const double frame_time = ch.transmit_time(tx.frame(0).size());
  EXPECT_NEAR(result.response_time,
              static_cast<double>(tx.m()) * frame_time + 0.25, 1e-9);
}

TEST(Session, TraceRecordsRoundsAndOutcome) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx, /*caching=*/true), lin.segments);
  auto ch = make_channel(0.3, 123);
  obs::SessionTrace trace;
  trace.capture_events(true);
  transmit::SessionConfig cfg;
  cfg.trace = &trace;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(trace.completed());
  EXPECT_FALSE(trace.aborted_irrelevant());
  EXPECT_EQ(static_cast<int>(trace.rounds().size()), result.rounds);
  EXPECT_EQ(trace.frames_sent(), result.frames_sent);
  EXPECT_NEAR(trace.response_time(), result.response_time, 1e-9);
  long intact = 0;
  long corrupted = 0;
  for (const auto& round : trace.rounds()) {
    intact += round.frames_intact;
    corrupted += round.frames_corrupted;
  }
  EXPECT_EQ(intact, static_cast<long>(rx.intact_count()));
  EXPECT_EQ(corrupted, rx.frames_corrupted());
  EXPECT_FALSE(trace.events().empty());
  EXPECT_NE(trace.to_json().find("\"rounds\""), std::string::npos);
}

TEST(Session, NoTraceLeavesReceiverSinkDetached) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  auto ch = make_channel(0.1, 7);
  transmit::TransferSession session(tx, rx, ch);
  const auto result = session.run();  // must not crash on any event path
  EXPECT_TRUE(result.completed);
}

TEST(AdaptiveGamma, UsesInitialUntilObserved) {
  transmit::AdaptiveGamma ag({.initial_gamma = 1.7, .target_success = 0.95});
  EXPECT_FALSE(ag.has_estimate());
  EXPECT_DOUBLE_EQ(ag.gamma(40), 1.7);
}

TEST(AdaptiveGamma, TracksObservedRate) {
  transmit::AdaptiveGamma ag({.initial_gamma = 1.5, .target_success = 0.95,
                              .ewma_alpha = 0.5});
  for (int i = 0; i < 20; ++i) ag.observe(0.3);
  EXPECT_NEAR(ag.estimated_alpha(), 0.3, 1e-6);
  const double g = ag.gamma(50);
  // Matches the analytic optimum for alpha = 0.3.
  EXPECT_NEAR(g, mobiweb::analysis::redundancy_ratio(50, 0.3, 0.95), 1e-9);
  EXPECT_GT(g, 1.0 / 0.7);
}

TEST(AdaptiveGamma, CleanChannelDropsToNearOne) {
  transmit::AdaptiveGamma ag;
  for (int i = 0; i < 20; ++i) ag.observe(0.0);
  EXPECT_DOUBLE_EQ(ag.gamma(40), 1.0);
}

TEST(AdaptiveGamma, ClampsAtMaxGamma) {
  transmit::AdaptiveGamma ag({.initial_gamma = 1.5, .target_success = 0.99,
                              .ewma_alpha = 1.0, .max_gamma = 2.5});
  EXPECT_EQ(ida::cooked_count(200, ag.gamma(200)), 255u);  // 1.5 * 200 = 300
  ag.observe(0.9);
  EXPECT_DOUBLE_EQ(ag.gamma(40), 2.5);
  // A 200-packet document gets the most one dispersal group carries.
  EXPECT_EQ(ida::cooked_count(200, ag.gamma(200)), 255u);
}

TEST(AdaptiveGamma, ToleratesDegenerateObservations) {
  // The corruption report crosses the lossy back channel, so garbage values
  // are reachable in production: they must be absorbed, not thrown on.
  transmit::AdaptiveGamma ag;
  ag.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(ag.has_estimate());  // NaN carries no information: ignored
  ag.observe(-0.5);                 // clamps to a clean channel
  EXPECT_TRUE(ag.has_estimate());
  EXPECT_DOUBLE_EQ(ag.estimated_alpha(), 0.0);
  EXPECT_DOUBLE_EQ(ag.gamma(40), 1.0);
}

TEST(AdaptiveGamma, ClampsRatesAtOrAboveOne) {
  transmit::AdaptiveGamma ag({.initial_gamma = 1.5, .target_success = 0.95,
                              .ewma_alpha = 1.0, .max_gamma = 4.0});
  for (const double bad : {1.0, 1.7, std::numeric_limits<double>::infinity()}) {
    ag.observe(bad);
    EXPECT_LE(ag.estimated_alpha(), 0.99) << "observed " << bad;
    const double g = ag.gamma(40);
    EXPECT_TRUE(std::isfinite(g)) << "observed " << bad;
    EXPECT_GE(g, 1.0);
    EXPECT_LE(g, 4.0);
  }
}

TEST(AdaptiveGamma, GammaNeverBelowOne) {
  // Even a rate clamped to zero must keep gamma >= 1 (N >= M is a structural
  // invariant of the dispersal).
  transmit::AdaptiveGamma ag;
  ag.observe(-100.0);
  EXPECT_GE(ag.gamma(1), 1.0);
  EXPECT_GE(ag.gamma(255), 1.0);
}

// ---------------------------------------------- give-up accounting fixes ----

TEST(Session, GiveUpReportsStatusEnum) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  channel::ChannelConfig cc;
  channel::WirelessChannel ch(cc, std::make_unique<ScriptedErrorModel>(1 << 30));
  transmit::SessionConfig cfg;
  cfg.max_rounds = 3;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_EQ(result.status, transmit::SessionStatus::kGaveUp);
  EXPECT_STREQ(transmit::status_name(result.status), "gave_up");
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.aborted_irrelevant);
  EXPECT_EQ(result.rounds, 3);
}

TEST(Session, GiveUpPreservesNoCachingContent) {
  // Regression: the final round used to run the receiver's round-end
  // bookkeeping, so a NoCaching client that gave up reported zero content
  // even though the user had watched clear-text packets render all round.
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx, /*caching=*/false),
                              lin.segments);
  // Corrupt all of round 1, then deliver a few intact frames in round 2 —
  // not enough to decode, so the session gives up after round 2.
  const long n = static_cast<long>(tx.n());
  channel::ChannelConfig cc;
  channel::WirelessChannel ch(
      cc, std::make_unique<ScriptedErrorModel>(n + n - 3));
  transmit::SessionConfig cfg;
  cfg.max_rounds = 2;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_EQ(result.status, transmit::SessionStatus::kGaveUp);
  EXPECT_EQ(result.rounds, 2);
  // The three intact round-2 frames carried real content; it must survive
  // into the result even though a NoCaching reload would have flushed it.
  EXPECT_GT(result.content_received, 0.0);
  EXPECT_NEAR(result.content_received, rx.content_received(), 1e-12);
}

TEST(Session, GiveUpChargesNoTrailingRequestDelay) {
  // Regression: the retransmission request used to be charged after the
  // final round even though no request follows a give-up, diverging from the
  // analytic simulator's accounting.
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
  channel::ChannelConfig cc;
  channel::WirelessChannel ch(cc, std::make_unique<ScriptedErrorModel>(1 << 30));
  transmit::SessionConfig cfg;
  cfg.max_rounds = 3;
  cfg.request_delay_s = 5.0;
  transmit::TransferSession session(tx, rx, ch, cfg);
  const auto result = session.run();
  EXPECT_EQ(result.status, transmit::SessionStatus::kGaveUp);
  const double frame_time = ch.transmit_time(tx.frame(0).size());
  // 3 rounds of airtime + exactly 2 inter-round requests (not 3).
  EXPECT_NEAR(ch.now(),
              static_cast<double>(result.frames_sent) * frame_time + 2 * 5.0,
              1e-9);
}

TEST(Session, StatusEnumMatchesLegacyBools) {
  const auto lin = make_linear();
  // Completed path.
  {
    transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
    transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
    auto ch = make_channel(0.0, 3);
    transmit::TransferSession session(tx, rx, ch);
    const auto r = session.run();
    EXPECT_EQ(r.status, transmit::SessionStatus::kCompleted);
    EXPECT_TRUE(r.completed);
  }
  // Irrelevance-abort path.
  {
    transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
    transmit::ClientReceiver rx(receiver_config(tx), lin.segments);
    auto ch = make_channel(0.0, 3);
    transmit::SessionConfig cfg;
    cfg.relevance_threshold = 0.05;
    transmit::TransferSession session(tx, rx, ch, cfg);
    const auto r = session.run();
    EXPECT_EQ(r.status, transmit::SessionStatus::kAbortedIrrelevant);
    EXPECT_TRUE(r.aborted_irrelevant);
    EXPECT_FALSE(r.completed);
  }
}

// ResilientSession: suspend/resume across link outages, lossy-feedback
// retries with backoff, retry-budget exhaustion, and degraded-mode partial
// delivery — plus the BrowseSession resilient surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "channel/outage.hpp"
#include "core/mobiweb.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "obs/trace.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"
#include "xml/parser.hpp"

namespace channel = mobiweb::channel;
namespace doc = mobiweb::doc;
namespace obs = mobiweb::obs;
namespace transmit = mobiweb::transmit;
namespace xml = mobiweb::xml;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using Window = channel::FaultSchedule::Window;

namespace {

std::string make_xml(std::size_t paragraphs = 12, std::size_t words = 40) {
  std::string src = "<paper>";
  for (std::size_t p = 0; p < paragraphs; ++p) {
    src += "<para>";
    for (std::size_t w = 0; w < words; ++w) {
      src += "word" + std::to_string(p) + "x" + std::to_string(w) + " ";
    }
    src += "</para>";
  }
  src += "</paper>";
  return src;
}

doc::LinearDocument make_linear() {
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(make_xml()));
  return doc::linearize(sc, {.lod = doc::Lod::kParagraph,
                             .rank = doc::RankBy::kIc});
}

struct Rig {
  transmit::DocumentTransmitter tx;
  transmit::ClientReceiver rx;
  channel::WirelessChannel ch;
  double frame_time;  // seconds to serialize one frame

  Rig(const doc::LinearDocument& linear, bool caching)
      : tx(linear, {.packet_size = 64, .gamma = 1.5, .doc_id = 9}),
        rx(make_receiver_config(tx, caching), tx.document().segments),
        ch(channel::ChannelConfig{},
           std::make_unique<channel::IidErrorModel>(0.0)),
        frame_time(ch.transmit_time(tx.frame(0).size())) {}

  static transmit::ReceiverConfig make_receiver_config(
      const transmit::DocumentTransmitter& tx, bool caching) {
    transmit::ReceiverConfig rc;
    rc.doc_id = tx.doc_id();
    rc.m = tx.m();
    rc.n = tx.n();
    rc.packet_size = tx.packet_size();
    rc.payload_size = tx.payload_size();
    rc.caching = caching;
    return rc;
  }
};

}  // namespace

TEST(ResilientSession, ValidatesRetryPolicy) {
  const auto linear = make_linear();
  Rig rig(linear, true);
  transmit::ResilientConfig cfg;
  cfg.retry.retry_budget = 0;
  EXPECT_THROW(transmit::ResilientSession(rig.tx, rig.rx, rig.ch, cfg),
               ContractViolation);
  cfg = {};
  cfg.retry.backoff_multiplier = 0.5;
  EXPECT_THROW(transmit::ResilientSession(rig.tx, rig.rx, rig.ch, cfg),
               ContractViolation);
  cfg = {};
  cfg.retry.max_backoff_s = 0.1;  // < initial_timeout_s
  EXPECT_THROW(transmit::ResilientSession(rig.tx, rig.rx, rig.ch, cfg),
               ContractViolation);
}

TEST(ResilientSession, CleanLinkCompletesInOneRound) {
  const auto linear = make_linear();
  Rig rig(linear, true);
  transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, {});
  const auto r = session.run();
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_TRUE(r.session.completed);
  EXPECT_EQ(r.session.rounds, 1);
  EXPECT_EQ(r.request_attempts, 0);
  EXPECT_EQ(r.outages_ridden, 0);
  // On completion the partial document simply carries every unit.
  EXPECT_TRUE(r.partial.complete);
  EXPECT_EQ(r.partial.units.size(), rig.tx.document().segments.size());
}

// The acceptance test: a scripted outage swallows the first j frames of
// round 1. The Caching client resumes from its packet cache and needs
// strictly fewer retransmitted frames than the NoCaching client, which
// discards the round-1 survivors and re-collects the document from scratch.
TEST(ResilientSession, CacheResumeBeatsNoCachingRestart) {
  const auto linear = make_linear();
  long frames_caching = 0;
  long frames_nocaching = 0;
  for (const bool caching : {true, false}) {
    Rig rig(linear, caching);
    const std::size_t m = rig.tx.m();
    const std::size_t n = rig.tx.n();
    ASSERT_GE(m, 4u);
    // Lose frames 1..j of round 1 (depart times T..jT): the cache retains the
    // n-j tail survivors, not enough to decode (n - j = m - 3 < m).
    const std::size_t j = n - m + 3;
    const double T = rig.frame_time;
    rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
        std::vector<Window>{{0.5 * T, (static_cast<double>(j) + 0.5) * T}}));
    transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, {});
    const auto r = session.run();
    EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted)
        << "caching=" << caching;
    EXPECT_EQ(r.session.rounds, 2);
    (caching ? frames_caching : frames_nocaching) = r.session.frames_sent;
  }
  // Caching: n in round 1 + only the 3 missing packets in round 2.
  // NoCaching: n in round 1 + a full fresh m in round 2.
  EXPECT_LT(frames_caching, frames_nocaching);
  const auto probe = Rig(linear, true);
  EXPECT_EQ(frames_caching, static_cast<long>(probe.tx.n()) + 3);
  EXPECT_EQ(frames_nocaching,
            static_cast<long>(probe.tx.n()) + static_cast<long>(probe.tx.m()));
}

TEST(ResilientSession, SuspendsAcrossOutageAndResumes) {
  const auto linear = make_linear();
  Rig rig(linear, true);
  const std::size_t m = rig.tx.m();
  const std::size_t n = rig.tx.n();
  const double T = rig.frame_time;
  const double round_end = static_cast<double>(n) * T;
  // Window 1 swallows the first n-m+1 frames so round 1 stalls one packet
  // short of decoding; window 2 keeps the link down past the end of the
  // round, so the client must ride out the outage before its retransmission
  // request can get through.
  const double j = static_cast<double>(n - m + 1);
  rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{0.5 * T, (j + 0.5) * T},
                          {round_end - 0.5 * T, round_end + 2.0}}));
  obs::SessionTrace trace;
  transmit::ResilientConfig cfg;
  cfg.trace = &trace;
  transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, cfg);
  const auto r = session.run();
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(r.outages_ridden, 1);
  EXPECT_GT(r.backoff_total_s, 0.0);
  EXPECT_GE(trace.outage_count(), 1L);
  EXPECT_GE(trace.backoff_count(), 1L);
  EXPECT_FALSE(trace.degraded());
}

TEST(ResilientSession, BudgetExhaustionDegradesWithPartialDocument) {
  const auto linear = make_linear();
  Rig rig(linear, true);
  const double T = rig.frame_time;
  // Deliver the first 30 clear-text frames, then the link dies forever.
  rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{30.5 * T, 1e18}}));
  obs::SessionTrace trace;
  transmit::ResilientConfig cfg;
  cfg.trace = &trace;
  cfg.retry.retry_budget = 5;
  cfg.retry.initial_timeout_s = 0.2;
  transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, cfg);
  const auto r = session.run();
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kDegraded);
  EXPECT_FALSE(r.session.completed);
  EXPECT_TRUE(trace.degraded());
  // Degraded-mode delivery must carry something: the 30 cached clear packets
  // fully cover at least the top-ranked unit.
  ASSERT_FALSE(r.partial.empty());
  EXPECT_FALSE(r.partial.complete);
  EXPECT_GT(r.partial.content, 0.0);
  EXPECT_GE(r.partial.clear_packets, 29u);
  // Units arrive in ranked (transmission) order: offsets must be increasing.
  for (std::size_t i = 1; i < r.partial.units.size(); ++i) {
    EXPECT_GT(r.partial.units[i].segment.offset,
              r.partial.units[i - 1].segment.offset);
  }
}

TEST(ResilientSession, DeadLinkFromStartNeverHangs) {
  const auto linear = make_linear();
  Rig rig(linear, true);
  rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{0.0, 1e18}}));
  transmit::ResilientConfig cfg;
  cfg.retry.retry_budget = 4;
  cfg.retry.initial_timeout_s = 0.1;
  transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, cfg);
  const auto r = session.run();  // must terminate, not spin
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kDegraded);
  EXPECT_TRUE(r.partial.empty());
  EXPECT_DOUBLE_EQ(r.session.content_received, 0.0);
}

TEST(ResilientSession, LossyFeedbackRetriesWithBackoff) {
  const auto linear = make_linear();
  // Corrupt exactly the first n-m+1 frames: round 1 stalls one packet short,
  // round 2 completes. The back channel drops requests with probability 0.7,
  // so the single stalled round needs timeout+backoff retries to get its
  // request through (seeded rng makes the exact count deterministic).
  transmit::DocumentTransmitter tx(linear,
                                   {.packet_size = 64, .gamma = 1.5, .doc_id = 2});
  const long corrupt_first =
      static_cast<long>(tx.n()) - static_cast<long>(tx.m()) + 1;
  class FirstKCorrupted final : public channel::ErrorModel {
   public:
    explicit FirstKCorrupted(long k) : remaining_(k) {}
    bool next_corrupted(mobiweb::Rng&) override {
      return remaining_-- > 0;
    }
    [[nodiscard]] double steady_state_rate() const override { return 0.0; }
    [[nodiscard]] std::unique_ptr<channel::ErrorModel> clone() const override {
      return std::make_unique<FirstKCorrupted>(remaining_);
    }

   private:
    long remaining_;
  };
  transmit::ReceiverConfig rc = Rig::make_receiver_config(tx, true);
  transmit::ClientReceiver rx(rc, tx.document().segments);
  channel::ChannelConfig cc;
  cc.feedback_loss_rate = 0.7;
  channel::WirelessChannel ch(cc,
                              std::make_unique<FirstKCorrupted>(corrupt_first));
  transmit::ResilientConfig cfg;
  cfg.retry.initial_timeout_s = 0.1;
  transmit::ResilientSession session(tx, rx, ch, cfg);
  const auto r = session.run();
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(r.session.rounds, 2);
  EXPECT_GE(r.request_attempts, 1);
  EXPECT_EQ(r.timeouts, r.request_attempts - 1);
  if (r.timeouts > 0) {
    EXPECT_GT(r.backoff_total_s, 0.0);
  }
}

TEST(ResilientSession, JitterIsDeterministicPerSeed) {
  const auto linear = make_linear();
  double first_backoff = -1.0;
  for (int run = 0; run < 2; ++run) {
    Rig rig(linear, true);
    const std::size_t m = rig.tx.m();
    const std::size_t n = rig.tx.n();
    const double T = rig.frame_time;
    const double round_end = static_cast<double>(n) * T;
    const double j = static_cast<double>(n - m + 1);
    rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
        std::vector<Window>{{0.5 * T, (j + 0.5) * T},
                            {round_end - 0.5 * T, round_end + 1.0}}));
    transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, {});
    const auto r = session.run();
    EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
    EXPECT_GT(r.backoff_total_s, 0.0);
    if (run == 0) {
      first_backoff = r.backoff_total_s;
    } else {
      EXPECT_DOUBLE_EQ(r.backoff_total_s, first_backoff);
    }
  }
}

// ------------------------------------------------- BrowseSession surface ----

TEST(BrowseResilient, DegradedFetchDeliversPartialText) {
  mobiweb::Server server;
  server.publish_xml("doc://long", make_xml(12, 40));
  channel::FaultSchedule outage({{0.5, 1e18}});
  mobiweb::BrowseConfig bc;
  bc.alpha = 0.0;
  bc.packet_size = 32;
  bc.resilient = true;
  bc.outage = &outage;
  bc.retry.retry_budget = 4;
  bc.retry.initial_timeout_s = 0.2;
  mobiweb::BrowseSession session(server, bc);
  const auto r = session.fetch("doc://long");
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kDegraded);
  ASSERT_FALSE(r.partial.empty());
  EXPECT_FALSE(r.text.empty());
  // The degraded text is exactly the concatenated renderable units.
  std::string expect;
  for (const auto& unit : r.partial.units) {
    expect.append(unit.bytes.begin(), unit.bytes.end());
  }
  EXPECT_EQ(r.text, expect);
}

TEST(BrowseResilient, CompletedFetchMatchesPlainPath) {
  mobiweb::Server server;
  server.publish_xml("doc://ok", make_xml(6, 20));
  mobiweb::BrowseConfig plain;
  plain.alpha = 0.0;
  mobiweb::BrowseConfig resilient = plain;
  resilient.resilient = true;
  mobiweb::BrowseSession a(server, plain);
  mobiweb::BrowseSession b(server, resilient);
  const auto ra = a.fetch("doc://ok");
  const auto rb = b.fetch("doc://ok");
  EXPECT_EQ(ra.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(rb.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(ra.text, rb.text);
  EXPECT_TRUE(rb.partial.complete);
}

TEST(BrowseResilient, CompressedDegradedUnitsDecompress) {
  mobiweb::Server server;
  server.publish_xml("doc://z", make_xml(12, 40));
  channel::FaultSchedule outage({{0.6, 1e18}});
  mobiweb::BrowseConfig bc;
  bc.alpha = 0.0;
  bc.packet_size = 32;
  bc.resilient = true;
  bc.outage = &outage;
  bc.retry.retry_budget = 4;
  mobiweb::BrowseSession session(server, bc);
  mobiweb::FetchOptions opts;
  opts.compress = true;
  const auto r = session.fetch("doc://z", opts);
  if (!r.partial.empty()) {
    // Whatever units made it through must decompress into readable text that
    // appears verbatim in the original document.
    EXPECT_FALSE(r.text.empty());
    EXPECT_NE(r.text.find("word"), std::string::npos);
  } else {
    EXPECT_TRUE(r.text.empty());
  }
}

TEST(ResilientSession, RequestInsideAFadeIsHeldOffUntilResume) {
  // Round 1 stalls one packet short (scripted corruption, not loss), and a
  // fade opens just before the round boundary and outlasts it. The client
  // must NOT burn its retransmission request into the dead link: it backs
  // off (consuming budget) until the link is observed up, and only then does
  // the single request go out — zero feedback frames lost to the fade.
  const auto linear = make_linear();
  Rig rig(linear, true);
  const std::size_t m = rig.tx.m();
  const std::size_t n = rig.tx.n();
  const double T = rig.frame_time;
  const double round_end = static_cast<double>(n) * T;
  const double j = static_cast<double>(n - m + 1);
  rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{0.5 * T, (j + 0.5) * T},
                          {round_end - 0.5 * T, round_end + 3.0}}));
  transmit::ResilientSession session(rig.tx, rig.rx, rig.ch, {});
  const auto r = session.run();
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(r.session.rounds, 2);
  EXPECT_EQ(r.outages_ridden, 1);
  // Every pre-resume attempt was a backoff wait, then one clean request.
  EXPECT_GE(r.request_attempts, 2);
  EXPECT_GT(r.backoff_total_s, 0.0);
  EXPECT_EQ(rig.ch.stats().feedback_sent, 1);
  EXPECT_EQ(rig.ch.stats().feedback_lost, 0);
}

// On a link that never fails and a back channel that never drops, the
// resilient session is the plain one: its re-request round trip
// (feedback_delay_s) is TransferSession's request_delay_s, and a retry budget
// above max_rounds never degrades. Both must then report the same result and
// the same trace, and each trace must end at the instant the result's
// response_time names: the terminating arrival, propagation included.
TEST(ResilientSession, MatchesTransferSessionOnAReliableLink) {
  const auto linear = make_linear();
  const transmit::DocumentTransmitter tx(
      linear, {.packet_size = 64, .gamma = 1.5, .doc_id = 9});
  constexpr double kDelay = 0.4;
  int completed = 0;
  int gave_up = 0;
  for (const double propagation : {0.0, 0.25}) {
    for (const double alpha : {0.1, 0.45, 0.7}) {
      for (const bool caching : {true, false}) {
        for (const double threshold : {-1.0, 0.5}) {
          SCOPED_TRACE("propagation=" + std::to_string(propagation) +
                       " alpha=" + std::to_string(alpha) +
                       " caching=" + std::to_string(caching) +
                       " threshold=" + std::to_string(threshold));
          const auto make_channel = [&](double feedback_delay) {
            channel::ChannelConfig cc;
            cc.propagation_delay_s = propagation;
            cc.feedback_delay_s = feedback_delay;
            cc.seed = 77;
            return channel::WirelessChannel(
                cc, std::make_unique<channel::IidErrorModel>(alpha));
          };
          const auto rc = Rig::make_receiver_config(tx, caching);

          channel::WirelessChannel plain_ch = make_channel(0.0);
          transmit::ClientReceiver plain_rx(rc, tx.document().segments);
          obs::SessionTrace plain_trace;
          plain_trace.capture_events(true);
          transmit::SessionConfig sc;
          sc.relevance_threshold = threshold;
          sc.request_delay_s = kDelay;
          sc.max_rounds = 4;
          sc.trace = &plain_trace;
          const transmit::SessionResult plain =
              transmit::TransferSession(tx, plain_rx, plain_ch, sc).run();

          channel::WirelessChannel res_ch = make_channel(kDelay);
          transmit::ClientReceiver res_rx(rc, tx.document().segments);
          obs::SessionTrace res_trace;
          res_trace.capture_events(true);
          transmit::ResilientConfig cfg;
          cfg.relevance_threshold = threshold;
          cfg.max_rounds = sc.max_rounds;
          cfg.retry.retry_budget = sc.max_rounds + 1;
          cfg.trace = &res_trace;
          const transmit::SessionResult res =
              transmit::ResilientSession(tx, res_rx, res_ch, cfg).run().session;

          EXPECT_EQ(res.status, plain.status);
          EXPECT_EQ(res.completed, plain.completed);
          EXPECT_EQ(res.aborted_irrelevant, plain.aborted_irrelevant);
          EXPECT_EQ(res.rounds, plain.rounds);
          EXPECT_EQ(res.frames_sent, plain.frames_sent);
          EXPECT_EQ(res.content_received, plain.content_received);
          EXPECT_EQ(res.response_time, plain.response_time);
          EXPECT_EQ(res_trace.to_json(), plain_trace.to_json());
          EXPECT_EQ(plain_trace.response_time(), plain.response_time);
          EXPECT_EQ(res_trace.response_time(), res.response_time);
          completed += plain.completed ? 1 : 0;
          gave_up += plain.status == transmit::SessionStatus::kGaveUp ? 1 : 0;
        }
      }
    }
  }
  // The grid must reach both terminal outcomes the end stamp covers.
  EXPECT_GT(completed, 0);
  EXPECT_GT(gave_up, 0);
}

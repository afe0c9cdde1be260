// Selective-repeat ARQ: real stack, analytic simulator, and their agreement.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "obs/trace.hpp"
#include "sim/transfer.hpp"
#include "transmit/arq.hpp"
#include "xml/parser.hpp"

namespace doc = mobiweb::doc;
namespace sim = mobiweb::sim;
namespace transmit = mobiweb::transmit;
namespace channel = mobiweb::channel;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::Rng;

namespace {

doc::LinearDocument make_linear() {
  std::string src = "<paper>";
  for (int p = 0; p < 8; ++p) {
    src += "<para>";
    for (int w = 0; w < 25; ++w) {
      src += "tok" + std::to_string(p) + "v" + std::to_string(w) + " ";
    }
    src += "</para>";
  }
  src += "</paper>";
  doc::ScGenerator gen;
  return doc::linearize(gen.generate(mobiweb::xml::parse(src)),
                        {.lod = doc::Lod::kParagraph, .rank = doc::RankBy::kIc});
}

struct Rig {
  transmit::DocumentTransmitter tx;
  transmit::ClientReceiver rx;
  channel::WirelessChannel ch;

  Rig(const doc::LinearDocument& lin, double alpha, std::uint64_t seed)
      : tx(lin, {.packet_size = 128, .gamma = 1.0}),
        rx({.doc_id = tx.doc_id(), .m = tx.m(), .n = tx.n(), .packet_size = 128,
            .payload_size = tx.payload_size(), .caching = true},
           lin.segments),
        ch({.seed = seed}, std::make_unique<channel::IidErrorModel>(alpha)) {}
};

// The missing count each retransmit request of `trace` carries.
std::vector<double> nack_sizes(const mobiweb::obs::SessionTrace& trace) {
  std::vector<double> out;
  for (const auto& e : trace.events()) {
    if (e.type == mobiweb::obs::Event::kRetransmitRequest) out.push_back(e.value);
  }
  return out;
}

}  // namespace

TEST(ArqReal, CleanChannelOneRound) {
  const auto lin = make_linear();
  Rig s(lin, 0.0, 1);
  transmit::ArqSession session(s.tx, s.rx, s.ch);
  const auto r = session.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.frames_sent, static_cast<long>(s.tx.m()));
  EXPECT_EQ(s.rx.reconstruct(), lin.payload);
}

TEST(ArqReal, LossyChannelResendsOnlyMissing) {
  const auto lin = make_linear();
  Rig s(lin, 0.3, 7);
  transmit::ArqSession session(s.tx, s.rx, s.ch);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(s.rx.reconstruct(), lin.payload);
  // Selective repeat never sends more than rounds * m frames, and with any
  // loss it needs strictly fewer than a full-restart scheme would.
  EXPECT_LT(r.frames_sent, r.rounds * static_cast<long>(s.tx.m()) + 1);
}

TEST(ArqReal, FeedbackDelayCharged) {
  const auto lin = make_linear();
  Rig s(lin, 0.4, 3);
  transmit::ArqConfig cfg;
  cfg.feedback_delay_s = 2.0;
  transmit::ArqSession session(s.tx, s.rx, s.ch, cfg);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.rounds, 1);
  const double frame_time =
      static_cast<double>(s.tx.frame(0).size()) * 8.0 / 19200.0;
  const double packet_time = static_cast<double>(r.frames_sent) * frame_time;
  EXPECT_NEAR(r.response_time - packet_time, 2.0 * (r.rounds - 1), 1e-9);
}

TEST(ArqReal, RelevanceAbort) {
  const auto lin = make_linear();
  Rig s(lin, 0.0, 1);
  transmit::ArqConfig cfg;
  cfg.relevance_threshold = 0.3;
  transmit::ArqSession session(s.tx, s.rx, s.ch, cfg);
  const auto r = session.run();
  EXPECT_TRUE(r.aborted_irrelevant);
  EXPECT_LT(r.frames_sent, static_cast<long>(s.tx.m()));
}

TEST(ArqReal, CompletionOnFinalFrameBeatsRelevanceAbort) {
  // Regression: with the threshold checked before completion, a document
  // whose last missing packet pushed the content to the threshold on the
  // frame that also completed it was misfiled as an irrelevance abort.
  const auto lin = make_linear();
  Rig s(lin, 0.0, 1);
  transmit::ArqConfig cfg;
  cfg.relevance_threshold = lin.total_content();  // met only on the last frame
  transmit::ArqSession session(s.tx, s.rx, s.ch, cfg);
  const auto r = session.run();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.aborted_irrelevant);
  EXPECT_EQ(r.frames_sent, static_cast<long>(s.tx.m()));
}

TEST(ArqReal, ResponseTimeIncludesPropagationDelay) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
  transmit::ClientReceiver rx({.doc_id = tx.doc_id(), .m = tx.m(), .n = tx.n(),
                               .packet_size = 128,
                               .payload_size = tx.payload_size(), .caching = true},
                              lin.segments);
  channel::ChannelConfig cc;
  cc.propagation_delay_s = 0.5;
  channel::WirelessChannel ch(cc, std::make_unique<channel::IidErrorModel>(0.0));
  transmit::ArqSession session(tx, rx, ch);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  const double frame_time = ch.transmit_time(tx.frame(0).size());
  EXPECT_NEAR(r.response_time,
              static_cast<double>(tx.m()) * frame_time + 0.5, 1e-9);
}

TEST(ArqReal, TraceRecordsNackSizes) {
  const auto lin = make_linear();
  Rig s(lin, 0.3, 7);
  mobiweb::obs::SessionTrace trace;
  trace.capture_events(true);
  transmit::ArqConfig cfg;
  cfg.trace = &trace;
  transmit::ArqSession session(s.tx, s.rx, s.ch, cfg);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.rounds, 1);
  EXPECT_EQ(static_cast<int>(trace.rounds().size()), r.rounds);
  EXPECT_EQ(trace.frames_sent(), r.frames_sent);
  // Every retransmit request carries the NACK size; it can never grow.
  long prev = static_cast<long>(s.tx.m());
  int requests = 0;
  for (const auto& e : trace.events()) {
    if (e.type != mobiweb::obs::Event::kRetransmitRequest) continue;
    ++requests;
    const long pending = static_cast<long>(e.value);
    EXPECT_GT(pending, 0);
    EXPECT_LE(pending, prev);
    prev = pending;
  }
  EXPECT_EQ(requests, r.rounds - 1);
}

TEST(ArqReal, RequiresNoRedundancy) {
  const auto lin = make_linear();
  transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.5});
  transmit::ClientReceiver rx({.doc_id = tx.doc_id(), .m = tx.m(), .n = tx.n(),
                               .packet_size = 128,
                               .payload_size = tx.payload_size(), .caching = true},
                              lin.segments);
  channel::WirelessChannel ch({}, std::make_unique<channel::IidErrorModel>(0.0));
  EXPECT_THROW(transmit::ArqSession(tx, rx, ch), ContractViolation);
}

TEST(ArqSim, CleanChannelExact) {
  sim::TransferConfig cfg;
  cfg.m = 40;
  cfg.n = 40;
  cfg.alpha = 0.0;
  Rng rng(90);
  const std::vector<double> content(40, 1.0 / 40);
  const auto r = sim::simulate_arq_transfer(content, cfg, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.packets, 40);
  EXPECT_EQ(r.rounds, 1);
}

TEST(ArqSim, ExpectedPacketsNearMOverOneMinusAlpha) {
  sim::TransferConfig cfg;
  cfg.m = 40;
  cfg.n = 40;
  cfg.alpha = 0.25;
  cfg.max_rounds = 100;
  Rng rng(91);
  const std::vector<double> content(40, 1.0 / 40);
  double packets = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto r = sim::simulate_arq_transfer(content, cfg, rng);
    ASSERT_TRUE(r.completed);
    packets += static_cast<double>(r.packets);
  }
  // Selective repeat sends each packet until it gets through: E = m/(1-alpha).
  EXPECT_NEAR(packets / trials, 40.0 / 0.75, 1.0);
}

TEST(ArqSim, ScriptedPattern) {
  sim::TransferConfig cfg;
  cfg.m = 4;
  cfg.n = 4;
  // Round 1: packets 0,1 corrupted, 2,3 ok. Round 2 resends {0,1}: 0 ok,
  // 1 corrupted. Round 3 resends {1}: ok. Total 4 + 2 + 1 = 7 packets.
  const std::vector<bool> pattern = {true, true, false, false,
                                     false, true, false};
  std::size_t pos = 0;
  const std::vector<double> content(4, 0.25);
  const auto r = sim::simulate_arq_transfer(
      content, cfg, [&] { return pattern[pos++]; });
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.packets, 7);
  EXPECT_EQ(r.rounds, 3);
  EXPECT_EQ(r.content, 1.0);
  EXPECT_EQ(r.time, 7 * cfg.time_per_packet);
}

TEST(ArqSim, RejectsMoreThanOneDispersalGroup) {
  sim::TransferConfig cfg;
  cfg.m = 256;
  cfg.n = 256;
  Rng rng(92);
  const std::vector<double> content(256, 1.0 / 256);
  EXPECT_THROW(sim::simulate_arq_transfer(content, cfg, rng), ContractViolation);
}

TEST(ArqSimVsReal, IdenticalDecisions) {
  struct Case {
    std::uint64_t seed;
    double alpha;
    double threshold;
    int max_rounds;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) cases.push_back({seed, 0.3, -1.0, 1000});
  cases.push_back({16, 0.3, 0.5, 1000});  // the relevance abort trips mid-transfer
  cases.push_back({17, 0.5, -1.0, 2});    // the round cap is reached
  const auto lin = make_linear();
  for (const Case& c : cases) {
    const std::uint64_t seed = c.seed;
    // Pre-draw one corruption pattern; replay into both stacks.
    Rng pattern_rng(seed * 131);
    std::vector<bool> pattern(4096);
    for (auto&& b : pattern) b = pattern_rng.next_bernoulli(c.alpha);

    // Real.
    class Scripted final : public channel::ErrorModel {
     public:
      explicit Scripted(const std::vector<bool>& p) : p_(p) {}
      bool next_corrupted(Rng&) override { return p_[i_++ % p_.size()]; }
      double steady_state_rate() const override { return 0.0; }
      std::unique_ptr<channel::ErrorModel> clone() const override {
        return std::make_unique<Scripted>(p_);
      }

     private:
      const std::vector<bool>& p_;
      std::size_t i_ = 0;
    };
    transmit::DocumentTransmitter tx(lin, {.packet_size = 128, .gamma = 1.0});
    transmit::ClientReceiver rx({.doc_id = tx.doc_id(), .m = tx.m(), .n = tx.n(),
                                 .packet_size = 128,
                                 .payload_size = tx.payload_size(),
                                 .caching = true},
                                lin.segments);
    channel::WirelessChannel ch({}, std::make_unique<Scripted>(pattern));
    mobiweb::obs::SessionTrace real_trace;
    real_trace.capture_events(true);
    transmit::ArqSession session(tx, rx, ch,
                                 {.relevance_threshold = c.threshold,
                                  .max_rounds = c.max_rounds,
                                  .trace = &real_trace});
    const auto real = session.run();

    // Sim.
    std::vector<double> content(tx.m());
    for (std::size_t i = 0; i < tx.m(); ++i) {
      const std::size_t begin = i * 128;
      const std::size_t end = std::min(begin + 128, tx.payload_size());
      content[i] = tx.document().content_of_range(begin, end);
    }
    sim::TransferConfig cfg;
    cfg.m = static_cast<int>(tx.m());
    cfg.n = cfg.m;
    cfg.relevance_threshold = c.threshold;
    cfg.max_rounds = c.max_rounds;
    mobiweb::obs::SessionTrace sim_trace;
    sim_trace.capture_events(true);
    cfg.trace = &sim_trace;
    std::size_t pos = 0;
    const auto simulated = sim::simulate_arq_transfer(
        content, cfg, [&] { return pattern[pos++ % pattern.size()]; });

    EXPECT_EQ(real.frames_sent, simulated.packets) << seed;
    EXPECT_EQ(real.rounds, simulated.rounds) << seed;
    EXPECT_EQ(real.completed, simulated.completed) << seed;
    EXPECT_EQ(real.aborted_irrelevant, simulated.aborted_irrelevant) << seed;
    EXPECT_EQ(real.status == transmit::SessionStatus::kGaveUp, simulated.gave_up) << seed;
    EXPECT_EQ(nack_sizes(real_trace), nack_sizes(sim_trace)) << seed;
    if (c.threshold >= 0.0) {
      EXPECT_TRUE(simulated.aborted_irrelevant) << seed;
    }
    if (c.max_rounds == 2) {
      EXPECT_TRUE(simulated.gave_up) << seed;
    }
  }
}

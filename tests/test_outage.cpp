// Outage models (Markov fades + scripted fault schedules), the lossy back
// channel, their composition with the wireless channel, and the analytic
// simulator's fault-injection hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "channel/outage.hpp"
#include "sim/experiment.hpp"
#include "sim/transfer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace channel = mobiweb::channel;
namespace sim = mobiweb::sim;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::Rng;
using Window = channel::FaultSchedule::Window;

namespace {

std::vector<double> uniform_content(int m) {
  return std::vector<double>(static_cast<std::size_t>(m),
                             1.0 / static_cast<double>(m));
}

}  // namespace

// ---------------------------------------------------------------- Markov ----

TEST(MarkovOutage, ValidatesDwellTimes) {
  EXPECT_THROW(channel::MarkovOutageModel(0.0, 1.0), ContractViolation);
  EXPECT_THROW(channel::MarkovOutageModel(1.0, 0.0), ContractViolation);
  EXPECT_THROW(channel::MarkovOutageModel(-1.0, 1.0), ContractViolation);
}

TEST(MarkovOutage, DutyCycleConstructor) {
  const auto model = channel::MarkovOutageModel::with_duty_cycle(0.25, 2.0);
  EXPECT_DOUBLE_EQ(model.mean_down_s(), 2.0);
  EXPECT_DOUBLE_EQ(model.mean_up_s(), 6.0);  // 2 * (1 - 0.25) / 0.25
  EXPECT_NEAR(model.outage_fraction(), 0.25, 1e-12);
  EXPECT_THROW(channel::MarkovOutageModel::with_duty_cycle(0.0, 1.0),
               ContractViolation);
  EXPECT_THROW(channel::MarkovOutageModel::with_duty_cycle(1.0, 1.0),
               ContractViolation);
}

TEST(MarkovOutage, EmpiricalDutyMatchesConfigured) {
  // Sample the renewal process on a fine grid over a long horizon; the
  // fraction of time down should approach the configured duty cycle.
  const double duty = 0.3;
  auto model = channel::MarkovOutageModel::with_duty_cycle(duty, 2.0);
  Rng rng(1234);
  const double dt = 0.05;
  long down = 0;
  const long steps = 400000;
  for (long i = 0; i < steps; ++i) {
    if (!model.link_up(static_cast<double>(i) * dt, rng)) ++down;
  }
  const double observed = static_cast<double>(down) / static_cast<double>(steps);
  EXPECT_NEAR(observed, duty, 0.03);
}

TEST(MarkovOutage, ResetRestoresUpStateAndRedraws) {
  channel::MarkovOutageModel model(1.0, 1.0);
  Rng rng(99);
  // Walk until we land inside an outage.
  double t = 0.0;
  while (model.link_up(t, rng) && t < 1000.0) t += 0.1;
  ASSERT_LT(t, 1000.0) << "never saw an outage in 1000 s of a 50% duty link";
  model.reset();
  // After reset the process restarts in the Up state at any queried time.
  EXPECT_TRUE(model.link_up(0.0, rng));
}

TEST(MarkovOutage, RepeatedQueriesAtSameTimeAgree) {
  channel::MarkovOutageModel model(0.5, 0.5);
  Rng rng(7);
  for (double t = 0.0; t < 50.0; t += 0.25) {
    const bool first = model.link_up(t, rng);
    EXPECT_EQ(model.link_up(t, rng), first) << "at t=" << t;
  }
}

TEST(MarkovOutage, FarQueriesCostBoundedWorkAndKeepTheDuty) {
  // Dwells of about a microsecond queried once a second: every query lies
  // ~10^6 dwells past the last one drawn, so the model draws the state from
  // the chain's transition law instead of walking the dwells. The duty cycle
  // must survive, repeated queries must agree, and a query at 1e300 s (whose
  // dwells fall below the clock's resolution) must return.
  auto model = channel::MarkovOutageModel::with_duty_cycle(0.3, 1e-6);
  Rng rng(4321);
  long down = 0;
  const long steps = 20000;
  for (long i = 1; i <= steps; ++i) {
    const double t = static_cast<double>(i);
    const bool up = model.link_up(t, rng);
    EXPECT_EQ(model.link_up(t, rng), up) << "at t=" << t;
    if (!up) ++down;
  }
  EXPECT_NEAR(static_cast<double>(down) / static_cast<double>(steps), 0.3, 0.02);
  const bool far = model.link_up(1e300, rng);
  EXPECT_EQ(model.link_up(1e300, rng), far);
}

TEST(MarkovOutage, CloneIsIndependent) {
  channel::MarkovOutageModel model(1.0, 1.0);
  auto copy = model.clone();
  Rng rng_a(5);
  Rng rng_b(5);
  // Same seed, same query ladder: identical answers from model and clone.
  for (double t = 0.0; t < 20.0; t += 0.5) {
    EXPECT_EQ(model.link_up(t, rng_a), copy->link_up(t, rng_b));
  }
}

TEST(MarkovOutage, SessionCloneStartsFreshAndIsDeterministic) {
  // Drive the prototype deep into its renewal timeline first: session_clone
  // must still hand back a model in the initial Up state with no transition
  // times drawn, exactly as if freshly constructed — this is what makes the
  // fleet engine's per-session fade processes independent of prefill order.
  channel::MarkovOutageModel proto(1.0, 1.0);
  Rng drive(11);
  for (double t = 0.0; t < 25.0; t += 0.3) proto.link_up(t, drive);

  for (const std::uint64_t seed : {7ull, 42ull, 1234ull}) {
    const auto clone_a = proto.session_clone();
    const auto clone_b = proto.session_clone();
    channel::MarkovOutageModel fresh(1.0, 1.0);
    Rng ra(seed);
    Rng rb(seed);
    Rng rf(seed);
    // The lazy first dwell draw anchors at the first queried time, so all
    // three walk the same time ladder from t = 0.
    EXPECT_TRUE(clone_a->link_up(0.0, ra));  // starts Up, like reset()
    EXPECT_TRUE(clone_b->link_up(0.0, rb));
    EXPECT_TRUE(fresh.link_up(0.0, rf));
    for (double t = 0.25; t < 40.0; t += 0.25) {
      const bool expected = fresh.link_up(t, rf);
      EXPECT_EQ(clone_a->link_up(t, ra), expected) << "seed=" << seed
                                                   << " t=" << t;
      EXPECT_EQ(clone_b->link_up(t, rb), expected) << "seed=" << seed
                                                   << " t=" << t;
    }
    EXPECT_DOUBLE_EQ(clone_a->outage_fraction(), proto.outage_fraction());
  }
}

// -------------------------------------------------------- FaultSchedule ----

TEST(FaultSchedule, NormalizesAndMerges) {
  const channel::FaultSchedule s({{4.0, 5.0}, {1.0, 2.0}, {1.5, 3.0}});
  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_DOUBLE_EQ(s.windows()[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(s.windows()[0].end, 3.0);
  EXPECT_DOUBLE_EQ(s.windows()[1].begin, 4.0);
  EXPECT_DOUBLE_EQ(s.windows()[1].end, 5.0);
  EXPECT_DOUBLE_EQ(s.total_outage_s(), 3.0);
}

TEST(FaultSchedule, ConstructorValidates) {
  EXPECT_THROW(channel::FaultSchedule({{-1.0, 2.0}}), ContractViolation);
  EXPECT_THROW(channel::FaultSchedule({{2.0, 1.0}}), ContractViolation);
  EXPECT_THROW(
      channel::FaultSchedule({{0.0, std::numeric_limits<double>::infinity()}}),
      ContractViolation);
}

TEST(FaultSchedule, LinkUpHalfOpenWindows) {
  channel::FaultSchedule s({{1.0, 2.0}});
  Rng rng(1);
  EXPECT_TRUE(s.link_up(0.0, rng));
  EXPECT_TRUE(s.link_up(0.999, rng));
  EXPECT_FALSE(s.link_up(1.0, rng));   // begin is inclusive
  EXPECT_FALSE(s.link_up(1.999, rng));
  EXPECT_TRUE(s.link_up(2.0, rng));    // end is exclusive
  EXPECT_TRUE(s.link_up(100.0, rng));
}

TEST(FaultSchedule, ParseValidAndRoundTrip) {
  const auto s = channel::FaultSchedule::parse("0.5-1.25, 4-4.75; 2-3");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->windows().size(), 3u);
  EXPECT_DOUBLE_EQ(s->windows()[1].begin, 2.0);
  const auto replay = channel::FaultSchedule::parse(s->to_string());
  ASSERT_TRUE(replay.has_value());
  ASSERT_EQ(replay->windows().size(), s->windows().size());
  for (std::size_t i = 0; i < s->windows().size(); ++i) {
    EXPECT_DOUBLE_EQ(replay->windows()[i].begin, s->windows()[i].begin);
    EXPECT_DOUBLE_EQ(replay->windows()[i].end, s->windows()[i].end);
  }
}

TEST(FaultSchedule, ParseRejectsMalformed) {
  EXPECT_FALSE(channel::FaultSchedule::parse("1-").has_value());
  EXPECT_FALSE(channel::FaultSchedule::parse("abc").has_value());
  EXPECT_FALSE(channel::FaultSchedule::parse("1..2-3").has_value());
  EXPECT_FALSE(channel::FaultSchedule::parse("nan-2").has_value());
  EXPECT_FALSE(channel::FaultSchedule::parse("inf-inf").has_value());
  EXPECT_FALSE(channel::FaultSchedule::parse("1-2 trailing").has_value());
}

TEST(FaultSchedule, ParseClampsAndDropsEmpty) {
  // Negative begins clamp to 0; a window that becomes empty is dropped.
  const auto s = channel::FaultSchedule::parse("-5-1, -3--1");
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->windows().size(), 1u);
  EXPECT_DOUBLE_EQ(s->windows()[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(s->windows()[0].end, 1.0);
}

TEST(FaultSchedule, ParseEmptyStringIsAlwaysUp) {
  auto s = channel::FaultSchedule::parse("   ");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->windows().empty());
  Rng rng(1);
  EXPECT_TRUE(s->link_up(123.0, rng));
  EXPECT_DOUBLE_EQ(s->outage_fraction(), 0.0);
}

// ------------------------------------------------- channel composition ----

TEST(FaultSchedule, SessionCloneReplaysTheSameWindows) {
  const channel::FaultSchedule proto({{1.0, 2.0}, {5.0, 7.5}});
  const auto clone = proto.session_clone();
  channel::FaultSchedule proto_again({{1.0, 2.0}, {5.0, 7.5}});
  Rng ra(3);
  Rng rb(3);
  for (double t = 0.0; t < 10.0; t += 0.125) {
    EXPECT_EQ(clone->link_up(t, ra), proto_again.link_up(t, rb)) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(clone->outage_fraction(), proto.outage_fraction());
}

TEST(ChannelOutage, FramesDuringWindowAreLost) {
  channel::ChannelConfig cfg;
  cfg.bandwidth_bps = 8000.0;  // 100-byte frame = 0.1 s airtime
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  // Frames depart at t = 0.1, 0.2, 0.3, ... — kill the window [0.15, 0.35).
  ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{0.15, 0.35}}));
  const Bytes frame(100, 0xAB);
  int lost = 0;
  for (int i = 0; i < 5; ++i) {
    const auto d = ch.send(ByteSpan(frame));
    if (d.lost) {
      ++lost;
      EXPECT_TRUE(d.frame.empty());
    } else {
      EXPECT_EQ(d.frame.size(), frame.size());
      EXPECT_FALSE(d.corrupted);
    }
  }
  EXPECT_EQ(lost, 2);  // departures at 0.2 and 0.3 fall inside the window
  EXPECT_EQ(ch.stats().frames_lost, 2);
  EXPECT_EQ(ch.stats().frames_sent, 5);
}

TEST(ChannelOutage, WithoutModelNothingIsLost) {
  channel::ChannelConfig cfg;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  const Bytes frame(64, 0x01);
  for (int i = 0; i < 10; ++i) {
    const auto d = ch.send(ByteSpan(frame));
    EXPECT_FALSE(d.lost);
  }
  EXPECT_EQ(ch.stats().frames_lost, 0);
}

TEST(ChannelFeedback, ValidatesConfig) {
  auto make = [](double loss, double delay) {
    channel::ChannelConfig cfg;
    cfg.feedback_loss_rate = loss;
    cfg.feedback_delay_s = delay;
    return channel::WirelessChannel(
        cfg, std::make_unique<channel::IidErrorModel>(0.0));
  };
  EXPECT_THROW(make(-0.1, 0.0), ContractViolation);
  EXPECT_THROW(make(1.5, 0.0), ContractViolation);
  EXPECT_THROW(make(0.0, -1.0), ContractViolation);
}

TEST(ChannelFeedback, ReliableFeedbackAdvancesClock) {
  channel::ChannelConfig cfg;
  cfg.feedback_delay_s = 0.5;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  EXPECT_TRUE(ch.send_feedback());
  EXPECT_DOUBLE_EQ(ch.now(), 0.5);
  EXPECT_EQ(ch.stats().feedback_sent, 1);
  EXPECT_EQ(ch.stats().feedback_lost, 0);
}

TEST(ChannelFeedback, AlwaysLossyNeverDeliversAndChargesNoTime) {
  channel::ChannelConfig cfg;
  cfg.feedback_loss_rate = 1.0;
  cfg.feedback_delay_s = 0.5;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(ch.send_feedback());
  EXPECT_DOUBLE_EQ(ch.now(), 0.0);
  EXPECT_EQ(ch.stats().feedback_sent, 20);
  EXPECT_EQ(ch.stats().feedback_lost, 20);
}

TEST(ChannelFeedback, DroppedWhileLinkDown) {
  channel::ChannelConfig cfg;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{0.0, 10.0}}));
  EXPECT_FALSE(ch.link_up_now());
  EXPECT_FALSE(ch.send_feedback());
  EXPECT_EQ(ch.stats().feedback_lost, 1);
}

// ----------------------------------------- Gilbert-Elliott property test ----

TEST(GilbertElliott, AverageRatePropertyHolds) {
  // with_average_rate(alpha, burst) promises a steady-state corruption rate
  // of alpha regardless of burstiness. Check the analytic claim and the
  // empirical rate over a long run; bursts inflate the variance, so the
  // tolerance scales with the burst length.
  Rng rng(20260805);
  for (const double alpha : {0.05, 0.1, 0.3}) {
    for (const double burst : {2.0, 8.0, 32.0}) {
      auto model = channel::GilbertElliottModel::with_average_rate(alpha, burst);
      EXPECT_NEAR(model.steady_state_rate(), alpha, 1e-9)
          << "alpha=" << alpha << " burst=" << burst;
      const long draws = 200000;
      long corrupted = 0;
      for (long i = 0; i < draws; ++i) {
        if (model.next_corrupted(rng)) ++corrupted;
      }
      const double observed =
          static_cast<double>(corrupted) / static_cast<double>(draws);
      // ~6 sigma for a stationary chain whose effective sample size shrinks
      // by the burst length.
      const double tol =
          6.0 * std::sqrt(alpha * (1.0 - alpha) * burst /
                          static_cast<double>(draws)) + 0.002;
      EXPECT_NEAR(observed, alpha, tol) << "alpha=" << alpha << " burst=" << burst;
    }
  }
}

TEST(GilbertElliott, ResetRestoresGoodState) {
  auto model = channel::GilbertElliottModel::with_average_rate(0.3, 8.0);
  Rng rng(17);
  // Drive until the chain enters the Bad state.
  int guard = 0;
  while (!model.in_bad_state() && guard++ < 100000) model.next_corrupted(rng);
  ASSERT_TRUE(model.in_bad_state());
  model.reset();
  EXPECT_FALSE(model.in_bad_state());
}

// ------------------------------------------------- analytic sim hooks ----

TEST(SimOutage, LinkDownPacketsAreLostButCharged) {
  sim::TransferConfig cfg;
  cfg.m = 4;
  cfg.n = 6;
  cfg.alpha = 0.0;
  cfg.max_rounds = 3;
  // Kill the whole first round; round 2 completes from fresh packets.
  int calls = 0;
  cfg.link_up = [&calls](double) { return ++calls > 6; };
  Rng rng(3);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.packets, 6 + 4);  // round 1 fully lost (charged), round 2 stops at m
}

TEST(SimOutage, AlwaysLostFeedbackIsCappedNotHung) {
  sim::TransferConfig cfg;
  cfg.m = 4;
  cfg.n = 4;
  cfg.alpha = 0.0;
  cfg.max_rounds = 3;
  cfg.request_delay = 1.0;
  cfg.link_up = [](double) { return false; };   // link never up
  cfg.feedback_lost = [] { return true; };      // every request dropped
  Rng rng(4);
  const auto r = sim::simulate_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.gave_up);
  EXPECT_EQ(r.rounds, 3);
  // Two stalled-round requests, each hitting the retry cap.
  EXPECT_NEAR(r.time - static_cast<double>(r.packets) * cfg.time_per_packet,
              2.0 * static_cast<double>(sim::kMaxFeedbackTries), 1e-9);
}

TEST(SimOutage, ArqLinkDownPacketsAreLost) {
  sim::TransferConfig cfg;
  cfg.m = 4;
  cfg.alpha = 0.0;
  cfg.max_rounds = 4;
  int calls = 0;
  cfg.link_up = [&calls](double) { return ++calls > 2; };  // lose 2 packets
  Rng rng(5);
  const auto r = sim::simulate_arq_transfer(uniform_content(cfg.m), cfg, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.packets, 4 + 2);  // round 2 resends exactly the two lost ones
}

TEST(ExperimentOutage, RunsAndDegradesThroughput) {
  sim::ExperimentParams clean;
  clean.repetitions = 2;
  clean.documents_per_session = 30;
  clean.max_rounds = 10;
  sim::ExperimentParams faulty = clean;
  faulty.outage_duty = 0.4;
  faulty.mean_outage_s = 0.5;
  faulty.feedback_loss = 0.3;
  const auto base = sim::run_browsing_experiment(clean);
  const auto hit = sim::run_browsing_experiment(faulty);
  // Outages burn airtime without delivering: mean response time must rise.
  EXPECT_GT(hit.response_time.mean(), base.response_time.mean());
  EXPECT_GT(hit.total_packets, base.total_packets);
}

TEST(ExperimentOutage, ValidatesKnobs) {
  sim::ExperimentParams p;
  p.repetitions = 1;
  p.documents_per_session = 1;
  p.outage_duty = 1.0;
  EXPECT_THROW(sim::run_browsing_experiment(p), ContractViolation);
  p.outage_duty = 0.2;
  p.mean_outage_s = 0.0;
  EXPECT_THROW(sim::run_browsing_experiment(p), ContractViolation);
  p.mean_outage_s = 1.0;
  p.feedback_loss = 1.0;
  EXPECT_THROW(sim::run_browsing_experiment(p), ContractViolation);
}

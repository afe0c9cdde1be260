// Wireless channel and error models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "obs/metrics.hpp"
#include "packet/packet.hpp"

namespace channel = mobiweb::channel;
namespace packet = mobiweb::packet;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::Rng;

TEST(IidModel, RateMatchesAlpha) {
  channel::IidErrorModel model(0.3);
  Rng rng(40);
  int corrupted = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) corrupted += model.next_corrupted(rng);
  EXPECT_NEAR(static_cast<double>(corrupted) / trials, 0.3, 0.01);
  EXPECT_DOUBLE_EQ(model.steady_state_rate(), 0.3);
}

TEST(IidModel, RejectsBadAlpha) {
  EXPECT_THROW(channel::IidErrorModel(-0.1), ContractViolation);
  EXPECT_THROW(channel::IidErrorModel(1.0), ContractViolation);
  EXPECT_NO_THROW(channel::IidErrorModel(0.0));
}

TEST(GilbertElliott, SteadyStateRate) {
  // pi_bad = 0.1/(0.1+0.4) = 0.2; rate = 0.8*0 + 0.2*1 = 0.2.
  channel::GilbertElliottModel model(0.1, 0.4, 0.0, 1.0);
  EXPECT_NEAR(model.steady_state_rate(), 0.2, 1e-12);
}

TEST(GilbertElliott, EmpiricalRateMatchesSteadyState) {
  auto model = channel::GilbertElliottModel::with_average_rate(0.25, 8.0);
  EXPECT_NEAR(model.steady_state_rate(), 0.25, 1e-9);
  Rng rng(41);
  long corrupted = 0;
  const long trials = 400000;
  for (long i = 0; i < trials; ++i) corrupted += model.next_corrupted(rng);
  EXPECT_NEAR(static_cast<double>(corrupted) / static_cast<double>(trials), 0.25,
              0.01);
}

TEST(GilbertElliott, ProducesBursts) {
  // Compare run-length statistics against iid at the same average rate: the
  // GE channel must show longer corruption bursts.
  const double alpha = 0.2;
  auto ge = channel::GilbertElliottModel::with_average_rate(alpha, 10.0);
  channel::IidErrorModel iid(alpha);
  Rng rng_a(42);
  Rng rng_b(43);

  auto mean_run = [](channel::ErrorModel& m, Rng& rng) {
    long runs = 0;
    long corrupted = 0;
    bool prev = false;
    for (int i = 0; i < 200000; ++i) {
      const bool c = m.next_corrupted(rng);
      corrupted += c;
      if (c && !prev) ++runs;
      prev = c;
    }
    return runs > 0 ? static_cast<double>(corrupted) / static_cast<double>(runs)
                    : 0.0;
  };
  const double ge_run = mean_run(ge, rng_a);
  const double iid_run = mean_run(iid, rng_b);
  EXPECT_GT(ge_run, 2.0 * iid_run);
}

TEST(GilbertElliott, ResetReturnsToGoodState) {
  channel::GilbertElliottModel model(1.0, 0.01, 0.0, 1.0);
  Rng rng(44);
  model.next_corrupted(rng);  // forces a transition to bad
  EXPECT_TRUE(model.in_bad_state());
  model.reset();
  EXPECT_FALSE(model.in_bad_state());
}

TEST(Channel, TransmitTimeMatchesBandwidth) {
  channel::ChannelConfig cfg;
  cfg.bandwidth_bps = 19200.0;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  // 260 bytes at 19.2 kbps: the paper's per-cooked-packet time.
  EXPECT_NEAR(ch.transmit_time(260), 260.0 * 8.0 / 19200.0, 1e-12);
}

TEST(Channel, ClockAdvancesPerFrame) {
  channel::ChannelConfig cfg;
  cfg.bandwidth_bps = 19200.0;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  const Bytes frame(260, 0x11);
  EXPECT_EQ(ch.now(), 0.0);
  ch.send(ByteSpan(frame));
  ch.send(ByteSpan(frame));
  EXPECT_NEAR(ch.now(), 2 * 260.0 * 8.0 / 19200.0, 1e-12);
  ch.advance(1.0);
  EXPECT_NEAR(ch.now(), 1.0 + 2 * 260.0 * 8.0 / 19200.0, 1e-12);
}

TEST(Channel, CleanChannelDeliversIntact) {
  channel::ChannelConfig cfg;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  const Bytes frame = packet::encode({.doc_id = 1, .seq = 0, .total = 1,
                                      .flags = 0, .payload = Bytes(64, 0x5a)});
  for (int i = 0; i < 100; ++i) {
    const auto d = ch.send(ByteSpan(frame));
    EXPECT_FALSE(d.corrupted);
    EXPECT_TRUE(std::ranges::equal(d.frame, frame));
    EXPECT_TRUE(packet::decode(ByteSpan(d.frame)).has_value());
  }
  EXPECT_EQ(ch.stats().frames_corrupted, 0);
  EXPECT_EQ(ch.stats().frames_sent, 100);
}

TEST(Channel, CorruptionFlipsBytesAndCrcCatchesIt) {
  channel::ChannelConfig cfg;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(1.0 - 1e-9));
  const Bytes frame = packet::encode({.doc_id = 1, .seq = 0, .total = 1,
                                      .flags = 0, .payload = Bytes(256, 0x5a)});
  int delivered_intact = 0;
  for (int i = 0; i < 200; ++i) {
    const auto d = ch.send(ByteSpan(frame));
    ASSERT_TRUE(d.corrupted);
    EXPECT_FALSE(std::ranges::equal(d.frame, frame));
    delivered_intact += packet::decode(ByteSpan(d.frame)).has_value();
  }
  EXPECT_EQ(delivered_intact, 0);
}

TEST(Channel, CorruptedDeliveriesAlwaysFailDecode) {
  // Regression: corruption used to draw byte positions with replacement, so
  // two flips could land on the same byte with the same mask and cancel out —
  // a frame counted as corrupted would then sail through packet::decode. The
  // small frame (64 bytes -> two flips) maximises the collision odds; sweep
  // enough seeded frames that the old code reliably produced at least one.
  const Bytes frame = packet::encode({.doc_id = 1, .seq = 0, .total = 1,
                                      .flags = 0, .payload = Bytes(52, 0x5a)});
  ASSERT_EQ(frame.size(), 64u);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    channel::ChannelConfig cfg;
    cfg.seed = seed;
    channel::WirelessChannel ch(
        cfg, std::make_unique<channel::IidErrorModel>(1.0 - 1e-9));
    for (int i = 0; i < 1000; ++i) {
      const auto d = ch.send(ByteSpan(frame));
      ASSERT_TRUE(d.corrupted);
      ASSERT_FALSE(std::ranges::equal(d.frame, frame))
          << "seed=" << seed << " frame=" << i;
      ASSERT_FALSE(packet::decode(ByteSpan(d.frame)).has_value())
          << "seed=" << seed << " frame=" << i;
    }
  }
}

TEST(Channel, IntactDeliveryViewsSenderBuffer) {
  // No copy on the clean path: the delivered view is the sender's bytes.
  channel::ChannelConfig cfg;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  const Bytes frame(128, 0x5a);
  for (int i = 0; i < 10; ++i) {
    const auto d = ch.send(ByteSpan(frame));
    ASSERT_FALSE(d.corrupted);
    EXPECT_EQ(d.frame.data(), frame.data());
    EXPECT_EQ(d.frame.size(), frame.size());
  }
}

TEST(Channel, CorruptionNeverModifiesSenderFrame) {
  // Corruption flips bytes in the channel's scratch copy, never in the frame
  // the sender still owns (and resends next round).
  const auto fnv1a = [](ByteSpan bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
    return h;
  };
  channel::ChannelConfig cfg;
  cfg.seed = 23;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.5));
  const Bytes frame = packet::encode({.doc_id = 2, .seq = 1, .total = 4,
                                      .flags = 0, .payload = Bytes(200, 0x3c)});
  const std::uint64_t before = fnv1a(ByteSpan(frame));
  int corrupted = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto d = ch.send(ByteSpan(frame));
    if (!d.corrupted) continue;
    ++corrupted;
    EXPECT_NE(d.frame.data(), frame.data());
    EXPECT_FALSE(packet::decode(d.frame).has_value());
  }
  EXPECT_GT(corrupted, 400);
  EXPECT_LT(corrupted, 600);
  EXPECT_EQ(fnv1a(ByteSpan(frame)), before);
}

TEST(Channel, MetricsCountersTrackStats) {
  mobiweb::obs::MetricsRegistry registry;
  channel::ChannelConfig cfg;
  cfg.seed = 17;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.5));
  const Bytes frame(100, 0x22);
  ch.set_metrics(&registry);
  for (int i = 0; i < 64; ++i) ch.send(ByteSpan(frame));
  EXPECT_EQ(registry.counter("channel.frames_sent").value(), 64);
  EXPECT_EQ(registry.counter("channel.frames_corrupted").value(),
            ch.stats().frames_corrupted);
  EXPECT_EQ(registry.counter("channel.bytes_sent").value(), 6400);
  // Detach: the channel keeps counting its own stats but the registry stops.
  ch.set_metrics(nullptr);
  ch.send(ByteSpan(frame));
  EXPECT_EQ(registry.counter("channel.frames_sent").value(), 64);
  EXPECT_EQ(ch.stats().frames_sent, 65);
}

TEST(Channel, ObservedRateTracksAlpha) {
  channel::ChannelConfig cfg;
  cfg.seed = 99;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.4));
  const Bytes frame(64, 1);
  for (int i = 0; i < 20000; ++i) ch.send(ByteSpan(frame));
  EXPECT_NEAR(ch.stats().observed_corruption_rate(), 0.4, 0.02);
}

TEST(Channel, PropagationDelayAddsToArrival) {
  channel::ChannelConfig cfg;
  cfg.propagation_delay_s = 0.25;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  const Bytes frame(240, 0);
  const auto d = ch.send(ByteSpan(frame));
  EXPECT_NEAR(d.arrive_time - d.depart_time, 0.25, 1e-12);
}

TEST(Channel, RejectsNonFiniteOrNonPositiveBandwidth) {
  // An infinite bandwidth would give every frame zero airtime.
  for (const double bad : {std::numeric_limits<double>::infinity(), std::nan(""), 0.0, -1.0}) {
    channel::ChannelConfig cfg;
    cfg.bandwidth_bps = bad;
    EXPECT_THROW(channel::WirelessChannel(cfg, std::make_unique<channel::IidErrorModel>(0.0)),
                 ContractViolation)
        << bad;
  }
}

TEST(Channel, RejectsEmptyFrame) {
  channel::ChannelConfig cfg;
  channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.0));
  EXPECT_THROW(ch.send(ByteSpan()), ContractViolation);
}

TEST(Channel, SameSeedSameBehaviour) {
  const Bytes frame(128, 3);
  auto run = [&frame](std::uint64_t seed) {
    channel::ChannelConfig cfg;
    cfg.seed = seed;
    channel::WirelessChannel ch(cfg, std::make_unique<channel::IidErrorModel>(0.3));
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) pattern.push_back(ch.send(ByteSpan(frame)).corrupted);
    return pattern;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// Edge proxy tier: reconnect reconciliation, origin failover with
// stale-replica flagging, the replica cache, scripted cell handoffs,
// and the proxied resilient session driver on the real frame/CRC stack.
//
// The load-bearing safety property pinned here: a replica the origin did not
// vouch for is NEVER served with ServeOutcome::stale == false — every
// failover path flags it, and the session result carries the flag through to
// ended_stale / stale_frames accounting.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "channel/handoff.hpp"
#include "channel/outage.hpp"
#include "fleet/cache.hpp"
#include "obs/metrics.hpp"
#include "proxy/origin.hpp"
#include "proxy/proxy.hpp"
#include "proxy/reconcile.hpp"
#include "proxy/session.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "util/check.hpp"

namespace channel = mobiweb::channel;
namespace fleet = mobiweb::fleet;
namespace proxy = mobiweb::proxy;
namespace transmit = mobiweb::transmit;
using mobiweb::ContractViolation;
using Window = channel::FaultSchedule::Window;

namespace {

fleet::CacheConfig small_corpus() {
  fleet::CacheConfig cc;
  cc.corpus_size = 4;
  cc.seed = 77;
  return cc;
}

proxy::OriginConfig origin_config() {
  proxy::OriginConfig oc;
  oc.corpus = small_corpus();
  return oc;
}

transmit::ReceiverConfig receiver_config(const fleet::CookedDocument& cooked,
                                         bool caching = true) {
  transmit::ReceiverConfig rc;
  rc.doc_id = cooked.transmitter.doc_id();
  rc.m = cooked.transmitter.m();
  rc.n = cooked.transmitter.n();
  rc.packet_size = cooked.transmitter.packet_size();
  rc.payload_size = cooked.transmitter.payload_size();
  rc.caching = caching;
  return rc;
}

}  // namespace

// ---------------------------------------------------------------------------
// proxy::reconcile — the pure reconciliation decision (also the fuzz target).

TEST(Reconcile, MatchingGenerationsKeepEverything) {
  proxy::PartialBitmap held;
  std::vector<proxy::CachedUnit> entries;
  for (const std::uint32_t u : {0u, 1u, 5u, 63u, 64u, 200u, 255u}) {
    held.set(u);
    entries.push_back({u, 7});
  }
  const proxy::ReconcileResult r = proxy::reconcile(held, entries, 7);
  EXPECT_EQ(r.kept.size(), 7u);
  EXPECT_TRUE(r.refetch.empty());
  EXPECT_TRUE(r.bitmap == held);
}

TEST(Reconcile, GenerationMismatchLandsInRefetch) {
  proxy::PartialBitmap held;
  held.set(3);
  held.set(9);
  const std::vector<proxy::CachedUnit> entries = {{3, 4}, {9, 5}};
  const proxy::ReconcileResult r = proxy::reconcile(held, entries, 5);
  ASSERT_EQ(r.kept.size(), 1u);
  EXPECT_EQ(r.kept[0], 9u);
  ASSERT_EQ(r.refetch.size(), 1u);
  EXPECT_EQ(r.refetch[0], 3u);
  EXPECT_TRUE(r.bitmap.test(9));
  EXPECT_FALSE(r.bitmap.test(3));
}

TEST(Reconcile, UnprovenancedHeldBitIsRefetched) {
  // A held packet with no generation record cannot be trusted: conservative
  // rule, never serve stale as fresh.
  proxy::PartialBitmap held;
  held.set(12);
  const proxy::ReconcileResult r = proxy::reconcile(held, {}, 0);
  EXPECT_TRUE(r.kept.empty());
  ASSERT_EQ(r.refetch.size(), 1u);
  EXPECT_EQ(r.refetch[0], 12u);
  EXPECT_EQ(r.bitmap.count(), 0u);
}

TEST(Reconcile, ConflictingRecordsRefetch) {
  // Duplicate records for one unit where any disagrees: all must match.
  proxy::PartialBitmap held;
  held.set(8);
  const std::vector<proxy::CachedUnit> entries = {{8, 2}, {8, 1}, {8, 2}};
  const proxy::ReconcileResult r = proxy::reconcile(held, entries, 2);
  EXPECT_TRUE(r.kept.empty());
  ASSERT_EQ(r.refetch.size(), 1u);
  EXPECT_EQ(r.refetch[0], 8u);
}

TEST(Reconcile, IgnoresOutOfRangeAndUnheldRecords) {
  proxy::PartialBitmap held;
  held.set(2);
  const std::vector<proxy::CachedUnit> entries = {
      {2, 3},
      {7, 3},       // unheld: ignored
      {300, 3},     // out of range: ignored
      {0xFFFFFFFFu, 9},  // out of range: ignored
  };
  const proxy::ReconcileResult r = proxy::reconcile(held, entries, 3);
  ASSERT_EQ(r.kept.size(), 1u);
  EXPECT_EQ(r.kept[0], 2u);
  EXPECT_TRUE(r.refetch.empty());
}

TEST(Reconcile, KeptAndRefetchPartitionTheHeldSet) {
  proxy::PartialBitmap held;
  std::vector<proxy::CachedUnit> entries;
  for (std::uint32_t u = 0; u < proxy::kReconcileUnits; u += 3) {
    held.set(u);
    entries.push_back({u, u % 2});  // alternating generations
  }
  const proxy::ReconcileResult r = proxy::reconcile(held, entries, 0);
  EXPECT_EQ(r.kept.size() + r.refetch.size(), held.count());
  proxy::PartialBitmap refetch_bits;
  for (const std::uint32_t u : r.refetch) {
    EXPECT_FALSE(r.bitmap.test(u));  // disjoint
    refetch_bits.set(u);
  }
  for (const std::uint32_t u : r.kept) {
    EXPECT_TRUE(r.bitmap.test(u));
    EXPECT_FALSE(refetch_bits.test(u));
  }
  EXPECT_EQ(r.bitmap.count(), static_cast<std::uint32_t>(r.kept.size()));
}

TEST(PartialBitmap, SetTestClearCountAndBounds) {
  proxy::PartialBitmap b;
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(255);
  b.set(256);   // out of range: ignored
  b.set(9999);  // out of range: ignored
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_FALSE(b.test(256));
  b.clear(63);
  b.clear(256);  // out of range: ignored
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

// ---------------------------------------------------------------------------
// channel::HandoffSchedule — scripted cell switches.

TEST(HandoffSchedule, ParseRoundTripsAndNormalizes) {
  const auto hs = channel::HandoffSchedule::parse("7, 2.5; 7 11.25");
  ASSERT_TRUE(hs.has_value());
  ASSERT_EQ(hs->times().size(), 3u);  // duplicate 7 collapsed
  EXPECT_DOUBLE_EQ(hs->times()[0], 2.5);
  EXPECT_DOUBLE_EQ(hs->times()[1], 7.0);
  EXPECT_DOUBLE_EQ(hs->times()[2], 11.25);
  const auto again = channel::HandoffSchedule::parse(hs->to_string());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->times(), hs->times());
}

TEST(HandoffSchedule, CountInIsHalfOpenLeftExclusive) {
  const channel::HandoffSchedule hs({1.0, 2.0, 3.0});
  EXPECT_EQ(hs.count_in(0.0, 3.0), 3u);   // (0, 3] includes 3
  EXPECT_EQ(hs.count_in(1.0, 2.0), 1u);   // excludes 1, includes 2
  EXPECT_EQ(hs.count_in(3.0, 10.0), 0u);
  EXPECT_EQ(hs.count_in(2.0, 2.0), 0u);   // empty interval
  EXPECT_EQ(hs.count_in(5.0, 4.0), 0u);   // inverted interval
}

TEST(HandoffSchedule, UntrustedInputDegradesGracefully) {
  EXPECT_FALSE(channel::HandoffSchedule::parse("1, two, 3").has_value());
  EXPECT_FALSE(channel::HandoffSchedule::parse("nan").has_value());
  EXPECT_FALSE(channel::HandoffSchedule::parse("inf").has_value());
  const auto blank = channel::HandoffSchedule::parse("   ");
  ASSERT_TRUE(blank.has_value());
  EXPECT_TRUE(blank->empty());
  const auto clamped = channel::HandoffSchedule::parse("-4, 2");
  ASSERT_TRUE(clamped.has_value());
  ASSERT_EQ(clamped->times().size(), 2u);
  EXPECT_DOUBLE_EQ(clamped->times()[0], 0.0);
  EXPECT_THROW(channel::HandoffSchedule({-1.0}), ContractViolation);
}

// ---------------------------------------------------------------------------
// proxy::OriginServer — generations + reachability.

TEST(OriginServer, GenerationCombinesTimeAndPublish) {
  proxy::OriginConfig oc = origin_config();
  oc.update_interval_s = 10.0;
  proxy::OriginServer origin(oc);
  EXPECT_EQ(origin.generation(0, 0.0), 0u);
  EXPECT_EQ(origin.generation(0, 25.0), 2u);
  origin.publish(0);
  EXPECT_EQ(origin.generation(0, 25.0), 3u);
  EXPECT_EQ(origin.generation(1, 25.0), 2u);  // publish is per document
  EXPECT_THROW(origin.publish(99), ContractViolation);
}

TEST(OriginServer, FetchRefusedDuringOutage) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{5.0, 10.0}});
  proxy::OriginServer origin(oc);
  const fleet::CacheKey key{0, 1.5};
  ASSERT_TRUE(origin.fetch(key, 1.0).has_value());
  EXPECT_FALSE(origin.fetch(key, 6.0).has_value());
  EXPECT_EQ(origin.refused(), 1);
  const auto back = origin.fetch(key, 12.0);
  ASSERT_TRUE(back.has_value());
  EXPECT_NE(back->doc, nullptr);
  EXPECT_EQ(origin.fetches(), 2);
}

TEST(OriginServer, ValidateReportsCurrencyOrRefuses) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{5.0, 10.0}});
  proxy::OriginServer origin(oc);
  const fleet::CacheKey key{2, 1.5};
  const auto ok = origin.validate(key, 0, 1.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
  EXPECT_FALSE(origin.validate(key, 0, 7.0).has_value());  // origin down
  origin.publish(2);
  const auto stale = origin.validate(key, 0, 11.0);
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(*stale);
}

// ---------------------------------------------------------------------------
// proxy::EdgeProxy — replica cache + failover.

TEST(EdgeProxy, ColdFetchThenFreshHit) {
  proxy::OriginServer origin(origin_config());
  proxy::EdgeProxy edge({}, origin);
  const fleet::CacheKey key{0, 1.5};
  const proxy::ServeOutcome first = edge.serve(key, 0.0);
  ASSERT_NE(first.doc, nullptr);
  EXPECT_EQ(first.source, proxy::ServeSource::kOriginFetch);
  EXPECT_FALSE(first.stale);
  const proxy::ServeOutcome second = edge.serve(key, 1.0);
  EXPECT_EQ(second.source, proxy::ServeSource::kFreshHit);
  EXPECT_FALSE(second.stale);
  EXPECT_EQ(second.doc, first.doc);  // same immutable cooked object
  EXPECT_EQ(edge.stats().origin_fetches, 1);
  EXPECT_EQ(edge.stats().fresh_hits, 1);
  EXPECT_TRUE(edge.holds(key));
}

TEST(EdgeProxy, PublishForcesRefresh) {
  proxy::OriginServer origin(origin_config());
  proxy::EdgeProxy edge({}, origin);
  const fleet::CacheKey key{1, 1.5};
  (void)edge.serve(key, 0.0);
  EXPECT_EQ(edge.replica_generation(key), 0u);
  origin.publish(1);
  const proxy::ServeOutcome r = edge.serve(key, 1.0);
  EXPECT_EQ(r.source, proxy::ServeSource::kRefreshed);
  EXPECT_FALSE(r.stale);
  EXPECT_EQ(r.generation, 1u);
  EXPECT_EQ(edge.replica_generation(key), 1u);
  EXPECT_EQ(edge.stats().refreshes, 1);
}

TEST(EdgeProxy, OriginFadeFailsOverStaleFlagged) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{5.0, 50.0}});
  proxy::OriginServer origin(oc);
  proxy::EdgeProxy edge({}, origin);
  const fleet::CacheKey key{0, 1.5};
  (void)edge.serve(key, 0.0);  // warm while the origin answers
  origin.publish(0);           // the replica is now genuinely behind
  const proxy::ServeOutcome r = edge.serve(key, 10.0);
  ASSERT_NE(r.doc, nullptr);
  EXPECT_EQ(r.source, proxy::ServeSource::kStaleFailover);
  EXPECT_TRUE(r.stale);  // the core invariant: failover is never unflagged
  EXPECT_EQ(r.generation, 0u);
  EXPECT_EQ(edge.stats().stale_serves, 1);
  EXPECT_EQ(edge.stats().failovers, 1);
}

TEST(EdgeProxy, ColdAndCutOffIsUnavailable) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{0.0, 100.0}});
  proxy::OriginServer origin(oc);
  proxy::EdgeProxy edge({}, origin);
  const proxy::ServeOutcome r = edge.serve({0, 1.5}, 1.0);
  EXPECT_EQ(r.doc, nullptr);
  EXPECT_EQ(r.source, proxy::ServeSource::kUnavailable);
  EXPECT_EQ(edge.stats().unavailable, 1);
  EXPECT_EQ(edge.resident(), 0u);
}

// The pinned acceptance property: sweeping serve times across a scripted
// origin fade, every serving that the origin could not validate at serve time
// is flagged stale, and every unflagged serving happened with the origin up.
TEST(EdgeProxy, StaleReplicaNeverServedUnflagged) {
  const std::vector<Window> windows = {{2.0, 4.0}, {6.0, 9.0}};
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(windows);
  oc.update_interval_s = 1.5;  // generations churn underneath
  proxy::OriginServer origin(oc);
  proxy::EdgeProxy edge({}, origin);
  const fleet::CacheKey key{3, 1.5};
  const auto origin_up_at = [&](double t) {
    for (const Window& w : windows) {
      if (t >= w.begin && t < w.end) return false;
    }
    return true;
  };
  for (double t = 0.0; t <= 10.0; t += 0.5) {
    const proxy::ServeOutcome r = edge.serve(key, t);
    if (!origin_up_at(t)) {
      ASSERT_NE(r.doc, nullptr);  // warmed at t=0, so failover always serves
      EXPECT_TRUE(r.stale) << "unflagged stale serving at t=" << t;
    } else {
      EXPECT_FALSE(r.stale) << "origin was up at t=" << t;
    }
  }
  EXPECT_GT(edge.stats().stale_serves, 0);
}

TEST(EdgeProxy, ServesTheOriginCorpusOwnDocument) {
  // A replica is a pointer into the origin's corpus, never a copy: every
  // serving path hands out the very document the corpus built.
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{5.0, 10.0}});
  proxy::OriginServer origin(oc);
  proxy::EdgeProxy edge({}, origin);
  const fleet::CacheKey key{2, 1.5};
  const fleet::CookedDocument* own = origin.corpus().get(key);
  const proxy::ServeOutcome fetched = edge.serve(key, 0.0);
  EXPECT_EQ(fetched.source, proxy::ServeSource::kOriginFetch);
  EXPECT_EQ(fetched.doc, own);
  EXPECT_EQ(edge.serve(key, 1.0).doc, own);  // fresh hit
  origin.publish(2);
  const proxy::ServeOutcome refreshed = edge.serve(key, 2.0);
  EXPECT_EQ(refreshed.source, proxy::ServeSource::kRefreshed);
  EXPECT_EQ(refreshed.doc, own);
  const proxy::ServeOutcome failover = edge.serve(key, 6.0);
  EXPECT_EQ(failover.source, proxy::ServeSource::kStaleFailover);
  EXPECT_EQ(failover.doc, own);
}

TEST(EdgeProxy, MetricsMirrorServeOutcomes) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{5.0, 10.0}});
  proxy::OriginServer origin(oc);
  proxy::EdgeProxy edge({}, origin);
  mobiweb::obs::MetricsRegistry reg;
  edge.set_metrics(&reg);
  const fleet::CacheKey key{0, 1.5};
  (void)edge.serve(key, 0.0);  // origin fetch
  (void)edge.serve(key, 1.0);  // fresh hit
  (void)edge.serve(key, 6.0);  // stale failover
  EXPECT_EQ(reg.counter("proxy.edge.origin_fetches").value(), 1);
  EXPECT_EQ(reg.counter("proxy.edge.fresh_hits").value(), 1);
  EXPECT_EQ(reg.counter("proxy.edge.stale_serves").value(), 1);
  EXPECT_EQ(reg.counter("proxy.edge.failovers").value(), 1);
  edge.set_metrics(nullptr);
  (void)edge.serve(key, 11.0);
  EXPECT_EQ(reg.counter("proxy.edge.fresh_hits").value(), 1);  // detached
}

// ---------------------------------------------------------------------------
// transmit::ClientReceiver::reset_cache — the reconciliation hook.

TEST(ClientReceiver, ResetCacheDropsPacketsEvenWithCachingOn) {
  proxy::OriginServer origin(origin_config());
  const auto cooked = origin.corpus().get({0, 1.5});
  transmit::ClientReceiver rx(receiver_config(*cooked, /*caching=*/true),
                              cooked->transmitter.document().segments);
  // Feed just under m intact frames directly (no channel: frames arrive clean).
  const std::size_t feed = cooked->transmitter.m() - 1;
  for (std::size_t i = 0; i < feed; ++i) {
    rx.on_frame(mobiweb::ByteSpan(cooked->transmitter.frame(i)));
  }
  EXPECT_EQ(rx.intact_count(), feed);
  EXPECT_GT(rx.content_received(), 0.0);
  rx.on_round_end();  // caching on: a round boundary must NOT drop the cache
  EXPECT_EQ(rx.intact_count(), feed);
  rx.reset_cache();  // reconciliation drop is unconditional
  EXPECT_EQ(rx.intact_count(), 0u);
  EXPECT_EQ(rx.content_received(), 0.0);
  EXPECT_FALSE(rx.complete());
  // The cache is usable again after the drop.
  rx.on_frame(mobiweb::ByteSpan(cooked->transmitter.frame(0)));
  EXPECT_EQ(rx.intact_count(), 1u);
}

// ---------------------------------------------------------------------------
// proxy::ProxyResilientSession — the full driver on the real stack.

namespace {

struct SessionRig {
  proxy::OriginServer origin;
  proxy::EdgeProxy edge_a;
  proxy::EdgeProxy edge_b;
  channel::WirelessChannel ch;

  explicit SessionRig(proxy::OriginConfig oc = origin_config(),
                      double alpha = 0.0, std::uint64_t channel_seed = 1)
      : origin(oc), edge_a({.proxy_id = 0}, origin),
        edge_b({.proxy_id = 1}, origin),
        ch(channel::ChannelConfig{.seed = channel_seed},
           std::make_unique<channel::IidErrorModel>(alpha)) {}

  std::vector<proxy::EdgeProxy*> pool() { return {&edge_a, &edge_b}; }
};

}  // namespace

TEST(ProxyResilientSession, ValidatesConfigAndPool) {
  SessionRig rig;
  EXPECT_THROW(proxy::ProxyResilientSession({}, rig.ch), ContractViolation);
  EXPECT_THROW(proxy::ProxyResilientSession({nullptr}, rig.ch),
               ContractViolation);
  proxy::ProxySessionConfig cfg;
  cfg.retry.retry_budget = 0;
  EXPECT_THROW(proxy::ProxyResilientSession(rig.pool(), rig.ch, cfg),
               ContractViolation);
}

// With the origin always up and no handoffs, the proxied driver is the
// resilient driver plus an edge lookup: the transfer outcome over an
// identically-seeded channel matches ResilientSession field-for-field.
TEST(ProxyResilientSession, CleanOriginMatchesResilientSession) {
  const fleet::CacheKey key{0, 1.5};
  SessionRig rig(origin_config(), /*alpha=*/0.2, /*channel_seed=*/42);
  proxy::ProxyResilientSession session(rig.pool(), rig.ch);
  const proxy::ProxySessionResult got = session.run(key);

  // Fresh identical channel + the same cooked document through the plain
  // resilient driver.
  proxy::OriginServer origin2(origin_config());
  const auto cooked = origin2.corpus().get(key);
  transmit::ClientReceiver rx(receiver_config(*cooked),
                              cooked->transmitter.document().segments);
  channel::WirelessChannel ch2(channel::ChannelConfig{.seed = 42},
                               std::make_unique<channel::IidErrorModel>(0.2));
  transmit::ResilientSession plain(cooked->transmitter, rx, ch2, {});
  const transmit::ResilientResult want = plain.run();

  EXPECT_EQ(got.session.status, want.session.status);
  EXPECT_EQ(got.session.rounds, want.session.rounds);
  EXPECT_EQ(got.session.frames_sent, want.session.frames_sent);
  EXPECT_EQ(got.session.response_time, want.session.response_time);
  EXPECT_EQ(got.session.content_received, want.session.content_received);
  EXPECT_EQ(got.request_attempts, want.request_attempts);
  EXPECT_EQ(got.partial.units.size(), want.partial.units.size());
  // Edge accounting: one cold fetch, no failover, nothing stale.
  EXPECT_EQ(got.proxy.origin_fetches, 1);
  EXPECT_EQ(got.proxy.failovers, 0);
  EXPECT_EQ(got.proxy.stale_serves, 0);
  EXPECT_EQ(got.proxy.stale_frames, 0);
  EXPECT_FALSE(got.proxy.ended_stale);
}

TEST(ProxyResilientSession, ColdPoolDeadOriginDegradesOnBudget) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{0.0, 1e9}});
  SessionRig rig(oc);
  proxy::ProxySessionConfig cfg;
  cfg.retry.retry_budget = 4;
  proxy::ProxyResilientSession session(rig.pool(), rig.ch, cfg);
  const proxy::ProxySessionResult r = session.run({0, 1.5});
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kDegraded);
  EXPECT_EQ(r.request_attempts, 4);
  EXPECT_GT(r.proxy.failovers, 0);
  EXPECT_EQ(r.proxy.origin_suspensions, 0);  // the origin never came back
  EXPECT_EQ(r.session.frames_sent, 0);       // nothing was ever served
  EXPECT_TRUE(r.partial.empty());
  EXPECT_GT(r.backoff_total_s, 0.0);
}

TEST(ProxyResilientSession, RidesOutAnOriginFadeThenCompletes) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{0.0, 2.0}});
  SessionRig rig(oc);
  proxy::ProxyResilientSession session(rig.pool(), rig.ch);
  const proxy::ProxySessionResult r = session.run({0, 1.5});
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(r.proxy.origin_suspensions, 1);
  EXPECT_GT(r.request_attempts, 0);  // the wait consumed budget
  EXPECT_FALSE(r.proxy.ended_stale);
}

// A proxy warmed before an origin fade keeps serving through it — flagged.
// With a clean link the transfer completes in one round while stale: every
// banked packet is counted in stale_frames and the result says ended_stale.
TEST(ProxyResilientSession, CompletesStaleFlaggedDuringOriginFade) {
  proxy::OriginConfig oc = origin_config();
  oc.outage = std::make_shared<channel::FaultSchedule>(
      std::vector<Window>{{0.5, 1e9}});  // up only long enough for the warm
  SessionRig rig(oc);
  const fleet::CacheKey key{0, 1.5};
  rig.edge_a.warm(key, 0.0);
  rig.ch.advance(1.0);  // the session starts inside the origin fade
  proxy::ProxyResilientSession session(rig.pool(), rig.ch);
  const proxy::ProxySessionResult r = session.run(key);
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_TRUE(r.proxy.ended_stale);
  EXPECT_EQ(r.proxy.stale_serves, 1);
  EXPECT_EQ(r.proxy.failovers, 1);
  // Clean link, frames delivered in order: completion lands on the m-th.
  const auto cooked = rig.origin.corpus().get(key);
  EXPECT_EQ(r.proxy.stale_frames,
            static_cast<long>(cooked->transmitter.m()));
}

// Link outage stalls the transfer across a generation boundary: the resumed
// client revalidates (replica refreshed) and reconciliation drops the cached
// packets fetched under the old generation — stale units re-fetched, session
// still completes.
TEST(ProxyResilientSession, ResumeReconciliationRefetchesAcrossGenerations) {
  const fleet::CacheKey key{0, 1.5};
  // Scout the cooked geometry first: the origin's update interval must land
  // between the round-1 airtime and the resume time.
  fleet::DocumentCache scout(small_corpus());
  const auto cooked = scout.get(key);
  channel::WirelessChannel probe(channel::ChannelConfig{},
                                 std::make_unique<channel::IidErrorModel>(0.0));
  const double T = probe.transmit_time(cooked->frame_size);
  const std::size_t n = cooked->transmitter.n();
  const std::size_t m = cooked->transmitter.m();
  ASSERT_GE(m, 5u);
  const double round1_end = static_cast<double>(n) * T;

  proxy::OriginConfig oc = origin_config();
  // Generation 0 throughout round 1, generation 1 by the time the link
  // returns at round1_end + 40 (the backoff ladder overshoots past it).
  oc.update_interval_s = round1_end + 20.0;
  SessionRig rig(oc);
  // Window 1 swallows the first `lost` frames of round 1 (depart times
  // T..lost*T); window 2 starts at the round-1 boundary, so the round ends
  // inside a fade and the session suspends.
  const std::size_t lost = n - m + 3;
  rig.ch.set_outage(std::make_unique<channel::FaultSchedule>(
      std::vector<Window>{{0.5 * T, (static_cast<double>(lost) + 0.5) * T},
                          {round1_end, round1_end + 40.0}}));
  proxy::ProxySessionConfig cfg;
  cfg.retry.retry_budget = 64;
  proxy::ProxyResilientSession session(rig.pool(), rig.ch, cfg);
  const proxy::ProxySessionResult r = session.run(key);
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  EXPECT_EQ(r.outages_ridden, 1);
  EXPECT_GE(r.proxy.reconciliations, 1);
  // Round-1 survivors (everything but the `lost` head frames) were cached
  // under generation 0 and dropped on resume against the refreshed
  // generation-1 replica.
  EXPECT_EQ(r.proxy.packets_refetched, static_cast<long>(n - lost));
  EXPECT_GE(r.proxy.origin_fetches, 2);  // cold fetch + post-resume refresh
  EXPECT_FALSE(r.proxy.ended_stale);
}

// A scripted handoff mid-transfer rebinds to the next proxy of the pool; the
// generation is unchanged, so reconciliation keeps the cache and the resumed
// transfer needs no re-fetches.
TEST(ProxyResilientSession, ScriptedHandoffSwitchesProxyKeepingCache) {
  SessionRig rig(origin_config(), /*alpha=*/0.6, /*channel_seed=*/7);
  const fleet::CacheKey key{0, 1.5};
  proxy::ProxySessionConfig cfg;
  cfg.handoffs = channel::HandoffSchedule({1e-3});  // inside round 1 airtime
  cfg.retry.retry_budget = 64;
  proxy::ProxyResilientSession session(rig.pool(), rig.ch, cfg);
  const proxy::ProxySessionResult r = session.run(key);
  ASSERT_GT(r.session.rounds, 1);  // alpha 0.6 stalls round 1
  EXPECT_EQ(r.proxy.handoffs, 1);
  EXPECT_EQ(r.serving_proxy, 1u);  // moved from proxy 0 to proxy 1
  EXPECT_GE(r.proxy.reconciliations, 1);
  EXPECT_EQ(r.proxy.packets_refetched, 0);  // same generation: cache kept
  EXPECT_EQ(r.session.status, transmit::SessionStatus::kCompleted);
  // Both cells touched the edge tier.
  EXPECT_GT(rig.edge_a.stats().origin_fetches, 0);
  EXPECT_GT(rig.edge_b.stats().origin_fetches +
                rig.edge_b.stats().fresh_hits,
            0l);
}

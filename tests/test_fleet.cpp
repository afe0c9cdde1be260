// fleet: sharded engine + shared pre-encoded document cache.
//
// The load-bearing properties pinned here:
//   * determinism — (seed, shards) reproduces aggregates bit-for-bit, and
//     every aggregate (plus cache hit/miss counts) is bit-identical across
//     shard counts;
//   * per-session parity — the fleet state machine is sim::simulate_transfer
//     exactly (same draw order), so per-session results are bit-equal;
//   * cache dedup — one build per (document, gamma) no matter how many
//     threads race on the key, and cooked frames decode back to the payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "ida/ida.hpp"
#include "sim/transfer.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace mw = mobiweb;
namespace fleet = mobiweb::fleet;
namespace sim = mobiweb::sim;

namespace {

fleet::FleetConfig small_config(std::size_t sessions) {
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size = 8;
  cfg.corpus.seed = 77;
  cfg.sessions = sessions;
  cfg.seed = 1234;
  cfg.alpha = 0.25;
  cfg.request_delay = 2.0;
  cfg.max_rounds = 25;
  cfg.record_outcomes = true;
  return cfg;
}

void expect_proxy_totals_equal(const fleet::FleetProxyTotals& a,
                               const fleet::FleetProxyTotals& b) {
  EXPECT_EQ(a.replica_hits, b.replica_hits);
  EXPECT_EQ(a.stale_serves, b.stale_serves);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.origin_fetches, b.origin_fetches);
  EXPECT_EQ(a.origin_suspensions, b.origin_suspensions);
  EXPECT_EQ(a.reconciliations, b.reconciliations);
  EXPECT_EQ(a.packets_refetched, b.packets_refetched);
  EXPECT_EQ(a.stale_frames, b.stale_frames);
  EXPECT_EQ(a.sessions_ended_stale, b.sessions_ended_stale);
  EXPECT_EQ(a.origin_generation_bumps, b.origin_generation_bumps);
  EXPECT_EQ(a.reconcile_dropped_packets, b.reconcile_dropped_packets);
}

// Every simulated aggregate of two runs, bit for bit.
void expect_identical(const fleet::FleetResult& a, const fleet::FleetResult& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.aborted_irrelevant, b.aborted_irrelevant);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.suspensions, b.suspensions);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.content, b.content);            // bit-equal, not just near
  EXPECT_EQ(a.session_time_s, b.session_time_s);
  EXPECT_EQ(a.backoff_s, b.backoff_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  const auto tails = [](const fleet::FleetResult& r) {
    const mw::stats::TailSummary& t = r.session_time_tails;
    return std::tie(t.count, t.mean, t.stddev, t.ci95, t.min, t.max, t.p50, t.p95,
                    t.p99, t.p999);
  };
  EXPECT_TRUE(tails(a) == tails(b));
  expect_proxy_totals_equal(a.proxy, b.proxy);
}

// Rebuilds the exact TransferConfig a fleet session ran under, for parity
// runs against the analytic oracles.
sim::TransferConfig base_transfer_config(const fleet::FleetConfig& cfg,
                                         const fleet::CookedDocument& cooked) {
  sim::TransferConfig tc;
  tc.m = static_cast<int>(cooked.transmitter.m());
  tc.n = static_cast<int>(cooked.transmitter.n());
  tc.alpha = cfg.alpha;
  tc.caching = cfg.caching;
  tc.relevance_threshold = cfg.relevance_threshold;
  tc.time_per_packet =
      static_cast<double>(cooked.frame_size) * 8.0 / cfg.bandwidth_bps;
  tc.request_delay = cfg.request_delay;
  tc.max_rounds = cfg.max_rounds;
  return tc;
}

void expect_session_matches_resilient_oracle(const fleet::FleetConfig& cfg,
                                             fleet::FleetEngine& engine,
                                             const fleet::SessionOutcome& out) {
  const auto cooked = engine.cache().get(out.key);
  sim::ResilientTransferConfig rc;
  rc.base = base_transfer_config(cfg, *cooked);
  rc.retry = cfg.retry;
  rc.jitter_seed = fleet::session_jitter_seed(cfg.seed, out.session);
  // The session's private outage process: a fresh clone of the prototype on
  // the session-relative link timeline, driven by the per-session stream.
  const std::shared_ptr<mw::channel::OutageModel> model =
      cfg.outage->session_clone();
  const auto outage_rng = std::make_shared<mw::Rng>(
      fleet::session_outage_seed(cfg.seed, out.session));
  rc.base.link_up = [model, outage_rng](double t) {
    return model->link_up(t, *outage_rng);
  };
  mw::Rng rng(fleet::session_seed(cfg.seed, out.session));
  const sim::TransferResult expected =
      sim::simulate_resilient_transfer(cooked->clear_content, rc, rng);

  EXPECT_EQ(out.result.packets, expected.packets);
  EXPECT_EQ(out.result.rounds, expected.rounds);
  EXPECT_EQ(out.result.completed, expected.completed);
  EXPECT_EQ(out.result.aborted_irrelevant, expected.aborted_irrelevant);
  EXPECT_EQ(out.result.gave_up, expected.gave_up);
  EXPECT_EQ(out.result.degraded, expected.degraded);
  EXPECT_EQ(out.result.content, expected.content);  // bit-equal
  EXPECT_EQ(out.result.time, expected.time);
  EXPECT_EQ(out.result.frames_lost, expected.frames_lost);
  EXPECT_EQ(out.result.suspensions, expected.suspensions);
  EXPECT_EQ(out.result.request_attempts, expected.request_attempts);
  EXPECT_EQ(out.result.backoff_s, expected.backoff_s);
}

}  // namespace

TEST(FleetEngine, DeterministicForFixedSeedAndShards) {
  const fleet::FleetConfig cfg = small_config(64);
  fleet::FleetEngine first(cfg);
  fleet::FleetEngine second(cfg);
  const fleet::FleetResult a = first.run();
  const fleet::FleetResult b = second.run();
  expect_identical(a, b);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].result.time, b.outcomes[i].result.time);
    EXPECT_EQ(a.outcomes[i].result.packets, b.outcomes[i].result.packets);
    EXPECT_EQ(a.outcomes[i].result.content, b.outcomes[i].result.content);
  }
}

TEST(FleetEngine, IntegerAggregatesInvariantAcrossShardCounts) {
  fleet::FleetConfig cfg = small_config(60);
  cfg.shards = 1;
  fleet::FleetEngine serial(cfg);
  const fleet::FleetResult a = serial.run();

  mw::ThreadPool pool(3);
  cfg.shards = 4;
  fleet::FleetEngine sharded(cfg);
  const fleet::FleetResult b = sharded.run(&pool);

  // Cache accounting is invariant too (misses == distinct (doc, gamma) keys,
  // hits == one serving per session), and the double sums run in session
  // order, so every aggregate is bit-equal.
  expect_identical(a, b);
  EXPECT_EQ(b.shards, 4u);
}

TEST(FleetEngine, PerSessionParityWithAnalyticSimulator) {
  fleet::FleetConfig cfg = small_config(40);
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 40u);

  for (const fleet::SessionOutcome& out : r.outcomes) {
    const auto cooked = engine.cache().get(out.key);
    sim::TransferConfig tc;
    tc.m = static_cast<int>(cooked->transmitter.m());
    tc.n = static_cast<int>(cooked->transmitter.n());
    tc.alpha = cfg.alpha;
    tc.caching = cfg.caching;
    tc.relevance_threshold = cfg.relevance_threshold;
    tc.time_per_packet =
        static_cast<double>(cooked->frame_size) * 8.0 / cfg.bandwidth_bps;
    tc.request_delay = cfg.request_delay;
    tc.max_rounds = cfg.max_rounds;
    mw::Rng rng(fleet::session_seed(cfg.seed, out.session));
    const sim::TransferResult expected =
        sim::simulate_transfer(cooked->clear_content, tc, rng);

    EXPECT_EQ(out.result.packets, expected.packets);
    EXPECT_EQ(out.result.rounds, expected.rounds);
    EXPECT_EQ(out.result.completed, expected.completed);
    EXPECT_EQ(out.result.aborted_irrelevant, expected.aborted_irrelevant);
    EXPECT_EQ(out.result.gave_up, expected.gave_up);
    EXPECT_EQ(out.result.content, expected.content);  // bit-equal
    EXPECT_EQ(out.result.time, expected.time);
  }
}

TEST(FleetEngine, ParityHoldsWithoutCachingAndWithRelevanceThreshold) {
  fleet::FleetConfig cfg = small_config(24);
  cfg.caching = false;
  cfg.relevance_threshold = 0.5;
  cfg.alpha = 0.4;
  cfg.max_rounds = 6;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 24u);

  long classified = 0;
  for (const fleet::SessionOutcome& out : r.outcomes) {
    const auto cooked = engine.cache().get(out.key);
    sim::TransferConfig tc;
    tc.m = static_cast<int>(cooked->transmitter.m());
    tc.n = static_cast<int>(cooked->transmitter.n());
    tc.alpha = cfg.alpha;
    tc.caching = cfg.caching;
    tc.relevance_threshold = cfg.relevance_threshold;
    tc.time_per_packet =
        static_cast<double>(cooked->frame_size) * 8.0 / cfg.bandwidth_bps;
    tc.request_delay = cfg.request_delay;
    tc.max_rounds = cfg.max_rounds;
    mw::Rng rng(fleet::session_seed(cfg.seed, out.session));
    const sim::TransferResult expected =
        sim::simulate_transfer(cooked->clear_content, tc, rng);
    EXPECT_EQ(out.result.completed, expected.completed);
    EXPECT_EQ(out.result.aborted_irrelevant, expected.aborted_irrelevant);
    EXPECT_EQ(out.result.gave_up, expected.gave_up);
    EXPECT_EQ(out.result.content, expected.content);
    EXPECT_EQ(out.result.time, expected.time);
    classified += (out.result.completed ? 1 : 0) +
                  (out.result.aborted_irrelevant ? 1 : 0) +
                  (out.result.gave_up ? 1 : 0);
  }
  // Every session terminates in exactly one of the three states.
  EXPECT_EQ(classified, 24);
  EXPECT_EQ(r.completed + r.aborted_irrelevant + r.gave_up,
            static_cast<long>(r.sessions));
}

TEST(FleetEngine, CleanChannelCompletesEverySessionInOneRound) {
  fleet::FleetConfig cfg = small_config(32);
  cfg.alpha = 0.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  EXPECT_EQ(r.completed, 32);
  EXPECT_EQ(r.gave_up, 0);
  EXPECT_EQ(r.rounds, 32);  // one round each
  // With no corruption a session needs exactly m frames (the systematic
  // clear-text prefix) to reconstruct.
  long expected_frames = 0;
  for (const fleet::SessionOutcome& out : r.outcomes) {
    const auto cooked = engine.cache().get(out.key);
    expected_frames += static_cast<long>(cooked->transmitter.m());
    EXPECT_EQ(out.result.rounds, 1);
  }
  EXPECT_EQ(r.frames_sent, expected_frames);
}

TEST(FleetEngine, HostileChannelGivesUpAtTheRoundCap) {
  fleet::FleetConfig cfg = small_config(16);
  cfg.alpha = 0.95;
  cfg.max_rounds = 3;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  EXPECT_GT(r.gave_up, 0);
  EXPECT_EQ(r.completed + r.gave_up + r.aborted_irrelevant,
            static_cast<long>(r.sessions));
  for (const fleet::SessionOutcome& out : r.outcomes) {
    EXPECT_LE(out.result.rounds, 3);
  }
}

TEST(FleetEngine, ArrivalSpreadStaggersSessionStarts) {
  fleet::FleetConfig cfg = small_config(20);
  cfg.arrival_spread_s = 100.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  double prev = -1.0;
  for (const fleet::SessionOutcome& out : r.outcomes) {
    EXPECT_GT(out.start_s, prev);
    EXPECT_LT(out.start_s, 100.0);
    prev = out.start_s;
  }
  EXPECT_GE(r.makespan_s, prev);
}

TEST(FleetEngine, GammaMixKeysTheCachePerGamma) {
  fleet::FleetConfig cfg = small_config(42);
  cfg.corpus.corpus_size = 3;
  cfg.gammas = {1.0, 1.5};
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  // Documents and gammas cycle with coprime periods (3 and 2), so all
  // 3 x 2 = 6 (document, gamma) keys occur; every session is a warm hit.
  EXPECT_EQ(r.cache_misses, 6);
  EXPECT_EQ(r.cache_hits, static_cast<long>(r.sessions));
  EXPECT_EQ(engine.cache().size(), 6u);
  // gamma=1.0 means n == m (no redundancy); gamma=1.5 means
  // n = ida::cooked_count(m, 1.5) > m.
  const auto lean = engine.cache().get({0, 1.0});
  const auto fat = engine.cache().get({0, 1.5});
  EXPECT_EQ(lean->transmitter.n(), lean->transmitter.m());
  EXPECT_GT(fat->transmitter.n(), fat->transmitter.m());
}

// ---- DocumentCache ----

TEST(DocumentCache, RacingThreadsBuildEachKeyOnce) {
  fleet::CacheConfig cc;
  cc.corpus_size = 2;
  cc.seed = 9;
  fleet::DocumentCache cache(cc);
  constexpr int kThreads = 8;
  std::vector<const fleet::CookedDocument*> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&cache, &seen, i] { seen[static_cast<std::size_t>(i)] = cache.get({1, 1.5}); });
  }
  for (auto& t : threads) t.join();
  ASSERT_NE(seen[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
  }
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), kThreads - 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DocumentCache, ServedDocumentKeepsItsAddress) {
  // The engine's walks read their document in place without pinning it, so a
  // served document must stay at one address while other keys are built and
  // while explain() and run() look documents up again.
  fleet::FleetConfig cfg = small_config(16);
  fleet::FleetEngine engine(cfg);
  const fleet::CacheKey key{0, cfg.gammas.front()};
  const fleet::CookedDocument* served = engine.cache().get(key);
  const std::vector<double> content = served->clear_content;
  std::vector<fleet::CacheKey> others;
  for (std::uint32_t d = 1; d < cfg.corpus.corpus_size; ++d) {
    others.push_back({d, cfg.gammas.front()});
    others.push_back({d, 2.5});
  }
  mw::ThreadPool pool(2);
  engine.cache().prefill(others, &pool);
  EXPECT_EQ(engine.cache().get(key), served);
  (void)engine.explain(0);  // session 0 is served document 0
  (void)engine.explain(5);
  EXPECT_EQ(engine.cache().get(key), served);
  (void)engine.run(&pool);
  EXPECT_EQ(engine.cache().get(key), served);
  EXPECT_EQ(served->clear_content, content);
}

TEST(DocumentCache, PrefillDeduplicatesAndBatchesBuilds) {
  fleet::CacheConfig cc;
  cc.corpus_size = 4;
  cc.seed = 11;
  fleet::DocumentCache cache(cc);
  std::vector<fleet::CacheKey> keys;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint32_t d = 0; d < 4; ++d) keys.push_back({d, 1.5});
  }
  mw::ThreadPool pool(2);
  cache.prefill(keys, &pool);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.hits(), 0);
  // A second prefill over the same keys is all warm.
  cache.prefill(keys, &pool);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.hits(), 4);
}

TEST(DocumentCache, CookedDocumentIsInternallyConsistent) {
  fleet::CacheConfig cc;
  cc.corpus_size = 3;
  cc.seed = 5;
  fleet::DocumentCache cache(cc);
  const auto cooked = cache.get({2, 1.5});
  const std::size_t m = cooked->transmitter.m();
  EXPECT_EQ(cooked->clear_content.size(), m);
  EXPECT_GT(cooked->total_content, 0.99);  // normalized content sums to ~1
  EXPECT_LT(cooked->total_content, 1.01);
  double sum = 0.0;
  for (double c : cooked->clear_content) sum += c;
  EXPECT_EQ(sum, cooked->total_content);
  // Wire frames carry header + CRC on top of the packet payload.
  EXPECT_GT(cooked->frame_size, cc.doc.packet_size);
  EXPECT_EQ(cooked->transmitter.frames().size(), cooked->transmitter.n());
}

TEST(DocumentCache, CookedFramesDecodeBackToThePayload) {
  fleet::CacheConfig cc;
  cc.corpus_size = 2;
  cc.seed = 21;
  fleet::DocumentCache cache(cc);
  const fleet::CacheKey key{1, 1.5};
  const auto cooked = cache.get(key);

  mw::transmit::ReceiverConfig rc;
  rc.doc_id = cooked->transmitter.doc_id();
  rc.m = cooked->transmitter.m();
  rc.n = cooked->transmitter.n();
  rc.packet_size = cooked->transmitter.packet_size();
  rc.payload_size = cooked->transmitter.payload_size();
  mw::transmit::ClientReceiver receiver(rc,
                                        cooked->transmitter.document().segments);
  // The parity tail alone (skipping the systematic prefix) must reconstruct.
  for (std::size_t i = rc.n - rc.m; i < rc.n; ++i) {
    const auto fr = receiver.on_frame(mw::ByteSpan(cooked->transmitter.frame(i)));
    EXPECT_TRUE(fr.intact);
  }
  ASSERT_TRUE(receiver.complete());
  EXPECT_EQ(receiver.reconstruct(), cooked->transmitter.document().payload);
}

TEST(DocumentCache, DocumentSeedIsStablePerIndex) {
  EXPECT_EQ(fleet::document_seed(7, 3), fleet::document_seed(7, 3));
  EXPECT_NE(fleet::document_seed(7, 3), fleet::document_seed(7, 4));
  EXPECT_NE(fleet::document_seed(7, 3), fleet::document_seed(8, 3));
}

// ---- Weak connectivity (outage / suspend / degraded) ----

namespace {

fleet::FleetConfig outage_config(std::size_t sessions) {
  fleet::FleetConfig cfg = small_config(sessions);
  cfg.outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.3, 5.0));
  cfg.retry.retry_budget = 12;
  cfg.retry.initial_timeout_s = 0.5;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.max_backoff_s = 30.0;
  cfg.retry.jitter = 0.1;
  return cfg;
}

}  // namespace

TEST(FleetOutage, PerSessionParityWithResilientOracleUnderMarkovFades) {
  fleet::FleetConfig cfg = outage_config(32);
  // Staggered starts must not perturb the parity: the link timeline is
  // session-relative, so the oracle (which always starts at t = 0) agrees.
  cfg.arrival_spread_s = 50.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 32u);
  long suspensions = 0;
  for (const fleet::SessionOutcome& out : r.outcomes) {
    expect_session_matches_resilient_oracle(cfg, engine, out);
    suspensions += out.result.suspensions;
  }
  // The duty cycle is aggressive enough that the suspend path actually ran.
  EXPECT_GT(suspensions, 0);
  EXPECT_EQ(r.suspensions, suspensions);
  EXPECT_EQ(r.completed + r.gave_up + r.aborted_irrelevant + r.degraded,
            static_cast<long>(r.sessions));
}

TEST(FleetOutage, ParityHoldsWithFaultScheduleNoCachingAndRelevance) {
  fleet::FleetConfig cfg = outage_config(24);
  cfg.outage = std::make_shared<mw::channel::FaultSchedule>(
      std::vector<mw::channel::FaultSchedule::Window>{{2.0, 4.0}, {9.0, 40.0}});
  cfg.caching = false;
  cfg.relevance_threshold = 0.5;
  cfg.alpha = 0.3;
  cfg.max_rounds = 6;
  cfg.retry.retry_budget = 10;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 24u);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    expect_session_matches_resilient_oracle(cfg, engine, out);
  }
}

TEST(FleetOutage, MatchesRealResilientSessionUnderFaultSchedule) {
  // The fleet walk against the *real* stack: DocumentTransmitter frames over
  // a WirelessChannel with the same deterministic fault schedule, driven by
  // transmit::ResilientSession. With a clean error model (alpha = 0) the only
  // nondeterminism is the jitter stream, which both sides seed identically,
  // so the walks agree decision-for-decision.
  fleet::FleetConfig cfg = small_config(6);
  cfg.corpus.corpus_size = 3;
  cfg.alpha = 0.0;
  cfg.request_delay = 1.0;
  cfg.max_rounds = 8;
  const std::vector<mw::channel::FaultSchedule::Window> windows = {{3.0, 20.0}};
  cfg.outage = std::make_shared<mw::channel::FaultSchedule>(windows);
  cfg.retry.retry_budget = 16;
  cfg.retry.jitter = 0.1;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 6u);

  long suspensions = 0;
  for (const fleet::SessionOutcome& out : r.outcomes) {
    const auto cooked = engine.cache().get(out.key);
    mw::transmit::ReceiverConfig rc;
    rc.doc_id = cooked->transmitter.doc_id();
    rc.m = cooked->transmitter.m();
    rc.n = cooked->transmitter.n();
    rc.packet_size = cooked->transmitter.packet_size();
    rc.payload_size = cooked->transmitter.payload_size();
    rc.caching = cfg.caching;
    mw::transmit::ClientReceiver receiver(rc,
                                          cooked->transmitter.document().segments);
    mw::channel::ChannelConfig cc;
    cc.bandwidth_bps = cfg.bandwidth_bps;
    cc.feedback_delay_s = cfg.request_delay;  // the fleet's re-request charge
    mw::channel::WirelessChannel ch(
        cc, std::make_unique<mw::channel::IidErrorModel>(0.0));
    ch.set_outage(std::make_unique<mw::channel::FaultSchedule>(windows));

    mw::transmit::ResilientConfig scfg;
    scfg.relevance_threshold = cfg.relevance_threshold;
    scfg.max_rounds = cfg.max_rounds;
    scfg.retry.retry_budget = cfg.retry.retry_budget;
    scfg.retry.initial_timeout_s = cfg.retry.initial_timeout_s;
    scfg.retry.backoff_multiplier = cfg.retry.backoff_multiplier;
    scfg.retry.max_backoff_s = cfg.retry.max_backoff_s;
    scfg.retry.jitter = cfg.retry.jitter;
    scfg.retry.deadline_s = cfg.retry.deadline_s;
    scfg.jitter_seed = fleet::session_jitter_seed(cfg.seed, out.session);
    mw::transmit::ResilientSession session(cooked->transmitter, receiver, ch,
                                           scfg);
    const mw::transmit::ResilientResult rr = session.run();

    EXPECT_EQ(out.result.completed,
              rr.session.status == mw::transmit::SessionStatus::kCompleted);
    EXPECT_EQ(out.result.degraded,
              rr.session.status == mw::transmit::SessionStatus::kDegraded);
    EXPECT_EQ(out.result.gave_up,
              rr.session.status == mw::transmit::SessionStatus::kGaveUp);
    EXPECT_EQ(out.result.rounds, rr.session.rounds);
    EXPECT_EQ(out.result.packets, rr.session.frames_sent);
    EXPECT_EQ(out.result.request_attempts, rr.request_attempts);
    EXPECT_EQ(out.result.suspensions, rr.outages_ridden);
    EXPECT_EQ(out.result.frames_lost, ch.stats().frames_lost);
    EXPECT_EQ(out.result.backoff_s, rr.backoff_total_s);  // bit-equal waits
    suspensions += out.result.suspensions;
  }
  // The schedule is built to force a suspend/resume ride in every session.
  EXPECT_EQ(suspensions, 6);
}

TEST(FleetOutage, DeterministicAndShardInvariantWithOutages) {
  fleet::FleetConfig cfg = outage_config(60);
  cfg.retry.retry_budget = 8;  // tight enough that some sessions degrade
  cfg.shards = 1;
  fleet::FleetEngine serial(cfg);
  fleet::FleetEngine again(cfg);
  const fleet::FleetResult a = serial.run();
  expect_identical(a, again.run());  // fixed (seed, shards) reproduces

  mw::ThreadPool pool(3);
  cfg.shards = 4;
  fleet::FleetEngine sharded(cfg);
  const fleet::FleetResult b = sharded.run(&pool);
  EXPECT_EQ(b.shards, 4u);
  expect_identical(a, b);
  // The outage machinery actually engaged at this duty cycle and budget.
  EXPECT_GT(a.frames_lost, 0);
  EXPECT_GT(a.suspensions, 0);
  EXPECT_GT(a.degraded, 0);
}

TEST(FleetOutage, DoubleSumsBitEqualAtAnyShardCount) {
  // content, session_time_s and backoff_s are summed in session order, not
  // per shard and then merged: a few thousand fading Zipf sessions give
  // shard-order sums every chance to differ in their last digits.
  fleet::FleetConfig cfg = outage_config(3000);
  cfg.zipf_s = 0.8;
  cfg.record_outcomes = false;
  cfg.shards = 1;
  const fleet::FleetResult serial = fleet::FleetEngine(cfg).run();
  EXPECT_GT(serial.backoff_s, 0.0);

  mw::ThreadPool pool(3);
  for (const std::size_t shards : {2u, 3u, 7u}) {
    SCOPED_TRACE(shards);
    cfg.shards = shards;
    const fleet::FleetResult r = fleet::FleetEngine(cfg).run(&pool);
    EXPECT_EQ(r.shards, shards);
    expect_identical(serial, r);
  }
}

TEST(FleetOutage, TerminatesAtTheRoundCapUnderAPermanentOutage) {
  // A link that never comes up: every frame of round 1 is lost. At the round
  // cap the session must give up — the `>=` guard fires before the suspend
  // path can spin — with the full loss accounted.
  fleet::FleetConfig cfg = small_config(8);
  cfg.outage = std::make_shared<mw::channel::FaultSchedule>(
      std::vector<mw::channel::FaultSchedule::Window>{{0.0, 1e9}});
  cfg.max_rounds = 1;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  EXPECT_EQ(r.gave_up, 8);
  EXPECT_EQ(r.degraded, 0);
  EXPECT_EQ(r.frames_lost, r.frames_sent);  // nothing ever arrived
  EXPECT_EQ(r.content, 0.0);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    EXPECT_EQ(out.result.rounds, 1);
    EXPECT_TRUE(out.result.gave_up);
  }
}

TEST(FleetOutage, PermanentOutageExhaustsTheBudgetIntoDegraded) {
  // Below the cap, the same dead link drains the retry budget in the suspend
  // loop and terminates degraded, carrying zero content.
  fleet::FleetConfig cfg = small_config(8);
  cfg.outage = std::make_shared<mw::channel::FaultSchedule>(
      std::vector<mw::channel::FaultSchedule::Window>{{0.0, 1e9}});
  cfg.max_rounds = 25;
  cfg.retry.retry_budget = 4;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  EXPECT_EQ(r.degraded, 8);
  EXPECT_EQ(r.gave_up, 0);
  EXPECT_EQ(r.completed, 0);
  EXPECT_EQ(r.frames_lost, r.frames_sent);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    EXPECT_TRUE(out.result.degraded);
    EXPECT_EQ(out.result.rounds, 1);
    EXPECT_EQ(out.result.request_attempts, 4);
    EXPECT_EQ(out.result.suspensions, 0);  // never saw the link return
    EXPECT_EQ(out.result.content, 0.0);
    EXPECT_GT(out.result.backoff_s, 0.0);
  }
}

// ---- Workload shape (Zipf popularity, Poisson arrivals) ----

TEST(FleetWorkload, ZipfDrawMatchesTheExpectedSkew) {
  fleet::FleetConfig cfg = small_config(4000);
  cfg.alpha = 0.0;  // one clean round per session: keep the test fast
  cfg.zipf_s = 1.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  std::vector<long> freq(cfg.corpus.corpus_size, 0);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    ASSERT_LT(out.key.doc_index, cfg.corpus.corpus_size);
    ++freq[out.key.doc_index];
  }
  // Zipf(1) over 8 documents: p(rank) = (1/rank) / H_8. The rank-1 /
  // rank-4 frequency ratio is 4; with 4000 draws the estimate lands well
  // within +-25% for this fixed seed.
  ASSERT_GT(freq[3], 0);
  const double ratio = static_cast<double>(freq[0]) / static_cast<double>(freq[3]);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
  EXPECT_GT(freq[0], freq[7]);  // popularity is monotone in rank overall
}

TEST(FleetWorkload, ZipfOffReproducesRoundRobinExactly) {
  fleet::FleetConfig cfg = small_config(20);
  cfg.zipf_s = 0.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  for (const fleet::SessionOutcome& out : r.outcomes) {
    EXPECT_EQ(out.key.doc_index, out.session % cfg.corpus.corpus_size);
  }
}

TEST(FleetWorkload, PoissonArrivalsAreDeterministicAndShardInvariant) {
  fleet::FleetConfig cfg = small_config(40);
  cfg.alpha = 0.0;
  cfg.arrival_rate_hz = 0.5;  // mean inter-arrival gap of 2 s
  cfg.shards = 1;
  fleet::FleetEngine serial(cfg);
  const fleet::FleetResult a = serial.run();
  ASSERT_EQ(a.outcomes.size(), 40u);
  EXPECT_EQ(a.outcomes[0].start_s, 0.0);
  double prev = -1.0;
  for (const fleet::SessionOutcome& out : a.outcomes) {
    EXPECT_GT(out.start_s, prev);
    prev = out.start_s;
  }
  // 39 exponential gaps at rate 0.5: the sample mean is close to 2 s.
  const double mean_gap = a.outcomes.back().start_s / 39.0;
  EXPECT_GT(mean_gap, 1.0);
  EXPECT_LT(mean_gap, 3.5);

  mw::ThreadPool pool(3);
  cfg.shards = 4;
  fleet::FleetEngine sharded(cfg);
  const fleet::FleetResult b = sharded.run(&pool);
  ASSERT_EQ(b.outcomes.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s);
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
}

// ---- Prefill distinct-key accounting ----

TEST(FleetEngine, PrefillCountsLcmDistinctKeysNotTheProduct) {
  // corpus and gamma-list sizes share a factor: the (i % corpus,
  // gammas[i % n_gammas]) walk visits lcm(4, 2) = 4 distinct keys, not
  // 4 * 2 = 8. The cache must report exactly the lcm — one build per key
  // actually used, every session a warm hit.
  fleet::FleetConfig cfg = small_config(40);
  cfg.corpus.corpus_size = 4;
  cfg.gammas = {1.0, 1.5};
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  EXPECT_EQ(r.cache_misses, 4);
  EXPECT_EQ(r.cache_hits, static_cast<long>(r.sessions));
  EXPECT_EQ(engine.cache().size(), 4u);
  // Only even documents ever pair with gamma 1.0 (and odd with 1.5).
  for (const fleet::SessionOutcome& out : r.outcomes) {
    EXPECT_EQ(out.key.gamma, out.session % 2 == 0 ? 1.0 : 1.5);
  }
}

TEST(FleetEngine, PrefillLcmHoldsForLargerSharedFactors) {
  fleet::FleetConfig cfg = small_config(60);
  cfg.corpus.corpus_size = 6;
  cfg.gammas = {1.0, 1.25, 1.5, 1.75};
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  // lcm(6, 4) = 12 distinct keys, not 24.
  EXPECT_EQ(r.cache_misses, 12);
  EXPECT_EQ(engine.cache().size(), 12u);
  EXPECT_EQ(r.cache_hits, static_cast<long>(r.sessions));
}

// ---- Bitmap bound on the cooked set ----

TEST(DocumentCache, OversizedCookedSetIsRejectedAtBuildTime) {
  // One dispersal group holds at most ida::kMaxPackets = 255 cooked packets.
  // gamma = 7 and gamma = 6.4 request 280 and 256 packets of a 40-packet
  // document: the transmitter rejects both at cook time rather than serving
  // less redundancy than configured.
  fleet::CacheConfig cc;
  cc.corpus_size = 1;
  cc.seed = 3;
  fleet::DocumentCache cache(cc);
  EXPECT_THROW(cache.get({0, 7.0}), mw::ContractViolation);
  EXPECT_THROW(cache.get({0, 6.4}), mw::ContractViolation);
  // The boundary request passes: 6.375 * 40 = 255.
  const auto cooked = cache.get({0, 6.375});
  EXPECT_EQ(cooked->transmitter.n(), mw::ida::kMaxPackets);
}

TEST(FleetEngine, OversizedGammaIsRejectedAtConstruction) {
  // Every corpus document has m = 40, so gamma = 7 (N = 280) is known bad
  // before the cache builds anything; so are a NaN and a gamma below 1.
  fleet::FleetConfig cfg = small_config(4);
  for (const double bad : {7.0, std::nan(""), 0.5}) {
    cfg.gammas = {1.5, bad};
    EXPECT_THROW(fleet::FleetEngine{cfg}, mw::ContractViolation) << bad;
  }
  cfg.gammas = {6.375};  // N = 255 fits
  EXPECT_NO_THROW(fleet::FleetEngine{cfg});
}

// An infinite bandwidth gives every frame zero airtime, and a NaN relevance
// threshold compares false against everything and so reads as "relevant":
// both are rejected at construction, never run.
TEST(FleetEngine, RejectsInfiniteBandwidthAndNanThreshold) {
  for (const double bad : {std::numeric_limits<double>::infinity(), std::nan(""), 0.0, -1.0}) {
    fleet::FleetConfig cfg = small_config(4);
    cfg.bandwidth_bps = bad;
    EXPECT_THROW(fleet::FleetEngine{cfg}, mw::ContractViolation) << bad;
  }
  fleet::FleetConfig cfg = small_config(4);
  cfg.relevance_threshold = std::nan("");
  EXPECT_THROW(fleet::FleetEngine{cfg}, mw::ContractViolation);
  cfg.relevance_threshold = 0.5;
  EXPECT_NO_THROW(fleet::FleetEngine{cfg});
}

// ---- Edge proxy tier (origin failover, staleness, reconciliation) ----

namespace {

// An edge tier aggressive enough that every branch of the proxied walk runs:
// warm misses, origin fades (failover + stale serves + origin suspensions),
// a moving corpus (generation bumps -> reconcile refetches), and handoffs.
fleet::FleetConfig proxied_config(std::size_t sessions) {
  fleet::FleetConfig cfg = small_config(sessions);
  cfg.alpha = 0.55;  // several stalled rounds per session -> handoff draws
  cfg.proxy.emplace();
  cfg.proxy->model.warm_hit = 0.6;
  cfg.proxy->model.replica_age_mean_s = 40.0;
  cfg.proxy->model.origin_fetch_delay_s = 0.5;
  cfg.proxy->model.handoff_rate = 0.35;
  cfg.proxy->model.handoff_delay_s = 0.3;
  cfg.proxy->model.update_interval_s = 15.0;
  cfg.proxy->model.proxies = 4;
  cfg.proxy->origin_outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.4, 6.0));
  cfg.retry.retry_budget = 12;
  cfg.retry.initial_timeout_s = 0.5;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.max_backoff_s = 30.0;
  cfg.retry.jitter = 0.1;
  return cfg;
}

// Re-runs one fleet session through sim::simulate_proxied_transfer with the
// session's exact seeds and model clones; every result field must be
// bit-equal — the engine's proxied round body IS the oracle's.
void expect_session_matches_proxied_oracle(const fleet::FleetConfig& cfg,
                                           fleet::FleetEngine& engine,
                                           const fleet::SessionOutcome& out) {
  const auto cooked = engine.cache().get(out.key);
  sim::ProxiedTransferConfig pc;
  pc.base = base_transfer_config(cfg, *cooked);
  pc.retry = cfg.retry;
  pc.proxy = cfg.proxy->model;
  pc.jitter_seed = fleet::session_jitter_seed(cfg.seed, out.session);
  pc.proxy_seed = fleet::session_proxy_seed(cfg.seed, out.session);
  if (cfg.outage != nullptr) {
    const std::shared_ptr<mw::channel::OutageModel> link =
        cfg.outage->session_clone();
    const auto link_rng = std::make_shared<mw::Rng>(
        fleet::session_outage_seed(cfg.seed, out.session));
    pc.base.link_up = [link, link_rng](double t) {
      return link->link_up(t, *link_rng);
    };
  }
  if (cfg.proxy->origin_outage != nullptr) {
    const std::shared_ptr<mw::channel::OutageModel> origin =
        cfg.proxy->origin_outage->session_clone();
    const auto origin_rng = std::make_shared<mw::Rng>(
        fleet::session_origin_seed(cfg.seed, out.session));
    pc.origin_up = [origin, origin_rng](double t) {
      return origin->link_up(t, *origin_rng);
    };
  }
  mw::Rng rng(fleet::session_seed(cfg.seed, out.session));
  const sim::ProxiedTransferResult expected =
      sim::simulate_proxied_transfer(cooked->clear_content, pc, rng);

  EXPECT_EQ(out.result.packets, expected.transfer.packets);
  EXPECT_EQ(out.result.rounds, expected.transfer.rounds);
  EXPECT_EQ(out.result.completed, expected.transfer.completed);
  EXPECT_EQ(out.result.aborted_irrelevant, expected.transfer.aborted_irrelevant);
  EXPECT_EQ(out.result.gave_up, expected.transfer.gave_up);
  EXPECT_EQ(out.result.degraded, expected.transfer.degraded);
  EXPECT_EQ(out.result.content, expected.transfer.content);  // bit-equal
  EXPECT_EQ(out.result.time, expected.transfer.time);
  EXPECT_EQ(out.result.frames_lost, expected.transfer.frames_lost);
  EXPECT_EQ(out.result.suspensions, expected.transfer.suspensions);
  EXPECT_EQ(out.result.request_attempts, expected.transfer.request_attempts);
  EXPECT_EQ(out.result.backoff_s, expected.transfer.backoff_s);
  EXPECT_EQ(out.proxy.replica_hits, expected.proxy.replica_hits);
  EXPECT_EQ(out.proxy.stale_serves, expected.proxy.stale_serves);
  EXPECT_EQ(out.proxy.failovers, expected.proxy.failovers);
  EXPECT_EQ(out.proxy.handoffs, expected.proxy.handoffs);
  EXPECT_EQ(out.proxy.origin_fetches, expected.proxy.origin_fetches);
  EXPECT_EQ(out.proxy.origin_suspensions, expected.proxy.origin_suspensions);
  EXPECT_EQ(out.proxy.reconciliations, expected.proxy.reconciliations);
  EXPECT_EQ(out.proxy.packets_refetched, expected.proxy.packets_refetched);
  EXPECT_EQ(out.proxy.stale_frames, expected.proxy.stale_frames);
  EXPECT_EQ(out.proxy.ended_stale, expected.proxy.ended_stale);
  EXPECT_EQ(out.proxy.origin_generation_bumps,
            expected.proxy.origin_generation_bumps);
  EXPECT_EQ(out.proxy.reconcile_dropped_packets,
            expected.proxy.reconcile_dropped_packets);
  EXPECT_EQ(out.proxy_id, fleet::session_proxy_assignment(
                              cfg.seed, out.session, cfg.proxy->model.proxies));
}

}  // namespace

TEST(FleetProxy, PerSessionParityWithProxiedOracle) {
  fleet::FleetConfig cfg = proxied_config(32);
  // Staggered starts must not perturb the parity: both the link and the
  // origin timelines are session-relative.
  cfg.arrival_spread_s = 40.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 32u);

  fleet::FleetProxyTotals sums;
  for (const fleet::SessionOutcome& out : r.outcomes) {
    expect_session_matches_proxied_oracle(cfg, engine, out);
    sums.replica_hits += out.proxy.replica_hits;
    sums.stale_serves += out.proxy.stale_serves;
    sums.failovers += out.proxy.failovers;
    sums.handoffs += out.proxy.handoffs;
    sums.origin_fetches += out.proxy.origin_fetches;
    sums.origin_suspensions += out.proxy.origin_suspensions;
    sums.reconciliations += out.proxy.reconciliations;
    sums.packets_refetched += out.proxy.packets_refetched;
    sums.stale_frames += out.proxy.stale_frames;
    sums.sessions_ended_stale += out.proxy.ended_stale ? 1 : 0;
    sums.origin_generation_bumps += out.proxy.origin_generation_bumps;
    sums.reconcile_dropped_packets += out.proxy.reconcile_dropped_packets;
  }
  expect_proxy_totals_equal(r.proxy, sums);
  // The whole edge tier actually engaged at this duty cycle.
  EXPECT_GT(r.proxy.replica_hits, 0);
  EXPECT_GT(r.proxy.failovers, 0);
  EXPECT_GT(r.proxy.stale_serves, 0);
  EXPECT_GT(r.proxy.handoffs, 0);
  EXPECT_GT(r.proxy.origin_fetches, 0);
  EXPECT_GT(r.proxy.reconciliations, 0);
}

TEST(FleetProxy, ParityHoldsWithLinkFadesNoCachingAndRelevance) {
  // Both failure domains at once (link fades AND origin fades), plus the
  // no-caching client and the relevance abort: the walk must still agree with
  // the oracle decision-for-decision.
  fleet::FleetConfig cfg = proxied_config(24);
  cfg.outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.3, 5.0));
  cfg.caching = false;
  cfg.relevance_threshold = 0.5;
  cfg.alpha = 0.3;
  cfg.max_rounds = 8;
  cfg.proxy->model.update_interval_s = 5.0;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  ASSERT_EQ(r.outcomes.size(), 24u);
  for (const fleet::SessionOutcome& out : r.outcomes) {
    expect_session_matches_proxied_oracle(cfg, engine, out);
  }
  EXPECT_EQ(r.completed + r.gave_up + r.aborted_irrelevant + r.degraded,
            static_cast<long>(r.sessions));
}

TEST(FleetProxy, DeterministicAndShardInvariantWithProxy) {
  fleet::FleetConfig cfg = proxied_config(60);
  cfg.outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.3, 5.0));
  cfg.shards = 1;
  fleet::FleetEngine serial(cfg);
  fleet::FleetEngine again(cfg);
  const fleet::FleetResult a = serial.run();
  const fleet::FleetResult a2 = again.run();
  expect_identical(a, a2);  // fixed (seed, shards) reproduces

  mw::ThreadPool pool(3);
  cfg.shards = 4;
  fleet::FleetEngine sharded(cfg);
  const fleet::FleetResult b = sharded.run(&pool);
  EXPECT_EQ(b.shards, 4u);
  expect_identical(a, b);
  // The edge tier engaged in every dimension that shard order could perturb.
  EXPECT_GT(a.proxy.failovers, 0);
  EXPECT_GT(a.proxy.handoffs, 0);
  EXPECT_GT(a.proxy.packets_refetched, 0);
  EXPECT_GT(a.proxy.origin_generation_bumps, 0);
  // In the analytic walk every reconcile-dropped packet is re-fetched.
  EXPECT_EQ(a.proxy.reconcile_dropped_packets, a.proxy.packets_refetched);
}

TEST(FleetProxy, TransparentProxyMatchesTheDirectWalkPerSession) {
  // warm_hit = 1, a static corpus, no handoffs, no origin fades: the proxy
  // tier charges nothing and loses nothing, so per-session results must be
  // bit-equal to the same fleet run WITHOUT the proxy — the edge tier's
  // draws live on their own RNG streams and cannot perturb the walk.
  fleet::FleetConfig direct = outage_config(24);
  fleet::FleetConfig proxied = outage_config(24);
  proxied.proxy.emplace();
  proxied.proxy->model.warm_hit = 1.0;
  proxied.proxy->model.update_interval_s = 0.0;
  proxied.proxy->model.handoff_rate = 0.0;
  proxied.proxy->origin_outage = nullptr;

  fleet::FleetEngine direct_engine(direct);
  fleet::FleetEngine proxied_engine(proxied);
  const fleet::FleetResult a = direct_engine.run();
  const fleet::FleetResult b = proxied_engine.run();
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].result.packets, b.outcomes[i].result.packets);
    EXPECT_EQ(a.outcomes[i].result.rounds, b.outcomes[i].result.rounds);
    EXPECT_EQ(a.outcomes[i].result.completed, b.outcomes[i].result.completed);
    EXPECT_EQ(a.outcomes[i].result.content, b.outcomes[i].result.content);
    EXPECT_EQ(a.outcomes[i].result.time, b.outcomes[i].result.time);
    EXPECT_EQ(a.outcomes[i].result.suspensions,
              b.outcomes[i].result.suspensions);
    EXPECT_EQ(a.outcomes[i].result.backoff_s, b.outcomes[i].result.backoff_s);
  }
  // A transparent edge tier never fails over, never serves stale, never drops
  // a cached packet — it only records hits and resume reconciliations.
  EXPECT_EQ(b.proxy.stale_serves, 0);
  EXPECT_EQ(b.proxy.failovers, 0);
  EXPECT_EQ(b.proxy.handoffs, 0);
  EXPECT_EQ(b.proxy.packets_refetched, 0);
  EXPECT_EQ(b.proxy.stale_frames, 0);
  EXPECT_EQ(b.proxy.sessions_ended_stale, 0);
  EXPECT_EQ(b.proxy.origin_generation_bumps, 0);
  EXPECT_EQ(b.proxy.reconcile_dropped_packets, 0);
  EXPECT_GE(b.proxy.replica_hits, static_cast<long>(b.sessions));
  EXPECT_EQ(b.proxy.reconciliations, b.suspensions);
}

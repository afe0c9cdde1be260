// Fleet telemetry: TimeSeries bucketing/clamping/merge algebra, tail-based
// trace retention (exact top-k plus every failure, bounded, deterministic
// under ties), retained traces replayed complete by FleetEngine::explain,
// and shard-count bit-invariance of the whole exported timeline document.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "fleet/telemetry.hpp"
#include "obs/export.hpp"
#include "obs/timeseries.hpp"
#include "util/check.hpp"

namespace mw = mobiweb;
namespace fleet = mobiweb::fleet;
namespace obs = mobiweb::obs;

namespace {

// Weakly-connected fleet with a retry budget tight enough that some sessions
// terminate degraded — the population whose traces must always survive
// retention.
fleet::FleetConfig lossy_config(std::size_t sessions) {
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size = 8;
  cfg.corpus.seed = 77;
  cfg.sessions = sessions;
  cfg.seed = 1234;
  cfg.alpha = 0.25;
  cfg.request_delay = 2.0;
  cfg.max_rounds = 25;
  cfg.arrival_spread_s = 30.0;
  cfg.outage = std::make_shared<mw::channel::MarkovOutageModel>(
      mw::channel::MarkovOutageModel::with_duty_cycle(0.3, 5.0));
  cfg.retry.retry_budget = 8;
  cfg.retry.initial_timeout_s = 0.5;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.max_backoff_s = 30.0;
  cfg.retry.jitter = 0.1;
  cfg.telemetry.emplace();
  cfg.telemetry->bucket_width_s = 2.0;
  cfg.telemetry->trace_top_fraction = 0.02;
  return cfg;
}

fleet::FleetResult run_with_shards(fleet::FleetConfig cfg, std::size_t shards) {
  cfg.shards = shards;
  fleet::FleetEngine engine(cfg);
  return engine.run();
}

}  // namespace

// ---- TimeSeries algebra ---------------------------------------------------

TEST(TimeSeries, AddsLandInFloorBuckets) {
  obs::TimeSeries ts(2.0, 16);
  ASSERT_TRUE(ts.engaged());
  ts.add(obs::Channel::kRounds, 0.0);
  ts.add(obs::Channel::kRounds, 1.99);
  ts.add(obs::Channel::kRounds, 2.0);
  ts.add(obs::Channel::kRounds, 7.5, 3);
  EXPECT_EQ(ts.buckets(), 4u);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 0), 2);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 1), 1);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 2), 0);
  EXPECT_EQ(ts.at(obs::Channel::kRounds, 3), 3);
  EXPECT_EQ(ts.total(obs::Channel::kRounds), 6);
  // Channels that never recorded read as all-zero, not out-of-range.
  EXPECT_EQ(ts.total(obs::Channel::kHandoffs), 0);
  EXPECT_EQ(ts.at(obs::Channel::kHandoffs, 3), 0);
  EXPECT_EQ(ts.clamped(), 0);
}

TEST(TimeSeries, AddsPastTheWindowClampIntoTheLastBucket) {
  obs::TimeSeries ts(1.0, 4);
  ts.add(obs::Channel::kFramesSent, 0.5);
  ts.add(obs::Channel::kFramesSent, 100.0);   // past the window
  ts.add(obs::Channel::kFramesSent, 1e9, 5);  // far past it
  EXPECT_EQ(ts.buckets(), 4u);
  EXPECT_EQ(ts.at(obs::Channel::kFramesSent, 0), 1);
  EXPECT_EQ(ts.at(obs::Channel::kFramesSent, 3), 6);
  EXPECT_EQ(ts.clamped(), 2);  // two add() calls were clamped
  EXPECT_EQ(ts.total(obs::Channel::kFramesSent), 7);
}

TEST(TimeSeries, MergeIsOrderIndependent) {
  const auto make = [](double t0, long d) {
    obs::TimeSeries ts(1.0, 32);
    ts.add(obs::Channel::kFramesSent, t0, d);
    ts.add(obs::Channel::kFramesLost, t0 + 3.0, d + 1);
    ts.add(obs::Channel::kSuspensions, 40.0);  // clamps: 32-bucket window
    return ts;
  };
  const obs::TimeSeries a = make(0.2, 1), b = make(5.7, 10), c = make(9.9, 100);

  obs::TimeSeries ab = a;
  ab.merge(b);
  ab.merge(c);
  obs::TimeSeries ba = c;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.clamped(), 3);
  EXPECT_EQ(ab.total(obs::Channel::kFramesSent), 111);
}

TEST(TimeSeries, DisengagedDefaultIsANoOp) {
  obs::TimeSeries ts;
  EXPECT_FALSE(ts.engaged());
  ts.add(obs::Channel::kRounds, 5.0);
  EXPECT_EQ(ts.buckets(), 0u);
  EXPECT_EQ(ts.total(obs::Channel::kRounds), 0);
  // Merging a disengaged series into an engaged one changes nothing; merging
  // an engaged one into a disengaged one adopts it.
  obs::TimeSeries live(1.0, 8);
  live.add(obs::Channel::kRounds, 0.0, 7);
  const std::string before = live.to_json();
  live.merge(ts);
  EXPECT_EQ(live.to_json(), before);
  ts.merge(live);
  EXPECT_EQ(ts.to_json(), before);
}

TEST(TimeSeries, ChannelNamesAreDistinctSnakeCase) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kChannelCount; ++i) {
    const std::string name = obs::channel_name(static_cast<obs::Channel>(i));
    EXPECT_NE(name, "unknown");
    for (const char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
    names.insert(name);
  }
  EXPECT_EQ(names.size(), obs::kChannelCount);
}

// ---- Timeline document shard invariance -----------------------------------

TEST(FleetTelemetry, TimelineDocumentBitIdenticalAcrossShardCounts) {
  const fleet::FleetConfig cfg = lossy_config(400);
  const fleet::FleetResult r1 = run_with_shards(cfg, 1);
  EXPECT_GT(r1.degraded + r1.gave_up, 0) << "config must produce failures";
  const std::string doc1 = fleet::timeline_document(r1, cfg);
  EXPECT_NE(doc1.find("\"schema\": \"mobiweb-timeline/1\""), std::string::npos);
  for (const std::size_t shards : {4u, 7u}) {
    const fleet::FleetResult rs = run_with_shards(cfg, shards);
    EXPECT_EQ(doc1, fleet::timeline_document(rs, cfg))
        << "timeline diverged at " << shards << " shards";
  }
}

TEST(FleetTelemetry, TimeSeriesTotalsMatchFleetAggregates) {
  const fleet::FleetConfig cfg = lossy_config(300);
  const fleet::FleetResult r = run_with_shards(cfg, 3);
  const obs::TimeSeries& ts = r.timeseries;
  ASSERT_TRUE(ts.engaged());
  EXPECT_EQ(ts.total(obs::Channel::kSessionsStarted),
            static_cast<long>(r.sessions));
  EXPECT_EQ(ts.total(obs::Channel::kSessionsEnded),
            static_cast<long>(r.sessions));
  EXPECT_EQ(ts.total(obs::Channel::kSessionsFailed), r.degraded + r.gave_up);
  EXPECT_EQ(ts.total(obs::Channel::kFramesSent), r.frames_sent);
  EXPECT_EQ(ts.total(obs::Channel::kFramesLost), r.frames_lost);
  EXPECT_EQ(ts.total(obs::Channel::kSuspensions), r.suspensions);
  // kRounds counts stalled (non-terminal) round boundaries only — a round
  // that completes or aborts the session ends mid-round, so the channel is
  // the fleet round total minus one terminal round per such session.
  EXPECT_EQ(ts.total(obs::Channel::kRounds),
            r.rounds - r.completed - r.aborted_irrelevant);
}

// ---- Tail-based trace retention -------------------------------------------

TEST(FleetTelemetry, TiedTailBreaksOnSessionIndexExactly) {
  // One document, no corruption, no outage, simultaneous arrivals: every
  // session's transfer time is identical, so the tail ranking is decided
  // purely by the deterministic tie-break (session index ascending) — and it
  // must hold across a shard split, where each shard offers its own
  // candidates.
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size = 1;
  cfg.corpus.seed = 9;
  cfg.sessions = 40;
  cfg.seed = 7;
  cfg.alpha = 0.0;
  cfg.arrival_spread_s = 0.0;
  cfg.telemetry.emplace();
  cfg.telemetry->trace_top_fraction = 0.1;  // k = 4
  const fleet::FleetResult r = run_with_shards(cfg, 3);
  EXPECT_EQ(r.trace_tail_target, 4u);
  ASSERT_EQ(r.traces.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.traces[i].session, i);
    EXPECT_FALSE(r.traces[i].failed);
    EXPECT_DOUBLE_EQ(r.traces[i].time_s, r.traces[0].time_s);
  }
}

TEST(FleetTelemetry, RetentionKeepsEveryFailureAndTheExactSlowestTail) {
  fleet::FleetConfig cfg = lossy_config(250);
  cfg.record_outcomes = true;
  cfg.telemetry->trace_top_fraction = 0.04;  // k = 10
  const fleet::FleetResult r = run_with_shards(cfg, 4);
  ASSERT_EQ(r.outcomes.size(), r.sessions);

  std::set<std::uint32_t> failed_sessions;
  for (const fleet::SessionOutcome& o : r.outcomes) {
    if (o.result.gave_up || o.result.degraded) failed_sessions.insert(o.session);
  }
  ASSERT_GT(failed_sessions.size(), 0u);

  // Bounded: never more than the tail target plus the failures; every failed
  // session retained and flagged; traces sorted by session index.
  EXPECT_LE(r.traces.size(), r.trace_tail_target + failed_sessions.size());
  std::set<std::uint32_t> retained;
  for (const fleet::RetainedTrace& rt : r.traces) {
    EXPECT_TRUE(retained.insert(rt.session).second) << "duplicate trace";
    EXPECT_EQ(rt.failed, failed_sessions.count(rt.session) == 1);
    EXPECT_GT(rt.trace.events().size(), 0u);
  }
  for (const std::uint32_t s : failed_sessions) EXPECT_EQ(retained.count(s), 1u);

  // Exact top-k: every retained non-failed session must rank at or above
  // every non-retained session under the total tail order.
  double slowest_dropped = -1.0;
  std::uint32_t slowest_dropped_id = 0;
  for (const fleet::SessionOutcome& o : r.outcomes) {
    if (retained.count(o.session)) continue;
    if (slowest_dropped < 0.0 ||
        fleet::ranks_before(o.result.time, o.session, slowest_dropped,
                            slowest_dropped_id)) {
      slowest_dropped = o.result.time;
      slowest_dropped_id = o.session;
    }
  }
  ASSERT_GE(slowest_dropped, 0.0);
  for (const fleet::RetainedTrace& rt : r.traces) {
    if (rt.failed) continue;
    EXPECT_TRUE(fleet::ranks_before(rt.time_s, rt.session, slowest_dropped,
                                    slowest_dropped_id))
        << "session " << rt.session << " retained over a slower one";
  }
}

TEST(FleetTelemetry, MaterializedTracesCarryTheTerminalVerdict) {
  fleet::FleetConfig cfg = lossy_config(200);
  const fleet::FleetResult r = run_with_shards(cfg, 2);
  ASSERT_GT(r.traces.size(), 0u);
  for (const fleet::RetainedTrace& rt : r.traces) {
    const obs::SessionTrace& t = rt.trace;
    EXPECT_EQ(rt.failed, t.degraded() || t.gave_up());
    EXPECT_GE(t.end_time(), t.start_time());
    ASSERT_FALSE(t.events().empty());
    EXPECT_EQ(t.events().front().type, obs::Event::kSessionStart);
    EXPECT_EQ(t.events().back().type, obs::Event::kSessionEnd);
    EXPECT_NE(t.label().find("session " + std::to_string(rt.session)),
              std::string::npos);
  }
}

TEST(FleetTelemetry, RetainedTracesAreComplete) {
  // A retained trace is its session's whole walk replayed: one summary per
  // round, every frame sent and lost counted, every backoff wait, and the
  // session's own start on the fleet's absolute clock.
  fleet::FleetConfig cfg = lossy_config(250);
  cfg.record_outcomes = true;
  const fleet::FleetResult r = run_with_shards(cfg, 3);
  ASSERT_GT(r.traces.size(), 0u);
  for (const fleet::RetainedTrace& rt : r.traces) {
    const fleet::SessionOutcome& o = r.outcomes[rt.session];
    const obs::SessionTrace& t = rt.trace;
    ASSERT_EQ(t.rounds().size(), static_cast<std::size_t>(o.result.rounds))
        << "session " << rt.session;
    long sent = 0;
    long lost = 0;
    for (const obs::RoundSummary& round : t.rounds()) {
      sent += round.frames_sent;
      lost += round.frames_lost;
    }
    EXPECT_EQ(sent, o.result.packets) << "session " << rt.session;
    EXPECT_EQ(lost, o.result.frames_lost) << "session " << rt.session;
    EXPECT_DOUBLE_EQ(t.backoff_total_s(), o.result.backoff_s);
    EXPECT_EQ(t.start_time(), o.start_s) << "session " << rt.session;
  }
}

TEST(FleetTelemetry, ExplainIsAPureFunctionOfTheSession) {
  // Zipf documents and Poisson arrivals too: both are drawn once per engine,
  // so a never-run engine must explain a session exactly as a run one does.
  fleet::FleetConfig cfg = lossy_config(120);
  cfg.zipf_s = 0.8;
  cfg.arrival_rate_hz = 4.0;
  cfg.record_outcomes = true;
  fleet::FleetEngine cold(cfg);
  for (const std::size_t shards : {1u, 4u}) {
    cfg.shards = shards;
    fleet::FleetEngine engine(cfg);
    const fleet::FleetResult r = engine.run();
    std::vector<std::size_t> picks = {0, 17, 63, 119};
    for (const fleet::RetainedTrace& rt : r.traces) {
      if (rt.failed) {
        picks.push_back(rt.session);
        break;
      }
    }
    ASSERT_EQ(picks.size(), 5u) << "config must produce a failure";
    for (const std::size_t i : picks) {
      const obs::SessionTrace ran = engine.explain(i);
      const obs::SessionTrace fresh = cold.explain(i);
      EXPECT_EQ(ran.to_json(), fresh.to_json()) << "session " << i;
      EXPECT_EQ(obs::timeline_json(ran), obs::timeline_json(fresh)) << "session " << i;
      const mw::sim::TransferResult& o = r.outcomes[i].result;
      EXPECT_EQ(ran.completed(), o.completed);
      EXPECT_EQ(ran.aborted_irrelevant(), o.aborted_irrelevant);
      EXPECT_EQ(ran.degraded(), o.degraded);
      EXPECT_EQ(ran.gave_up(), o.gave_up);
    }
  }
}

TEST(FleetTelemetry, TelemetryNeverAltersSessionResults) {
  // The whole instrumentation layer observes; it must not consume RNG draws
  // or change accounting. Same config with telemetry on and off must agree
  // on every aggregate.
  fleet::FleetConfig with = lossy_config(200);
  fleet::FleetConfig without = with;
  without.telemetry.reset();
  const fleet::FleetResult a = run_with_shards(with, 2);
  const fleet::FleetResult b = run_with_shards(without, 2);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.suspensions, b.suspensions);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.content, b.content);
  EXPECT_EQ(a.session_time_s, b.session_time_s);
  EXPECT_EQ(a.backoff_s, b.backoff_s);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  // Retention replays look documents up again; the run's counters must not
  // include those lookups.
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

TEST(FleetTelemetry, BadConfigIsRejectedAtConstruction) {
  // Each row breaks one field of an otherwise valid telemetry config; the
  // engine must refuse it up front, not clamp it or fail inside run().
  using Tc = fleet::FleetTelemetryConfig;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    void (*set)(Tc&);
  } cases[] = {
      {"fraction above 1", [](Tc& t) { t.trace_top_fraction = 1.5; }},
      {"negative fraction", [](Tc& t) { t.trace_top_fraction = -0.1; }},
      {"NaN fraction", [](Tc& t) { t.trace_top_fraction = kNaN; }},
      {"zero bucket width", [](Tc& t) { t.bucket_width_s = 0.0; }},
      {"negative bucket width", [](Tc& t) { t.bucket_width_s = -1.0; }},
      {"infinite bucket width", [](Tc& t) { t.bucket_width_s = kInf; }},
      {"NaN bucket width", [](Tc& t) { t.bucket_width_s = kNaN; }},
      {"zero buckets", [](Tc& t) { t.max_buckets = 0; }},
      {"negative tolerance", [](Tc& t) { t.slo_tolerance = -0.5; }},
      {"infinite tolerance", [](Tc& t) { t.slo_tolerance = kInf; }},
      {"NaN tolerance", [](Tc& t) { t.slo_tolerance = kNaN; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    fleet::FleetConfig cfg = lossy_config(10);
    c.set(*cfg.telemetry);
    EXPECT_THROW(fleet::FleetEngine{cfg}, mw::ContractViolation);
  }
  // The edges of each range are valid.
  fleet::FleetConfig edges = lossy_config(10);
  edges.telemetry->trace_top_fraction = 1.0;
  edges.telemetry->max_buckets = 1;
  edges.telemetry->slo_tolerance = 0.0;
  EXPECT_EQ(fleet::FleetEngine(edges).run().trace_tail_target, 10u);
  edges.telemetry->trace_top_fraction = 0.0;
  EXPECT_EQ(fleet::FleetEngine(edges).run().trace_tail_target, 0u);
}

// Edge-proxy-tier ablation: what do edge replicas buy when the *origin* is
// the weak link?
//
// Sweeps origin outage duty-cycle {0, 0.25, 0.5} x edge warm-hit rate
// {0.0, 0.6, 0.9} through the fleet engine's proxied mode (FleetConfig::proxy)
// and reports per cell the session-time tails plus the edge-tier accounting
// (replica hits, stale serves, failovers, handoffs, origin suspensions,
// reconciliation refetches). The warm = 0.0 column is the direct-to-origin
// model under the same origin fades: every proxy attach is a miss, so each
// fetch rides the origin's availability — when the origin is down there is
// nothing cached to serve and the session suspends on the retry budget. Warm
// columns fail over to the stale-but-flagged replica instead, which is where
// the p99 separation comes from. A no-proxy `direct` row (legacy walk, origin
// modelled always-reachable) anchors the floor.
//
// Flags: --sessions=N, --origin-duty=D --warm=W (single cell instead of the
// sweep), --origin-down=SECONDS (mean origin fade), --update=SECONDS (origin
// publish interval), --handoff=RATE, --age=SECONDS, --proxies=P,
// --fetch-delay=SECONDS, --duty=D/--down=SECONDS (wireless-link fades on
// top), --gamma, --alpha, --corpus, --spread, --shards, --json[=PATH].
// MOBIWEB_FAST=1 shrinks the per-cell fleet but keeps the full key grid, so
// CI baselines stay key-compatible with full runs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "stats/describe.hpp"

namespace bench = mobiweb::bench;
namespace fleet = mobiweb::fleet;
using mobiweb::TextTable;

namespace {

struct Cell {
  double origin_duty;
  double warm;
};

std::size_t session_count(int argc, char** argv) {
  const double fallback = bench::fast_mode() ? 2000.0 : 6000.0;
  return static_cast<std::size_t>(
      bench::arg_double(argc, argv, "sessions", fallback));
}

fleet::FleetConfig base_config(int argc, char** argv) {
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size =
      static_cast<std::size_t>(bench::arg_double(argc, argv, "corpus", 32.0));
  cfg.corpus.seed = 6200;
  cfg.seed = 42;
  cfg.sessions = session_count(argc, argv);
  cfg.gammas = {bench::arg_double(argc, argv, "gamma", 1.5)};
  // Default alpha leaves most sessions one or two rounds short of decoding on
  // round 1, so the stalled-round path (handoff draws, re-validation) is live.
  cfg.alpha = bench::arg_double(argc, argv, "alpha", 0.45);
  cfg.shards = static_cast<std::size_t>(bench::arg_double(argc, argv, "shards", 0.0));
  cfg.request_delay = bench::arg_double(argc, argv, "delay", 1.0);
  cfg.arrival_spread_s = bench::arg_double(argc, argv, "spread", 60.0);
  const double duty = bench::arg_double(argc, argv, "duty", 0.0);
  if (duty > 0.0) {
    const double mean_down = bench::arg_double(argc, argv, "down", 8.0);
    cfg.outage = std::make_shared<mobiweb::channel::MarkovOutageModel>(
        mobiweb::channel::MarkovOutageModel::with_duty_cycle(duty, mean_down));
  }
  return cfg;
}

// Edge tier for one sweep cell. The origin's failure domain is independent of
// the wireless link: its own Markov prototype, cloned per session by the
// engine exactly like the link model.
fleet::FleetConfig cell_config(const fleet::FleetConfig& base, const Cell& cell,
                               int argc, char** argv) {
  fleet::FleetConfig cfg = base;
  fleet::FleetProxyConfig proxy;
  proxy.model.warm_hit = cell.warm;
  proxy.model.replica_age_mean_s = bench::arg_double(argc, argv, "age", 40.0);
  proxy.model.origin_fetch_delay_s =
      bench::arg_double(argc, argv, "fetch-delay", 0.5);
  proxy.model.handoff_rate = bench::arg_double(argc, argv, "handoff", 0.3);
  proxy.model.handoff_delay_s = 0.3;
  proxy.model.update_interval_s = bench::arg_double(argc, argv, "update", 15.0);
  proxy.model.proxies =
      static_cast<std::uint32_t>(bench::arg_double(argc, argv, "proxies", 8.0));
  if (cell.origin_duty > 0.0) {
    const double mean_down = bench::arg_double(argc, argv, "origin-down", 20.0);
    proxy.origin_outage = std::make_shared<mobiweb::channel::MarkovOutageModel>(
        mobiweb::channel::MarkovOutageModel::with_duty_cycle(cell.origin_duty,
                                                             mean_down));
  }
  cfg.proxy = std::move(proxy);
  return cfg;
}

std::vector<Cell> cells(int argc, char** argv) {
  const bool single = bench::flag_request(argc, argv, "origin-duty") ||
                      bench::flag_request(argc, argv, "warm");
  if (single) {
    return {{bench::arg_double(argc, argv, "origin-duty", 0.25),
             bench::arg_double(argc, argv, "warm", 0.6)}};
  }
  std::vector<Cell> out;
  for (const double duty : {0.0, 0.25, 0.5}) {
    for (const double warm : {0.0, 0.6, 0.9}) out.push_back({duty, warm});
  }
  return out;
}

std::string cell_key(const Cell& cell) {
  const auto pct = [](double v) {
    return std::to_string(static_cast<int>(v * 100.0 + 0.5));
  };
  return "proxy_o" + pct(cell.origin_duty) + "_w" + pct(cell.warm);
}

void session_metrics(bench::JsonReport& report, const std::string& key,
                     const fleet::FleetResult& r) {
  // Timing (gated, higher-is-better), then deterministic workload facts:
  report.metric(key + ".sessions_per_s", r.sessions_per_s());
  report.metric(key + ".completed", static_cast<double>(r.completed));
  // Informational (no gating suffix):
  report.metric(key + ".gave_up_count", static_cast<double>(r.gave_up));
  report.metric(key + ".degraded_count", static_cast<double>(r.degraded));
  report.metric(key + ".suspension_count", static_cast<double>(r.suspensions));
  // Session-time tails on the simulated clock (deterministic for a fixed
  // seed); the *_s_{p50,p95,p99,p999,mean} suffixes gate lower-is-better, so
  // a tail regression in the proxied walk fails CI on its own.
  const mobiweb::stats::TailSummary& t = r.session_time_tails;
  report.metric(key + ".session_time_s_mean", t.mean);
  report.metric(key + ".session_time_s_p50", t.p50);
  report.metric(key + ".session_time_s_p95", t.p95);
  report.metric(key + ".session_time_s_p99", t.p99);
  report.metric(key + ".session_time_s_p999", t.p999);
  report.metric(key + ".session_time_s_ci95", t.ci95);
}

void proxy_metrics(bench::JsonReport& report, const std::string& key,
                   const fleet::FleetProxyTotals& p) {
  report.metric(key + ".replica_hit_count", static_cast<double>(p.replica_hits));
  report.metric(key + ".stale_serve_count", static_cast<double>(p.stale_serves));
  report.metric(key + ".failover_count", static_cast<double>(p.failovers));
  report.metric(key + ".handoff_count", static_cast<double>(p.handoffs));
  report.metric(key + ".origin_fetch_count",
                static_cast<double>(p.origin_fetches));
  report.metric(key + ".origin_suspension_count",
                static_cast<double>(p.origin_suspensions));
  report.metric(key + ".reconciliation_count",
                static_cast<double>(p.reconciliations));
  report.metric(key + ".packet_refetch_count",
                static_cast<double>(p.packets_refetched));
  report.metric(key + ".stale_frame_count", static_cast<double>(p.stale_frames));
  report.metric(key + ".ended_stale_count",
                static_cast<double>(p.sessions_ended_stale));
  report.metric(key + ".origin_generation_bump_count",
                static_cast<double>(p.origin_generation_bumps));
  report.metric(key + ".reconcile_dropped_packet_count",
                static_cast<double>(p.reconcile_dropped_packets));
}

fleet::FleetResult run_config(const fleet::FleetConfig& cfg) {
  fleet::FleetEngine engine(cfg);
  return engine.run();
}

// --timeline[=PATH]: one telemetry-instrumented proxied cell (defaults to the
// sweep's middle cell; override with --origin-duty/--warm) emitting the
// "mobiweb-timeline/1" document — cross-tier spans (origin outages, stale
// failovers, handoffs, reconcile drops) ride along in the retained traces,
// and scripts/slo_check.py gates the "slo" section.
int emit_timeline(int argc, char** argv, const std::string& path) {
  fleet::FleetConfig cfg = base_config(argc, argv);
  const Cell cell{bench::arg_double(argc, argv, "origin-duty", 0.25),
                  bench::arg_double(argc, argv, "warm", 0.6)};
  cfg = cell_config(cfg, cell, argc, argv);
  fleet::FleetTelemetryConfig tc;
  tc.bucket_width_s = bench::arg_double(argc, argv, "bucket", 1.0);
  tc.trace_top_fraction = bench::arg_double(argc, argv, "trace-top", 0.01);
  tc.slo_tolerance = bench::arg_double(argc, argv, "slo-tolerance", 0.5);
  cfg.telemetry = tc;
  const fleet::FleetResult r = run_config(cfg);
  return bench::emit_json(fleet::timeline_document(r, cfg), path);
}

int emit_json(int argc, char** argv, const std::string& path) {
  const fleet::FleetConfig base = base_config(argc, argv);
  bench::JsonReport report("proxy");
  report.meta("sessions", static_cast<double>(base.sessions));
  report.meta("gamma", base.gammas[0]);
  report.meta("alpha", base.alpha);
  report.meta("corpus", static_cast<double>(base.corpus.corpus_size));
  report.meta("seed", static_cast<double>(base.seed));
  report.meta("link_duty", base.outage ? base.outage->outage_fraction() : 0.0);
  report.meta("origin_down_s", bench::arg_double(argc, argv, "origin-down", 20.0));
  report.meta("update_s", bench::arg_double(argc, argv, "update", 15.0));
  report.meta("handoff", bench::arg_double(argc, argv, "handoff", 0.3));
  // Direct-to-origin floor: the legacy walk, no edge tier, origin modelled
  // always-reachable. The honest same-fades comparison is the w0 column.
  const fleet::FleetResult direct = run_config(base);
  session_metrics(report, "direct", direct);
  for (const Cell& cell : cells(argc, argv)) {
    const fleet::FleetResult r =
        run_config(cell_config(base, cell, argc, argv));
    const std::string key = cell_key(cell);
    session_metrics(report, key, r);
    proxy_metrics(report, key, r.proxy);
  }
  return bench::emit_json(report.str(), path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {"age", "alpha", "bucket", "corpus", "delay", "down",
                      "duty", "fetch-delay", "gamma", "handoff", "json",
                      "origin-down", "origin-duty", "proxies", "sessions",
                      "shards", "slo-tolerance", "spread", "timeline",
                      "trace-top", "update", "warm"});
  if (const auto path = bench::flag_request(argc, argv, "timeline")) {
    return emit_timeline(argc, argv, *path);
  }
  if (const auto path = bench::json_request(argc, argv)) {
    return emit_json(argc, argv, *path);
  }
  const fleet::FleetConfig base = base_config(argc, argv);
  bench::print_header(
      "Edge proxy tier — origin fades vs edge warm-hit rate",
      "Fleet-engine sweep of the proxied walk: origin outage duty against\n"
      "edge replica warm-hit rate. warm = 0.0 is direct-to-origin under the\n"
      "same fades; warm columns fail over to stale-but-flagged replicas.");

  TextTable table({"origin duty", "warm", "completed", "degraded", "failovers",
                   "stale_sv", "handoffs", "o_susp", "refetched", "p50 s",
                   "p99 s", "sessions/s"});
  const fleet::FleetResult direct = run_config(base);
  table.add_row({"(direct)", "-", std::to_string(direct.completed),
                 std::to_string(direct.degraded), "-", "-", "-", "-", "-",
                 TextTable::fmt(direct.session_time_tails.p50, 2),
                 TextTable::fmt(direct.session_time_tails.p99, 2),
                 TextTable::fmt(direct.sessions_per_s(), 0)});
  for (const Cell& cell : cells(argc, argv)) {
    const fleet::FleetResult r = run_config(cell_config(base, cell, argc, argv));
    table.add_row({TextTable::fmt(cell.origin_duty, 2),
                   TextTable::fmt(cell.warm, 2), std::to_string(r.completed),
                   std::to_string(r.degraded),
                   std::to_string(r.proxy.failovers),
                   std::to_string(r.proxy.stale_serves),
                   std::to_string(r.proxy.handoffs),
                   std::to_string(r.proxy.origin_suspensions),
                   std::to_string(r.proxy.packets_refetched),
                   TextTable::fmt(r.session_time_tails.p50, 2),
                   TextTable::fmt(r.session_time_tails.p99, 2),
                   TextTable::fmt(r.sessions_per_s(), 0)});
  }
  bench::print_table(
      "Origin duty x edge warm-hit (sessions = " +
          std::to_string(base.sessions) +
          ", gamma = " + TextTable::fmt(base.gammas[0], 1) +
          ", alpha = " + TextTable::fmt(base.alpha, 2) + ")",
      table);
  return 0;
}

// Fleet-scale serving benchmark: one server process, a shared pre-encoded
// document cache, and 1k/10k/100k concurrent weakly-connected sessions run to
// termination on the sharded fleet engine (src/fleet).
//
// Reported per scale:
//   sessions/s      engine throughput (sessions retired per wall second)
//   kframes/s       engine throughput in analytic frames
//   agg Mbps        offered wire load on the *simulated* clock
//   makespan        last session end on the simulated clock
//   p50/p99         session-time tails on the simulated clock (exact order
//                   statistics; --json adds p95/p999/mean and a Student-t CI)
//   completed/gave_up and cache hit/miss accounting
// and, after the table, the process's peak resident set size.
//
// Flags: --sessions=N (single scale instead of the sweep), --million (adds an
// opt-in 1M-session scale), --shards=S, --gamma=G, --alpha=A, --corpus=D,
// --spread=SECONDS, --json[=PATH]. MOBIWEB_FAST=1 trims the sweep to a prefix
// (1k/10k) so CI baselines stay key-compatible with full runs.
// --timeline[=PATH] runs one telemetry-instrumented fleet instead (with
// --bucket=SECONDS, --trace-top=FRACTION, --slo-tolerance=DRIFT) and emits
// the "mobiweb-timeline/1" document scripts/slo_check.py gates on.
//
// Weak-connectivity / workload knobs (all default off = legacy behavior):
//   --duty=D        per-session Markov link fades with long-run outage duty D
//                   (mean fade --down=SECONDS, default 8); sessions suspend
//                   with backoff and can terminate degraded
//   --zipf=S        Zipf(S) document popularity instead of round-robin
//   --arrival=HZ    Poisson session arrivals at HZ instead of the uniform
//                   stagger over --spread
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "stats/describe.hpp"

namespace bench = mobiweb::bench;
namespace fleet = mobiweb::fleet;
using mobiweb::TextTable;

namespace {

struct Scale {
  std::size_t sessions;
  const char* label;
};

fleet::FleetConfig base_config(int argc, char** argv) {
  fleet::FleetConfig cfg;
  cfg.corpus.corpus_size =
      static_cast<std::size_t>(bench::arg_double(argc, argv, "corpus", 64.0));
  cfg.corpus.seed = 6200;
  cfg.seed = 42;
  cfg.gammas = {bench::arg_double(argc, argv, "gamma", 1.5)};
  cfg.alpha = bench::arg_double(argc, argv, "alpha", 0.1);
  cfg.shards = static_cast<std::size_t>(bench::arg_double(argc, argv, "shards", 0.0));
  cfg.request_delay = bench::arg_double(argc, argv, "delay", 1.0);
  cfg.arrival_spread_s = bench::arg_double(argc, argv, "spread", 60.0);
  cfg.zipf_s = bench::arg_double(argc, argv, "zipf", 0.0);
  cfg.arrival_rate_hz = bench::arg_double(argc, argv, "arrival", 0.0);
  const double duty = bench::arg_double(argc, argv, "duty", 0.0);
  if (duty > 0.0) {
    const double mean_down = bench::arg_double(argc, argv, "down", 8.0);
    cfg.outage = std::make_shared<mobiweb::channel::MarkovOutageModel>(
        mobiweb::channel::MarkovOutageModel::with_duty_cycle(duty, mean_down));
  }
  return cfg;
}

std::vector<Scale> scales(int argc, char** argv) {
  if (bench::flag_request(argc, argv, "sessions")) {
    const double n = bench::arg_double(argc, argv, "sessions", 10000.0);
    return {{static_cast<std::size_t>(n), "custom"}};
  }
  std::vector<Scale> out = {{1000, "1k"}, {10000, "10k"}};
  if (!bench::fast_mode()) out.push_back({100000, "100k"});
  if (bench::flag_request(argc, argv, "million")) out.push_back({1000000, "1m"});
  return out;
}

fleet::FleetResult run_scale(const fleet::FleetConfig& base, std::size_t sessions) {
  fleet::FleetConfig cfg = base;
  cfg.sessions = sessions;
  fleet::FleetEngine engine(cfg);
  return engine.run();
}

// --timeline[=PATH]: one telemetry-instrumented run emitting the
// "mobiweb-timeline/1" document (time-bucketed series over the simulated
// clock, derived SLO ratio series + verdicts, and the retained tail/failure
// traces as Perfetto traceEvents). The document carries no wall-clock value
// and nothing shard-dependent, so a fixed (seed, sessions) run renders
// byte-identical output at any --shards (pinned in tests and tsan_fleet.sh).
// scripts/slo_check.py consumes the "slo" section as a CI gate.
int emit_timeline(int argc, char** argv, const std::string& path) {
  fleet::FleetConfig cfg = base_config(argc, argv);
  cfg.sessions = static_cast<std::size_t>(bench::arg_double(
      argc, argv, "sessions", bench::fast_mode() ? 2000.0 : 10000.0));
  fleet::FleetTelemetryConfig tc;
  tc.bucket_width_s = bench::arg_double(argc, argv, "bucket", 1.0);
  tc.trace_top_fraction = bench::arg_double(argc, argv, "trace-top", 0.01);
  tc.slo_tolerance = bench::arg_double(argc, argv, "slo-tolerance", 0.5);
  cfg.telemetry = tc;
  fleet::FleetEngine engine(cfg);
  const fleet::FleetResult r = engine.run();
  return bench::emit_json(fleet::timeline_document(r, cfg), path);
}

int emit_json(int argc, char** argv, const std::string& path) {
  const fleet::FleetConfig base = base_config(argc, argv);
  bench::JsonReport report("fleet");
  report.meta("gamma", base.gammas[0]);
  report.meta("alpha", base.alpha);
  report.meta("corpus", static_cast<double>(base.corpus.corpus_size));
  report.meta("spread_s", base.arrival_spread_s);
  report.meta("seed", static_cast<double>(base.seed));
  report.meta("duty", base.outage ? base.outage->outage_fraction() : 0.0);
  report.meta("zipf", base.zipf_s);
  report.meta("arrival_hz", base.arrival_rate_hz);
  for (const auto& [sessions, label] : scales(argc, argv)) {
    const fleet::FleetResult r = run_scale(base, sessions);
    const std::string key = std::string("fleet_") + label;
    // Timing metrics (gated, higher-is-better):
    report.metric(key + ".sessions_per_s", r.sessions_per_s());
    report.metric(key + ".frames_per_s", r.frames_per_s());
    // Deterministic workload facts (gated but exactly reproducible):
    report.metric(key + ".aggregate_mbps", r.aggregate_mbps());
    report.metric(key + ".completed", static_cast<double>(r.completed));
    // Informational (no gating suffix):
    report.metric(key + ".gave_up_count", static_cast<double>(r.gave_up));
    report.metric(key + ".degraded_count", static_cast<double>(r.degraded));
    report.metric(key + ".frames_lost_count", static_cast<double>(r.frames_lost));
    report.metric(key + ".suspension_count", static_cast<double>(r.suspensions));
    report.metric(key + ".makespan", r.makespan_s);
    report.metric(key + ".cache_hit_count", static_cast<double>(r.cache_hits));
    report.metric(key + ".cache_miss_count", static_cast<double>(r.cache_misses));
    // Session-time distribution on the simulated clock (deterministic for a
    // fixed seed). The _p50/_p95/_p99/_p999/_mean suffixes strip back to
    // *_s, so bench_diff.py gates them lower-is-better — a p99 regression
    // fails CI even when the mean is flat; _ci95 stays informational.
    const mobiweb::stats::TailSummary& t = r.session_time_tails;
    report.metric(key + ".session_time_s_mean", t.mean);
    report.metric(key + ".session_time_s_p50", t.p50);
    report.metric(key + ".session_time_s_p95", t.p95);
    report.metric(key + ".session_time_s_p99", t.p99);
    report.metric(key + ".session_time_s_p999", t.p999);
    report.metric(key + ".session_time_s_ci95", t.ci95);
  }
  return bench::emit_json(report.str(), path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {"alpha", "arrival", "bucket", "corpus", "delay", "down",
                      "duty", "gamma", "json", "million", "sessions", "shards",
                      "slo-tolerance", "spread", "timeline", "trace-top",
                      "zipf"});
  if (const auto path = bench::flag_request(argc, argv, "timeline")) {
    return emit_timeline(argc, argv, *path);
  }
  if (const auto path = bench::json_request(argc, argv)) {
    return emit_json(argc, argv, *path);
  }
  const fleet::FleetConfig base = base_config(argc, argv);
  bench::print_header(
      "Fleet engine — one server, a shared cooked-packet cache, 100k sessions",
      "Sharded discrete-event replay of the paper's client state machine at\n"
      "server scale: every session draws IDA-encoded frames from one shared\n"
      "pre-encoded DocumentCache (encode once per (document, gamma)).");

  TextTable table({"sessions", "shards", "completed", "gave_up", "degraded",
                   "Mframes", "agg Mbps", "makespan s", "p50 s", "p99 s",
                   "wall s", "sessions/s", "cache h/m"});
  for (const auto& [sessions, label] : scales(argc, argv)) {
    const fleet::FleetResult r = run_scale(base, sessions);
    table.add_row(
        {std::to_string(r.sessions), std::to_string(r.shards),
         std::to_string(r.completed), std::to_string(r.gave_up),
         std::to_string(r.degraded),
         TextTable::fmt(static_cast<double>(r.frames_sent) / 1e6, 2),
         TextTable::fmt(r.aggregate_mbps(), 2), TextTable::fmt(r.makespan_s, 1),
         TextTable::fmt(r.session_time_tails.p50, 2),
         TextTable::fmt(r.session_time_tails.p99, 2),
         TextTable::fmt(r.elapsed_s, 2), TextTable::fmt(r.sessions_per_s(), 0),
         std::to_string(r.cache_hits) + "/" + std::to_string(r.cache_misses)});
  }
  bench::print_table("Fleet scaling (gamma = " + TextTable::fmt(base.gammas[0], 1) +
                         ", alpha = " + TextTable::fmt(base.alpha, 2) + ")",
                     table);
  // Human-readable output only: the --json and --timeline documents are
  // goldened, and RSS is the host's, not the simulation's.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("peak RSS: %.1f MB\n", static_cast<double>(usage.ru_maxrss) / 1024.0);
  return 0;
}

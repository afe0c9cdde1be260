// Workload runner behind perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload for S wall seconds and prints one JSON line of raw
// samples: the wall time of every operation, the wall time of every set-up,
// and (with --trace 1) per-layer busy time from obs::Profiler. run.py turns
// them into the reported metrics.
//
// Workloads (every input is a pure function of the seed):
//   warm_fleet  20k sessions per operation on the fleet engine over a
//               prefilled DocumentCache: every lookup hits, so the timed part
//               is the analytic event loop, merge and tail statistics.
//   weak_fleet  10k sessions per operation through the edge proxy tier, with
//               Markov link fades and origin outages, replica staleness,
//               handoffs, Zipf popularity, Poisson arrivals and telemetry on;
//               the timed part also renders the mobiweb-timeline/1 document.
//   byte_path   400 fleet sessions per operation replayed on the real stack:
//               cooked frames over a WirelessChannel, CRC checks, streaming
//               IDA decode and reconstruction. The timed part is the replay.
//
// Correctness: before the window, the same fleet runs once on two shards with
// every session's outcome recorded. Each operation (one shard) must reproduce
// that run's shard-invariant aggregates and timeline document exactly, serve
// from the cache without a single build, and account for every session. Each
// operation also re-checks sampled sessions of the reference (all of them in
// byte_path): a direct session is replayed on the real TransferSession (or
// ResilientSession, under link fades) with the engine's own random streams
// and must match its outcome field for field and rebuild the payload byte
// for byte; a proxied session is re-run through
// sim::simulate_proxied_transfer with its own streams and must match it field
// for field, and is replayed on the real stack as above from a second
// reference run with the edge tier taken out.
//
// Set-up is the cold start of the workload's server: a fresh DocumentCache
// filled with every (document, gamma) the workload serves, on this thread
// alone. It runs once before the window and, in untraced runs, again between
// operations (kSetupReps in all), and is never inside an operation's time.
// Every workload reports it; warm_fleet and byte_path serve the same corpus,
// so theirs time the same cold start.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "fleet/telemetry.hpp"
#include "ida/ida.hpp"
#include "obs/profile.hpp"
#include "sim/proxied.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "transmit/session.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace mw = mobiweb;
namespace channel = mobiweb::channel;
namespace fleet = mobiweb::fleet;
namespace obs = mobiweb::obs;
namespace transmit = mobiweb::transmit;

using Clock = std::chrono::steady_clock;

// The engine runs one shard, and set-up runs on one thread: on a shared host,
// extra threads mostly measure other tenants' load. (Inside an operation the
// IDA decoder still fans rows out over the global pool once a decode is large
// enough; that is the program's own choice and stays measured.) Shard
// invariance is checked against a two-shard reference run.
constexpr std::size_t kVerifyShards = 2;
constexpr std::size_t kSetupReps = 15;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  fleet::FleetConfig config;
  std::size_t replay_every = 1;  // check one session in this many per op
  bool time_replay = false;      // the timed part is the session checks
};

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  fleet::FleetConfig& c = w.config;
  c.seed = seed;
  c.corpus.seed = mw::SplitMix64(seed).next();
  c.shards = 1;
  c.arrival_spread_s = 60.0;
  c.corpus.corpus_size = 1024;
  if (name == "warm_fleet") {
    c.sessions = 20000;
    w.replay_every = 2500;
  } else if (name == "weak_fleet") {
    c.sessions = 10000;
    c.gammas = {1.25, 1.5};
    c.zipf_s = 0.8;
    c.arrival_rate_hz = 200.0;
    c.outage = std::make_shared<channel::MarkovOutageModel>(
        channel::MarkovOutageModel::with_duty_cycle(0.2, 8.0));
    c.telemetry = fleet::FleetTelemetryConfig{};
    fleet::FleetProxyConfig& p = c.proxy.emplace();
    p.model.warm_hit = 0.6;
    p.model.replica_age_mean_s = 40.0;
    p.model.handoff_rate = 0.1;
    p.model.update_interval_s = 15.0;
    p.origin_outage = std::make_shared<channel::MarkovOutageModel>(
        channel::MarkovOutageModel::with_duty_cycle(0.25, 6.0));
    w.replay_every = 1250;
  } else if (name == "byte_path") {
    c.sessions = 400;
    c.alpha = 0.2;
    w.replay_every = 1;
    w.time_replay = true;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  return w;
}

// Every (document, gamma) the workload serves: its server's cold start.
std::vector<fleet::CacheKey> corpus_keys(const fleet::FleetConfig& c) {
  std::vector<fleet::CacheKey> keys;
  for (std::uint32_t d = 0; d < c.corpus.corpus_size; ++d) {
    for (const double g : c.gammas) keys.push_back({d, g});
  }
  return keys;
}

// Builds every key into `cache` on this thread alone, with the IDA row
// fan-out off, and returns the wall time it took.
double cold_start(fleet::DocumentCache& cache,
                  const std::vector<fleet::CacheKey>& keys) {
  const std::size_t threshold =
      mw::ida::set_parallel_threshold(std::numeric_limits<std::size_t>::max());
  const auto start = Clock::now();
  for (const fleet::CacheKey& key : keys) cache.get(key);
  const double s = seconds_since(start);
  mw::ida::set_parallel_threshold(threshold);
  return s;
}

// The engine draws session i's frame corruption from
// Rng(session_seed(seed, i)), one Bernoulli(alpha) per frame that reaches the
// air. Drawing from the same stream makes the real channel corrupt exactly
// the frames the engine corrupted.
class SessionErrors final : public channel::ErrorModel {
 public:
  SessionErrors(double alpha, mw::Rng rng) : alpha_(alpha), rng_(rng) {}
  bool next_corrupted(mw::Rng& /*channel_rng*/) override {
    return rng_.next_bernoulli(alpha_);
  }
  [[nodiscard]] double steady_state_rate() const override { return alpha_; }
  [[nodiscard]] std::unique_ptr<channel::ErrorModel> clone() const override {
    return std::make_unique<SessionErrors>(*this);
  }

 private:
  double alpha_;
  mw::Rng rng_;
};

// Likewise for link fades: the session's clone of the outage prototype,
// driven by the session's own outage stream instead of the channel's.
class SessionOutage final : public channel::OutageModel {
 public:
  SessionOutage(std::unique_ptr<channel::OutageModel> model, mw::Rng rng)
      : model_(std::move(model)), rng_(rng) {}
  bool link_up(double time, mw::Rng& /*channel_rng*/) override {
    return model_->link_up(time, rng_);
  }
  [[nodiscard]] double outage_fraction() const override {
    return model_->outage_fraction();
  }
  [[nodiscard]] std::unique_ptr<channel::OutageModel> clone() const override {
    return std::make_unique<SessionOutage>(model_->clone(), rng_);
  }

 private:
  std::unique_ptr<channel::OutageModel> model_;
  mw::Rng rng_;
};

bool status_matches(const mw::sim::TransferResult& r, transmit::SessionStatus s) {
  switch (s) {
    case transmit::SessionStatus::kCompleted: return r.completed;
    case transmit::SessionStatus::kAbortedIrrelevant: return r.aborted_irrelevant;
    case transmit::SessionStatus::kDegraded: return r.degraded;
    case transmit::SessionStatus::kGaveUp: return r.gave_up;
  }
  return false;
}

// Replays one direct fleet session on the real stack. True when the real
// session matches the engine's outcome and a completed transfer rebuilds the
// payload.
bool replay_matches(const fleet::FleetConfig& c,
                    const fleet::CookedDocument& cooked,
                    const fleet::SessionOutcome& out) {
  const transmit::DocumentTransmitter& tx = cooked.transmitter;
  transmit::ReceiverConfig rc;
  rc.doc_id = tx.doc_id();
  rc.m = tx.m();
  rc.n = tx.n();
  rc.packet_size = tx.packet_size();
  rc.payload_size = tx.payload_size();
  rc.caching = c.caching;
  transmit::ClientReceiver receiver(rc, tx.document().segments);

  channel::ChannelConfig cc;
  cc.bandwidth_bps = c.bandwidth_bps;
  if (c.outage) cc.feedback_delay_s = c.request_delay;  // the engine's re-request charge
  channel::WirelessChannel ch(
      cc, std::make_unique<SessionErrors>(
              c.alpha, mw::Rng(fleet::session_seed(c.seed, out.session))));

  const mw::sim::TransferResult& want = out.result;
  bool same = false;
  if (c.outage) {
    ch.set_outage(std::make_unique<SessionOutage>(
        c.outage->session_clone(),
        mw::Rng(fleet::session_outage_seed(c.seed, out.session))));
    transmit::ResilientConfig rcfg;
    rcfg.relevance_threshold = c.relevance_threshold;
    rcfg.max_rounds = c.max_rounds;
    rcfg.retry.retry_budget = c.retry.retry_budget;
    rcfg.retry.initial_timeout_s = c.retry.initial_timeout_s;
    rcfg.retry.backoff_multiplier = c.retry.backoff_multiplier;
    rcfg.retry.max_backoff_s = c.retry.max_backoff_s;
    rcfg.retry.jitter = c.retry.jitter;
    rcfg.retry.deadline_s = c.retry.deadline_s;
    rcfg.jitter_seed = fleet::session_jitter_seed(c.seed, out.session);
    const transmit::ResilientResult rr =
        transmit::ResilientSession(tx, receiver, ch, rcfg).run();
    same = status_matches(want, rr.session.status) &&
           want.rounds == rr.session.rounds &&
           want.packets == rr.session.frames_sent &&
           want.suspensions == rr.outages_ridden &&
           want.request_attempts == rr.request_attempts &&
           want.frames_lost == ch.stats().frames_lost &&
           want.backoff_s == rr.backoff_total_s;
  } else {
    transmit::SessionConfig scfg;
    scfg.relevance_threshold = c.relevance_threshold;
    scfg.request_delay_s = c.request_delay;
    scfg.max_rounds = c.max_rounds;
    const transmit::SessionResult sr =
        transmit::TransferSession(tx, receiver, ch, scfg).run();
    same = status_matches(want, sr.status) && want.rounds == sr.rounds &&
           want.packets == sr.frames_sent;
  }
  if (!same || receiver.complete() != want.completed) return false;
  return !want.completed || receiver.reconstruct() == tx.document().payload;
}

// Session-time view of one outage process: the session's clone of the
// prototype, driven by the session's own stream.
std::function<bool(double)> session_link(const channel::OutageModel& prototype,
                                         std::uint64_t seed) {
  const std::shared_ptr<channel::OutageModel> model = prototype.session_clone();
  const auto rng = std::make_shared<mw::Rng>(seed);
  return [model, rng](double t) { return model->link_up(t, *rng); };
}

// Re-runs one proxied fleet session through the analytic proxied walk with
// the session's own streams. True when every result field agrees.
bool oracle_matches(const fleet::FleetConfig& c,
                    const fleet::CookedDocument& cooked,
                    const fleet::SessionOutcome& out) {
  mw::sim::ProxiedTransferConfig pc;
  pc.base.m = static_cast<int>(cooked.transmitter.m());
  pc.base.n = static_cast<int>(cooked.transmitter.n());
  pc.base.alpha = c.alpha;
  pc.base.caching = c.caching;
  pc.base.relevance_threshold = c.relevance_threshold;
  pc.base.time_per_packet =
      static_cast<double>(cooked.frame_size) * 8.0 / c.bandwidth_bps;
  pc.base.request_delay = c.request_delay;
  pc.base.max_rounds = c.max_rounds;
  if (c.outage) {
    pc.base.link_up =
        session_link(*c.outage, fleet::session_outage_seed(c.seed, out.session));
  }
  if (c.proxy->origin_outage) {
    pc.origin_up = session_link(*c.proxy->origin_outage,
                                fleet::session_origin_seed(c.seed, out.session));
  }
  pc.retry = c.retry;
  pc.proxy = c.proxy->model;
  pc.jitter_seed = fleet::session_jitter_seed(c.seed, out.session);
  pc.proxy_seed = fleet::session_proxy_seed(c.seed, out.session);
  mw::Rng rng(fleet::session_seed(c.seed, out.session));
  const mw::sim::ProxiedTransferResult want =
      mw::sim::simulate_proxied_transfer(cooked.clear_content, pc, rng);

  const mw::sim::TransferResult& r = out.result;
  const mw::sim::TransferResult& w = want.transfer;
  const mw::sim::ProxyStats& p = out.proxy;
  const mw::sim::ProxyStats& q = want.proxy;
  return std::tie(r.time, r.packets, r.rounds, r.completed, r.aborted_irrelevant,
                  r.gave_up, r.degraded, r.content, r.frames_lost, r.suspensions,
                  r.request_attempts, r.backoff_s) ==
             std::tie(w.time, w.packets, w.rounds, w.completed,
                      w.aborted_irrelevant, w.gave_up, w.degraded, w.content,
                      w.frames_lost, w.suspensions, w.request_attempts,
                      w.backoff_s) &&
         std::tie(p.replica_hits, p.stale_serves, p.failovers, p.handoffs,
                  p.origin_fetches, p.origin_suspensions, p.reconciliations,
                  p.packets_refetched, p.stale_frames, p.ended_stale,
                  p.origin_generation_bumps, p.reconcile_dropped_packets) ==
             std::tie(q.replica_hits, q.stale_serves, q.failovers, q.handoffs,
                      q.origin_fetches, q.origin_suspensions, q.reconciliations,
                      q.packets_refetched, q.stale_frames, q.ended_stale,
                      q.origin_generation_bumps, q.reconcile_dropped_packets);
}

// The aggregates the engine promises are identical at any shard count.
bool same_invariants(const fleet::FleetResult& a, const fleet::FleetResult& b) {
  const mw::stats::TailSummary& s = a.session_time_tails;
  const mw::stats::TailSummary& t = b.session_time_tails;
  const fleet::FleetProxyTotals& p = a.proxy;
  const fleet::FleetProxyTotals& q = b.proxy;
  return std::tie(a.completed, a.gave_up, a.aborted_irrelevant, a.degraded,
                  a.frames_sent, a.frames_lost, a.rounds, a.suspensions,
                  a.bytes_sent, a.makespan_s, s.p50, s.p95, s.p99, s.p999) ==
             std::tie(b.completed, b.gave_up, b.aborted_irrelevant, b.degraded,
                      b.frames_sent, b.frames_lost, b.rounds, b.suspensions,
                      b.bytes_sent, b.makespan_s, t.p50, t.p95, t.p99, t.p999) &&
         std::tie(p.replica_hits, p.stale_serves, p.failovers, p.handoffs,
                  p.origin_fetches, p.origin_suspensions, p.reconciliations,
                  p.packets_refetched, p.stale_frames, p.sessions_ended_stale,
                  p.origin_generation_bumps, p.reconcile_dropped_packets) ==
             std::tie(q.replica_hits, q.stale_serves, q.failovers, q.handoffs,
                      q.origin_fetches, q.origin_suspensions, q.reconciliations,
                      q.packets_refetched, q.stale_frames, q.sessions_ended_stale,
                      q.origin_generation_bumps, q.reconcile_dropped_packets);
}

std::string timeline_of(const fleet::FleetResult& r, const fleet::FleetConfig& c) {
  return c.telemetry ? fleet::timeline_document(r, c) : std::string();
}

// A fleet run on kVerifyShards shards, from its own cold cache, with every
// session's outcome recorded.
fleet::FleetResult recorded_run(fleet::FleetConfig c) {
  c.shards = kVerifyShards;
  c.record_outcomes = true;
  mw::ThreadPool pool(kVerifyShards - 1);
  return fleet::FleetEngine(c).run(&pool);
}

// The workload's fleet, recorded. Timed operations run on one shard and must
// reproduce its invariants and timeline, so each of them also checks shard
// invariance; the session checks re-run its outcomes. A proxied fleet is also
// recorded with the edge tier taken out, so that its sessions can be replayed
// on the real resilient stack as well.
struct Reference {
  fleet::FleetResult result;
  std::string timeline;
  std::vector<fleet::SessionOutcome> direct;
};

Reference reference_run(const fleet::FleetConfig& config) {
  Reference ref;
  ref.result = recorded_run(config);
  ref.timeline = timeline_of(ref.result, config);
  if (config.proxy) {
    fleet::FleetConfig c = config;
    c.proxy.reset();
    c.telemetry.reset();
    ref.direct = recorded_run(c).outcomes;
  }
  return ref;
}

// Checks session i of the reference: a proxied one against the analytic
// proxied walk and, edge tier taken out, on the real stack; a direct one on
// the real stack.
bool session_matches(const fleet::FleetConfig& c, fleet::DocumentCache& cache,
                     const Reference& ref, std::size_t i) {
  MOBIWEB_PROFILE_SCOPE("bench.replay");
  const fleet::SessionOutcome& out = ref.result.outcomes[i];
  const auto cooked = cache.get(out.key);
  if (!c.proxy) return replay_matches(c, *cooked, out);
  fleet::FleetConfig direct = c;
  direct.proxy.reset();
  return oracle_matches(c, *cooked, out) &&
         replay_matches(direct, *cache.get(ref.direct[i].key), ref.direct[i]);
}

struct OpOutcome {
  double timed_s = 0.0;
  long replayed = 0;
  long mismatches = 0;
  bool correct = false;  // reference reproduced, every session in one end state
};

// One operation: the fleet run (plus the timeline document when telemetry is
// on), then checks of the reference sessions whose index is congruent to
// `op_index` modulo replay_every, so successive operations cover new ones.
OpOutcome run_op(const Workload& w, fleet::FleetEngine& engine,
                 mw::ThreadPool& pool, const Reference& ref,
                 std::size_t op_index) {
  const fleet::FleetConfig& c = w.config;
  OpOutcome op;
  const auto start = Clock::now();
  fleet::FleetResult r;
  std::string timeline;
  {
    MOBIWEB_PROFILE_SCOPE("bench.fleet");
    r = engine.run(&pool);
    timeline = timeline_of(r, c);
  }
  const double fleet_s = seconds_since(start);

  const std::vector<fleet::SessionOutcome>& outcomes = ref.result.outcomes;
  const auto replay_start = Clock::now();
  for (std::size_t i = op_index % w.replay_every; i < outcomes.size();
       i += w.replay_every) {
    ++op.replayed;
    if (!session_matches(c, engine.cache(), ref, i)) ++op.mismatches;
  }
  const double replay_s = seconds_since(replay_start);

  op.timed_s = w.time_replay ? replay_s : fleet_s;
  op.correct = same_invariants(r, ref.result) && timeline == ref.timeline &&
               r.completed + r.gave_up + r.aborted_irrelevant + r.degraded ==
                   static_cast<long>(c.sessions);
  return op;
}

double self_ms(const std::vector<obs::ProfileEntry>& report,
               std::initializer_list<std::string_view> names) {
  double s = 0.0;
  for (const obs::ProfileEntry& e : report) {
    for (const std::string_view n : names) {
      if (e.name == n) s += e.self_s;
    }
  }
  return s * 1e3;
}

long calls(const std::vector<obs::ProfileEntry>& report, std::string_view name) {
  for (const obs::ProfileEntry& e : report) {
    if (e.name == name) return e.count;
  }
  return 0;
}

void print_list(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("]");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
      used = value.size();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      have[2] = true;
    } else if (flag == "--trace") {
      a.trace = std::stoi(value, &used) != 0;
      have[3] = true;
    }
    if (used != value.size() || used == 0) {
      throw std::invalid_argument("bad argument " + std::string(flag));
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]) ||
      !(a.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const std::vector<fleet::CacheKey> keys = corpus_keys(w.config);
  // One shard runs inline on the caller; the worker only joins the engine's
  // re-prefill of the warm cache, which is all hits.
  mw::ThreadPool pool(1);

  std::optional<obs::Profiler> profiler;
  if (args.trace) {
    profiler.emplace();
    profiler->attach();
  }

  fleet::FleetEngine engine(w.config);
  std::vector<double> setup_s = {cold_start(engine.cache(), keys)};
  std::vector<obs::ProfileEntry> setup_profile;
  if (profiler) {
    setup_profile = profiler->report();
    profiler->reset();
  }

  const Reference ref = reference_run(w.config);
  // One untimed operation first, to fault in the pages.
  const OpOutcome first = run_op(w, engine, pool, ref, 0);
  long failed = first.mismatches;
  bool correct = first.correct;
  if (profiler) profiler->reset();

  std::vector<double> op_s;
  const auto window = Clock::now();
  do {
    const OpOutcome op = run_op(w, engine, pool, ref, op_s.size() + 1);
    op_s.push_back(op.timed_s);
    failed += op.mismatches;
    correct = correct && op.correct;
    // More cold starts, spread evenly over the window between operations: a
    // shared host's speed drifts over seconds, and this way set-up samples
    // the same conditions the operations do. Traced runs report layers only.
    if (!profiler && setup_s.size() < kSetupReps &&
        seconds_since(window) * kSetupReps >= args.seconds * setup_s.size()) {
      fleet::DocumentCache cold(w.config.corpus);
      setup_s.push_back(cold_start(cold, keys));
    }
  } while (seconds_since(window) < args.seconds);
  std::vector<obs::ProfileEntry> loop_profile;
  if (profiler) {
    loop_profile = profiler->report();
    obs::Profiler::detach();
  }

  // A warm cache never builds: misses stay at the prefilled key count.
  correct = correct && engine.cache().misses() == static_cast<long>(keys.size());
  correct = correct && failed == 0 && first.replayed > 0;

  const double ops = static_cast<double>(op_s.size());
  // The sessions the timed part served: the fleet, or the real replays.
  // Attempted counts the untimed first operation too, as failed does.
  const long per_op = w.time_replay ? first.replayed
                                    : static_cast<long>(w.config.sessions);
  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %ld, "
              "\"failed\": %ld, \"sessions_per_op\": %ld, ",
              args.workload.c_str(), correct ? "true" : "false",
              per_op * static_cast<long>(op_s.size() + 1), failed, per_op);
  print_list("op_s", op_s);
  std::printf(", ");
  print_list("setup_s", setup_s);

  if (profiler) {
    const auto op_ms = [&](std::initializer_list<std::string_view> names) {
      return self_ms(loop_profile, names) / ops;
    };
    double timed_s = 0.0;
    for (const double t : op_s) timed_s += t;
    std::printf(
        ", \"layers\": {\"traced_op_ms\": %.17g, \"fleet_ms\": %.17g, "
        "\"replay_ms\": %.17g, \"session_ms\": %.17g, \"channel_ms\": %.17g, "
        "\"decode_ms\": %.17g, \"gf_kernel_ms\": %.17g, "
        "\"setup_encode_ms\": %.17g, \"setup_kernel_ms\": %.17g, "
        "\"gf_row_calls\": %.17g}",
        timed_s * 1e3 / ops,
        op_ms({"bench.fleet", "fleet.run"}), op_ms({"bench.replay"}),
        op_ms({"session.transfer", "session.resilient"}),
        op_ms({"channel.send"}),
        op_ms({"ida.decode", "ida.reconstruct", "gf.invert", "ida.rows.serial",
                "ida.rows.parallel"}),
        op_ms({"gf.mul_add_row", "gf.mul_row"}),
        self_ms(setup_profile, {"ida.encode", "ida.rows.serial", "ida.rows.parallel"}),
        self_ms(setup_profile, {"gf.mul_add_row", "gf.mul_row"}),
        static_cast<double>(calls(loop_profile, "gf.mul_add_row") +
                            calls(loop_profile, "gf.mul_row")) /
            ops);
  }
  std::printf("}\n");
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

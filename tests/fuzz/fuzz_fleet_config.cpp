// Fuzz target: FleetEngine configuration. The fleet's robustness contract is
// that every configuration is either rejected loudly at construction
// (ContractViolation) or runs every session to a terminal outcome: nothing
// hangs, nothing clamps silently, nothing trips a sanitizer. The harness
// carves a FleetConfig, its RetryConfig and an optional ProxyModelConfig from
// the input, NaN, ±inf, zero and negative values included, and checks that
//
//   * building the configuration (outage prototypes included) and the engine
//     either succeeds or throws ContractViolation,
//   * a built engine has a finite bandwidth and a relevance threshold that
//     is not NaN, and
//   * a built engine's run() returns with
//     completed + aborted_irrelevant + gave_up + degraded == sessions,
//     and every recorded outcome carries exactly one verdict.
//
// Input layout, in carve order (a drained input reads as zeros). A double is
// one selector byte: 0..9 pick NaN, +inf, -inf, 0, -0, -1, 1e-300, 1e300, 1,
// 0.5; 10..31 a negative and 32..255 a non-negative value of magnitude
// u16 / 65535 * scale, the u16 big-endian in the next two bytes.
//   fleet: sessions (1 byte, 0..64), seed (2 bytes), corpus size (1..4),
//     gamma count (1..3), gammas (scale 4), alpha (1), caching (bool),
//     relevance threshold (1.5), bandwidth (40000), request delay (4),
//     max_rounds (-2..40), arrival spread (100), zipf_s (3), arrival rate
//     (10), record_outcomes (bool)
//   link: engaged (bool), then mean up / mean down of a Markov model (20)
//   retry: budget (-2..40), initial timeout (2), multiplier (4), max backoff
//     (60), jitter (1), deadline (200)
//   proxy: engaged (bool), then warm_hit (1), replica age (300), origin
//     fetch delay (2), handoff rate (1), handoff delay (2), update interval
//     (100), proxies (0..8), origin outage engaged (bool) + mean up / down (20)
//   telemetry: engaged (bool), then bucket width (10), max buckets (0..64),
//     trace fraction (1), SLO tolerance (2)
// Sessions run on one shard: fuzzing looks for bad configurations, not races.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "channel/outage.hpp"
#include "fleet/engine.hpp"
#include "fuzz_input.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

using mobiweb::ContractViolation;
using mobiweb::fuzz::FuzzInput;
namespace fleet = mobiweb::fleet;
namespace channel = mobiweb::channel;

namespace {

double take_double(FuzzInput& in, double scale) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kEdges[] = {std::numeric_limits<double>::quiet_NaN(),
                               kInf, -kInf, 0.0, -0.0, -1.0, 1e-300, 1e300, 1.0, 0.5};
  constexpr std::uint8_t kEdgeCount = sizeof(kEdges) / sizeof(kEdges[0]);
  const std::uint8_t sel = in.take_byte();
  if (sel < kEdgeCount) return kEdges[sel];
  const double v = static_cast<double>(in.take_in_range(0, 0xffff)) / 0xffff * scale;
  return sel < 32 ? -v : v;
}

int take_int(FuzzInput& in, int lo, int hi) {
  return lo + static_cast<int>(in.take_in_range(0, static_cast<std::uint64_t>(hi - lo)));
}

std::shared_ptr<const channel::OutageModel> take_markov(FuzzInput& in) {
  const double up = take_double(in, 20.0);
  const double down = take_double(in, 20.0);
  return std::make_shared<channel::MarkovOutageModel>(up, down);
}

fleet::FleetConfig take_config(FuzzInput& in) {
  fleet::FleetConfig c;
  c.corpus.doc.doc_size = 2048;  // m = 8 raw packets at the default 256 B
  c.corpus.doc.sections = 2;
  c.sessions = static_cast<std::size_t>(take_int(in, 0, 64));
  c.shards = 1;
  c.seed = in.take_in_range(0, 0xffff);
  c.corpus.corpus_size = static_cast<std::size_t>(take_int(in, 1, 4));
  c.gammas.assign(static_cast<std::size_t>(take_int(in, 1, 3)), 0.0);
  for (double& g : c.gammas) g = take_double(in, 4.0);
  c.alpha = take_double(in, 1.0);
  c.caching = in.take_bool();
  c.relevance_threshold = take_double(in, 1.5);
  c.bandwidth_bps = take_double(in, 40000.0);
  c.request_delay = take_double(in, 4.0);
  c.max_rounds = take_int(in, -2, 40);
  c.arrival_spread_s = take_double(in, 100.0);
  c.zipf_s = take_double(in, 3.0);
  c.arrival_rate_hz = take_double(in, 10.0);
  c.record_outcomes = in.take_bool();
  if (in.take_bool()) c.outage = take_markov(in);

  mobiweb::sim::RetryConfig& r = c.retry;
  r.retry_budget = take_int(in, -2, 40);
  r.initial_timeout_s = take_double(in, 2.0);
  r.backoff_multiplier = take_double(in, 4.0);
  r.max_backoff_s = take_double(in, 60.0);
  r.jitter = take_double(in, 1.0);
  r.deadline_s = take_double(in, 200.0);

  if (in.take_bool()) {
    fleet::FleetProxyConfig p;
    mobiweb::sim::ProxyModelConfig& m = p.model;
    m.warm_hit = take_double(in, 1.0);
    m.replica_age_mean_s = take_double(in, 300.0);
    m.origin_fetch_delay_s = take_double(in, 2.0);
    m.handoff_rate = take_double(in, 1.0);
    m.handoff_delay_s = take_double(in, 2.0);
    m.update_interval_s = take_double(in, 100.0);
    m.proxies = static_cast<std::uint32_t>(take_int(in, 0, 8));
    if (in.take_bool()) p.origin_outage = take_markov(in);
    c.proxy = std::move(p);
  }
  if (in.take_bool()) {
    fleet::FleetTelemetryConfig t;
    t.bucket_width_s = take_double(in, 10.0);
    t.max_buckets = static_cast<std::size_t>(take_int(in, 0, 64));
    t.trace_top_fraction = take_double(in, 1.0);
    t.slo_tolerance = take_double(in, 2.0);
    c.telemetry = t;
  }
  return c;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > 4096) return 0;
  FuzzInput in(data, size);
  std::optional<fleet::FleetEngine> engine;
  try {
    engine.emplace(take_config(in));
  } catch (const ContractViolation&) {
    return 0;  // rejected loudly at construction
  }
  // A value without meaning is rejected, never run: an infinite bandwidth
  // gives every frame zero airtime, a NaN relevance threshold reads as
  // "relevant".
  const fleet::FleetConfig& c = engine->config();
  MOBIWEB_FUZZ_ASSERT(std::isfinite(c.bandwidth_bps), "an infinite bandwidth was accepted");
  MOBIWEB_FUZZ_ASSERT(!std::isnan(c.relevance_threshold),
                      "a NaN relevance threshold was accepted");
  static mobiweb::ThreadPool pool(1);
  const fleet::FleetResult r = engine->run(&pool);
  const std::size_t sessions = engine->config().sessions;
  MOBIWEB_FUZZ_ASSERT(r.sessions == sessions, "result covers a different fleet");
  MOBIWEB_FUZZ_ASSERT(r.completed + r.aborted_irrelevant + r.gave_up + r.degraded ==
                          static_cast<long>(sessions),
                      "a session ended without exactly one verdict");
  for (const fleet::SessionOutcome& o : r.outcomes) {
    const mobiweb::sim::TransferResult& t = o.result;
    MOBIWEB_FUZZ_ASSERT(t.completed + t.aborted_irrelevant + t.gave_up + t.degraded == 1,
                        "a recorded outcome carries other than one verdict");
  }
  return 0;
}

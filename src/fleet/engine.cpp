#include "fleet/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "ida/ida.hpp"
#include "obs/profile.hpp"
#include "sim/walk.hpp"
#include "util/check.hpp"

namespace mobiweb::fleet {

namespace {

// A finished session still in the running for trace retention, by its
// ranking key. Only replayed into a full SessionTrace after the global tail
// selection.
struct Ranked {
  double time = 0.0;
  std::uint32_t session = 0;
};

struct ShardTotals {
  FleetResult sum;  // this shard's share of the integer aggregates and makespan
  // Telemetry (engaged only with FleetConfig::telemetry): this shard's time
  // buckets plus its trace candidates — every degraded / gave-up session,
  // and a bounded heap of the k slowest others (any global top-k member is
  // necessarily within its own shard's top k).
  obs::TimeSeries ts;
  std::vector<Ranked> failed;
  std::vector<Ranked> tail;
};

// The FleetProxyTotals fields, for the field-wise sum.
constexpr long FleetProxyTotals::* kProxyCounters[] = {
    &FleetProxyTotals::replica_hits,
    &FleetProxyTotals::stale_serves,
    &FleetProxyTotals::failovers,
    &FleetProxyTotals::handoffs,
    &FleetProxyTotals::origin_fetches,
    &FleetProxyTotals::origin_suspensions,
    &FleetProxyTotals::reconciliations,
    &FleetProxyTotals::packets_refetched,
    &FleetProxyTotals::stale_frames,
    &FleetProxyTotals::sessions_ended_stale,
    &FleetProxyTotals::origin_generation_bumps,
    &FleetProxyTotals::reconcile_dropped_packets,
};

// The fleet-wide round parameters of every walk; m, n and the frame time are
// set per document (FleetEngine::make_walk).
sim::TransferConfig round_config(const FleetConfig& c) {
  sim::TransferConfig base;
  base.alpha = c.alpha;
  base.caching = c.caching;
  base.relevance_threshold = c.relevance_threshold;
  base.request_delay = c.request_delay;
  base.max_rounds = c.max_rounds;
  return base;
}

std::uint64_t salted_session_seed(std::uint64_t fleet_seed, std::uint64_t salt,
                                  std::uint64_t session) {
  return session_seed(fleet_seed ^ salt, session);
}

}  // namespace

void FleetProxyTotals::add(const sim::ProxyStats& s) {
  replica_hits += s.replica_hits;
  stale_serves += s.stale_serves;
  failovers += s.failovers;
  handoffs += s.handoffs;
  origin_fetches += s.origin_fetches;
  origin_suspensions += s.origin_suspensions;
  reconciliations += s.reconciliations;
  packets_refetched += s.packets_refetched;
  stale_frames += s.stale_frames;
  sessions_ended_stale += s.ended_stale ? 1 : 0;
  origin_generation_bumps += s.origin_generation_bumps;
  reconcile_dropped_packets += s.reconcile_dropped_packets;
}

FleetProxyTotals& FleetProxyTotals::operator+=(const FleetProxyTotals& other) {
  for (const auto counter : kProxyCounters) this->*counter += other.*counter;
  return *this;
}

std::uint64_t session_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  SplitMix64 mix(fleet_seed ^ (0xD1B54A32D192ED03ull * (session + 1)));
  mix.next();
  return mix.next();
}

std::uint64_t session_outage_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x6f757461676521ull, session);  // "outage!"
}

std::uint64_t session_jitter_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x6a69747465727aull, session);  // "jitterz"
}

std::uint64_t session_zipf_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x7a6970666421ull, session);  // "zipfd!"
}

std::uint64_t fleet_arrival_seed(std::uint64_t fleet_seed) {
  return salted_session_seed(fleet_seed, 0x706f7373696eull, 0);  // "possin"
}

std::uint64_t session_proxy_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x70726f787921ull, session);  // "proxy!"
}

std::uint64_t session_origin_seed(std::uint64_t fleet_seed, std::uint64_t session) {
  return salted_session_seed(fleet_seed, 0x6f726967696e21ull, session);  // "origin!"
}

std::uint32_t session_proxy_assignment(std::uint64_t fleet_seed,
                                       std::uint64_t session,
                                       std::uint32_t proxies) {
  MOBIWEB_CHECK_MSG(proxies >= 1, "session_proxy_assignment: proxies >= 1");
  return static_cast<std::uint32_t>(
      salted_session_seed(fleet_seed, 0x656467656964ull, session) %  // "edgeid"
      proxies);
}

FleetEngine::FleetEngine(FleetConfig config)
    : config_(std::move(config)), cache_(config_.corpus) {
  MOBIWEB_CHECK_MSG(!config_.gammas.empty(), "FleetEngine: no gammas");
  // Every corpus document has the same m, so each (document, γ) the cache
  // would build mid-run is checked against one dispersal group here.
  const std::size_t m =
      ida::packet_count(config_.corpus.doc.doc_size, config_.corpus.doc.packet_size);
  for (const double gamma : config_.gammas) ida::cooked_count(m, gamma);
  MOBIWEB_CHECK_MSG(config_.alpha >= 0.0 && config_.alpha < 1.0,
                    "FleetEngine: alpha in [0,1)");
  MOBIWEB_CHECK_MSG(std::isfinite(config_.bandwidth_bps) && config_.bandwidth_bps > 0.0,
                    "FleetEngine: bandwidth finite and > 0");
  MOBIWEB_CHECK_MSG(config_.zipf_s >= 0.0, "FleetEngine: zipf_s >= 0");
  MOBIWEB_CHECK_MSG(config_.arrival_rate_hz >= 0.0,
                    "FleetEngine: arrival_rate_hz >= 0");
  MOBIWEB_CHECK_MSG(std::isfinite(config_.arrival_spread_s) && config_.arrival_spread_s >= 0.0,
                    "FleetEngine: arrival_spread_s finite and >= 0");
  round_config(config_).validate();
  if (config_.outage != nullptr || config_.proxy.has_value()) config_.retry.validate();
  if (config_.proxy.has_value()) config_.proxy->model.validate();
  if (config_.telemetry.has_value()) {
    const FleetTelemetryConfig& tc = *config_.telemetry;
    MOBIWEB_CHECK_MSG(tc.trace_top_fraction >= 0.0 && tc.trace_top_fraction <= 1.0,
                      "FleetEngine: telemetry trace_top_fraction in [0,1]");
    MOBIWEB_CHECK_MSG(tc.bucket_width_s > 0.0 && std::isfinite(tc.bucket_width_s),
                      "FleetEngine: telemetry bucket_width_s finite and > 0");
    MOBIWEB_CHECK_MSG(tc.max_buckets >= 1, "FleetEngine: telemetry max_buckets >= 1");
    MOBIWEB_CHECK_MSG(tc.slo_tolerance >= 0.0 && std::isfinite(tc.slo_tolerance),
                      "FleetEngine: telemetry slo_tolerance finite and >= 0");
  }

  // Zipf(s) popularity: cumulative weights over document ranks. Each
  // session's draw depends only on (seed, i), so document assignment is
  // deterministic and shard-invariant. zipf_s == 0 keeps round-robin.
  if (config_.zipf_s > 0.0) {
    zipf_cum_.reserve(config_.corpus.corpus_size);
    double acc = 0.0;
    for (std::size_t r = 0; r < config_.corpus.corpus_size; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -config_.zipf_s);
      zipf_cum_.push_back(acc);
    }
  }
  // Poisson arrivals: every start drawn serially from the fleet-wide arrival
  // stream (session 0 at t = 0, exponential inter-arrival gaps), so starts
  // are identical whatever the shard count. Rate 0 keeps the uniform stagger
  // over [0, arrival_spread_s).
  if (config_.arrival_rate_hz > 0.0) {
    poisson_starts_.reserve(config_.sessions);
    Rng arrivals(fleet_arrival_seed(config_.seed));
    double t = 0.0;
    for (std::size_t i = 0; i < config_.sessions; ++i) {
      poisson_starts_.push_back(t);
      // 1 - next_double() is in (0, 1], so the log is finite.
      t += -std::log(1.0 - arrivals.next_double()) / config_.arrival_rate_hz;
    }
  }
}

CacheKey FleetEngine::key_of(std::size_t i) const {
  const std::size_t corpus = config_.corpus.corpus_size;
  std::size_t doc = i % corpus;
  if (!zipf_cum_.empty()) {
    Rng draw(session_zipf_seed(config_.seed, i));
    const double u = draw.next_double() * zipf_cum_.back();
    const auto it = std::upper_bound(zipf_cum_.begin(), zipf_cum_.end(), u);
    doc = std::min(static_cast<std::size_t>(it - zipf_cum_.begin()), corpus - 1);
  }
  return CacheKey{static_cast<std::uint32_t>(doc),
                  config_.gammas[i % config_.gammas.size()]};
}

double FleetEngine::start_of(std::size_t i) const {
  if (!poisson_starts_.empty()) return poisson_starts_[i];
  const std::size_t sessions = config_.sessions;
  return sessions > 1 ? config_.arrival_spread_s *
                            (static_cast<double>(i) / static_cast<double>(sessions))
                      : 0.0;
}

sim::SessionWalk FleetEngine::make_walk(std::size_t i, const CookedDocument& doc) const {
  sim::TransferConfig shape = round_config(config_);
  shape.m = static_cast<int>(doc.transmitter.m());
  shape.n = static_cast<int>(doc.transmitter.n());
  shape.time_per_packet = static_cast<double>(doc.frame_size) * 8.0 / config_.bandwidth_bps;
  const bool proxied = config_.proxy.has_value();
  // Link fades and the edge tier both engage the retry policy.
  const sim::RetryConfig* retry =
      config_.outage != nullptr || proxied ? &config_.retry : nullptr;
  sim::SessionWalk w(doc.clear_content, doc.total_content, shape, retry,
                     proxied ? &config_.proxy->model : nullptr);
  w.corrupt_with(Rng(session_seed(config_.seed, i)));
  w.start_at(start_of(i));
  if (config_.outage != nullptr) {
    w.link_with(config_.outage->session_clone(), Rng(session_outage_seed(config_.seed, i)));
  }
  if (retry != nullptr) {
    w.seed_streams(session_jitter_seed(config_.seed, i), session_proxy_seed(config_.seed, i));
  }
  if (proxied && config_.proxy->origin_outage != nullptr) {
    w.origin_with(config_.proxy->origin_outage->session_clone(),
                  Rng(session_origin_seed(config_.seed, i)));
  }
  return w;
}

obs::SessionTrace FleetEngine::explain(std::size_t i) {
  MOBIWEB_CHECK_MSG(i < config_.sessions, "FleetEngine::explain: no such session");
  sim::SessionWalk walk = make_walk(i, *cache_.get(key_of(i)));
  obs::SessionTrace trace;
  trace.capture_events(true);
  sim::WalkSink sink{&trace, nullptr};
  walk.report_to(&sink);
  walk.run();
  const sim::TransferResult& r = walk.result();
  std::string label = "session " + std::to_string(i);
  if (r.degraded) label += " [degraded]";
  else if (r.gave_up) label += " [gave_up]";
  else if (r.aborted_irrelevant) label += " [aborted]";
  trace.set_label(std::move(label));
  return trace;
}

FleetResult FleetEngine::run(ThreadPool* pool) {
  MOBIWEB_PROFILE_SCOPE("fleet.run");
  const auto wall_start = std::chrono::steady_clock::now();
  if (pool == nullptr) pool = &ThreadPool::global();

  const std::size_t sessions = config_.sessions;
  FleetResult result;
  result.sessions = sessions;
  if (sessions == 0) return result;

  std::size_t shards = config_.shards != 0 ? config_.shards : pool->concurrency();
  shards = std::min(std::max<std::size_t>(shards, 1), sessions);
  result.shards = shards;

  const std::size_t corpus = config_.corpus.corpus_size;
  const std::size_t n_gammas = config_.gammas.size();

  // Warm every (document, γ) the fleet will touch in one batched burst, so
  // the IDA encodes run back-to-back on the pool instead of faulting in
  // lazily underneath 100k sessions. Round-robin assignment walks
  // (i % corpus, gammas[i % n_gammas]), which cycles with period
  // lcm(corpus, n_gammas) — NOT corpus * n_gammas — so that is the true
  // distinct-key count (and what misses() reports afterwards). Zipf
  // assignment has no closed form; enumerate and let prefill dedupe.
  {
    std::vector<CacheKey> keys;
    const std::size_t distinct =
        zipf_cum_.empty() ? std::min(sessions, std::lcm(corpus, n_gammas))
                         : sessions;
    keys.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) keys.push_back(key_of(i));
    cache_.prefill(keys, pool);
  }

  std::vector<ShardTotals> totals(shards);
  // The double aggregates, one column per field, indexed by session: each
  // shard fills its own [lo, hi) and the merge sums them in session order.
  std::vector<double> times(sessions), content(sessions), backoff(sessions);
  if (config_.record_outcomes) result.outcomes.resize(sessions);
  const std::size_t per_shard = (sessions + shards - 1) / shards;
  const bool proxied = config_.proxy.has_value();
  const bool telem = config_.telemetry.has_value();
  const FleetTelemetryConfig tc =
      config_.telemetry.value_or(FleetTelemetryConfig{});
  // Global tail-retention target k (at most `sessions`: the constructor
  // bounds the fraction to [0, 1]). Bounded overhead: every shard retains at
  // most k non-failed candidates, and the final cut keeps exactly k overall.
  const std::size_t tail_target =
      telem ? static_cast<std::size_t>(
                  std::ceil(tc.trace_top_fraction * static_cast<double>(sessions)))
            : 0;
  result.trace_tail_target = tail_target;

  pool->run(shards, [&](std::size_t shard) {
    const std::size_t lo = shard * per_shard;
    const std::size_t hi = std::min(sessions, lo + per_shard);
    if (lo >= hi) return;
    ShardTotals& tot = totals[shard];

    // The shard's one telemetry sink: its walks report only while
    // telemetry is on (one null check per frame when off).
    sim::WalkSink sink;
    if (telem) {
      tot.ts = obs::TimeSeries(tc.bucket_width_s, tc.max_buckets);
      sink.ts = &tot.ts;
    }
    // "a ranks before b": slower first, index breaks ties. The heap keeps
    // the worst retained candidate at the front so it can be displaced.
    const auto cand_before = [](const Ranked& a, const Ranked& b) {
      return ranks_before(a.time, a.session, b.time, b.session);
    };
    const auto offer_tail = [&](Ranked cand) {
      if (tail_target == 0) return;
      std::vector<Ranked>& heap = tot.tail;
      if (heap.size() < tail_target) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), cand_before);
        return;
      }
      if (cand_before(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), cand_before);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), cand_before);
      }
    };

    // One session at a time, in index order: walks share no state, so each
    // runs to its end alone and everything `finish` folds is order-free. A
    // walk reads its document's content profile in place; the cache keeps
    // every document it builds at one address for its lifetime.
    const auto finish = [&](std::size_t index, const sim::SessionWalk& w,
                            const CookedDocument& doc) {
      const sim::TransferResult& r = w.result();
      FleetResult& sum = tot.sum;
      sum.completed += r.completed ? 1 : 0;
      sum.gave_up += r.gave_up ? 1 : 0;
      sum.aborted_irrelevant += r.aborted_irrelevant ? 1 : 0;
      sum.degraded += r.degraded ? 1 : 0;
      sum.frames_sent += r.packets;
      sum.frames_lost += r.frames_lost;
      sum.rounds += r.rounds;
      sum.suspensions += r.suspensions;
      sum.bytes_sent += static_cast<unsigned long long>(r.packets) * doc.frame_size;
      times[index] = r.time;
      content[index] = r.content;
      backoff[index] = r.backoff_s;
      sum.makespan_s = std::max(sum.makespan_s, w.start() + r.time);
      if (proxied) sum.proxy.add(w.proxy());
      if (telem) {
        const Ranked cand{r.time, static_cast<std::uint32_t>(index)};
        if (r.gave_up || r.degraded) {
          tot.failed.push_back(cand);
        } else {
          offer_tail(cand);
        }
      }
      if (config_.record_outcomes) {
        result.outcomes[index] = SessionOutcome{
            static_cast<std::uint32_t>(index), key_of(index), w.start(),
            proxied ? session_proxy_assignment(config_.seed, index,
                                               config_.proxy->model.proxies)
                    : 0,
            r, w.proxy()};
      }
    };
    for (std::size_t i = lo; i < hi; ++i) {
      const CookedDocument& doc = *cache_.get(key_of(i));
      sim::SessionWalk w = make_walk(i, doc);
      if (telem) w.report_to(&sink);
      w.run();
      finish(i, w, doc);
    }
  });

  // Merge. Integer sums and the makespan (a max) are order-independent; the
  // double sums run over the session-indexed columns in session order. So
  // every aggregate is bit-identical at any shard count.
  for (const ShardTotals& tot : totals) {
    const FleetResult& sum = tot.sum;
    result.completed += sum.completed;
    result.gave_up += sum.gave_up;
    result.aborted_irrelevant += sum.aborted_irrelevant;
    result.degraded += sum.degraded;
    result.frames_sent += sum.frames_sent;
    result.frames_lost += sum.frames_lost;
    result.rounds += sum.rounds;
    result.suspensions += sum.suspensions;
    result.bytes_sent += sum.bytes_sent;
    result.makespan_s = std::max(result.makespan_s, sum.makespan_s);
    result.proxy += sum.proxy;
  }
  for (std::size_t i = 0; i < sessions; ++i) {
    result.session_time_s += times[i];
    result.content += content[i];
    result.backoff_s += backoff[i];
  }
  // summarize_tails sorts, so the tails depend only on the multiset of
  // session times (pinned in tests/test_stats_workload.cpp).
  result.session_time_tails = stats::summarize_tails(times);
  // Read before the trace replay below, which looks documents up again.
  result.cache_hits = cache_.hits();
  result.cache_misses = cache_.misses();
  if (telem) {
    // Bucket merge: cells are integers accumulated with +=, so the merged
    // series is independent of shard count and merge order.
    result.timeseries = obs::TimeSeries(tc.bucket_width_s, tc.max_buckets);
    for (ShardTotals& tot : totals) result.timeseries.merge(tot.ts);

    // Global tail selection. Any global top-k non-failed session is within
    // its own shard's top k (its shard holds at most k-1 sessions ranking
    // before it), so gathering the per-shard heaps loses nothing. Failed
    // sessions were kept unconditionally. Sort by the total rank order and
    // cut: the retained set is exactly (global top-k) ∪ (failed), identical
    // whatever the shard count.
    std::vector<std::pair<Ranked, bool>> candidates;  // (rank, failed)
    for (ShardTotals& tot : totals) {
      for (const Ranked& c : tot.failed) candidates.emplace_back(c, true);
      for (const Ranked& c : tot.tail) candidates.emplace_back(c, false);
      tot.failed.clear();
      tot.tail.clear();
    }
    std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
      return ranks_before(a.first.time, a.first.session, b.first.time, b.first.session);
    });
    std::size_t tail_kept = 0;
    for (const auto& [c, failed] : candidates) {
      const bool in_tail = tail_kept < tail_target;
      if (!failed && !in_tail) continue;
      if (in_tail) ++tail_kept;  // failed sessions occupy tail slots too
      result.traces.push_back(RetainedTrace{c.session, c.time, failed, {}});
    }
    // Replay the retained sessions in session order, single-threaded: each
    // trace comes from re-running its walk.
    std::sort(result.traces.begin(), result.traces.end(),
              [](const RetainedTrace& a, const RetainedTrace& b) {
                return a.session < b.session;
              });
    for (RetainedTrace& rt : result.traces) rt.trace = explain(rt.session);
  }
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

}  // namespace mobiweb::fleet

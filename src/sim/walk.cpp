#include "sim/walk.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace mobiweb::sim {

namespace {

// An oracle's availability hook as an outage model (the hook owns its
// randomness; the Rng argument is unused).
class HookOutage final : public channel::OutageModel {
 public:
  explicit HookOutage(const std::function<bool(double)>& up) : up_(up) {}
  bool link_up(double time, Rng&) override { return up_(time); }
  [[nodiscard]] double outage_fraction() const override { return 0.0; }  // unknown
  [[nodiscard]] std::unique_ptr<OutageModel> clone() const override {
    return std::make_unique<HookOutage>(up_);
  }

 private:
  const std::function<bool(double)>& up_;
};

}  // namespace

void WalkSink::end(const TransferResult& r, double at) {
  if (trace != nullptr) {
    if (r.completed) trace->decode_complete(at);
    else if (r.aborted_irrelevant) trace->abort_irrelevant(at, r.content);
    else if (r.degraded) trace->degraded(at, r.content);
    else trace->give_up(at);
    trace->session_end(at, r.content);
  }
  count(obs::Channel::kSessionsEnded, at);
  if (r.gave_up || r.degraded) count(obs::Channel::kSessionsFailed, at);
}

SessionWalk::SessionWalk(const std::vector<double>& clear_content,
                         const TransferConfig& base, const RetryConfig* retry,
                         const ProxyModelConfig* edge)
    : SessionWalk(clear_content,
                  std::accumulate(clear_content.begin(), clear_content.end(), 0.0),
                  base, retry, edge) {}

SessionWalk::SessionWalk(const std::vector<double>& clear_content,
                         double total_content, const TransferConfig& base,
                         const RetryConfig* retry, const ProxyModelConfig* edge)
    : clear_(clear_content.data()),
      total_content_(total_content),
      m_(base.m),
      n_(base.n),
      max_rounds_(base.max_rounds),
      caching_(base.caching),
      relevance_threshold_(base.relevance_threshold),
      time_per_packet_(base.time_per_packet),
      request_delay_(base.request_delay),
      alpha_(base.alpha) {
  base.validate();
  MOBIWEB_CHECK_MSG(static_cast<int>(clear_content.size()) == base.m,
                    "SessionWalk: clear_content must have m entries");
  if (retry != nullptr) {
    retry->validate();
    weak().retry = retry;
    weak_->backoff = retry->initial_timeout_s;
  }
  if (edge != nullptr) {
    MOBIWEB_CHECK_MSG(retry != nullptr, "SessionWalk: the edge tier needs a retry policy");
    edge->validate();
    weak_->edge = edge;
  }
}

SessionWalk::Weak& SessionWalk::weak() {
  if (weak_ == nullptr) weak_ = std::make_unique<Weak>();
  return *weak_;
}

void SessionWalk::link_with(std::unique_ptr<channel::OutageModel> model, Rng rng) {
  weak().link = std::move(model);
  weak_->link_rng = rng;
}

void SessionWalk::origin_with(std::unique_ptr<channel::OutageModel> model, Rng rng) {
  MOBIWEB_CHECK_MSG(has_edge(), "SessionWalk: an origin needs the edge tier");
  weak_->origin = std::move(model);
  weak_->origin_rng = rng;
}

void SessionWalk::seed_streams(std::uint64_t jitter_seed, std::uint64_t proxy_seed) {
  if (weak_ == nullptr) return;
  weak_->jitter_rng.reseed(jitter_seed);
  weak_->proxy_rng.reseed(proxy_seed);
}

void SessionWalk::run() {
  MOBIWEB_CHECK_MSG(!done_, "SessionWalk::run: the walk has already ended");
  if (sink_ != nullptr) sink_->start(clock_);
  // The initial request attaches to the assigned proxy before round 1;
  // degrading here ends the session with zero rounds.
  if (has_edge()) {
    if (!acquire_proxy()) return;
    weak_->held_gen = weak_->replica_gen;
  }
  while (step()) {
  }
}

bool SessionWalk::step() {
  ++result_.rounds;
  if (sink_ != nullptr) sink_->round_start(result_.rounds, clock_);
  // The frame loop runs on local copies of the per-frame state and writes
  // them back once it stops: the model and sink calls in the loop would
  // otherwise make the compiler reload and store every member per frame.
  std::uint64_t* const seen = seen_;
  Weak* const weak = weak_.get();
  channel::OutageModel* const link = weak != nullptr ? weak->link.get() : nullptr;
  const std::function<bool()>* const corrupt = corrupt_;
  WalkSink* const sink = sink_;
  const double* const clear = clear_;
  const int n = n_;
  const int m = m_;
  const double tpp = time_per_packet_;
  const double alpha = alpha_;
  const double threshold = relevance_threshold_;
  const bool skip_held = resend_missing_only_;
  Rng rng = rng_;
  double clock = clock_;
  double t = t_;
  double content = content_;
  long packets = result_.packets;
  int intact = intact_;
  const auto write_back = [&] {
    rng_ = rng;
    clock_ = clock;
    t_ = t;
    content_ = content;
    result_.packets = packets;
    intact_ = intact;
  };
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (skip_held && (seen[i >> 6] & bit) != 0) continue;
    ++packets;
    clock += tpp;
    t += tpp;
    if (link != nullptr && !link->link_up(t, weak->link_rng)) {
      // In a fade: airtime burned, nothing delivered, and the corruption
      // model never sees the frame.
      ++result_.frames_lost;
      if (sink != nullptr) sink->frame(i, FrameFate::kLost, clock, content);
      continue;
    }
    const bool corrupted = corrupt == nullptr ? rng.next_bernoulli(alpha) : (*corrupt)();
    FrameFate fate = FrameFate::kCorrupted;
    if (!corrupted) {
      fate = FrameFate::kDuplicate;
      if ((seen[i >> 6] & bit) == 0) {
        fate = FrameFate::kIntact;
        seen[i >> 6] |= bit;
        ++intact;
        if (weak != nullptr && weak->serving_stale) ++weak->stats.stale_frames;
        if (i < m) content += clear[i];
      }
    }
    if (sink != nullptr) {
      sink->frame(i, fate, clock, intact >= m ? total_content_ : content);
    }
    // Reconstruction (condition 1) outranks the relevance abort (condition
    // 3) when one frame triggers both, as in TransferSession.
    if (intact >= m || (threshold >= 0.0 && content >= threshold)) {
      write_back();
      return end(intact >= m ? &TransferResult::completed
                             : &TransferResult::aborted_irrelevant);
    }
  }
  write_back();

  if (sink_ != nullptr) sink_->round_end(clock_);
  // Give up at the cap before touching the back channel; `>=` so a counter
  // that ever steps past the cap still terminates.
  if (result_.rounds >= max_rounds_) return end(&TransferResult::gave_up);
  int tries = 1;
  if (weak_ == nullptr || weak_->retry == nullptr) {
    // Each request the back channel drops costs one more request_delay (the
    // client's timeout); capped so an always-lost hook cannot hang the walk.
    if (weak_ != nullptr && weak_->feedback_lost != nullptr) {
      while (tries < kMaxFeedbackTries && (*weak_->feedback_lost)()) ++tries;
    }
  } else {
    if (!suspend_while_link_down()) return false;
    // Cell handoff: one proxy-stream Bernoulli per stalled round, drawn
    // even at handoff_rate = 0 so later draws do not depend on the rate.
    if (has_edge() && weak_->proxy_rng.next_bernoulli(weak_->edge->handoff_rate)) {
      ++weak_->stats.handoffs;
      charge(weak_->edge->handoff_delay_s);
      if (sink_ != nullptr) sink_->handoff(clock_, weak_->edge->handoff_delay_s);
      if (!acquire_proxy()) return false;
      reconcile();
    }
    // Re-request until one message survives the back channel. Every
    // attempt, the successful one included, consumes retry budget, and a
    // dropped one costs a backoff wait, as in ResilientSession.
    for (;;) {
      if (budget_exhausted()) return end(&TransferResult::degraded);
      ++result_.request_attempts;
      if (weak_->feedback_lost == nullptr || !(*weak_->feedback_lost)()) break;
      wait_one_backoff();
    }
    weak_->backoff = weak_->retry->initial_timeout_s;
  }
  if (sink_ != nullptr && sink_->trace != nullptr) {
    sink_->trace->retransmit_request(clock_, resend_missing_only_ ? m_ - intact_ : -1);
  }
  charge(static_cast<double>(tries) * request_delay_);
  if (!caching_) drop_cache();
  return true;
}

bool SessionWalk::end(bool TransferResult::*verdict) {
  result_.*verdict = true;
  result_.content = result_.completed ? total_content_ : content_;
  result_.time =
      static_cast<double>(result_.packets) * time_per_packet_ + stall_delay_;
  if (weak_ != nullptr) weak_->stats.ended_stale = weak_->serving_stale;
  if (sink_ != nullptr) sink_->end(result_, clock_);
  done_ = true;
  return false;
}

// A stall on both clocks, charged to the transfer time.
void SessionWalk::charge(double delay) {
  clock_ += delay;
  t_ += delay;
  stall_delay_ += delay;
}

void SessionWalk::drop_cache() {
  std::fill(std::begin(seen_), std::end(seen_), std::uint64_t{0});
  intact_ = 0;
  content_ = 0.0;
}

bool SessionWalk::budget_exhausted() const {
  const RetryConfig& rp = *weak_->retry;
  return result_.request_attempts >= rp.retry_budget ||
         (rp.deadline_s >= 0.0 && t_ >= rp.deadline_s);
}

// One client wait: the current backoff stretched by the jitter draw. The
// draw happens even at jitter = 0 so the jitter stream stays aligned with
// ResilientSession's, wait for wait.
void SessionWalk::wait_one_backoff() {
  Weak& w = *weak_;
  const double wait = w.backoff * (1.0 + w.retry->jitter * w.jitter_rng.next_double());
  charge(wait);
  result_.backoff_s += wait;
  if (sink_ != nullptr && sink_->trace != nullptr) sink_->trace->backoff(clock_, wait);
  w.backoff = std::min(w.backoff * w.retry->backoff_multiplier, w.retry->max_backoff_s);
}

// Rides out a fade just observed: back off, each wait consuming retry
// budget, until `up()` answers. False when budget or deadline ran out first
// (the walk ended degraded).
template <class Up>
bool SessionWalk::ride_out(Up up) {
  do {
    if (budget_exhausted()) {
      end(&TransferResult::degraded);
      return false;
    }
    ++result_.request_attempts;
    wait_one_backoff();
  } while (!up());
  return true;
}

// Suspend-on-outage: when the round ended inside a fade, re-requesting is
// futile — ride it out, then resume from whatever the cache kept. With an
// edge tier the replica may have changed while the client was dark:
// revalidate, then reconcile. False when the session ended.
bool SessionWalk::suspend_while_link_down() {
  Weak& w = *weak_;
  const auto link_up = [&] { return w.link->link_up(t_, w.link_rng); };
  if (w.link == nullptr || link_up()) return true;
  const double at0 = clock_;
  if (sink_ != nullptr) sink_->outage_begin(clock_);
  if (!ride_out(link_up)) return false;
  ++result_.suspensions;
  w.backoff = w.retry->initial_timeout_s;  // link is back: start fresh
  if (sink_ != nullptr) sink_->outage_end(clock_, clock_ - at0);
  if (w.edge == nullptr) return true;
  if (!validate_serving()) return false;
  reconcile();
  return true;
}

bool SessionWalk::origin_up_now() {
  return weak_->origin == nullptr || weak_->origin->link_up(t_, weak_->origin_rng);
}

// Proxy->origin fetch: the replica becomes current as of now.
void SessionWalk::refresh_replica() {
  Weak& e = *weak_;
  ++e.stats.origin_fetches;
  if (sink_ != nullptr) sink_->count(obs::Channel::kOriginFetches, clock_);
  charge(e.edge->origin_fetch_delay_s);
  e.has_replica = true;
  e.replica_gen = generation_at(t_, e.edge->update_interval_s);
}

// Make the serving replica current, or stale-but-flagged when the origin
// cannot validate it. False when the session degraded riding out an origin
// fade with nothing cached to serve (cold proxy + origin down).
bool SessionWalk::validate_serving() {
  Weak& e = *weak_;
  // Exactly one probe here (it may consume draws; the answer is reused).
  const bool up = origin_up_now();
  if (sink_ != nullptr) {
    sink_->count(obs::Channel::kOriginProbes, clock_);
    if (up) sink_->count(obs::Channel::kOriginUp, clock_);
  }
  if (up) {
    if (e.has_replica &&
        e.replica_gen == generation_at(t_, e.edge->update_interval_s)) {
      ++e.stats.replica_hits;
      if (sink_ != nullptr) sink_->count(obs::Channel::kReplicaHits, clock_);
    } else {
      // A live replica landing here fell behind the origin's generation: the
      // refresh is a generation bump, not a cold fill.
      if (e.has_replica) ++e.stats.origin_generation_bumps;
      refresh_replica();
    }
    e.serving_stale = false;
    return true;
  }
  ++e.stats.failovers;
  if (e.has_replica) {
    // Origin fade with a replica on hand: serve it, flagged stale.
    ++e.stats.stale_serves;
    e.serving_stale = true;
    if (sink_ != nullptr) sink_->stale_failover(clock_);
    return true;
  }
  // Cold proxy AND origin down: ride out the origin fade under the link
  // outage's backoff discipline (budget-consuming, so an origin that never
  // returns still ends the session).
  const double at0 = clock_;
  if (sink_ != nullptr) sink_->origin_outage_begin(clock_);
  if (!origin_up_now() && !ride_out([this] { return origin_up_now(); })) return false;
  ++e.stats.origin_suspensions;
  if (sink_ != nullptr) sink_->origin_outage_end(clock_, clock_ - at0);
  e.backoff = e.retry->initial_timeout_s;  // origin is back: start fresh
  e.serving_stale = false;
  refresh_replica();
  return true;
}

// Attach to a (new) proxy: fresh warm/age draws, then validate. Exactly two
// proxy-stream draws per attach whatever the outcome.
bool SessionWalk::acquire_proxy() {
  Weak& e = *weak_;
  const bool warm = e.proxy_rng.next_bernoulli(e.edge->warm_hit);
  const double age = -e.edge->replica_age_mean_s * std::log(1.0 - e.proxy_rng.next_double());
  e.has_replica = warm;
  e.serving_stale = false;
  e.replica_gen =
      warm ? generation_at(std::max(0.0, t_ - age), e.edge->update_interval_s) : 0;
  return validate_serving();
}

// Reconnect reconciliation: the client's partial cache against the serving
// replica's generation — a match keeps it, a mismatch drops it for re-fetch.
void SessionWalk::reconcile() {
  Weak& e = *weak_;
  ++e.stats.reconciliations;
  if (e.held_gen == e.replica_gen) return;
  if (intact_ > 0) {
    e.stats.packets_refetched += intact_;
    e.stats.reconcile_dropped_packets += intact_;
    if (sink_ != nullptr) sink_->reconcile_drop(clock_, intact_);
    drop_cache();
  }
  e.held_gen = e.replica_gen;
}

ProxiedTransferResult run_oracle(SessionWalk& walk, const TransferConfig& base,
                                 const std::function<bool(double)>& origin_up) {
  if (base.link_up) walk.link_with(std::make_unique<HookOutage>(base.link_up), Rng(0));
  if (origin_up) walk.origin_with(std::make_unique<HookOutage>(origin_up), Rng(0));
  if (base.feedback_lost) walk.feedback_with(base.feedback_lost);
  WalkSink sink;
  sink.trace = base.trace;
  if (base.trace != nullptr) walk.report_to(&sink);
  walk.run();
  walk.report_to(nullptr);
  return {walk.result(), walk.proxy()};
}

}  // namespace mobiweb::sim

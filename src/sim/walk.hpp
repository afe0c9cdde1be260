// One session of the paper's client protocol: rounds of n cooked
// frames, intact frames cached across rounds (unless caching is off),
// completion at m distinct intact frames, the relevance abort at F
// (completion wins when one frame triggers both). Between rounds runs the
// stalled-round tail: the plain one (each dropped request costs one
// request_delay) or, with a RetryConfig, ResilientSession's (suspend under
// jittered backoff while the link is down, every request on the retry
// budget, degraded once budget or deadline run out), plus, with a
// ProxyModelConfig, the edge tier described in sim/proxied.hpp.
//
// The oracles (simulate_transfer, simulate_resilient_transfer,
// simulate_proxied_transfer, simulate_arq_transfer) and fleet::FleetEngine
// each build a walk and run() it to its end; walks share no state, so a fleet
// session gets exactly the result its oracle run gets alone.
//
// Two clocks get the same additions in the same order: clock() is absolute
// (from start_at(); telemetry buckets and trace times), the session clock
// starts at 0 (link, origin, deadline and generation queries).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "channel/outage.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/proxied.hpp"
#include "sim/transfer.hpp"
#include "util/rng.hpp"

namespace mobiweb::sim {

// How a frame fared at the client.
enum class FrameFate { kLost, kCorrupted, kIntact, kDuplicate };

// Where a walk reports what happens to it: a full SessionTrace and/or the
// fleet's bucketed counters, both on the absolute clock `at` (an oracle walk
// starts at 0, so there it equals the session clock bit for bit). Concrete
// and inline, so reporting costs one null check per frame when no sink is
// attached.
struct WalkSink {
  obs::SessionTrace* trace = nullptr;
  obs::TimeSeries* ts = nullptr;

  void count(obs::Channel channel, double at, long n = 1) {
    if (ts != nullptr) ts->add(channel, at, n);
  }
  void start(double at) {
    if (trace != nullptr) trace->session_start(at);
    count(obs::Channel::kSessionsStarted, at);
  }
  void round_start(int round, double at) {
    if (trace != nullptr) trace->round_start(round, at);
  }
  void frame(int seq, FrameFate fate, double at, double content) {
    if (trace != nullptr) {
      trace->frame_sent(seq, at);
      switch (fate) {
        case FrameFate::kLost: trace->frame_lost(at); break;
        case FrameFate::kCorrupted: trace->frame_corrupted(at); break;
        case FrameFate::kIntact: trace->frame_intact(seq, at, content); break;
        case FrameFate::kDuplicate: trace->frame_duplicate(seq, at); break;
      }
    }
    count(obs::Channel::kFramesSent, at);
    if (fate == FrameFate::kLost) count(obs::Channel::kFramesLost, at);
  }
  // A stalled (non-terminal) round closed.
  void round_end(double at) {
    if (trace != nullptr) trace->round_end(at);
    count(obs::Channel::kRounds, at);
  }
  void outage_begin(double at) {
    if (trace != nullptr) trace->outage_begin(at);
  }
  // The link is back after `span` seconds.
  void outage_end(double at, double span) {
    if (trace != nullptr) trace->outage_end(at, span);
    if (trace != nullptr) trace->resume(at);
    count(obs::Channel::kSuspensions, at);
  }
  void stale_failover(double at) {
    if (trace != nullptr) trace->stale_failover(at);
    count(obs::Channel::kStaleServes, at);
  }
  void origin_outage_begin(double at) {
    if (trace != nullptr) trace->origin_outage_begin(at);
  }
  void origin_outage_end(double at, double span) {
    if (trace != nullptr) trace->origin_outage_end(at, span);
  }
  void reconcile_drop(double at, int dropped) {
    if (trace != nullptr) trace->reconcile_drop(at, dropped);
    count(obs::Channel::kReconcileDrops, at, dropped);
  }
  void handoff(double at, double delay) {
    if (trace != nullptr) trace->handoff(at, delay);
    count(obs::Channel::kHandoffs, at);
  }
  void end(const TransferResult& r, double at);
};

class SessionWalk {
 public:
  // Validates every config it is given; `edge` needs `retry`. The walk keeps
  // references to `clear_content` (m entries), `retry` and `edge`, and
  // copies the round parameters of `base` (not its hooks: see run_oracle).
  SessionWalk(const std::vector<double>& clear_content, const TransferConfig& base,
              const RetryConfig* retry = nullptr,
              const ProxyModelConfig* edge = nullptr);
  // Same, given the left-to-right sum of `clear_content` (the fleet cache
  // keeps it per document).
  SessionWalk(const std::vector<double>& clear_content, double total_content,
              const TransferConfig& base, const RetryConfig* retry,
              const ProxyModelConfig* edge);

  // Per-session sources, set before run(). Corruption is
  // Bernoulli(base.alpha) from `rng`, or one call of `next_corrupted` per
  // frame that reaches the client. Hooks passed by reference must outlive
  // the walk; outage models answer on the session clock.
  void corrupt_with(Rng rng) { rng_ = rng; }
  void corrupt_with(const std::function<bool()>& next_corrupted) {
    corrupt_ = &next_corrupted;
  }
  void corrupt_with(std::function<bool()>&&) = delete;  // would dangle
  void link_with(std::unique_ptr<channel::OutageModel> model, Rng rng);
  void origin_with(std::unique_ptr<channel::OutageModel> model, Rng rng);
  void feedback_with(const std::function<bool()>& lost) { weak().feedback_lost = &lost; }
  void feedback_with(std::function<bool()>&&) = delete;  // would dangle
  void seed_streams(std::uint64_t jitter_seed, std::uint64_t proxy_seed);
  void start_at(double start) { start_ = clock_ = start; }
  // Selective-repeat ARQ: a round skips every frame already held (no airtime,
  // link query, draw or report), i.e. the NACK list of the round before, and
  // each request traces the count still missing. Set before run().
  void resend_missing_only() { resend_missing_only_ = true; }
  void report_to(WalkSink* sink) { sink_ = sink; }

  // Runs the session to its end: rounds, each with its stalled-round tail,
  // until a verdict. Throws ContractViolation on a walk that has already
  // ended.
  void run();

  [[nodiscard]] double start() const { return start_; }
  [[nodiscard]] double clock() const { return clock_; }
  [[nodiscard]] const TransferResult& result() const { return result_; }
  // Edge-tier counters; zeros without an edge tier.
  [[nodiscard]] ProxyStats proxy() const {
    return has_edge() ? weak_->stats : ProxyStats{};
  }

 private:
  // Everything beyond the plain round body, allocated only when a link
  // model, a back-channel hook, a retry policy or the edge tier is engaged.
  struct Weak {
    const RetryConfig* retry = nullptr;          // engages the resilient tail
    std::unique_ptr<channel::OutageModel> link;  // nullptr = always up
    Rng link_rng{0};
    const std::function<bool()>* feedback_lost = nullptr;
    Rng jitter_rng{0};
    double backoff = 0.0;
    // Edge tier, engaged iff `edge` is set. Invariant: every packet the
    // client holds was fetched under generation `held_gen` (reconcile()
    // drops the cache before it can change), so staleness is one flag.
    const ProxyModelConfig* edge = nullptr;
    Rng proxy_rng{0};
    std::unique_ptr<channel::OutageModel> origin;  // nullptr = always up
    Rng origin_rng{0};
    bool has_replica = false;
    bool serving_stale = false;
    std::uint64_t replica_gen = 0;
    std::uint64_t held_gen = 0;
    ProxyStats stats;
  };

  Weak& weak();
  [[nodiscard]] bool has_edge() const { return weak_ != nullptr && weak_->edge != nullptr; }
  // One round plus its stalled-round tail; false once the session ended.
  bool step();
  bool end(bool TransferResult::*verdict);
  void charge(double delay);
  void drop_cache();
  [[nodiscard]] bool budget_exhausted() const;
  void wait_one_backoff();
  template <class Up>
  bool ride_out(Up up);
  bool suspend_while_link_down();
  [[nodiscard]] bool origin_up_now();
  void refresh_replica();
  bool validate_serving();
  bool acquire_proxy();
  void reconcile();

  // Round parameters.
  const double* clear_;
  double total_content_;
  int m_;
  int n_;
  int max_rounds_;
  bool caching_;
  bool resend_missing_only_ = false;
  double relevance_threshold_;
  double time_per_packet_;
  double request_delay_;
  double alpha_;

  // Sources.
  Rng rng_{0};
  const std::function<bool()>* corrupt_ = nullptr;
  std::unique_ptr<Weak> weak_;
  WalkSink* sink_ = nullptr;

  // Session state.
  double start_ = 0.0;
  double clock_ = 0.0;   // absolute
  double t_ = 0.0;       // session clock
  double content_ = 0.0;
  double stall_delay_ = 0.0;
  int intact_ = 0;
  bool done_ = false;
  // Receipt bitmap over the cooked set: n <= ida::kMaxPackets fits inline.
  std::uint64_t seen_[4] = {0, 0, 0, 0};
  TransferResult result_;
};

// Attaches the std::function hooks of an oracle config (base.link_up,
// base.feedback_lost, `origin_up`) and base.trace to `walk`, runs it to its
// end, and returns the verdict.
ProxiedTransferResult run_oracle(SessionWalk& walk, const TransferConfig& base,
                                 const std::function<bool(double)>& origin_up = {});

}  // namespace mobiweb::sim

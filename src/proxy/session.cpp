#include "proxy/session.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "proxy/reconcile.hpp"
#include "transmit/round_driver.hpp"
#include "util/check.hpp"

namespace mobiweb::proxy {

// The edge tier's side of one run: which proxy serves which replica, the
// generation the client's cache holds, and the edge accounting. It attaches
// before the first round and acts at the driver's two edge points.
class ProxyResilientSession::Edge final : public transmit::EdgeHooks {
 public:
  Edge(ProxyResilientSession& session, const fleet::CacheKey& key)
      : s_(session), key_(key), handoff_checked_(session.channel_->now()) {}

  // Serves the key from the current proxy and hands its transmitter to the
  // driver. A proxy with nothing at all (cold AND origin down) suspends the
  // client under the retry budget, so a dead origin still terminates; false =
  // budget or deadline exhausted.
  bool attach(transmit::RoundDriver& driver) {
    bool waited = false;
    ServeOutcome s;
    const bool served = driver.ride_out([&] {
      s = s_.proxies_[s_.current_]->serve(key_, s_.channel_->now());
      if (s.doc != nullptr) return true;
      ++px.failovers;
      waited = true;
      return false;
    });
    if (!served) return false;
    switch (s.source) {
      case ServeSource::kFreshHit:
        ++px.replica_hits;
        break;
      case ServeSource::kRefreshed:
      case ServeSource::kOriginFetch:
        ++px.origin_fetches;
        break;
      case ServeSource::kStaleFailover:
        ++px.failovers;
        ++px.stale_serves;
        break;
      case ServeSource::kUnavailable:
        break;  // unreachable with a non-null doc
    }
    if (waited) ++px.origin_suspensions;
    doc_ = s.doc;
    serving_gen_ = s.generation;
    serving_stale = s.stale;
    driver.serve(doc_->transmitter, serving_stale);
    return true;
  }

  // The first attach; the receiver takes the served document's geometry and
  // the client's cache starts at the served generation.
  bool start(transmit::RoundDriver& driver) {
    if (!attach(driver)) return false;
    held_gen_ = serving_gen_;
    const transmit::DocumentTransmitter& tx = doc_->transmitter;
    driver.bind(receiver_.emplace(
        transmit::ReceiverConfig{.doc_id = tx.doc_id(), .m = tx.m(), .n = tx.n(),
                                 .packet_size = tx.packet_size(),
                                 .payload_size = tx.payload_size(),
                                 .caching = s_.config_.caching},
        tx.document().segments));
    return true;
  }

  // Time passed with the replica unwatched: re-validate the serving path and
  // reconcile the cache before asking for more.
  bool after_resume(transmit::RoundDriver& driver) override {
    if (!attach(driver)) return false;
    reconcile_cache();
    return true;
  }

  // Scripted cell handoffs that fired since the last check: rebind to the
  // next proxy (round-robin), charge the attach latency, serve from the new
  // cell and reconcile against whatever generation it holds.
  bool before_request(transmit::RoundDriver& driver) override {
    const double now = s_.channel_->now();
    const std::size_t fired = s_.config_.handoffs.count_in(handoff_checked_, now);
    handoff_checked_ = now;
    if (fired == 0) return true;
    for (std::size_t h = 0; h < fired; ++h) {
      ++px.handoffs;
      s_.current_ = (s_.current_ + 1) % s_.proxies_.size();
      if (s_.config_.handoff_delay_s > 0.0) s_.channel_->advance(s_.config_.handoff_delay_s);
    }
    const std::size_t n_before = doc_->transmitter.n();
    if (!attach(driver)) return false;
    // Same key => same deterministic cooked build: the receiver's geometry
    // cannot change across proxies, only the generation stamp can.
    MOBIWEB_CHECK_MSG(doc_->transmitter.n() == n_before,
                      "ProxyResilientSession: cooked geometry changed");
    reconcile_cache();
    return true;
  }

  sim::ProxyStats px;
  bool serving_stale = false;  // the replica now serving is stale

 private:
  // Reconnect reconciliation: validate the cached packets' generation against
  // the replica now serving. All-or-nothing in a session (every cached packet
  // shares held_gen_), but the decision is delegated to proxy::reconcile, the
  // same pure function the fuzz harness drives.
  void reconcile_cache() {
    ++px.reconciliations;
    PartialBitmap held;
    std::vector<CachedUnit> entries;
    const auto n = static_cast<std::uint32_t>(doc_->transmitter.n());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (receiver_->has_packet(i)) {
        held.set(i);
        entries.push_back(CachedUnit{i, held_gen_});
      }
    }
    const ReconcileResult r = reconcile(held, entries, serving_gen_);
    if (!r.refetch.empty()) {
      px.packets_refetched += static_cast<long>(r.refetch.size());
      receiver_->reset_cache();
    }
    held_gen_ = serving_gen_;
  }

  ProxyResilientSession& s_;
  const fleet::CacheKey& key_;
  double handoff_checked_;
  const fleet::CookedDocument* doc_ = nullptr;
  std::uint64_t serving_gen_ = 0;
  std::uint64_t held_gen_ = 0;
  std::optional<transmit::ClientReceiver> receiver_;
};

ProxyResilientSession::ProxyResilientSession(std::vector<EdgeProxy*> proxies,
                                             channel::WirelessChannel& channel,
                                             ProxySessionConfig config,
                                             std::size_t initial)
    : proxies_(std::move(proxies)), channel_(&channel),
      config_(std::move(config)), jitter_rng_(config_.jitter_seed),
      current_(0) {
  MOBIWEB_CHECK_MSG(!proxies_.empty(),
                    "ProxyResilientSession: empty proxy pool");
  for (const EdgeProxy* p : proxies_) {
    MOBIWEB_CHECK_MSG(p != nullptr, "ProxyResilientSession: null proxy");
  }
  MOBIWEB_CHECK_MSG(config_.max_rounds >= 1,
                    "ProxyResilientSession: max_rounds >= 1");
  config_.retry.validate();
  MOBIWEB_CHECK_MSG(config_.handoff_delay_s >= 0.0,
                    "ProxyResilientSession: handoff_delay_s >= 0");
  current_ = initial % proxies_.size();
}

ProxySessionResult ProxyResilientSession::run(const fleet::CacheKey& key) {
  Edge edge(*this, key);
  transmit::RoundDriver driver(*channel_, {.relevance_threshold = config_.relevance_threshold,
                                           .max_rounds = config_.max_rounds,
                                           .retry = &config_.retry,
                                           .jitter = &jitter_rng_,
                                           .edge = &edge});
  transmit::ResilientResult r = edge.start(driver)
                                    ? driver.run()
                                    : driver.finish(transmit::SessionStatus::kDegraded);
  edge.px.stale_frames = driver.stale_frames();
  edge.px.ended_stale = edge.serving_stale;
  return {r.session, std::move(r.partial), r.request_attempts, r.timeouts,
          r.outages_ridden, r.backoff_total_s, edge.px,
          static_cast<std::uint32_t>(current_)};
}

}  // namespace mobiweb::proxy

#include "proxy/proxy.hpp"

#include "util/check.hpp"

namespace mobiweb::proxy {

namespace {

ServeOutcome serve_replica(const Replica& r, bool stale, ServeSource source) {
  return ServeOutcome{r.doc, r.generation, stale, source};
}

}  // namespace

EdgeProxy::EdgeProxy(EdgeProxyConfig config, OriginServer& origin)
    : config_(config), origin_(&origin) {}

ServeOutcome EdgeProxy::serve(const fleet::CacheKey& key, double now) {
  const auto it = replicas_.find(key);
  if (it != replicas_.end()) {
    const std::optional<bool> current =
        origin_->validate(key, it->second.generation, now);
    if (!current.has_value()) {
      // Origin down: the held replica is the best available — serve it, but
      // flagged. The stale bit is set here and nowhere cleared on this path.
      ++stats_.failovers;
      ++stats_.stale_serves;
      if (metric_failover_ != nullptr) metric_failover_->inc();
      if (metric_stale_ != nullptr) metric_stale_->inc();
      return serve_replica(it->second, /*stale=*/true, ServeSource::kStaleFailover);
    }
    if (*current) {
      ++stats_.fresh_hits;
      if (metric_fresh_ != nullptr) metric_fresh_->inc();
      return serve_replica(it->second, /*stale=*/false, ServeSource::kFreshHit);
    }
    // Held but outdated; the origin just answered the validation, but it may
    // have faded before the (heavier) refresh round-trip completes.
    std::optional<Replica> fresh = origin_->fetch(key, now);
    if (!fresh.has_value()) {
      ++stats_.failovers;
      ++stats_.stale_serves;
      if (metric_failover_ != nullptr) metric_failover_->inc();
      if (metric_stale_ != nullptr) metric_stale_->inc();
      return serve_replica(it->second, /*stale=*/true, ServeSource::kStaleFailover);
    }
    it->second = *fresh;
    ++stats_.refreshes;
    if (metric_refresh_ != nullptr) metric_refresh_->inc();
    return serve_replica(*fresh, /*stale=*/false, ServeSource::kRefreshed);
  }

  std::optional<Replica> fetched = origin_->fetch(key, now);
  if (!fetched.has_value()) {
    ++stats_.failovers;
    ++stats_.unavailable;
    if (metric_failover_ != nullptr) metric_failover_->inc();
    if (metric_unavailable_ != nullptr) metric_unavailable_->inc();
    return ServeOutcome{};  // cold and cut off: nothing to serve at all
  }
  replicas_.emplace(key, *fetched);
  ++stats_.origin_fetches;
  if (metric_fetch_ != nullptr) metric_fetch_->inc();
  return serve_replica(*fetched, /*stale=*/false, ServeSource::kOriginFetch);
}

bool EdgeProxy::holds(const fleet::CacheKey& key) const {
  return replicas_.find(key) != replicas_.end();
}

std::uint64_t EdgeProxy::replica_generation(const fleet::CacheKey& key) const {
  const auto it = replicas_.find(key);
  MOBIWEB_CHECK_MSG(it != replicas_.end(),
                    "EdgeProxy: replica_generation of a key not held");
  return it->second.generation;
}

void EdgeProxy::warm(const fleet::CacheKey& key, double now) {
  std::optional<Replica> fetched = origin_->fetch(key, now);
  if (fetched.has_value()) replicas_.insert_or_assign(key, *fetched);
}

void EdgeProxy::drop(const fleet::CacheKey& key) { replicas_.erase(key); }

void EdgeProxy::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_fresh_ = metric_refresh_ = metric_fetch_ = metric_stale_ =
        metric_failover_ = metric_unavailable_ = nullptr;
    return;
  }
  metric_fresh_ = &registry->counter("proxy.edge.fresh_hits");
  metric_refresh_ = &registry->counter("proxy.edge.refreshes");
  metric_fetch_ = &registry->counter("proxy.edge.origin_fetches");
  metric_stale_ = &registry->counter("proxy.edge.stale_serves");
  metric_failover_ = &registry->counter("proxy.edge.failovers");
  metric_unavailable_ = &registry->counter("proxy.edge.unavailable");
}

}  // namespace mobiweb::proxy

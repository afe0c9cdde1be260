// Origin server behind the edge tier: the authoritative document corpus with
// its own availability process and a per-document generation counter.
//
// The paper's server is implicitly always reachable; OriginServer drops that
// assumption. It owns the cook pipeline (a fleet::DocumentCache, so cooked
// packet sets are built once per (document, gamma) and shared read-only), an
// optional OutageModel describing origin reachability — a failure domain
// independent of the wireless link — and generation stamps that advance when
// the corpus is republished. Edge proxies validate and refresh their replicas
// against these stamps; when the origin is unreachable the proxy must either
// fail over to a stale-but-flagged replica or report the document
// unavailable (src/proxy/proxy.hpp).
//
// Generations compose a time-driven component (one bump every
// update_interval_s seconds of session time, exactly sim::generation_at — the
// analytic oracle's rule) with explicit publish() bumps, so tests can script
// updates precisely while benches model a steadily-churning corpus.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/outage.hpp"
#include "fleet/cache.hpp"
#include "util/rng.hpp"

namespace mobiweb::proxy {

struct OriginConfig {
  fleet::CacheConfig corpus;     // authoritative corpus shape + cook settings
  // Origin reachability; nullptr = always up. The server owns a session_clone
  // so the prototype can be shared with other failure domains.
  std::shared_ptr<const channel::OutageModel> outage;
  std::uint64_t outage_seed = 0x6f726967696e21ull;  // "origin!" stream
  // Seconds of clock time per automatic generation bump; 0 = static corpus.
  double update_interval_s = 0.0;
};

// What a fetch hands the edge proxy: the immutable cooked document (owned by
// the origin's corpus, which keeps it for the origin's lifetime) plus the
// origin generation it was current at.
struct Replica {
  const fleet::CookedDocument* doc = nullptr;
  std::uint64_t generation = 0;
};

class OriginServer {
 public:
  explicit OriginServer(OriginConfig config);

  // Whether the origin answers at clock time `now`. Queries must be
  // non-decreasing in time (the outage model's contract).
  [[nodiscard]] bool available(double now);

  // Current generation of `doc_index` at `now`: time-driven bumps plus any
  // explicit publishes. Monotone in `now` for a fixed publish history.
  [[nodiscard]] std::uint64_t generation(std::uint32_t doc_index,
                                         double now) const;

  // Publishes a new version of `doc_index` (explicit generation bump).
  void publish(std::uint32_t doc_index);

  // Fetch/refresh round-trip: nullopt when the origin is down at `now`,
  // otherwise the cooked document stamped with its current generation.
  [[nodiscard]] std::optional<Replica> fetch(const fleet::CacheKey& key,
                                             double now);

  // Cheap validation (no document transfer): nullopt when the origin is down,
  // otherwise whether `replica_generation` is still current for the key.
  [[nodiscard]] std::optional<bool> validate(const fleet::CacheKey& key,
                                             std::uint64_t replica_generation,
                                             double now);

  [[nodiscard]] const OriginConfig& config() const { return config_; }
  [[nodiscard]] fleet::DocumentCache& corpus() { return corpus_; }
  [[nodiscard]] long fetches() const { return fetches_; }
  [[nodiscard]] long validations() const { return validations_; }
  [[nodiscard]] long refused() const { return refused_; }  // down at call time

 private:
  OriginConfig config_;
  fleet::DocumentCache corpus_;
  std::unique_ptr<channel::OutageModel> outage_;  // nullptr = always up
  Rng outage_rng_;
  std::vector<std::uint64_t> published_;  // explicit bumps per doc_index
  long fetches_ = 0;
  long validations_ = 0;
  long refused_ = 0;
};

}  // namespace mobiweb::proxy

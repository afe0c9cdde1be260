// Shared pre-encoded document cache for the fleet engine.
//
// One server process multiplexing 100k+ concurrent sessions cannot afford to
// re-run the IDA encoder per client: the cooked packet set for a document is
// a pure function of (document, γ), so it is computed exactly once and then
// served read-only to every session that requests it. A CookedDocument bundles
// the DocumentTransmitter (which owns the N wire frames), the per-clear-packet
// information-content profile that session state machines accrue from, and the
// frame-size accounting the bench uses for aggregate Mbps.
//
// Residency: every document the cache builds stays resident, at one address,
// for the cache's whole lifetime. get() hands out a plain pointer to it, so a
// session walk may read its document in place for as long as the cache lives
// without pinning anything.
//
// Concurrency contract:
//   * get() is safe from any thread; entries are deduplicated with a
//     per-entry std::once_flag, so two shards racing on a cold key build it
//     once and both receive the same immutable object.
//   * misses() counts actual builds (== distinct keys ever requested), so it
//     is invariant across shard counts; hits() counts every other serving.
//     Exactly one of the two is charged per get().
//   * prefill() batches cold builds through a ThreadPool so the GF(2^8)
//     row-multiply kernels see one large contiguous burst of encode work
//     instead of 100k interleaved trickles.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "doc/lod.hpp"
#include "sim/synthetic.hpp"
#include "transmit/transmitter.hpp"
#include "util/thread_pool.hpp"

namespace mobiweb::fleet {

// Identifies one cooked encoding: document `doc_index` of the synthetic
// corpus, expanded with redundancy ratio `gamma`.
struct CacheKey {
  std::uint32_t doc_index = 0;
  double gamma = 1.5;

  friend bool operator<(const CacheKey& a, const CacheKey& b) {
    if (a.doc_index != b.doc_index) return a.doc_index < b.doc_index;
    return a.gamma < b.gamma;
  }
  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.doc_index == b.doc_index && a.gamma == b.gamma;
  }
};

// Immutable once built; shared read-only across every session and shard.
struct CookedDocument {
  transmit::DocumentTransmitter transmitter;
  // Information content carried by clear-text packet i (size m, sums to the
  // document's total content).
  std::vector<double> clear_content;
  double total_content = 0.0;
  // All frames share one wire size (header + padded payload + CRC).
  std::size_t frame_size = 0;
};

struct CacheConfig {
  sim::SyntheticConfig doc;             // corpus shape (sizes, tree, skew)
  std::size_t corpus_size = 64;         // distinct documents, index [0, size)
  std::uint64_t seed = 1;               // corpus generator seed
  doc::Lod lod = doc::Lod::kSection;    // transmission ranking granularity
};

class DocumentCache {
 public:
  explicit DocumentCache(CacheConfig config);

  // Lookup-or-build. Blocks only when the key is cold (and then only the
  // requesting threads of *that* key). The returned document is immutable and
  // stays valid, at the same address, for as long as the cache lives.
  const CookedDocument* get(const CacheKey& key);

  // Builds every cold key in `keys`, sharded across `pool` (global pool when
  // nullptr). Duplicate and warm keys are skipped, not double-built.
  void prefill(const std::vector<CacheKey>& keys, ThreadPool* pool = nullptr);

  // misses == builds performed (distinct keys requested); hits == every other
  // serving. Exactly one of the two is charged per get().
  [[nodiscard]] long hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] long misses() const { return misses_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::once_flag once;
    std::optional<CookedDocument> doc;
  };

  // The deterministic build: corpus document `key.doc_index` regenerated from
  // the cache seed, linearized at config().lod, IDA-encoded at key.gamma.
  [[nodiscard]] CookedDocument build(const CacheKey& key) const;

  Entry& entry_for(const CacheKey& key);

  CacheConfig config_;
  mutable std::shared_mutex mu_;  // guards the map structure only
  // Entries are heap-allocated and never erased, so a built document never
  // moves.
  std::map<CacheKey, std::unique_ptr<Entry>> entries_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
};

// Deterministic per-document seed: mixes the corpus seed with the document
// index so documents are independent of build order and of each other.
std::uint64_t document_seed(std::uint64_t corpus_seed, std::uint32_t doc_index);

}  // namespace mobiweb::fleet

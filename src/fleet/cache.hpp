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
// Concurrency contract:
//   * get() is safe from any thread; entries are deduplicated with a
//     per-entry std::once_flag, so two shards racing on a cold key build it
//     once and both receive the same immutable object.
//   * misses() counts actual builds (== distinct keys ever requested while
//     unbounded), so it is invariant across shard counts; hits() counts every
//     other serving. Exactly one of the two is charged per get(), so
//     hits() + misses() == total servings in *every* mode — the invariant the
//     bounded-cache fleet tests pin across shard counts.
//   * prefill() batches cold builds through a ThreadPool so the GF(2^8)
//     row-multiply kernels see one large contiguous burst of encode work
//     instead of 100k interleaved trickles.
//
// Bounded mode (CacheConfig::capacity > 0): at most `capacity` cooked
// documents stay resident. Eviction is LRU with IC-weighted *admission*: a
// newly built document is admitted only if its information-content density
// (total content per cooked wire byte) is at least the LRU victim's —
// otherwise it is served to the requester but not cached, so a burst of cold
// low-value documents cannot flush the dense working set. Evicted documents
// stay alive for as long as callers hold their shared_ptr (the fleet engine
// pins each session's document for the session's lifetime).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
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
  // Maximum resident cooked documents. 0 = unbounded (legacy: every build
  // stays resident forever). > 0 = LRU eviction with IC-weighted admission;
  // an evicted key rebuilds (and recounts as a miss) on its next request.
  std::size_t capacity = 0;
};

class DocumentCache {
 public:
  explicit DocumentCache(CacheConfig config);

  // Lookup-or-build. Blocks only when the key is cold (and then only the
  // requesting threads of *that* key); the returned document is immutable.
  std::shared_ptr<const CookedDocument> get(const CacheKey& key);

  // Builds every cold key in `keys`, sharded across `pool` (global pool when
  // nullptr). Duplicate and warm keys are skipped, not double-built.
  void prefill(const std::vector<CacheKey>& keys, ThreadPool* pool = nullptr);

  // misses == builds performed (unbounded: distinct keys requested; bounded:
  // distinct keys + rebuilds after eviction); hits == every other serving.
  // Exactly one of the two is charged per get() in both modes.
  [[nodiscard]] long hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] long misses() const { return misses_.load(std::memory_order_relaxed); }
  // Bounded mode only: LRU victims displaced by an admitted build, and builds
  // that were served but NOT admitted (their IC density lost to the victim's).
  [[nodiscard]] long evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long admission_rejects() const {
    return admission_rejects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // Admission/eviction weight: information content per cooked wire byte, so a
  // dense small document outranks a redundancy-padded large one.
  [[nodiscard]] static double admission_weight(const CookedDocument& doc);

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const CookedDocument> doc;
  };
  // Bounded mode: residency + LRU bookkeeping under one mutex; builds run
  // outside it, deduplicated through a per-key in-flight record.
  struct Resident {
    std::shared_ptr<const CookedDocument> doc;
    std::list<CacheKey>::iterator lru;  // position in lru_ (front = hottest)
  };
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const CookedDocument> doc;
  };

  // The deterministic build: corpus document `key.doc_index` regenerated from
  // the cache seed, linearized at config().lod, IDA-encoded at key.gamma.
  [[nodiscard]] std::shared_ptr<const CookedDocument> build(const CacheKey& key) const;

  Entry& entry_for(const CacheKey& key);
  std::shared_ptr<const CookedDocument> get_bounded(const CacheKey& key);
  // Requires bounded_mu_ held. Applies the LRU + IC-weighted admission policy.
  void admit(const CacheKey& key, std::shared_ptr<const CookedDocument> doc);

  CacheConfig config_;
  mutable std::shared_mutex mu_;  // guards the unbounded map structure only
  std::map<CacheKey, std::unique_ptr<Entry>> entries_;
  mutable std::mutex bounded_mu_;  // bounded mode: residency + LRU + in-flight
  std::map<CacheKey, Resident> resident_;
  std::list<CacheKey> lru_;
  std::map<CacheKey, std::shared_ptr<InFlight>> inflight_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> evictions_{0};
  std::atomic<long> admission_rejects_{0};
};

// Deterministic per-document seed: mixes the corpus seed with the document
// index so documents are independent of build order and of each other.
std::uint64_t document_seed(std::uint64_t corpus_seed, std::uint32_t doc_index);

}  // namespace mobiweb::fleet

#include "fleet/cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mobiweb::fleet {

std::uint64_t document_seed(std::uint64_t corpus_seed, std::uint32_t doc_index) {
  SplitMix64 mix(corpus_seed ^
                 (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(doc_index) + 1)));
  mix.next();  // decorrelate from the raw xor
  return mix.next();
}

DocumentCache::DocumentCache(CacheConfig config) : config_(config) {
  MOBIWEB_CHECK_MSG(config_.corpus_size > 0, "DocumentCache: empty corpus");
}

std::shared_ptr<const CookedDocument> DocumentCache::build(
    const CacheKey& key) const {
  MOBIWEB_CHECK_MSG(key.doc_index < config_.corpus_size,
                    "DocumentCache: doc_index out of corpus");
  Rng rng(document_seed(config_.seed, key.doc_index));
  const sim::SyntheticDocument sdoc = sim::generate_document(config_.doc, rng);
  doc::LinearDocument linear =
      sim::synthetic_linear_document(sdoc, config_.lod, rng);

  transmit::TransmitterConfig tcfg;
  tcfg.packet_size = config_.doc.packet_size;
  tcfg.gamma = key.gamma;
  tcfg.doc_id = static_cast<std::uint16_t>(key.doc_index + 1);

  auto cooked = std::make_shared<CookedDocument>(CookedDocument{
      transmit::DocumentTransmitter(std::move(linear), tcfg), {}, 0.0, 0});
  const std::size_t m = cooked->transmitter.m();
  const std::size_t payload = cooked->transmitter.payload_size();
  const std::size_t sp = cooked->transmitter.packet_size();
  cooked->clear_content.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t lo = i * sp;
    const std::size_t hi = std::min(payload, lo + sp);
    cooked->clear_content[i] =
        cooked->transmitter.document().content_of_range(lo, hi);
    cooked->total_content += cooked->clear_content[i];
  }
  cooked->frame_size = cooked->transmitter.frame(0).size();
  return cooked;
}

DocumentCache::Entry& DocumentCache::entry_for(const CacheKey& key) {
  {
    std::shared_lock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return *it->second;
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) it->second = std::make_unique<Entry>();
  return *it->second;
}

std::shared_ptr<const CookedDocument> DocumentCache::get(const CacheKey& key) {
  if (config_.capacity > 0) return get_bounded(key);
  Entry& entry = entry_for(key);
  bool built_here = false;
  // The winner builds outside the registry lock, so cold keys do not block
  // servings (or builds) of other keys.
  std::call_once(entry.once, [&] {
    entry.doc = build(key);
    built_here = true;
  });
  if (built_here) {
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry.doc;
}

double DocumentCache::admission_weight(const CookedDocument& doc) {
  const double bytes = static_cast<double>(doc.frame_size) *
                       static_cast<double>(doc.transmitter.n());
  return bytes > 0.0 ? doc.total_content / bytes : 0.0;
}

void DocumentCache::admit(const CacheKey& key,
                          std::shared_ptr<const CookedDocument> doc) {
  if (resident_.size() >= config_.capacity) {
    const CacheKey victim = lru_.back();
    const auto vit = resident_.find(victim);
    if (admission_weight(*doc) < admission_weight(*vit->second.doc)) {
      // IC-weighted admission: the incoming document carries less information
      // per cooked byte than the coldest resident — serve it, don't cache it.
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    lru_.pop_back();
    resident_.erase(vit);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(key);
  resident_.emplace(key, Resident{std::move(doc), lru_.begin()});
}

std::shared_ptr<const CookedDocument> DocumentCache::get_bounded(
    const CacheKey& key) {
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock lock(bounded_mu_);
    if (const auto it = resident_.find(key); it != resident_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.doc;
    }
    if (const auto fit = inflight_.find(key); fit != inflight_.end()) {
      flight = fit->second;  // someone else is already building this key
    } else {
      flight = std::make_shared<InFlight>();
      inflight_.emplace(key, flight);
      lock.unlock();
      // Build outside the residency lock so cold keys do not serialize.
      std::shared_ptr<const CookedDocument> doc = build(key);
      misses_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      inflight_.erase(key);
      admit(key, doc);
      lock.unlock();
      {
        const std::lock_guard done_lock(flight->mu);
        flight->done = true;
        flight->doc = doc;
      }
      flight->cv.notify_all();
      return doc;
    }
  }
  // Ride a racing build: the entry was already being created, so this serving
  // counts as a hit — mirroring the unbounded call_once accounting.
  std::unique_lock wait_lock(flight->mu);
  flight->cv.wait(wait_lock, [&] { return flight->done; });
  hits_.fetch_add(1, std::memory_order_relaxed);
  return flight->doc;
}

void DocumentCache::prefill(const std::vector<CacheKey>& keys, ThreadPool* pool) {
  std::vector<CacheKey> distinct(keys);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (distinct.empty()) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  // One shard per key: the pool batches the IDA encodes, so the GF(2^8)
  // row-multiply kernels run in one contiguous burst per worker instead of
  // being interleaved with 100k sessions' bookkeeping.
  pool->run(distinct.size(), [&](std::size_t i) { get(distinct[i]); });
}

std::size_t DocumentCache::size() const {
  if (config_.capacity > 0) {
    const std::lock_guard lock(bounded_mu_);
    return resident_.size();
  }
  std::shared_lock lock(mu_);
  return entries_.size();
}

}  // namespace mobiweb::fleet

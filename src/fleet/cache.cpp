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

CookedDocument DocumentCache::build(const CacheKey& key) const {
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

  CookedDocument cooked{transmit::DocumentTransmitter(std::move(linear), tcfg), {},
                        0.0, 0};
  const std::size_t m = cooked.transmitter.m();
  const std::size_t payload = cooked.transmitter.payload_size();
  const std::size_t sp = cooked.transmitter.packet_size();
  cooked.clear_content.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t lo = i * sp;
    const std::size_t hi = std::min(payload, lo + sp);
    cooked.clear_content[i] = cooked.transmitter.document().content_of_range(lo, hi);
    cooked.total_content += cooked.clear_content[i];
  }
  cooked.frame_size = cooked.transmitter.frame(0).size();
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

const CookedDocument* DocumentCache::get(const CacheKey& key) {
  Entry& entry = entry_for(key);
  bool built_here = false;
  // The winner builds outside the registry lock, so cold keys do not block
  // servings (or builds) of other keys.
  std::call_once(entry.once, [&] {
    entry.doc.emplace(build(key));
    built_here = true;
  });
  if (built_here) {
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return &*entry.doc;
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
  std::shared_lock lock(mu_);
  return entries_.size();
}

}  // namespace mobiweb::fleet

// Reconnect reconciliation: deciding which cached cooked packets a client may
// keep after it reattaches (link resume or cell handoff) to a replica that
// may have moved generations underneath it.
//
// The client's partial-document cache is a bitmap over cooked-packet indices
// plus, per held packet, the origin generation it was encoded from. A packet
// is safe to keep only when *every* record the client holds for it matches
// the serving replica's generation — any mismatch (or a held bit with no
// generation record at all) means the bytes may belong to a different
// document version, so the packet is dropped for re-fetch. The rule is
// deliberately conservative: when in doubt, re-fetch. Stale bytes must never
// be delivered as fresh.
//
// The function is pure (no I/O, no clocks, no allocation beyond the result),
// total over arbitrary inputs — out-of-range unit indices and records for
// unheld bits are ignored, duplicates are tolerated — and is the fuzz surface
// of the edge tier (tests/fuzz/fuzz_proxy_reconcile.cpp).
#pragma once

#include <cstdint>
#include <vector>

namespace mobiweb::proxy {

// Matches the session walk's receipt bitmap (4 x 64 bits), which covers every
// cooked index: a document has at most ida::kMaxPackets = 255 cooked packets.
inline constexpr std::uint32_t kReconcileUnits = 256;

// Fixed-width bitmap over cooked-packet indices [0, kReconcileUnits).
// Out-of-range indices are ignored by set()/clear() and read as unheld.
struct PartialBitmap {
  std::uint64_t words[4] = {0, 0, 0, 0};

  [[nodiscard]] bool test(std::uint32_t unit) const {
    if (unit >= kReconcileUnits) return false;
    return (words[unit >> 6] >> (unit & 63)) & 1u;
  }
  void set(std::uint32_t unit) {
    if (unit >= kReconcileUnits) return;
    words[unit >> 6] |= std::uint64_t{1} << (unit & 63);
  }
  void clear(std::uint32_t unit) {
    if (unit >= kReconcileUnits) return;
    words[unit >> 6] &= ~(std::uint64_t{1} << (unit & 63));
  }
  [[nodiscard]] std::uint32_t count() const;

  friend bool operator==(const PartialBitmap& a, const PartialBitmap& b) {
    return a.words[0] == b.words[0] && a.words[1] == b.words[1] &&
           a.words[2] == b.words[2] && a.words[3] == b.words[3];
  }
};

// One held cooked packet and the origin generation it was fetched under.
struct CachedUnit {
  std::uint32_t unit = 0;
  std::uint64_t generation = 0;
};

struct ReconcileResult {
  std::vector<std::uint32_t> kept;     // ascending; safe to keep serving from
  std::vector<std::uint32_t> refetch;  // ascending; dropped, must re-fetch
  PartialBitmap bitmap;                // exactly the kept set, as a bitmap
};

// Reconciles `held` (the client's receipt bitmap) against the serving
// replica's generation. A held unit is kept iff at least one `entries` record
// covers it AND every record covering it carries `replica_generation`;
// otherwise it lands in `refetch` and its bit is cleared. Records for unheld
// units or with unit >= kReconcileUnits are ignored. kept and refetch are
// disjoint and together cover every held bit.
[[nodiscard]] ReconcileResult reconcile(const PartialBitmap& held,
                                        const std::vector<CachedUnit>& entries,
                                        std::uint64_t replica_generation);

}  // namespace mobiweb::proxy

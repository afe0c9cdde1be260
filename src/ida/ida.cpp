#include "ida/ida.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <span>

#include "obs/profile.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace mobiweb::ida {

namespace {

std::atomic<std::size_t> g_parallel_threshold{kDefaultParallelThreshold};

// Runs fn(lo, hi) over row range [begin, end), sharded across the global
// pool when the total matrix work is large enough to amortise the handoff.
// A template, so the serial path calls fn without building a std::function
// (which would allocate for any capture list wider than two pointers).
template <typename Fn>
void for_each_row_range(std::size_t begin, std::size_t end,
                        std::size_t work_per_row, const Fn& fn) {
  const std::size_t rows = end - begin;
  if (rows >= 2 && rows * work_per_row >= parallel_threshold()) {
    MOBIWEB_PROFILE_SCOPE("ida.rows.parallel");
    ThreadPool::global().parallel_for(begin, end, 1, fn);
  } else if (rows > 0) {
    MOBIWEB_PROFILE_SCOPE("ida.rows.serial");
    fn(begin, end);
  }
}

}  // namespace

std::size_t parallel_threshold() {
  return g_parallel_threshold.load(std::memory_order_relaxed);
}

std::size_t set_parallel_threshold(std::size_t byte_multiplies) {
  return g_parallel_threshold.exchange(byte_multiplies,
                                       std::memory_order_relaxed);
}

namespace {

// Evaluation point of cooked row i.
gf::Elem node(std::size_t i) { return static_cast<gf::Elem>(i + 1); }

struct GeneratorSlot {
  std::once_flag once;
  Generator g;
};

}  // namespace

const Generator& systematic_generator(std::size_t m) {
  MOBIWEB_CHECK_MSG(m >= 1 && m <= kMaxPackets,
                    "systematic_generator: m must be in [1, 255]");
  static std::array<GeneratorSlot, kMaxPackets + 1> slots;
  GeneratorSlot& slot = slots[m];
  std::call_once(slot.once, [&g = slot.g, m] {
    g.m = m;
    for (std::size_t j = 0; j < m; ++j) {
      gf::Elem d = 1;
      for (std::size_t i = 0; i < m; ++i) {
        if (i != j) d = gf::mul(d, node(j) ^ node(i));
      }
      g.b[j] = gf::inv(d);
    }
    g.rows.resize((kMaxPackets - m) * m);
    for (std::size_t r = m; r < kMaxPackets; ++r) {
      gf::Elem a = 1;
      for (std::size_t i = 0; i < m; ++i) a = gf::mul(a, node(r) ^ node(i));
      g.a[r] = a;
      gf::Elem* row = g.rows.data() + (r - m) * m;
      for (std::size_t j = 0; j < m; ++j) {
        row[j] = gf::div(gf::mul(a, g.b[j]), node(r) ^ node(j));
      }
    }
  });
  return slot.g;
}

std::size_t cooked_count(std::size_t m, double gamma) {
  MOBIWEB_CHECK_MSG(std::isfinite(gamma) && gamma >= 1.0,
                    "cooked_count: gamma must be finite and >= 1");
  MOBIWEB_CHECK_MSG(m >= 1 && m <= kMaxPackets, "cooked_count: m must be in [1, 255]");
  const double product = gamma * static_cast<double>(m);
  const double nearest = std::round(product);
  const double n = std::abs(product - nearest) <= kCookedCountTolerance * product
                       ? nearest
                       : std::ceil(product);
  MOBIWEB_CHECK_MSG(n <= static_cast<double>(kMaxPackets),
                    "cooked_count: N = gamma * m exceeds 255 over GF(2^8)");
  return static_cast<std::size_t>(n);
}

std::size_t packet_count(std::size_t payload_size, std::size_t packet_size) {
  MOBIWEB_CHECK_MSG(packet_size >= 1, "packet_count: packet_size must be >= 1");
  return (payload_size + packet_size - 1) / packet_size;
}

std::vector<Bytes> split_payload(ByteSpan payload, std::size_t packet_size) {
  MOBIWEB_CHECK_MSG(!payload.empty(), "split_payload: empty payload");
  MOBIWEB_CHECK_MSG(packet_size >= 1, "split_payload: packet_size must be >= 1");
  const std::size_t m = packet_count(payload.size(), packet_size);
  std::vector<Bytes> raw(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t begin = i * packet_size;
    const std::size_t end = std::min(begin + packet_size, payload.size());
    raw[i].assign(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                  payload.begin() + static_cast<std::ptrdiff_t>(end));
    raw[i].resize(packet_size, 0);  // zero-pad the tail packet
  }
  return raw;
}

Encoder::Encoder(std::size_t m, std::size_t n) : m_(m), n_(n) {
  MOBIWEB_CHECK_MSG(m >= 1, "Encoder: m must be >= 1");
  MOBIWEB_CHECK_MSG(n >= m, "Encoder: n must be >= m");
  MOBIWEB_CHECK_MSG(n <= kMaxPackets, "Encoder: n must be <= 255 over GF(2^8)");
}

Bytes Encoder::encode_flat(ByteSpan payload, std::size_t packet_size) const {
  MOBIWEB_PROFILE_SCOPE("ida.encode");
  MOBIWEB_CHECK_MSG(packet_count(payload.size(), packet_size) == m_,
                    "Encoder::encode_flat: payload does not split into m packets");
  const std::size_t size = packet_size;
  // Systematic prefix: the payload itself, zero-padded to m rows.
  Bytes cooked(n_ * size);
  std::copy(payload.begin(), payload.end(), cooked.begin());
  std::array<const gf::Elem*, kMaxPackets> raw{};
  for (std::size_t j = 0; j < m_; ++j) raw[j] = cooked.data() + j * size;

  const Generator& g = systematic_generator(m_);
  // Redundancy rows are independent dot products over the shared raw packets,
  // so they shard across threads without changing a single output byte.
  for_each_row_range(m_, n_, m_ * size, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      gf::dot_rows(cooked.data() + i * size, {raw.data(), m_}, {g.row(i), m_}, size);
    }
  });
  return cooked;
}

std::vector<Bytes> Encoder::encode(const std::vector<Bytes>& raw) const {
  MOBIWEB_CHECK_MSG(raw.size() == m_, "Encoder::encode: expected m raw packets");
  const std::size_t size = raw.front().size();
  MOBIWEB_CHECK_MSG(size >= 1, "Encoder::encode: empty packets");
  Bytes payload;
  payload.reserve(m_ * size);
  for (const auto& p : raw) {
    MOBIWEB_CHECK_MSG(p.size() == size, "Encoder::encode: packet sizes differ");
    payload.insert(payload.end(), p.begin(), p.end());
  }
  return encode_payload(ByteSpan(payload), size);
}

std::vector<Bytes> Encoder::encode_payload(ByteSpan payload,
                                           std::size_t packet_size) const {
  return split_payload(ByteSpan(encode_flat(payload, packet_size)), packet_size);
}

Decoder::Decoder(std::size_t m, std::size_t n) : m_(m), n_(n) {
  MOBIWEB_CHECK_MSG(m >= 1, "Decoder: m must be >= 1");
  MOBIWEB_CHECK_MSG(n >= m, "Decoder: n must be >= m");
  MOBIWEB_CHECK_MSG(n <= kMaxPackets, "Decoder: n must be <= 255 over GF(2^8)");
}

namespace {

// The erasure solve of StreamingDecoder::reconstruct, over rows of `size`
// bytes: `held` is the slab, row i holding cooked packet i as received, and
// `out` has m raw rows followed by k scratch rows. Writes the k erased raw
// rows `erased` of `out` from the held rows `clear` and `redundant`.
//
// The code is systematic, so with m - k clear packets and k redundancy
// packets R, only the k erased raw rows E are unknown. Each r in R carries
// payload_r = sum_j g[r][j] raw_j. Moving the known clear terms to the left
// (subtraction is xor in GF(2^8)) leaves k syndromes
//
//   s_r = payload_r + sum_{j clear} g[r][j] raw_j = sum_{e in E} g[r][e] raw_e
//
// so raw_E = B^-1 s with B = g[R][E]. By the generator's closed form,
// B = diag(a_R) C diag(b_E) for the Cauchy matrix C[p][q] = 1 / (y_p + z_q)
// over y_p = x_{R_p} and z_q = x_{E_q}, whose inverse is
//
//   C^-1[q][p] = prod_t (y_p + z_t) prod_t (y_t + z_q)
//                / ((y_p + z_q) prod_{t!=p} (y_p + y_t) prod_{t!=q} (z_q + z_t)).
//
// So B^-1[q][p] = u_p v_q / (y_p + z_q) with u_p and v_q below: O(k^2)
// field operations, then 2k dot products over k*m source rows in all. R and
// E are disjoint sets of distinct nodes, so no factor is ever zero and B is
// never singular.
void solve_erasures(std::size_t m, std::size_t size, const gf::Elem* held,
                    std::span<const std::size_t> clear,
                    std::span<const std::size_t> erased,
                    std::span<const std::size_t> redundant, gf::Elem* out) {
  const std::size_t k = erased.size();
  const auto held_row = [&](std::size_t i) { return held + i * size; };
  gf::Elem* syndromes = out + m * size;
  const Generator& g = systematic_generator(m);
  const auto y = [&](std::size_t p) { return node(redundant[p]); };
  const auto z = [&](std::size_t q) { return node(erased[q]); };
  // u_p: C^-1's factor for received row p, over a_{R_p};
  // v_q: C^-1's factor for erased row q, over b_{E_q}.
  std::array<gf::Elem, kMaxPackets> u{};
  std::array<gf::Elem, kMaxPackets> v{};
  for (std::size_t p = 0; p < k; ++p) {
    gf::Elem num = 1;
    gf::Elem den = g.a[redundant[p]];
    for (std::size_t t = 0; t < k; ++t) {
      num = gf::mul(num, y(p) ^ z(t));
      if (t != p) den = gf::mul(den, y(p) ^ y(t));
    }
    u[p] = gf::div(num, den);
  }
  for (std::size_t q = 0; q < k; ++q) {
    gf::Elem num = 1;
    gf::Elem den = g.b[erased[q]];
    for (std::size_t t = 0; t < k; ++t) {
      num = gf::mul(num, y(t) ^ z(q));
      if (t != q) den = gf::mul(den, z(q) ^ z(t));
    }
    v[q] = gf::div(num, den);
  }

  // Syndrome and solution rows are each independent, so both passes shard
  // across the pool. A syndrome is one dot product: the received payload with
  // coefficient 1, then the clear rows (1 + clear.size() <= m sources).
  std::array<const gf::Elem*, kMaxPackets> syndrome_rows{};
  for (std::size_t a = 0; a < k; ++a) syndrome_rows[a] = syndromes + a * size;
  const std::size_t terms = 1 + clear.size();
  for_each_row_range(0, k, terms * size, [&](std::size_t lo, std::size_t hi) {
    std::array<const gf::Elem*, kMaxPackets> srcs{};
    std::array<gf::Elem, kMaxPackets> coeffs{};
    for (std::size_t c = 0; c < clear.size(); ++c) srcs[1 + c] = held_row(clear[c]);
    coeffs[0] = 1;
    for (std::size_t a = lo; a < hi; ++a) {
      srcs[0] = held_row(redundant[a]);
      const gf::Elem* coeff_row = g.row(redundant[a]);
      for (std::size_t c = 0; c < clear.size(); ++c) coeffs[1 + c] = coeff_row[clear[c]];
      gf::dot_rows(syndromes + a * size, {srcs.data(), terms}, {coeffs.data(), terms},
                   size);
    }
  });
  for_each_row_range(0, k, k * size, [&](std::size_t lo, std::size_t hi) {
    std::array<gf::Elem, kMaxPackets> inv_row{};  // row q of B^-1
    for (std::size_t q = lo; q < hi; ++q) {
      for (std::size_t p = 0; p < k; ++p) {
        inv_row[p] = gf::div(gf::mul(u[p], v[q]), y(p) ^ z(q));
      }
      gf::dot_rows(out + erased[q] * size, {syndrome_rows.data(), k}, {inv_row.data(), k},
                   size);
    }
  });
}

}  // namespace

std::vector<Bytes> Decoder::decode(
    const std::vector<std::pair<std::size_t, Bytes>>& cooked) const {
  MOBIWEB_CHECK_MSG(!cooked.empty(), "Decoder::decode: no packets supplied");
  const std::size_t size = cooked.front().second.size();
  return split_payload(ByteSpan(decode_payload(cooked, m_ * size)), size);
}

Bytes Decoder::decode_payload(
    const std::vector<std::pair<std::size_t, Bytes>>& cooked,
    std::size_t payload_size) const {
  MOBIWEB_CHECK_MSG(!cooked.empty(), "Decoder::decode: no packets supplied");
  StreamingDecoder stream(m_, n_, cooked.front().second.size(), payload_size);
  for (const auto& [index, data] : cooked) stream.add(index, ByteSpan(data));
  return stream.reconstruct();
}

StreamingDecoder::StreamingDecoder(std::size_t m, std::size_t n,
                                   std::size_t packet_size,
                                   std::size_t payload_size)
    : m_(m), n_(n), packet_size_(packet_size), payload_size_(payload_size) {
  MOBIWEB_CHECK_MSG(m >= 1 && n >= m && n <= kMaxPackets,
                    "StreamingDecoder: bad (m, n)");
  MOBIWEB_CHECK_MSG(packet_size >= 1, "StreamingDecoder: packet_size must be >= 1");
  MOBIWEB_CHECK_MSG(payload_size >= 1 && payload_size <= m * packet_size,
                    "StreamingDecoder: payload_size inconsistent with m*packet_size");
  slab_.resize(n * packet_size);
}

bool StreamingDecoder::add(std::size_t index, ByteSpan payload) {
  MOBIWEB_CHECK_MSG(index < n_, "StreamingDecoder::add: index out of range");
  MOBIWEB_CHECK_MSG(payload.size() == packet_size_,
                    "StreamingDecoder::add: wrong packet size");
  if (seen_[index]) return false;
  seen_[index] = true;
  std::copy_n(payload.data(), packet_size_, slab_.data() + index * packet_size_);
  if (index < m_) ++clear_count_;
  if (index < m_ || intact_ < m_) ++intact_;
  return true;
}

bool StreamingDecoder::has(std::size_t index) const {
  MOBIWEB_CHECK_MSG(index < n_, "StreamingDecoder::has: index out of range");
  return seen_[index];
}

bool StreamingDecoder::has_clear(std::size_t raw_index) const {
  MOBIWEB_CHECK_MSG(raw_index < m_, "StreamingDecoder::has_clear: index out of range");
  return seen_[raw_index];
}

ByteSpan StreamingDecoder::clear_packet(std::size_t raw_index) const {
  MOBIWEB_CHECK_MSG(has_clear(raw_index),
                    "StreamingDecoder::clear_packet: packet not held in clear");
  return ByteSpan(slab_).subspan(raw_index * packet_size_, packet_size_);
}

std::optional<ByteSpan> StreamingDecoder::clear_bytes(std::size_t offset,
                                                      std::size_t size) const {
  MOBIWEB_CHECK_MSG(offset <= payload_size_ && size <= payload_size_ - offset,
                    "StreamingDecoder::clear_bytes: range past the payload");
  if (size == 0) return ByteSpan{};
  for (std::size_t raw = offset / packet_size_; raw <= (offset + size - 1) / packet_size_;
       ++raw) {
    if (!seen_[raw]) return std::nullopt;
  }
  return ByteSpan(slab_).subspan(offset, size);
}

Bytes StreamingDecoder::reconstruct() const {
  MOBIWEB_PROFILE_SCOPE("ida.reconstruct");
  MOBIWEB_CHECK_MSG(complete(), "StreamingDecoder::reconstruct: not complete");
  MOBIWEB_PROFILE_SCOPE("ida.decode");
  // Every held clear row is used; each erased raw row takes the next
  // lowest-index redundancy row held. complete() guarantees there are enough.
  std::array<std::size_t, kMaxPackets> clear{};
  std::array<std::size_t, kMaxPackets> erased{};
  std::array<std::size_t, kMaxPackets> redundant{};
  std::size_t c = 0;
  std::size_t k = 0;
  for (std::size_t j = 0; j < m_; ++j) (seen_[j] ? clear[c++] : erased[k++]) = j;
  for (std::size_t r = m_, p = 0; p < k; ++r) {
    if (seen_[r]) redundant[p++] = r;
  }
  // m raw rows, then k syndrome rows the solve works in.
  const std::size_t raw_bytes = m_ * packet_size_;
  Bytes out(raw_bytes + k * packet_size_);
  std::copy_n(slab_.begin(), raw_bytes, out.begin());
  if (k > 0) {
    solve_erasures(m_, packet_size_, slab_.data(), {clear.data(), c},
                   {erased.data(), k}, {redundant.data(), k}, out.data());
  }
  out.resize(payload_size_);
  return out;
}

double StreamingDecoder::clear_fraction() const {
  return static_cast<double>(clear_count_) / static_cast<double>(m_);
}

void StreamingDecoder::reset() {
  seen_.reset();
  clear_count_ = 0;
  intact_ = 0;
}

}  // namespace mobiweb::ida

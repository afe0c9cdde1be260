// Systematic Information Dispersal (paper §4.1).
//
// A document payload is cut into M raw packets of `packet_size` bytes (the
// last one zero-padded) and expanded to N >= M "cooked" packets with a
// systematic Vandermonde generator over GF(2^8):
//
//   * cooked packets 0..M-1 are byte-identical to the raw packets (clear
//     text), so a receiver can use them immediately without any decoding;
//   * ANY M intact cooked packets reconstruct all M raw packets. A decode
//     from M - k clear packets and k redundancy packets only solves for the
//     k erased raw packets, inverting a k x k block of the generator.
//
// This mirrors Rabin's IDA with the paper's modification: "adopt the
// Vandermonde polynomial in the transformation stage, followed by making the
// upper portion of the multiplying Vandermonde matrix into an identity matrix
// via elementary matrix transformation". That product has a closed form, so
// no matrix is ever inverted: over the nodes x_i = i + 1, row r of the
// generator is the Lagrange basis of x_0..x_{M-1} evaluated at x_r, and the
// k x k block a decode inverts is a scaled Cauchy matrix whose inverse is
// known entry by entry (Schechter 1959; Lacan & Fimes 2004).
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "gf256/gf256.hpp"
#include "util/bytes.hpp"

namespace mobiweb::ida {

// Encode/decode shard their independent output rows across the global
// ThreadPool when the matrix work (rows to compute x m x packet bytes,
// i.e. byte-multiplies) reaches this threshold; smaller jobs run serially.
// Encode computes the n - m redundancy rows; decode the k erased rows.
// Sharding never changes output bytes — rows are computed independently.
// `set_parallel_threshold` returns the previous value (0 forces the parallel
// path for any size; handy in tests and benchmarks). Thread-safe.
inline constexpr std::size_t kDefaultParallelThreshold = 1u << 18;
std::size_t parallel_threshold();
std::size_t set_parallel_threshold(std::size_t byte_multiplies);

// Most packets, raw or cooked, in one dispersal group: the generator's rows
// are evaluation points of GF(2^8), which has 255 non-zero elements.
inline constexpr std::size_t kMaxPackets = 255;

// The systematic generator for m raw packets, in closed form. With
// x_i = i + 1, a_r = prod_{i<m} (x_r + x_i) and
// b_j = 1 / prod_{i<m, i!=j} (x_j + x_i) (addition is xor), the generator's
// rows 0..m-1 are the identity and each later row is
//
//   G[r][j] = a_r * b_j / (x_r + x_j).
//
// Row r depends on m and r only, never on n, so one table per m serves every
// n: it holds rows m..kMaxPackets-1.
struct Generator {
  std::size_t m = 0;
  std::array<gf::Elem, kMaxPackets> a{};  // a_r for m <= r < kMaxPackets
  std::array<gf::Elem, kMaxPackets> b{};  // b_j for j < m
  std::vector<gf::Elem> rows;             // rows m.. back to back, m bytes each

  // The m coefficients of redundancy row r, m <= r < kMaxPackets.
  [[nodiscard]] const gf::Elem* row(std::size_t r) const {
    return rows.data() + (r - m) * m;
  }
};

// The shared generator for m raw packets, 1 <= m <= kMaxPackets: built on
// first use, then returned without a lock. Thread-safe.
const Generator& systematic_generator(std::size_t m);

// Relative tolerance under which cooked_count treats γ·m as a whole number.
// Decimal ratios are inexact in binary, so γ·m can land a few ulps above the
// integer it stands for (1.1 · 50 = 55.000000000000007, where ceil gives 56);
// any product within kCookedCountTolerance · γ·m of an integer is that
// integer.
inline constexpr double kCookedCountTolerance = 1e-9;

// The one definition of N from (M, γ), "N = γ·M" of §4.1: ⌈γ·m⌉, where a
// product within the tolerance above of an integer counts as that integer
// (so cooked_count(m, n / m) == n for every 1 <= m <= n <= kMaxPackets).
// Throws ContractViolation on a non-finite γ, γ < 1, m = 0, m > kMaxPackets
// or N > kMaxPackets; nothing is clamped.
std::size_t cooked_count(std::size_t m, double gamma);

// Number of raw packets needed to carry `payload_size` bytes at `packet_size`.
std::size_t packet_count(std::size_t payload_size, std::size_t packet_size);

// Splits payload into raw packets of exactly `packet_size` bytes each,
// zero-padding the tail. Requires a non-empty payload and packet_size >= 1.
std::vector<Bytes> split_payload(ByteSpan payload, std::size_t packet_size);

class Encoder {
 public:
  // m = raw packets, n = cooked packets; 1 <= m <= n <= kMaxPackets.
  Encoder(std::size_t m, std::size_t n);

  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] std::size_t n() const { return n_; }

  // Splits `payload` into m raw packets of `packet_size` bytes (the last one
  // zero-padded) and returns the n cooked packets back to back: cooked packet
  // i is bytes [i * packet_size, (i + 1) * packet_size), and the first m are
  // the raw packets. Throws ContractViolation unless the payload splits into
  // exactly m packets.
  [[nodiscard]] Bytes encode_flat(ByteSpan payload, std::size_t packet_size) const;

  // encode_flat, cut into one Bytes per cooked packet.
  [[nodiscard]] std::vector<Bytes> encode_payload(ByteSpan payload,
                                                  std::size_t packet_size) const;

  // Encodes pre-split raw packets (all the same size) into n cooked packets.
  // The first m cooked packets equal the raw packets.
  [[nodiscard]] std::vector<Bytes> encode(const std::vector<Bytes>& raw) const;

 private:
  std::size_t m_;
  std::size_t n_;
};

// One-shot decoder: give it (index, payload) pairs holding >= m distinct
// indices in [0, n) and it reconstructs the m raw packets. It feeds every
// pair to a StreamingDecoder, so the two share one decode.
class Decoder {
 public:
  Decoder(std::size_t m, std::size_t n);

  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] std::size_t n() const { return n_; }

  // `cooked` holds (cooked index, payload). Every pair is validated: an
  // index outside [0, n), an empty payload or payloads of different sizes
  // throw ContractViolation, wherever in the list they sit. Duplicate
  // indices count once, and any m distinct intact packets decode to the same
  // bytes. Throws ContractViolation when fewer than m distinct packets are
  // supplied.
  [[nodiscard]] std::vector<Bytes> decode(
      const std::vector<std::pair<std::size_t, Bytes>>& cooked) const;

  // Reconstructs the original payload of `payload_size` bytes; throws
  // ContractViolation unless 1 <= payload_size <= m * packet size.
  [[nodiscard]] Bytes decode_payload(
      const std::vector<std::pair<std::size_t, Bytes>>& cooked,
      std::size_t payload_size) const;

 private:
  std::size_t m_;
  std::size_t n_;
};

// Incremental receiver-side decoder. Cooked packets arrive one at a time (in
// any order, possibly with gaps); clear-text packets are usable immediately
// ("it allows a portion of the original information to be used once they are
// available"), and reconstruction unlocks once m distinct intact packets are
// held. The buffer survives retransmission rounds — this is exactly the
// client cache that the paper's Caching strategy keeps across "stalled"
// downloads.
//
// The buffer is one slab of n rows allocated at construction: cooked packet
// i is copied into row i, so rows 0..m-1 are the payload itself as far as it
// has arrived in clear text. reconstruct() copies those rows and solves only
// the k erased ones, from the k lowest-index redundancy rows held.
class StreamingDecoder {
 public:
  StreamingDecoder(std::size_t m, std::size_t n, std::size_t packet_size,
                   std::size_t payload_size);

  // Returns true if the packet was new and intact-usable (i.e. not a
  // duplicate). Index must be < n and payload exactly packet_size bytes.
  bool add(std::size_t index, ByteSpan payload);

  // Packets that count toward reconstruction: every clear-text packet, and
  // each redundancy packet that arrived while fewer than m were counted
  // (beyond m a redundancy packet adds nothing). The count can exceed m,
  // since clear packets keep counting after completion.
  [[nodiscard]] std::size_t intact_count() const { return intact_; }
  [[nodiscard]] bool complete() const { return intact_ >= m_; }

  // True when cooked packet `index` has been received intact (any index,
  // counted or not).
  [[nodiscard]] bool has(std::size_t index) const;

  // True when raw packet `raw_index` is already available in clear text
  // (systematic prefix), before full reconstruction.
  [[nodiscard]] bool has_clear(std::size_t raw_index) const;

  // The bytes of a clear-text raw packet; throws if !has_clear(raw_index).
  [[nodiscard]] ByteSpan clear_packet(std::size_t raw_index) const;

  // Payload bytes [offset, offset + size) as one view of the slab, when
  // every raw packet they span is held in clear text; nullopt otherwise.
  // Throws ContractViolation if the range ends past payload_size.
  [[nodiscard]] std::optional<ByteSpan> clear_bytes(std::size_t offset,
                                                    std::size_t size) const;

  // Full payload; throws ContractViolation if !complete().
  [[nodiscard]] Bytes reconstruct() const;

  // Clear-text raw packets held, and their fraction of m.
  [[nodiscard]] std::size_t clear_count() const { return clear_count_; }
  [[nodiscard]] double clear_fraction() const;

  void reset();

  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t packet_size() const { return packet_size_; }
  [[nodiscard]] std::size_t payload_size() const { return payload_size_; }

 private:
  std::size_t m_;
  std::size_t n_;
  std::size_t packet_size_;
  std::size_t payload_size_;
  Bytes slab_;                     // n rows; row i is valid once seen_[i]
  std::bitset<kMaxPackets> seen_;  // cooked packets received intact
  std::size_t clear_count_ = 0;    // seen_ bits below m
  std::size_t intact_ = 0;         // intact_count()
};

}  // namespace mobiweb::ida

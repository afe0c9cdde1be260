// Fuzz target: the IDA erasure-coding pipeline with arbitrary share subsets,
// plus the serial-vs-parallel differential oracle. The provider picks a
// shape (any 1 <= m <= n <= 255, packet_size), a payload, and a permutation
// of cooked-packet indices, optionally biased toward mostly-clear subsets
// (the common case: few erasures); the harness checks that
//
//   * serial and row-sharded parallel encode/decode produce identical bytes;
//   * ANY m distinct cooked packets reconstruct the payload exactly, and
//     decode agrees with a reference that builds the generator as
//     V * V_top^-1, inverts the whole m x m sub-generator by Gauss-Jordan
//     (gf_oracle.hpp) and multiplies it out with scalar field arithmetic;
//   * the streaming decoder reaches the same payload through out-of-order,
//     duplicated arrivals;
//   * fewer than m distinct packets is rejected with ContractViolation;
//   * a streaming decoder fed every cooked packet, more than m when n > m,
//     counts them by its admission rule and still reconstructs the payload.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "fuzz_input.hpp"
#include "gf_oracle.hpp"
#include "ida/ida.hpp"
#include "util/check.hpp"

namespace gf = mobiweb::gf;
namespace ida = mobiweb::ida;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::fuzz::FuzzInput;

namespace {

// Runs fn with the parallel path forced off, then forced on, and checks both
// produce the same result. Restores the threshold afterwards.
template <typename Fn>
auto serial_vs_parallel(Fn&& fn) {
  const std::size_t old = ida::set_parallel_threshold(static_cast<std::size_t>(-1));
  auto serial = fn();
  ida::set_parallel_threshold(0);
  auto parallel = fn();
  ida::set_parallel_threshold(old);
  MOBIWEB_FUZZ_ASSERT(serial == parallel,
                      "serial and parallel paths produced different bytes");
  return serial;
}

// Full-inverse reference over m distinct shares, in order.
std::vector<Bytes> full_inverse_decode(
    std::size_t m, std::size_t n,
    const std::vector<std::pair<std::size_t, Bytes>>& shares) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < m; ++i) indices.push_back(shares[i].first);
  const mobiweb::testing::Matrix inv =
      mobiweb::testing::systematic_vandermonde(n, m).select_rows(indices).inverse();
  MOBIWEB_FUZZ_ASSERT(!inv.empty(), "m distinct shares gave a singular sub-generator");
  const std::size_t size = shares.front().second.size();
  std::vector<Bytes> raw(m, Bytes(size, 0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t b = 0; b < size; ++b) {
        raw[i][b] ^= gf::mul(inv.at(i, j), shares[j].second[b]);
      }
    }
  }
  return raw;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > (1u << 16)) return 0;
  FuzzInput in(data, size);

  const std::size_t m = in.take_in_range(1, ida::kMaxPackets);
  const std::size_t n = m + in.take_in_range(0, ida::kMaxPackets - m);
  const std::size_t packet_size = in.take_in_range(1, 48);
  const std::size_t payload_size =
      in.take_in_range((m - 1) * packet_size + 1, m * packet_size);
  const Bytes payload = in.take_bytes(payload_size);

  const ida::Encoder enc(m, n);
  const std::vector<Bytes> cooked = serial_vs_parallel(
      [&] { return enc.encode_payload(ByteSpan(payload), packet_size); });
  MOBIWEB_FUZZ_ASSERT(cooked.size() == n, "encoder produced wrong share count");
  for (std::size_t i = 0; i < m; ++i) {
    // Systematic prefix: clear-text shares are the raw packets themselves.
    const std::size_t begin = i * packet_size;
    for (std::size_t k = 0; k < packet_size; ++k) {
      const std::uint8_t expect =
          begin + k < payload.size() ? payload[begin + k] : 0;
      MOBIWEB_FUZZ_ASSERT(cooked[i][k] == expect,
                          "systematic share differs from raw payload");
    }
  }

  // Fisher–Yates permutation of the cooked indices, driven by the provider.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[in.take_index(i + 1)]);
  }

  // Mostly-clear bias: move a provider-chosen number of clear shares into
  // the first m slots, so subsets with few erasures (down to none) are as
  // reachable as uniform ones, then rotate those slots so redundancy shares
  // can still arrive first.
  if (in.take_bool()) {
    const std::size_t clear = in.take_in_range(0, m);
    for (std::size_t raw = 0; raw < clear; ++raw) {
      std::swap(*std::find(order.begin(), order.end(), raw), order[raw]);
    }
    const auto first = order.begin();
    std::rotate(first, first + static_cast<std::ptrdiff_t>(in.take_index(m)),
                first + static_cast<std::ptrdiff_t>(m));
  }

  std::vector<std::pair<std::size_t, Bytes>> kept;
  for (std::size_t i = 0; i < m; ++i) kept.emplace_back(order[i], cooked[order[i]]);
  const std::vector<Bytes> expect = full_inverse_decode(m, n, kept);
  // Duplicates must be ignored, not counted toward the m required shares.
  if (in.take_bool() && !kept.empty()) kept.push_back(kept.front());

  const ida::Decoder dec(m, n);
  const std::vector<Bytes> raw = serial_vs_parallel([&] { return dec.decode(kept); });
  MOBIWEB_FUZZ_ASSERT(raw == expect, "decode differs from the full-inverse reference");
  const Bytes decoded = serial_vs_parallel(
      [&] { return dec.decode_payload(kept, payload.size()); });
  MOBIWEB_FUZZ_ASSERT(decoded == payload,
                      "decode from an arbitrary m-subset lost the payload");

  // Streaming decoder: same shares, arbitrary arrival order with duplicates.
  ida::StreamingDecoder stream(m, n, packet_size, payload.size());
  for (const auto& [index, bytes] : kept) {
    stream.add(index, ByteSpan(bytes));
    if (in.take_bool()) stream.add(index, ByteSpan(bytes));  // duplicate
  }
  MOBIWEB_FUZZ_ASSERT(stream.complete(), "m distinct shares did not complete");
  MOBIWEB_FUZZ_ASSERT(stream.reconstruct() == payload,
                      "streaming reconstruction differs");

  // Starvation: m - 1 distinct shares must be rejected, never mis-decode.
  if (m > 1) {
    std::vector<std::pair<std::size_t, Bytes>> starved(kept.begin(),
                                                       kept.begin() + (m - 1));
    bool rejected = false;
    try {
      (void)dec.decode_payload(starved, payload.size());
    } catch (const ContractViolation&) {
      rejected = true;
    }
    MOBIWEB_FUZZ_ASSERT(rejected, "decode accepted fewer than m shares");
  }

  // Selection: every share of `order`, so the decoder holds up to n packets
  // and reconstruct() picks which rows to solve from. Clear shares always
  // count; a redundancy share counts only while fewer than m are counted.
  ida::StreamingDecoder all(m, n, packet_size, payload.size());
  std::size_t counted = 0;
  for (const std::size_t index : order) {
    MOBIWEB_FUZZ_ASSERT(all.add(index, ByteSpan(cooked[index])),
                        "a new share was taken for a duplicate");
    if (index < m || counted < m) ++counted;
    if (in.take_bool()) {
      MOBIWEB_FUZZ_ASSERT(!all.add(index, ByteSpan(cooked[index])),
                          "a duplicate share was taken as new");
    }
  }
  MOBIWEB_FUZZ_ASSERT(all.intact_count() == counted,
                      "intact_count broke the admission rule");
  MOBIWEB_FUZZ_ASSERT(all.reconstruct() == payload,
                      "reconstruction from every share differs");
  return 0;
}

// Systematic information dispersal: encode/decode/streaming.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>

#include "fuzz/gf_oracle.hpp"
#include "ida/ida.hpp"
#include "obs/profile.hpp"
#include "util/rng.hpp"

namespace gf = mobiweb::gf;
namespace ida = mobiweb::ida;
namespace obs = mobiweb::obs;
namespace oracle = mobiweb::testing;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::Rng;

namespace {

Bytes random_payload(std::size_t size, Rng& rng) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

using Shares = std::vector<std::pair<std::size_t, Bytes>>;

void shuffle(std::vector<std::size_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

// The decode the erasure-only solve replaces: invert the whole m x m
// sub-generator of the first m distinct indices, built and inverted by the
// Gauss-Jordan oracle, and multiply it out byte by byte with scalar field
// arithmetic.
std::vector<Bytes> full_inverse_decode(std::size_t m, std::size_t n,
                                       const Shares& shares) {
  std::vector<std::size_t> indices;
  std::vector<const Bytes*> payloads;
  std::vector<bool> seen(n, false);
  for (const auto& [idx, data] : shares) {
    if (seen[idx] || indices.size() == m) continue;
    seen[idx] = true;
    indices.push_back(idx);
    payloads.push_back(&data);
  }
  const oracle::Matrix inv =
      oracle::systematic_vandermonde(n, m).select_rows(indices).inverse();
  const std::size_t size = shares.front().second.size();
  std::vector<Bytes> raw(m, Bytes(size, 0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t b = 0; b < size; ++b) {
        raw[i][b] ^= gf::mul(inv.at(i, j), (*payloads[j])[b]);
      }
    }
  }
  return raw;
}

long calls(const obs::Profiler& profiler, const std::string& name) {
  for (const auto& e : profiler.report()) {
    if (e.name == name) return e.count;
  }
  return 0;
}

// Calls of every profiler scope whose name starts with `prefix`.
long calls_with_prefix(const obs::Profiler& profiler, const std::string& prefix) {
  long total = 0;
  for (const auto& e : profiler.report()) {
    if (e.name.starts_with(prefix)) total += e.count;
  }
  return total;
}

}  // namespace

TEST(Split, PadsTail) {
  const Bytes payload = {1, 2, 3, 4, 5};
  const auto raw = ida::split_payload(ByteSpan(payload), 2);
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0], (Bytes{1, 2}));
  EXPECT_EQ(raw[1], (Bytes{3, 4}));
  EXPECT_EQ(raw[2], (Bytes{5, 0}));
}

TEST(Split, ExactFit) {
  const Bytes payload = {1, 2, 3, 4};
  const auto raw = ida::split_payload(ByteSpan(payload), 2);
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[1], (Bytes{3, 4}));
}

TEST(Split, PacketCount) {
  EXPECT_EQ(ida::packet_count(10240, 256), 40u);
  EXPECT_EQ(ida::packet_count(10241, 256), 41u);
  EXPECT_EQ(ida::packet_count(1, 256), 1u);
}

// ida::cooked_count is the one N(gamma, M). On the decimal grid the paper's
// gammas live on, it equals the exact rational ceiling ⌈k·m / 10⌉, whether
// gamma is written k / 10 or reached by stepping 0.1 the way bench_fig4 does.
TEST(CookedCount, DecimalGridMatchesExactRationalCeiling) {
  double stepped = 1.0;
  for (std::size_t k = 10; k <= 40; ++k, stepped += 0.1) {
    for (std::size_t m = 1; m <= ida::kMaxPackets; ++m) {
      const std::size_t exact = (k * m + 9) / 10;
      for (const double gamma : {static_cast<double>(k) / 10.0, stepped}) {
        if (exact > ida::kMaxPackets) {
          EXPECT_THROW(ida::cooked_count(m, gamma), ContractViolation);
        } else {
          EXPECT_EQ(ida::cooked_count(m, gamma), exact) << "k=" << k << " m=" << m;
        }
      }
    }
  }
}

// gamma = n / m, as the adaptive controller and the fleet configs write it,
// cooks exactly n packets for every valid shape.
TEST(CookedCount, RoundTripsEveryRatio) {
  for (std::size_t m = 1; m <= ida::kMaxPackets; ++m) {
    for (std::size_t n = m; n <= ida::kMaxPackets; ++n) {
      ASSERT_EQ(ida::cooked_count(m, static_cast<double>(n) / static_cast<double>(m)), n)
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(CookedCount, RejectsWhatNoDispersalGroupHolds) {
  EXPECT_THROW(ida::cooked_count(40, std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  EXPECT_THROW(ida::cooked_count(40, std::numeric_limits<double>::infinity()),
               ContractViolation);
  EXPECT_THROW(ida::cooked_count(40, 0.999), ContractViolation);
  EXPECT_THROW(ida::cooked_count(128, 2.0), ContractViolation);  // N = 256
  EXPECT_THROW(ida::cooked_count(0, 1.5), ContractViolation);
  EXPECT_THROW(ida::cooked_count(ida::kMaxPackets + 1, 1.0), ContractViolation);
  EXPECT_EQ(ida::cooked_count(ida::kMaxPackets, 1.0), ida::kMaxPackets);
}

TEST(Encoder, SystematicPrefixEqualsRaw) {
  Rng rng(20);
  const Bytes payload = random_payload(1000, rng);
  ida::Encoder enc(4, 9);
  const auto raw = ida::split_payload(ByteSpan(payload), 250);
  const auto cooked = enc.encode(raw);
  ASSERT_EQ(cooked.size(), 9u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cooked[i], raw[i]) << "clear-text packet " << i;
  }
}

TEST(Encoder, RejectsBadShapes) {
  EXPECT_THROW(ida::Encoder(0, 4), ContractViolation);
  EXPECT_THROW(ida::Encoder(5, 4), ContractViolation);
  EXPECT_THROW(ida::Encoder(10, 256), ContractViolation);
  EXPECT_NO_THROW(ida::Encoder(10, 255));
}

TEST(Encoder, MismatchedPacketSizesThrow) {
  ida::Encoder enc(2, 3);
  std::vector<Bytes> raw = {{1, 2}, {3}};
  EXPECT_THROW(enc.encode(raw), ContractViolation);
}

TEST(Decoder, AnyMSubsetReconstructs) {
  Rng rng(21);
  const std::size_t m = 5;
  const std::size_t n = 12;
  const Bytes payload = random_payload(1237, rng);
  ida::Encoder enc(m, n);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);

  ida::Decoder dec(m, n);
  for (int trial = 0; trial < 30; ++trial) {
    // Random m-subset of cooked indices.
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), 0u);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(indices[i], indices[rng.next_below(i + 1)]);
    }
    std::vector<std::pair<std::size_t, Bytes>> subset;
    for (std::size_t i = 0; i < m; ++i) {
      subset.emplace_back(indices[i], cooked[indices[i]]);
    }
    EXPECT_EQ(dec.decode_payload(subset, payload.size()), payload);
  }
}

TEST(Decoder, RedundancyOnlyReconstructs) {
  Rng rng(22);
  const Bytes payload = random_payload(512, rng);
  ida::Encoder enc(2, 6);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::Decoder dec(2, 6);
  // Use only the non-systematic packets.
  const std::vector<std::pair<std::size_t, Bytes>> subset = {{4, cooked[4]},
                                                             {5, cooked[5]}};
  EXPECT_EQ(dec.decode_payload(subset, payload.size()), payload);
}

TEST(Decoder, TooFewPacketsThrows) {
  Rng rng(23);
  const Bytes payload = random_payload(512, rng);
  ida::Encoder enc(2, 4);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::Decoder dec(2, 4);
  const std::vector<std::pair<std::size_t, Bytes>> one = {{0, cooked[0]}};
  EXPECT_THROW(dec.decode(one), ContractViolation);
}

TEST(Decoder, DuplicateIndicesDoNotCount) {
  Rng rng(24);
  const Bytes payload = random_payload(512, rng);
  ida::Encoder enc(2, 4);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::Decoder dec(2, 4);
  const std::vector<std::pair<std::size_t, Bytes>> dup = {{1, cooked[1]},
                                                          {1, cooked[1]}};
  EXPECT_THROW(dec.decode(dup), ContractViolation);
}

TEST(Decoder, IndexOutOfRangeThrows) {
  Rng rng(31);
  const Bytes payload = random_payload(512, rng);
  ida::Encoder enc(2, 4);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::Decoder dec(2, 4);
  const std::vector<std::pair<std::size_t, Bytes>> bad = {{0, cooked[0]},
                                                          {4, cooked[1]}};
  EXPECT_THROW(dec.decode(bad), ContractViolation);
}

TEST(Decoder, MixedPacketSizesThrow) {
  Rng rng(32);
  const Bytes payload = random_payload(512, rng);
  ida::Encoder enc(2, 4);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::Decoder dec(2, 4);
  // A short (truncated) payload must be rejected even when enough well-sized
  // packets are present — never silently decoded against a ragged matrix.
  Bytes truncated(cooked[1].begin(), cooked[1].begin() + 100);
  const std::vector<std::pair<std::size_t, Bytes>> mixed = {
      {0, cooked[0]}, {1, std::move(truncated)}, {2, cooked[2]}};
  EXPECT_THROW(dec.decode(mixed), ContractViolation);
}

TEST(Decoder, EmptyPacketsThrow) {
  ida::Decoder dec(2, 4);
  EXPECT_THROW(dec.decode({}), ContractViolation);
  const std::vector<std::pair<std::size_t, Bytes>> empties = {{0, Bytes{}},
                                                              {1, Bytes{}}};
  EXPECT_THROW(dec.decode(empties), ContractViolation);
}

TEST(Decoder, DuplicatesPlusEnoughDistinctStillDecode) {
  Rng rng(33);
  const Bytes payload = random_payload(512, rng);
  ida::Encoder enc(2, 4);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::Decoder dec(2, 4);
  // The duplicate must be skipped (not fed to the submatrix twice, which
  // would make it singular); the later distinct packet completes the decode.
  const std::vector<std::pair<std::size_t, Bytes>> dup_then_ok = {
      {3, cooked[3]}, {3, cooked[3]}, {1, cooked[1]}};
  EXPECT_EQ(dec.decode_payload(dup_then_ok, payload.size()), payload);
}

TEST(Decoder, PaperShape40of60) {
  Rng rng(25);
  const Bytes payload = random_payload(10240, rng);  // the paper's document
  ida::Encoder enc(40, 60);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ASSERT_EQ(cooked.size(), 60u);
  // Drop 20 arbitrary packets (a 33% loss burst), decode from the rest.
  std::vector<std::pair<std::size_t, Bytes>> kept;
  for (std::size_t i = 0; i < 60; ++i) {
    if (i % 3 == 1) continue;  // drop 20
    kept.emplace_back(i, cooked[i]);
  }
  ida::Decoder dec(40, 60);
  EXPECT_EQ(dec.decode_payload(kept, payload.size()), payload);
}

TEST(Streaming, ClearPacketsAvailableImmediately) {
  Rng rng(26);
  const Bytes payload = random_payload(700, rng);
  ida::Encoder enc(3, 6);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);

  ida::StreamingDecoder sd(3, 6, 256, payload.size());
  EXPECT_FALSE(sd.complete());
  EXPECT_TRUE(sd.add(1, ByteSpan(cooked[1])));
  EXPECT_TRUE(sd.has_clear(1));
  EXPECT_FALSE(sd.has_clear(0));
  EXPECT_EQ(sd.clear_fraction(), 1.0 / 3.0);
  const ByteSpan clear = sd.clear_packet(1);
  EXPECT_TRUE(std::equal(clear.begin(), clear.end(), cooked[1].begin()));
}

TEST(Streaming, DuplicatesIgnored) {
  Rng rng(27);
  const Bytes payload = random_payload(700, rng);
  ida::Encoder enc(3, 6);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::StreamingDecoder sd(3, 6, 256, payload.size());
  EXPECT_TRUE(sd.add(4, ByteSpan(cooked[4])));
  EXPECT_FALSE(sd.add(4, ByteSpan(cooked[4])));
  EXPECT_EQ(sd.intact_count(), 1u);
}

TEST(Streaming, CompletesAndReconstructs) {
  Rng rng(28);
  const Bytes payload = random_payload(700, rng);
  ida::Encoder enc(3, 6);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::StreamingDecoder sd(3, 6, 256, payload.size());
  EXPECT_THROW(sd.reconstruct(), ContractViolation);
  sd.add(5, ByteSpan(cooked[5]));
  sd.add(0, ByteSpan(cooked[0]));
  EXPECT_FALSE(sd.complete());
  sd.add(3, ByteSpan(cooked[3]));
  ASSERT_TRUE(sd.complete());
  EXPECT_EQ(sd.reconstruct(), payload);
}

TEST(Streaming, ClearPacketAfterCompletionStillServed) {
  Rng rng(29);
  const Bytes payload = random_payload(700, rng);
  ida::Encoder enc(3, 6);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::StreamingDecoder sd(3, 6, 256, payload.size());
  sd.add(3, ByteSpan(cooked[3]));
  sd.add(4, ByteSpan(cooked[4]));
  sd.add(5, ByteSpan(cooked[5]));
  ASSERT_TRUE(sd.complete());
  EXPECT_TRUE(sd.add(0, ByteSpan(cooked[0])));
  EXPECT_TRUE(sd.has_clear(0));
  const ByteSpan clear = sd.clear_packet(0);
  EXPECT_TRUE(std::equal(clear.begin(), clear.end(), cooked[0].begin()));
}

TEST(Streaming, ResetClearsState) {
  Rng rng(30);
  const Bytes payload = random_payload(700, rng);
  ida::Encoder enc(3, 6);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  ida::StreamingDecoder sd(3, 6, 256, payload.size());
  sd.add(0, ByteSpan(cooked[0]));
  sd.reset();
  EXPECT_EQ(sd.intact_count(), 0u);
  EXPECT_FALSE(sd.has_clear(0));
  // After reset the same packet is "new" again.
  EXPECT_TRUE(sd.add(0, ByteSpan(cooked[0])));
}

TEST(Streaming, RejectsBadInput) {
  ida::StreamingDecoder sd(3, 6, 256, 700);
  Bytes wrong_size(100, 0);
  EXPECT_THROW(sd.add(0, ByteSpan(wrong_size)), ContractViolation);
  Bytes right_size(256, 0);
  EXPECT_THROW(sd.add(6, ByteSpan(right_size)), ContractViolation);
  EXPECT_THROW(ida::StreamingDecoder(3, 6, 256, 1000), ContractViolation);
}

TEST(Ida, GeneratorCacheReturnsSameObject) {
  const ida::Generator& a = ida::systematic_generator(40);
  EXPECT_EQ(&a, &ida::systematic_generator(40));
  EXPECT_NE(&a, &ida::systematic_generator(41));
  EXPECT_EQ(a.m, 40u);
  EXPECT_EQ(a.rows.size(), (ida::kMaxPackets - 40) * 40);
  EXPECT_THROW((void)ida::systematic_generator(0), ContractViolation);
  EXPECT_THROW((void)ida::systematic_generator(ida::kMaxPackets + 1), ContractViolation);
}

// Concurrent first use of every per-m slot: each thread sees one table per m,
// fully built (run under TSan by scripts/tsan_fleet.sh, label coding).
TEST(Ida, GeneratorTableConcurrentFirstUse) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<const ida::Generator*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (std::size_t m = 1; m <= ida::kMaxPackets; ++m) {
        seen[t].push_back(&ida::systematic_generator(m));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  for (std::size_t m = 1; m <= ida::kMaxPackets; ++m) {
    const ida::Generator& g = *seen[0][m - 1];
    ASSERT_EQ(g.m, m);
    ASSERT_EQ(g.rows.size(), (ida::kMaxPackets - m) * m);
  }
}

// The closed-form generator against the paper's construction, V * V_top^-1
// by Gauss-Jordan. A row depends on m only, so n = 255 covers every shape.
TEST(IdaClosedForm, GeneratorEqualsGaussJordanForEveryM) {
  constexpr std::size_t n = ida::kMaxPackets;
  for (std::size_t m = 1; m <= n; ++m) {
    const oracle::Matrix expect = oracle::systematic_vandermonde(n, m);
    const ida::Generator& g = ida::systematic_generator(m);
    for (std::size_t r = m; r < n; ++r) {
      ASSERT_TRUE(std::equal(g.row(r), g.row(r) + m, expect.row(r)))
          << "m=" << m << " r=" << r;
    }
  }
}

// The closed-form inverse of the k x k block B = G[R][E] against the
// Gauss-Jordan inverse, read through the public decoder: with every clear
// packet zero and redundancy packet R_p carrying the unit row e_p (packet
// size k), the syndromes are the unit rows, so erased raw packet E_q decodes
// to row q of B^-1.
TEST(IdaClosedForm, BlockInverseEqualsGaussJordan) {
  Rng rng(45);
  struct Case {
    std::size_t m, n, k;
  };
  std::vector<Case> cases = {{1, 2, 1}, {1, 255, 1}, {40, 60, 20}, {128, 255, 127}};
  for (int i = 0; i < 40; ++i) {
    const std::size_t m = 1 + rng.next_below(ida::kMaxPackets - 1);
    const std::size_t n = m + 1 + rng.next_below(ida::kMaxPackets - m);
    cases.push_back({m, n, 1 + rng.next_below(std::min(m, n - m))});
  }
  for (const auto& [m, n, k] : cases) {
    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k));
    std::vector<std::size_t> clear(m);
    std::iota(clear.begin(), clear.end(), 0u);
    std::vector<std::size_t> redundant(n - m);
    std::iota(redundant.begin(), redundant.end(), m);
    shuffle(clear, rng);
    shuffle(redundant, rng);
    const std::vector<std::size_t> erased(
        clear.begin() + static_cast<std::ptrdiff_t>(m - k), clear.end());
    redundant.resize(k);

    const oracle::Matrix g = oracle::systematic_vandermonde(n, m);
    oracle::Matrix block(k, k);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t q = 0; q < k; ++q) block.at(p, q) = g.at(redundant[p], erased[q]);
    }
    const oracle::Matrix expect = block.inverse();
    ASSERT_FALSE(expect.empty());

    Shares shares;
    for (std::size_t c = 0; c < m - k; ++c) shares.emplace_back(clear[c], Bytes(k, 0));
    for (std::size_t p = 0; p < k; ++p) {
      Bytes unit(k, 0);
      unit[p] = 1;
      shares.emplace_back(redundant[p], unit);
    }
    const auto raw = ida::Decoder(m, n).decode(shares);
    for (std::size_t q = 0; q < k; ++q) {
      ASSERT_TRUE(std::equal(raw[erased[q]].begin(), raw[erased[q]].end(), expect.row(q)))
          << "row q=" << q;
    }
  }
}

// Property sweep: encode -> lose packets -> decode across shapes.
class IdaRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(IdaRoundTrip, LossyRoundTrip) {
  const auto [m, n, payload_size] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n));
  const Bytes payload = random_payload(static_cast<std::size_t>(payload_size), rng);
  const std::size_t packet_size =
      (static_cast<std::size_t>(payload_size) + m - 1) / static_cast<std::size_t>(m);
  ida::Encoder enc(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  const auto cooked = enc.encode_payload(ByteSpan(payload), packet_size);

  // Feed packets in a shuffled order, dropping n - m of them.
  std::vector<std::size_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  ida::StreamingDecoder sd(static_cast<std::size_t>(m), static_cast<std::size_t>(n),
                           packet_size, payload.size());
  for (int i = 0; i < m; ++i) {
    sd.add(order[static_cast<std::size_t>(i)],
           ByteSpan(cooked[order[static_cast<std::size_t>(i)]]));
  }
  ASSERT_TRUE(sd.complete());
  EXPECT_EQ(sd.reconstruct(), payload);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IdaRoundTrip,
    ::testing::Values(std::tuple<int, int, int>{1, 1, 17},
                      std::tuple<int, int, int>{1, 8, 300},
                      std::tuple<int, int, int>{2, 3, 511},
                      std::tuple<int, int, int>{7, 11, 2048},
                      std::tuple<int, int, int>{40, 60, 10240},
                      std::tuple<int, int, int>{100, 150, 25600},
                      std::tuple<int, int, int>{100, 255, 25600},
                      std::tuple<int, int, int>{255, 255, 2550}));

// Differential: the erasure-only solve against the full-inverse reference,
// over random shapes (m = 1, m = n and n = 255 included), every erasure count
// k in {0, 1, m/2, m} the shape allows, duplicated shares, and clear shares
// arriving after redundancy ones.
TEST(IdaDifferential, MatchesFullInverseDecode) {
  Rng rng(40);
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 9}, {6, 6}, {40, 60}, {20, 255}, {128, 255}, {255, 255}};
  for (int i = 0; i < 12; ++i) {
    const std::size_t m = 1 + rng.next_below(64);
    shapes.emplace_back(m, m + rng.next_below(256 - m));
  }
  for (const auto& [m, n] : shapes) {
    const std::size_t packet_size = 1 + rng.next_below(24);
    const Bytes payload =
        random_payload((m - 1) * packet_size + 1 + rng.next_below(packet_size), rng);
    const auto cooked = ida::Encoder(m, n).encode_payload(ByteSpan(payload), packet_size);
    const ida::Decoder dec(m, n);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, m / 2, m}) {
      if (k > n - m) continue;
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                   " k=" + std::to_string(k));
      std::vector<std::size_t> clear(m);
      std::iota(clear.begin(), clear.end(), 0u);
      std::vector<std::size_t> redundant(n - m);
      std::iota(redundant.begin(), redundant.end(), m);
      shuffle(clear, rng);
      shuffle(redundant, rng);
      // k redundancy shares, then m - k clear ones, then a shuffle that may
      // leave any clear share behind any redundancy one.
      std::vector<std::size_t> order(redundant.begin(),
                                     redundant.begin() + static_cast<std::ptrdiff_t>(k));
      order.insert(order.end(), clear.begin(),
                   clear.begin() + static_cast<std::ptrdiff_t>(m - k));
      if (rng.next_below(2) == 0) shuffle(order, rng);
      Shares shares;
      for (const std::size_t idx : order) {
        shares.emplace_back(idx, cooked[idx]);
        if (rng.next_below(4) == 0) shares.emplace_back(idx, cooked[idx]);
      }

      const auto expect = full_inverse_decode(m, n, shares);
      Bytes expect_payload;
      for (const auto& row : expect) {
        expect_payload.insert(expect_payload.end(), row.begin(), row.end());
      }
      expect_payload.resize(payload.size());
      ASSERT_EQ(expect_payload, payload);
      EXPECT_EQ(dec.decode(shares), expect);
      EXPECT_EQ(dec.decode_payload(shares, payload.size()), expect_payload);
      ida::StreamingDecoder sd(m, n, packet_size, payload.size());
      for (const auto& [idx, data] : shares) sd.add(idx, ByteSpan(data));
      ASSERT_TRUE(sd.complete());
      EXPECT_EQ(sd.reconstruct(), expect_payload);
    }
  }
}

// The streaming decoder may hold more than m packets (every clear packet is
// kept); reconstruction must reach the same bytes whatever arrived first.
TEST(IdaDifferential, StreamingClearAfterRedundancy) {
  Rng rng(41);
  const Bytes payload = random_payload(10240, rng);
  const auto cooked = ida::Encoder(40, 60).encode_payload(ByteSpan(payload), 256);
  ida::StreamingDecoder sd(40, 60, 256, payload.size());
  for (std::size_t i = 40; i < 60; ++i) sd.add(i, ByteSpan(cooked[i]));
  for (std::size_t i = 0; i < 40; i += 2) sd.add(i, ByteSpan(cooked[i]));
  EXPECT_EQ(sd.intact_count(), 40u);
  EXPECT_EQ(sd.reconstruct(), payload);
  for (std::size_t i = 1; i < 40; i += 2) sd.add(i, ByteSpan(cooked[i]));
  EXPECT_EQ(sd.intact_count(), 60u);
  EXPECT_EQ(sd.reconstruct(), payload);
}

TEST(Streaming, ClearPacketLookupAcrossArrivalOrders) {
  Rng rng(42);
  const Bytes payload = random_payload(10240, rng);
  const auto cooked = ida::Encoder(40, 60).encode_payload(ByteSpan(payload), 256);
  std::vector<std::size_t> order(60);
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order, rng);
  ida::StreamingDecoder sd(40, 60, 256, payload.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t idx : order) {
      sd.add(idx, ByteSpan(cooked[idx]));
      for (std::size_t raw = 0; raw < 40; ++raw) {
        if (!sd.has_clear(raw)) continue;
        const ByteSpan clear = sd.clear_packet(raw);
        ASSERT_TRUE(std::equal(clear.begin(), clear.end(), cooked[raw].begin(),
                               cooked[raw].end()))
            << "raw=" << raw;
      }
    }
    EXPECT_EQ(sd.reconstruct(), payload);
    sd.reset();
    EXPECT_THROW((void)sd.clear_packet(order.front() % 40), ContractViolation);
    std::reverse(order.begin(), order.end());
  }
}

// Pins the work: 36 clear + 4 redundancy packets at (40, 60) solve a k = 4
// block, serially: 4 syndrome dot products over 37 rows, then 4 solve dot
// products over 4 syndromes. The block inverse is a closed form and dot_rows
// opens no profiler scope, so decode opens no gf.* scope at all.
TEST(IdaDecodeWork, MostlyClearInvertsOnlyTheErasedBlock) {
  Rng rng(43);
  const Bytes payload = random_payload(10240, rng);
  const auto cooked = ida::Encoder(40, 60).encode_payload(ByteSpan(payload), 256);
  Shares held;
  for (std::size_t i = 0; i < 36; ++i) held.emplace_back(i, cooked[i]);
  for (std::size_t i = 40; i < 44; ++i) held.emplace_back(i, cooked[i]);
  const ida::Decoder dec(40, 60);

  obs::Profiler profiler;
  profiler.attach();
  const Bytes decoded = dec.decode_payload(held, payload.size());
  obs::Profiler::detach();
  EXPECT_EQ(decoded, payload);
  EXPECT_EQ(calls(profiler, "ida.decode"), 1);
  EXPECT_EQ(calls_with_prefix(profiler, "gf."), 0);
  EXPECT_EQ(calls(profiler, "ida.rows.serial"), 2);  // syndromes, then solve
  EXPECT_EQ(calls(profiler, "ida.rows.parallel"), 0);
}

TEST(IdaDecodeWork, StreamingPrefersHeldClearPackets) {
  Rng rng(44);
  const Bytes payload = random_payload(10240, rng);
  const auto cooked = ida::Encoder(40, 60).encode_payload(ByteSpan(payload), 256);
  ida::StreamingDecoder sd(40, 60, 256, payload.size());
  // Redundancy first: a decode that took packets in arrival order would
  // select all 20 redundancy packets (k = 20); with every clear packet held,
  // k = 0 and no row is solved.
  for (std::size_t i = 40; i < 60; ++i) sd.add(i, ByteSpan(cooked[i]));
  for (std::size_t i = 0; i < 40; ++i) sd.add(i, ByteSpan(cooked[i]));

  obs::Profiler profiler;
  profiler.attach();
  const Bytes decoded = sd.reconstruct();
  obs::Profiler::detach();
  EXPECT_EQ(decoded, payload);
  EXPECT_EQ(calls(profiler, "ida.reconstruct"), 1);
  EXPECT_EQ(calls(profiler, "ida.decode"), 1);
  EXPECT_EQ(calls_with_prefix(profiler, "gf."), 0);
  EXPECT_EQ(calls(profiler, "ida.rows.serial"), 0);
  EXPECT_EQ(calls(profiler, "ida.rows.parallel"), 0);
}

// Cross-kernel equivalence for the GF(2^8) row kernels, and the parallel
// IDA encode/decode path. Every kernel must produce byte-identical output:
// the dispatch layer (and the MOBIWEB_GF_KERNEL override) would otherwise
// let a fast path silently corrupt cooked packets.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "gf256/gf256.hpp"
#include "ida/ida.hpp"
#include "util/rng.hpp"

namespace gf = mobiweb::gf;
namespace ida = mobiweb::ida;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::ContractViolation;
using mobiweb::Rng;

namespace {

std::vector<gf::Kernel> available_kernels() {
  std::vector<gf::Kernel> ks = {gf::Kernel::kScalar, gf::Kernel::kMulTable};
  if (gf::kernel_available(gf::Kernel::kSimd)) ks.push_back(gf::Kernel::kSimd);
  ks.push_back(gf::Kernel::kAuto);
  return ks;
}

Bytes random_bytes(std::size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

// Restores the previous threshold on scope exit so tests never leak the
// forced-parallel setting into other suites.
class ParallelThresholdGuard {
 public:
  explicit ParallelThresholdGuard(std::size_t t)
      : previous_(ida::set_parallel_threshold(t)) {}
  ~ParallelThresholdGuard() { ida::set_parallel_threshold(previous_); }

 private:
  std::size_t previous_;
};

}  // namespace

TEST(GfKernels, NamesAndAvailability) {
  EXPECT_STREQ(gf::kernel_name(gf::Kernel::kScalar), "scalar");
  EXPECT_STREQ(gf::kernel_name(gf::Kernel::kMulTable), "multable");
  EXPECT_STREQ(gf::kernel_name(gf::Kernel::kSimd), "simd");
  EXPECT_STREQ(gf::kernel_name(gf::Kernel::kAuto), "auto");
  EXPECT_TRUE(gf::kernel_available(gf::Kernel::kScalar));
  EXPECT_TRUE(gf::kernel_available(gf::Kernel::kMulTable));
  EXPECT_TRUE(gf::kernel_available(gf::Kernel::kAuto));
}

TEST(GfKernels, ParseKernelNameRoundTripsAndRejectsUnknown) {
  for (const gf::Kernel k : {gf::Kernel::kScalar, gf::Kernel::kMulTable,
                             gf::Kernel::kSimd, gf::Kernel::kAuto}) {
    EXPECT_EQ(gf::parse_kernel_name(gf::kernel_name(k)), k);
  }
  // Typos, case changes and padding are errors, never a silent kAuto.
  for (const char* bad : {"scaler", "SIMD", " simd", "simd ", "", "unknown"}) {
    EXPECT_EQ(gf::parse_kernel_name(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(GfKernels, AutoResolvesToConcreteAvailableKernel) {
  const gf::Kernel k = gf::resolve_kernel(gf::Kernel::kAuto);
  EXPECT_NE(k, gf::Kernel::kAuto);
  EXPECT_TRUE(gf::kernel_available(k));
  EXPECT_EQ(gf::resolve_kernel(gf::Kernel::kScalar), gf::Kernel::kScalar);
}

TEST(GfKernels, SetKernelRoundTrip) {
  const gf::Kernel before = gf::active_kernel();
  gf::set_kernel(gf::Kernel::kMulTable);
  EXPECT_EQ(gf::active_kernel(), gf::Kernel::kMulTable);
  gf::set_kernel(before);
  EXPECT_EQ(gf::active_kernel(), before);
}

TEST(GfKernels, MulTableMatchesMul) {
  for (int c : {0, 1, 2, 7, 0x53, 0x8e, 255}) {
    const gf::Elem* t = gf::mul_table(static_cast<gf::Elem>(c));
    for (int x = 0; x < 256; ++x) {
      ASSERT_EQ(t[x], gf::mul(static_cast<gf::Elem>(c), static_cast<gf::Elem>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

TEST(GfKernels, MulAddRowIdenticalAcrossKernels) {
  Rng rng(40);
  const std::size_t lengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 31, 100, 4096};
  const int coefficients[] = {0, 1, 2, 3, 0x1d, 0x57, 0x8e, 0xfe, 0xff};
  for (const std::size_t n : lengths) {
    for (const int c : coefficients) {
      const Bytes in = random_bytes(n, rng);
      const Bytes base = random_bytes(n, rng);
      Bytes expect = base;
      gf::mul_add_row(expect.data(), in.data(), static_cast<gf::Elem>(c), n,
                      gf::Kernel::kScalar);
      for (const gf::Kernel k : available_kernels()) {
        Bytes out = base;
        gf::mul_add_row(out.data(), in.data(), static_cast<gf::Elem>(c), n, k);
        ASSERT_EQ(out, expect) << "kernel=" << gf::kernel_name(k) << " n=" << n
                               << " c=" << c;
      }
    }
  }
}

TEST(GfKernels, RowsWithZeroBytesIdenticalAcrossKernels) {
  // Zero input bytes exercise the scalar kernel's x==0 branch against the
  // branch-free table kernels.
  Rng rng(42);
  Bytes in = random_bytes(1024, rng);
  for (std::size_t i = 0; i < in.size(); i += 3) in[i] = 0;
  const Bytes base = random_bytes(1024, rng);
  Bytes expect = base;
  gf::mul_add_row(expect.data(), in.data(), 0x39, in.size(), gf::Kernel::kScalar);
  for (const gf::Kernel k : available_kernels()) {
    Bytes out = base;
    gf::mul_add_row(out.data(), in.data(), 0x39, in.size(), k);
    ASSERT_EQ(out, expect) << "kernel=" << gf::kernel_name(k);
  }
}

TEST(GfKernels, AliasedInOutIdenticalAcrossKernels) {
  // out == in is element-wise, so every kernel must permit it:
  //   mul_add_row: out[i] ^= c * out[i]  == (c ^ 1) * out[i]
  Rng rng(43);
  for (const std::size_t n : {1u, 9u, 100u, 4096u}) {
    const Bytes base = random_bytes(n, rng);
    for (const int c : {0, 1, 0x57, 0xff}) {
      Bytes expect = base;
      gf::mul_add_row(expect.data(), expect.data(), static_cast<gf::Elem>(c), n,
                      gf::Kernel::kScalar);
      for (const gf::Kernel k : available_kernels()) {
        Bytes buf = base;
        gf::mul_add_row(buf.data(), buf.data(), static_cast<gf::Elem>(c), n, k);
        ASSERT_EQ(buf, expect) << "mul_add kernel=" << gf::kernel_name(k);
      }
    }
  }
}

TEST(GfKernels, RandomizedRowsAllKernelsAgree) {
  Rng rng(44);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.next_below(600);
    const auto c = static_cast<gf::Elem>(rng.next_below(256));
    const Bytes in = random_bytes(n, rng);
    const Bytes base = random_bytes(n, rng);
    Bytes expect = base;
    gf::mul_add_row(expect.data(), in.data(), c, n, gf::Kernel::kScalar);
    for (const gf::Kernel k : available_kernels()) {
      Bytes out = base;
      gf::mul_add_row(out.data(), in.data(), c, n, k);
      ASSERT_EQ(out, expect) << "kernel=" << gf::kernel_name(k) << " trial="
                             << trial;
    }
  }
}

// dot_rows against its definition: zero, then one scalar mul_add_row per
// source. Rows of 16..63 bytes reach only kSimd's 16-byte SSSE3 body and
// scalar tail; longer ones its 64-byte AVX2 blocks first. Every source and
// dst starts one byte past its buffer's start, so no row is aligned.
TEST(GfKernels, DotRowsMatchesScalarMulAddLoop) {
  Rng rng(49);
  const auto check = [&](const std::vector<Bytes>& store, const Bytes& coeffs,
                         std::size_t n) {
    std::vector<const gf::Elem*> srcs;
    for (const Bytes& s : store) srcs.push_back(s.data() + 1);
    Bytes expect(n, 0);
    for (std::size_t j = 0; j < srcs.size(); ++j) {
      gf::mul_add_row(expect.data(), srcs[j], coeffs[j], n, gf::Kernel::kScalar);
    }
    for (const gf::Kernel k : available_kernels()) {
      Bytes out = random_bytes(n + 1, rng);  // dst is overwritten, never read
      gf::dot_rows(out.data() + 1, srcs, coeffs, n, k);
      ASSERT_EQ(Bytes(out.begin() + 1, out.end()), expect)
          << "kernel=" << gf::kernel_name(k) << " sources=" << srcs.size() << " n=" << n;
    }
  };
  for (const std::size_t sources : {1u, 2u, 40u, 255u}) {
    for (const std::size_t n : {1u, 15u, 16u, 31u, 63u, 64u, 65u, 255u, 256u, 257u, 4096u}) {
      std::vector<Bytes> store;
      Bytes coeffs;
      for (std::size_t j = 0; j < sources; ++j) {
        store.push_back(random_bytes(n + 1, rng));
        coeffs.push_back(static_cast<gf::Elem>(rng.next_below(256)));
      }
      check(store, coeffs, n);
      // Coefficients 0 and 1 (the systematic decode's identity term).
      coeffs.front() = 0;
      coeffs.back() = 1;
      check(store, coeffs, n);
      if (sources == 1) {
        coeffs.front() = 1;
        check(store, coeffs, n);
      }
    }
  }
}

TEST(GfKernels, DotRowsContract) {
  Rng rng(50);
  const Bytes a = random_bytes(64, rng);
  const Bytes b = random_bytes(64, rng);
  const std::vector<const gf::Elem*> srcs = {a.data(), b.data()};
  const Bytes coeffs = {3, 7};
  for (const gf::Kernel k : available_kernels()) {
    Bytes dst(64, 0xaa);
    gf::dot_rows(dst.data(), {}, {}, dst.size(), k);  // no sources: zeros
    EXPECT_EQ(dst, Bytes(64, 0)) << gf::kernel_name(k);
    EXPECT_THROW(gf::dot_rows(dst.data(), srcs, {coeffs.data(), 1}, 64, k),
                 ContractViolation);
    // dst may not overlap a source, not even in part.
    Bytes buf = random_bytes(128, rng);
    const std::vector<const gf::Elem*> overlapping = {a.data(), buf.data() + 32};
    EXPECT_THROW(gf::dot_rows(buf.data(), overlapping, coeffs, 64, k), ContractViolation);
    const std::vector<const gf::Elem*> adjacent = {a.data(), buf.data() + 64};
    EXPECT_NO_THROW(gf::dot_rows(buf.data(), adjacent, coeffs, 64, k));
  }
}

TEST(IdaParallel, EncodeIdenticalToSerial) {
  Rng rng(45);
  const Bytes payload = random_bytes(10240, rng);
  const ida::Encoder enc(40, 60);
  ParallelThresholdGuard serial(static_cast<std::size_t>(-1));
  const auto cooked_serial = enc.encode_payload(ByteSpan(payload), 256);
  {
    ParallelThresholdGuard parallel(0);
    const auto cooked_parallel = enc.encode_payload(ByteSpan(payload), 256);
    EXPECT_EQ(cooked_parallel, cooked_serial);
  }
}

TEST(IdaParallel, DecodeIdenticalToSerial) {
  Rng rng(46);
  const Bytes payload = random_bytes(10240, rng);
  const ida::Encoder enc(40, 80);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  std::vector<std::pair<std::size_t, Bytes>> redundancy;
  for (std::size_t i = 40; i < 80; ++i) redundancy.emplace_back(i, cooked[i]);
  const ida::Decoder dec(40, 80);
  ParallelThresholdGuard serial(static_cast<std::size_t>(-1));
  const auto raw_serial = dec.decode(redundancy);
  {
    ParallelThresholdGuard parallel(0);
    const auto raw_parallel = dec.decode(redundancy);
    EXPECT_EQ(raw_parallel, raw_serial);
    EXPECT_EQ(dec.decode_payload(redundancy, payload.size()), payload);
  }
}

TEST(IdaParallel, StreamingReconstructThroughParallelPath) {
  ParallelThresholdGuard parallel(0);
  Rng rng(47);
  const Bytes payload = random_bytes(10240, rng);
  const ida::Encoder enc(40, 60);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);

  // Shuffled arrival with losses: drop a third, feed the rest.
  std::vector<std::size_t> order(60);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  ida::StreamingDecoder sd(40, 60, 256, payload.size());
  for (std::size_t i = 0; i < 40; ++i) {
    sd.add(order[i], ByteSpan(cooked[order[i]]));
  }
  ASSERT_TRUE(sd.complete());
  EXPECT_EQ(sd.reconstruct(), payload);
}

TEST(IdaParallel, EveryKernelRoundTripsThroughEncodeDecode) {
  ParallelThresholdGuard parallel(0);
  Rng rng(48);
  const Bytes payload = random_bytes(5000, rng);
  const gf::Kernel before = gf::active_kernel();
  for (const gf::Kernel k : available_kernels()) {
    gf::set_kernel(k);
    const ida::Encoder enc(20, 30);
    const auto cooked = enc.encode_payload(ByteSpan(payload), 250);
    std::vector<std::pair<std::size_t, Bytes>> kept;
    for (std::size_t i = 0; i < 30; i += 3) kept.emplace_back(i, cooked[i]);
    for (std::size_t i = 1; i < 30 && kept.size() < 20; i += 3) {
      kept.emplace_back(i, cooked[i]);
    }
    const ida::Decoder dec(20, 30);
    EXPECT_EQ(dec.decode_payload(kept, payload.size()), payload)
        << "kernel=" << gf::kernel_name(k);
  }
  gf::set_kernel(before);
}

TEST(IdaParallel, ThresholdSetterReturnsPrevious) {
  const std::size_t def = ida::parallel_threshold();
  const std::size_t prev = ida::set_parallel_threshold(12345);
  EXPECT_EQ(prev, def);
  EXPECT_EQ(ida::parallel_threshold(), 12345u);
  ida::set_parallel_threshold(prev);
  EXPECT_EQ(ida::parallel_threshold(), def);
}

// Lazily-built shared state (the per-coefficient 256-byte multiply tables and
// the dispatch-table initialisation behind resolve_kernel) must be safe on
// concurrent first use: the fleet engine's shards hit the coding path from
// several pool workers at once with no warm-up. Each thread works a distinct
// coefficient range so table construction itself races, then every result is
// checked against the scalar reference.
TEST(GfKernels, ConcurrentFirstUseMatchesScalarReference) {
  constexpr std::size_t kRow = 512;
  constexpr int kThreads = 8;
  Rng rng(0xC0FFEE);
  const Bytes in = random_bytes(kRow, rng);

  std::vector<Bytes> got(kThreads, Bytes(kRow, 0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 1; c < 256; ++c) {
        gf::mul_add_row(got[static_cast<std::size_t>(t)].data(), in.data(),
                        static_cast<gf::Elem>(c), kRow);
      }
    });
  }
  for (auto& th : threads) th.join();

  Bytes want(kRow, 0);
  for (int c = 1; c < 256; ++c) {
    gf::mul_add_row(want.data(), in.data(), static_cast<gf::Elem>(c), kRow,
                    gf::Kernel::kScalar);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "thread " << t;
  }
}

// Micro-benchmarks: GF(2^8) kernels, IDA encode/decode, CRC, packet framing.
// These quantify the client/server CPU cost of the fault-tolerant encoding —
// relevant because the paper targets battery-constrained mobile devices.
//
// Two modes:
//   * default — google-benchmark suite (per-kernel BM_GfMulAddRow/<name>
//     entries report bytes_per_second for each coding kernel);
//   * --json[=PATH] — self-timed sweep printing machine-readable JSON
//     (kernel name -> MB/s for mul_add_row and for dot_rows at the encode
//     shape, plus IDA encode/decode and CRC-32 throughput) to stdout or
//     PATH, for the bench trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gf256/gf256.hpp"
#include "ida/ida.hpp"
#include "packet/packet.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace gf = mobiweb::gf;
namespace ida = mobiweb::ida;
namespace packet = mobiweb::packet;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::Rng;

namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

std::vector<gf::Kernel> benchable_kernels() {
  std::vector<gf::Kernel> ks = {gf::Kernel::kScalar, gf::Kernel::kMulTable};
  if (gf::kernel_available(gf::Kernel::kSimd)) ks.push_back(gf::Kernel::kSimd);
  return ks;
}

void BM_GfMulAddRow(benchmark::State& state, gf::Kernel kernel) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Bytes in = random_bytes(n, 1);
  Bytes out = random_bytes(n, 2);
  for (auto _ : state) {
    gf::mul_add_row(out.data(), in.data(), 0x57, n, kernel);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_IdaEncode(benchmark::State& state) {
  // The paper's document shape: 10240 bytes, 40 raw -> 60 cooked.
  const Bytes payload = random_bytes(10240, 3);
  const ida::Encoder enc(40, 60);
  (void)ida::systematic_generator(40);  // warm the generator table
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode_payload(ByteSpan(payload), 256));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 10240);
}
BENCHMARK(BM_IdaEncode);

void BM_IdaEncodeParallel(benchmark::State& state) {
  // Same shape, forced through the thread-pool sharded path.
  const Bytes payload = random_bytes(10240, 3);
  const ida::Encoder enc(40, 60);
  (void)ida::systematic_generator(40);
  const std::size_t prev = ida::set_parallel_threshold(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode_payload(ByteSpan(payload), 256));
  }
  ida::set_parallel_threshold(prev);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 10240);
}
BENCHMARK(BM_IdaEncodeParallel);

void BM_IdaDecodeWorstCase(benchmark::State& state) {
  // Decode from redundancy-only packets: every raw packet is erased (k = m).
  const Bytes payload = random_bytes(10240, 4);
  const ida::Encoder enc(40, 80);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  std::vector<std::pair<std::size_t, Bytes>> redundancy;
  for (std::size_t i = 40; i < 80; ++i) redundancy.emplace_back(i, cooked[i]);
  const ida::Decoder dec(40, 80);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode_payload(redundancy, payload.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 10240);
}
BENCHMARK(BM_IdaDecodeWorstCase);

void BM_IdaDecodeMostlyClear(benchmark::State& state) {
  // The common case: 36 of 40 clear packets arrived, 4 from redundancy.
  const Bytes payload = random_bytes(10240, 5);
  const ida::Encoder enc(40, 60);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  std::vector<std::pair<std::size_t, Bytes>> held;
  for (std::size_t i = 0; i < 36; ++i) held.emplace_back(i, cooked[i]);
  for (std::size_t i = 40; i < 44; ++i) held.emplace_back(i, cooked[i]);
  const ida::Decoder dec(40, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode_payload(held, payload.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 10240);
}
BENCHMARK(BM_IdaDecodeMostlyClear);

void BM_Crc32(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mobiweb::crc32(ByteSpan(data)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(260)->Arg(10240);

void BM_PacketEncodeDecode(benchmark::State& state) {
  packet::Packet p;
  p.doc_id = 1;
  p.seq = 7;
  p.total = 60;
  const Bytes payload = random_bytes(256, 7);
  p.payload = ByteSpan(payload);
  for (auto _ : state) {
    const Bytes frame = packet::encode(p);
    benchmark::DoNotOptimize(packet::decode(ByteSpan(frame)));
  }
}
BENCHMARK(BM_PacketEncodeDecode);

void register_kernel_benchmarks() {
  for (const gf::Kernel k : benchable_kernels()) {
    const std::string name = std::string("BM_GfMulAddRow/") + gf::kernel_name(k);
    benchmark::RegisterBenchmark(name.c_str(), BM_GfMulAddRow, k)
        ->Arg(256)
        ->Arg(4096)
        ->Arg(65536);
  }
}

// ---- self-timed JSON mode ----

// MB/s (1e6 bytes) of mul_add_row over `row_bytes` rows with kernel `k`,
// measured over ~0.25 s of wall time.
double measure_mul_add_mbps(gf::Kernel k, std::size_t row_bytes) {
  const Bytes in = random_bytes(row_bytes, 11);
  Bytes out = random_bytes(row_bytes, 12);
  gf::mul_add_row(out.data(), in.data(), 0x57, row_bytes, k);  // warm tables
  using Clock = std::chrono::steady_clock;
  const auto budget = std::chrono::milliseconds(250);
  const auto start = Clock::now();
  std::size_t bytes = 0;
  do {
    for (int rep = 0; rep < 64; ++rep) {
      gf::mul_add_row(out.data(), in.data(), 0x57, row_bytes, k);
      benchmark::DoNotOptimize(out.data());
    }
    bytes += 64 * row_bytes;
  } while (Clock::now() - start < budget);
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(bytes) / 1e6 / secs;
}

template <typename Fn>
double measure_payload_mbps(std::size_t payload_bytes, Fn&& op) {
  using Clock = std::chrono::steady_clock;
  const auto budget = std::chrono::milliseconds(250);
  const auto start = Clock::now();
  std::size_t bytes = 0;
  do {
    op();
    bytes += payload_bytes;
  } while (Clock::now() - start < budget);
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(bytes) / 1e6 / secs;
}

// MB/s (1e6 source bytes) of dot_rows with kernel `k` at the encode shape:
// one redundancy row of a (40, 60) code, 40 sources of 256 bytes.
double measure_dot_rows_mbps(gf::Kernel k) {
  constexpr std::size_t kSources = 40;
  constexpr std::size_t kRow = 256;
  const Bytes in = random_bytes(kSources * kRow, 16);
  std::vector<const gf::Elem*> srcs;
  for (std::size_t j = 0; j < kSources; ++j) srcs.push_back(in.data() + j * kRow);
  const gf::Elem* coeffs = ida::systematic_generator(kSources).row(kSources);
  Bytes out(kRow);
  return measure_payload_mbps(in.size(), [&] {
    gf::dot_rows(out.data(), srcs, {coeffs, kSources}, kRow, k);
    benchmark::DoNotOptimize(out.data());
  });
}

int emit_json(const std::string& path) {
  const std::size_t row_bytes = 4096;
  const Bytes payload = random_bytes(10240, 13);
  const ida::Encoder enc(40, 60);
  const ida::Decoder dec(40, 60);
  const auto cooked = enc.encode_payload(ByteSpan(payload), 256);
  std::vector<std::pair<std::size_t, Bytes>> redundancy;
  for (std::size_t i = 20; i < 60; ++i) redundancy.emplace_back(i, cooked[i]);

  mobiweb::bench::JsonReport report("micro_coding");
  report.meta("row_bytes", static_cast<double>(row_bytes));
  report.meta("payload_bytes", static_cast<double>(payload.size()));
  report.meta("active_kernel", std::string(gf::kernel_name(
                                   gf::resolve_kernel(gf::active_kernel()))));
  for (const gf::Kernel k : benchable_kernels()) {
    report.metric(std::string("mul_add_row.") + gf::kernel_name(k) + ".mbps",
                  measure_mul_add_mbps(k, row_bytes));
  }
  for (const gf::Kernel k : benchable_kernels()) {
    report.metric(std::string("dot_rows.") + gf::kernel_name(k) + ".mbps",
                  measure_dot_rows_mbps(k));
  }
  report.metric("ida_encode_mbps", measure_payload_mbps(payload.size(), [&] {
                  benchmark::DoNotOptimize(
                      enc.encode_payload(ByteSpan(payload), 256));
                }));
  report.metric("ida_decode_mbps", measure_payload_mbps(payload.size(), [&] {
                  benchmark::DoNotOptimize(
                      dec.decode_payload(redundancy, payload.size()));
                }));
  // CRC-32 over one frame body (header + 256-byte payload: what
  // packet::decode checks per frame) and over a paper-sized document. The
  // frame also runs through the portable slicing-by-8 path alone, so the
  // carry-less-multiply fold's share shows beside it.
  const Bytes frame_body = random_bytes(packet::frame_size(256) - packet::kTrailerSize, 14);
  const Bytes bulk = random_bytes(10240, 15);
  report.metric("crc32.frame.mbps", measure_payload_mbps(frame_body.size(), [&] {
                  benchmark::DoNotOptimize(mobiweb::crc32(ByteSpan(frame_body)));
                }));
  report.metric("crc32.frame.portable.mbps",
                measure_payload_mbps(frame_body.size(), [&] {
                  benchmark::DoNotOptimize(mobiweb::detail::crc32_update_portable(
                      0xffffffffu, ByteSpan(frame_body)));
                }));
  report.metric("crc32.bulk.mbps", measure_payload_mbps(bulk.size(), [&] {
                  benchmark::DoNotOptimize(mobiweb::crc32(ByteSpan(bulk)));
                }));
  return mobiweb::bench::emit_json(report.str(), path);
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto path = mobiweb::bench::json_request(argc, argv)) {
    return emit_json(*path);
  }
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

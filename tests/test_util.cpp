// util: bytes, CRC, RNG, EWMA, stats, table.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "fuzz/crc32_reference.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/crc.hpp"
#include "util/ewma.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mw = mobiweb;

TEST(Bytes, StringRoundTrip) {
  const std::string s = "hello \0 world";
  const mw::Bytes b = mw::to_bytes(s);
  EXPECT_EQ(mw::to_string(mw::ByteSpan(b)), s);
}

TEST(Bytes, HexRoundTrip) {
  const mw::Bytes b = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(mw::to_hex(mw::ByteSpan(b)), "0001deadbeefff");
  EXPECT_EQ(mw::from_hex("0001deadbeefff"), b);
  EXPECT_EQ(mw::from_hex("0001DEADBEEFFF"), b);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(mw::from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(mw::from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, IntegerRoundTrip) {
  mw::Bytes b;
  mw::put_u16(b, 0xbeef);
  mw::put_u32(b, 0xdeadc0de);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(mw::get_u16(mw::ByteSpan(b), 0), 0xbeef);
  EXPECT_EQ(mw::get_u32(mw::ByteSpan(b), 2), 0xdeadc0de);
}

TEST(Bytes, GetOutOfRangeThrows) {
  const mw::Bytes b = {1, 2, 3};
  EXPECT_THROW(mw::get_u32(mw::ByteSpan(b), 0), std::out_of_range);
  EXPECT_THROW(mw::get_u16(mw::ByteSpan(b), 2), std::out_of_range);
}

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  const mw::Bytes check = mw::to_bytes("123456789");
  EXPECT_EQ(mw::crc32(mw::ByteSpan(check)), 0xCBF43926u);
  const mw::Bytes empty;
  EXPECT_EQ(mw::crc32(mw::ByteSpan(empty)), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const mw::Bytes data = mw::to_bytes("the quick brown fox jumps over the lazy dog");
  mw::Crc32 inc;
  inc.update(mw::ByteSpan(data).subspan(0, 10));
  inc.update(mw::ByteSpan(data).subspan(10));
  EXPECT_EQ(inc.value(), mw::crc32(mw::ByteSpan(data)));
}

namespace {

// The portable slicing-by-8 path behind the Crc32 interface, so one check
// runs against it and against Crc32 itself (the carry-less-multiply fold for
// inputs of 64 bytes or more, where the CPU has PCLMULQDQ).
struct PortableCrc32 {
  std::uint32_t reg = 0xffffffffu;
  void update(mw::ByteSpan data) { reg = mw::detail::crc32_update_portable(reg, data); }
  [[nodiscard]] std::uint32_t value() const { return reg ^ 0xffffffffu; }
};

template <class Crc>
std::uint32_t one_shot(mw::ByteSpan data) {
  Crc crc;
  crc.update(data);
  return crc.value();
}

bool cpu_folds() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

// Every length 0..4096 at start offsets 0..7, so each 64-byte fold step,
// 16-byte block and slicing-by-8 tail length meets each alignment. For one
// offset the reference runs once over the buffer, recording its value at
// every length.
template <class Crc>
void expect_bitwise_reference_at_every_length_and_offset() {
  constexpr std::size_t kMaxLen = 4096;
  mw::Rng rng(77);
  mw::Bytes buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const mw::ByteSpan from = mw::ByteSpan(buf).subspan(offset, kMaxLen);
    std::uint32_t reg = 0xffffffffu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(one_shot<Crc>(from.first(len)), reg ^ 0xffffffffu)
          << "offset=" << offset << " len=" << len;
      if (len < kMaxLen) reg = mw::testing::crc32_reference_step(reg, from[len]);
    }
  }
}

template <class Crc>
void expect_split_update_matches_one_shot_at_every_offset() {
  mw::Rng rng(78);
  mw::Bytes data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  const mw::ByteSpan all(data);
  const std::uint32_t whole = one_shot<Crc>(all);
  EXPECT_EQ(whole, mw::testing::crc32_reference(all));
  for (std::size_t at = 0; at <= data.size(); ++at) {
    Crc split;
    split.update(all.first(at));
    split.update(all.subspan(at));
    ASSERT_EQ(split.value(), whole) << "split at " << at;
  }
}

}  // namespace

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  expect_bitwise_reference_at_every_length_and_offset<PortableCrc32>();
}

TEST(Crc32, FoldMatchesBitwiseReferenceAtEveryLengthAndOffset) {
  if (!cpu_folds()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_bitwise_reference_at_every_length_and_offset<mw::Crc32>();
}

TEST(Crc32, SplitUpdateMatchesOneShotAtEveryOffset) {
  expect_split_update_matches_one_shot_at_every_offset<PortableCrc32>();
}

TEST(Crc32, FoldSplitUpdateMatchesOneShotAtEveryOffset) {
  if (!cpu_folds()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_split_update_matches_one_shot_at_every_offset<mw::Crc32>();
}

TEST(Crc32, DetectsSingleBitFlip) {
  mw::Bytes data = mw::to_bytes("some packet payload for corruption detection");
  const std::uint32_t before = mw::crc32(mw::ByteSpan(data));
  data[7] ^= 0x01;
  EXPECT_NE(mw::crc32(mw::ByteSpan(data)), before);
}

TEST(Rng, Deterministic) {
  mw::Rng a(123);
  mw::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  mw::Rng a(1);
  mw::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  mw::Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  mw::Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), mw::ContractViolation);
}

TEST(Rng, BernoulliFrequency) {
  mw::Rng rng(11);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bernoulli(0.3);
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(Rng, UniformMean) {
  mw::Rng rng(12);
  double sum = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.next_range(1.0, 3.0);
  EXPECT_NEAR(sum / trials, 2.0, 0.02);
}

TEST(Rng, ForkIndependent) {
  mw::Rng parent(13);
  mw::Rng child1 = parent.fork();
  mw::Rng child2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child1.next_u64() == child2.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Ewma, FirstObservationInitializes) {
  mw::Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  EXPECT_EQ(e.value_or(42.0), 42.0);
  e.observe(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_EQ(e.value(), 10.0);
}

TEST(Ewma, Smoothing) {
  mw::Ewma e(0.5);
  e.observe(0.0);
  e.observe(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.5);
  e.observe(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.75);
}

TEST(Ewma, ConvergesToConstant) {
  mw::Ewma e(0.25);
  for (int i = 0; i < 200; ++i) e.observe(0.37);
  EXPECT_NEAR(e.value(), 0.37, 1e-9);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(mw::Ewma(0.0), mw::ContractViolation);
  EXPECT_THROW(mw::Ewma(1.5), mw::ContractViolation);
  EXPECT_NO_THROW(mw::Ewma(1.0));
}

TEST(Table, RendersAlignedAndCsv) {
  mw::TextTable t({"alpha", "N"});
  t.add_row({"0.1", "47"});
  t.add_row({"0.25", "60"});
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("| alpha |"), std::string::npos);
  EXPECT_NE(rendered.find("|  0.25 |"), std::string::npos);
  EXPECT_EQ(t.render_csv(), "alpha,N\n0.1,47\n0.25,60\n");
}

TEST(Table, ArityMismatchThrows) {
  mw::TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), mw::ContractViolation);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(mw::TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(mw::TextTable::fmt(1.0, 0), "1");
}

TEST(Check, MacroThrowsWithContext) {
  try {
    MOBIWEB_CHECK_MSG(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const mw::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

// ---- ThreadPool ----

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  mw::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.run(100, [&](std::size_t s) { hits[s].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsSerially) {
  mw::ThreadPool pool(0);  // may resolve to 0 extra threads on 1-core hosts
  std::atomic<int> sum{0};
  pool.run(10, [&](std::size_t s) { sum.fetch_add(static_cast<int>(s)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ZeroShardsIsNoop) {
  mw::ThreadPool pool(2);
  pool.run(0, [](std::size_t) { FAIL() << "shard ran"; });
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  mw::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 16, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  mw::ThreadPool pool(2);
  pool.parallel_for(5, 5, 1, [](std::size_t, std::size_t) { FAIL() << "ran"; });
}

TEST(ThreadPool, ExceptionsPropagate) {
  mw::ThreadPool pool(3);
  EXPECT_THROW(
      pool.run(50,
               [](std::size_t s) {
                 if (s == 17) throw std::runtime_error("shard 17 failed");
               }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  mw::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.run(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&mw::ThreadPool::global(), &mw::ThreadPool::global());
  EXPECT_GE(mw::ThreadPool::global().concurrency(), 1u);
}

// ---- ThreadPool re-entrancy ----
//
// run() from a thread that is already executing one of the pool's shards must
// execute inline. The pre-fix implementation enqueued the nested batch and
// parked the worker in a completion wait; with every worker nested that way
// the pool could wedge with work queued and nobody left to pump it. These
// tests run the nested workload under a watchdog so a reintroduced wedge
// shows up as a clean failure, not a hung test binary.

namespace {

// Runs `body` on a throwaway thread and fails (leaking the thread) if it does
// not finish within `budget` — the hang itself is the regression.
void expect_finishes_within(std::chrono::seconds budget,
                            const std::function<void()>& body) {
  std::promise<void> done;
  auto fut = done.get_future();
  std::thread t([&body, &done] {
    body();
    done.set_value();
  });
  if (fut.wait_for(budget) == std::future_status::ready) {
    t.join();
    return;
  }
  t.detach();  // wedged inside the pool; abandon it
  FAIL() << "nested ThreadPool::run did not finish within the watchdog";
}

}  // namespace

TEST(ThreadPool, NestedRunCompletesUnderWatchdog) {
  expect_finishes_within(std::chrono::seconds(60), [] {
    mw::ThreadPool pool(2);
    for (int round = 0; round < 200; ++round) {
      std::atomic<int> count{0};
      pool.run(8, [&](std::size_t) {
        pool.run(8, [&](std::size_t) {
          pool.run(4, [&](std::size_t) { count.fetch_add(1); });
        });
      });
      ASSERT_EQ(count.load(), 8 * 8 * 4);
    }
  });
}

TEST(ThreadPool, NestedRunExecutesInlineOnSameThread) {
  mw::ThreadPool pool(3);
  std::atomic<int> mismatches{0};
  std::atomic<int> nested_shards{0};
  pool.run(8, [&](std::size_t) {
    EXPECT_TRUE(pool.in_worker());
    const std::thread::id outer = std::this_thread::get_id();
    pool.run(5, [&](std::size_t) {
      nested_shards.fetch_add(1);
      if (std::this_thread::get_id() != outer) mismatches.fetch_add(1);
    });
  });
  EXPECT_EQ(nested_shards.load(), 8 * 5);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_FALSE(pool.in_worker());
}

TEST(ThreadPool, NestedExceptionPropagatesThroughInlineRun) {
  mw::ThreadPool pool(2);
  EXPECT_THROW(pool.run(4,
                        [&](std::size_t s) {
                          pool.run(3, [&](std::size_t t) {
                            if (s == 1 && t == 2) {
                              throw std::runtime_error("nested failure");
                            }
                          });
                        }),
               std::runtime_error);
}

TEST(ThreadPool, InWorkerIsPerPool) {
  mw::ThreadPool a(2);
  mw::ThreadPool b(2);
  EXPECT_FALSE(a.in_worker());
  a.run(4, [&](std::size_t) {
    EXPECT_TRUE(a.in_worker());
    EXPECT_FALSE(b.in_worker());
  });
}

// Construction-race safety: concurrent first use of a pool must be benign.
// ThreadPool::global() is a magic static (initialized exactly once even under
// a race); a ThreadPool(0) on a 1-core host must degrade to serial execution
// rather than touch uninitialized worker state.
TEST(ThreadPool, ConcurrentGlobalUseIsSafe) {
  constexpr int kThreads = 8;
  std::atomic<const mw::ThreadPool*> first{nullptr};
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      mw::ThreadPool& pool = mw::ThreadPool::global();
      const mw::ThreadPool* expected = nullptr;
      first.compare_exchange_strong(expected, &pool);
      EXPECT_EQ(first.load(), &pool);
      pool.run(16, [&](std::size_t) { sum.fetch_add(1); });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(), kThreads * 16);
}

TEST(ThreadPool, ConcurrentConstructionOfIndependentPools) {
  constexpr int kThreads = 6;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      mw::ThreadPool pool(static_cast<std::size_t>(i % 3));
      pool.run(10, [&](std::size_t) { sum.fetch_add(1); });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(), kThreads * 10);
}

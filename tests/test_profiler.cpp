// Hot-path profiler: detached no-op contract, nesting self/total accounting,
// multi-thread merge, timeline capture, reset, depth overflow, and the
// attach/detach generation guard — plus one pass through the instrumented
// parallel IDA path.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ida/ida.hpp"
#include "obs/profile.hpp"
#include "util/rng.hpp"

namespace obs = mobiweb::obs;

namespace {

// Deterministic busy work the optimizer cannot elide.
long spin(long iters) {
  volatile long acc = 0;
  for (long i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

const obs::ProfileEntry* find_entry(const std::vector<obs::ProfileEntry>& es,
                                    const std::string& name) {
  for (const auto& e : es) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void recurse(int depth) {
  MOBIWEB_PROFILE_SCOPE("prof.recurse");
  if (depth > 0) recurse(depth - 1);
}

}  // namespace

TEST(Profiler, DetachedScopesRecordNothing) {
  ASSERT_EQ(obs::Profiler::active(), nullptr);
  {
    MOBIWEB_PROFILE_SCOPE("prof.detached");
    spin(100);
  }
  obs::Profiler profiler;  // never attached: nothing can have reached it
  EXPECT_TRUE(profiler.report().empty());
  EXPECT_EQ(profiler.dropped_scopes(), 0);
}

TEST(Profiler, NestedScopesSplitSelfAndTotal) {
  obs::Profiler profiler;
  profiler.attach();
  {
    MOBIWEB_PROFILE_SCOPE("prof.outer");
    spin(2000);
    for (int i = 0; i < 3; ++i) {
      MOBIWEB_PROFILE_SCOPE("prof.inner");
      spin(2000);
    }
  }
  obs::Profiler::detach();

  const auto entries = profiler.report();
  const auto* outer = find_entry(entries, "prof.outer");
  const auto* inner = find_entry(entries, "prof.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 3);
  // Outer's inclusive time contains inner's; its self time excludes it.
  EXPECT_GE(outer->total_s, inner->total_s);
  EXPECT_LE(outer->self_s, outer->total_s - inner->total_s + 1e-9);
  EXPECT_GE(outer->self_s, 0.0);
  // Leaf scope: self == total.
  EXPECT_DOUBLE_EQ(inner->self_s, inner->total_s);

  const std::string table = profiler.table();
  EXPECT_NE(table.find("prof.outer"), std::string::npos);
  const std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"name\": \"prof.inner\", \"count\": 3"),
            std::string::npos);
}

TEST(Profiler, MergesAcrossThreads) {
  obs::Profiler profiler;
  profiler.attach();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      MOBIWEB_PROFILE_SCOPE("prof.worker");
      spin(1000);
    });
  }
  for (auto& t : threads) t.join();
  obs::Profiler::detach();

  const auto entries = profiler.report();
  const auto* worker = find_entry(entries, "prof.worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, 4);
}

TEST(Profiler, TimelineCaptureEmitsPerfettoSpans) {
  obs::Profiler profiler;
  profiler.capture_timeline(true);
  profiler.attach();
  {
    MOBIWEB_PROFILE_SCOPE("prof.span");
    spin(500);
  }
  obs::Profiler::detach();
  EXPECT_EQ(profiler.dropped_events(), 0);
  const std::string json = profiler.timeline_json();
  EXPECT_NE(json.find("\"name\": \"profiler thread 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\", \"name\": \"prof.span\", "
                      "\"cat\": \"profile\""),
            std::string::npos);
}

TEST(Profiler, ResetForgetsAccumulatedData) {
  obs::Profiler profiler;
  profiler.attach();
  {
    MOBIWEB_PROFILE_SCOPE("prof.before");
    spin(100);
  }
  profiler.reset();
  {
    MOBIWEB_PROFILE_SCOPE("prof.after");
    spin(100);
  }
  obs::Profiler::detach();
  const auto entries = profiler.report();
  EXPECT_EQ(find_entry(entries, "prof.before"), nullptr);
  ASSERT_NE(find_entry(entries, "prof.after"), nullptr);
}

TEST(Profiler, DepthOverflowDropsScopesNotTime) {
  obs::Profiler profiler;
  profiler.attach();
  recurse(100);  // deeper than the 64-frame per-thread stack
  obs::Profiler::detach();
  EXPECT_GT(profiler.dropped_scopes(), 0);
  const auto entries = profiler.report();
  const auto* entry = find_entry(entries, "prof.recurse");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 64);  // the frames that fit
}

TEST(Profiler, ReplacingTheActiveProfilerIsolatesRuns) {
  obs::Profiler first;
  first.attach();
  {
    MOBIWEB_PROFILE_SCOPE("prof.run");
    spin(100);
  }
  obs::Profiler second;
  second.attach();  // replaces `first`; its thread logs must not be reused
  {
    MOBIWEB_PROFILE_SCOPE("prof.run");
    spin(100);
  }
  obs::Profiler::detach();
  const auto first_entries = first.report();
  const auto second_entries = second.report();
  const auto* a = find_entry(first_entries, "prof.run");
  const auto* b = find_entry(second_entries, "prof.run");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, 1);
  EXPECT_EQ(b->count, 1);
}

TEST(Profiler, DestructorDetachesActiveProfiler) {
  {
    obs::Profiler profiler;
    profiler.attach();
    EXPECT_EQ(obs::Profiler::active(), &profiler);
  }
  EXPECT_EQ(obs::Profiler::active(), nullptr);
}

TEST(Profiler, CapturesInstrumentedParallelIdaEncode) {
  mobiweb::Rng rng(77);
  mobiweb::Bytes payload(10240);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
  const mobiweb::ida::Encoder enc(40, 60);

  obs::Profiler profiler;
  profiler.attach();
  const std::size_t prev = mobiweb::ida::set_parallel_threshold(0);
  (void)enc.encode_payload(mobiweb::ByteSpan(payload), 256);
  mobiweb::ida::set_parallel_threshold(prev);
  obs::Profiler::detach();

  const auto entries = profiler.report();
  EXPECT_NE(find_entry(entries, "ida.encode"), nullptr);
  EXPECT_NE(find_entry(entries, "ida.rows.parallel"), nullptr);
}

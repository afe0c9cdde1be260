// Heap allocations of one real-stack transfer session: building the client
// receiver, running the session over a lossy channel and reconstructing the
// payload. The streaming decoder keeps every packet in one slab allocated
// with the receiver, so the count is the same whatever the document's M. A
// decoder that allocates per held packet fails here.
//
// This binary replaces the global operator new to count calls, so it holds
// only this test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>

#include "channel/channel.hpp"
#include "channel/error_model.hpp"
#include "ida/ida.hpp"
#include "transmit/receiver.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace channel = mobiweb::channel;
namespace doc = mobiweb::doc;
namespace ida = mobiweb::ida;
namespace transmit = mobiweb::transmit;
using mobiweb::Bytes;

constexpr std::size_t kPacketSize = 256;

// A document of m full packets cut into the same four units whatever m is,
// so the receiver's copy of the unit map costs the same at every m.
doc::LinearDocument document(std::size_t m) {
  doc::LinearDocument d;
  d.payload.resize(m * kPacketSize);
  for (std::size_t i = 0; i < d.payload.size(); ++i) {
    d.payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::size_t quarter = d.payload.size() / 4;
  for (std::size_t u = 0; u < 4; ++u) {
    d.segments.push_back({std::to_string(u + 1), u * quarter, quarter, 0.25});
  }
  return d;
}

struct SessionRun {
  long allocations = 0;
  bool completed = false;
  bool payload_matches = false;
  bool solved_erasures = false;  // some clear packet was rebuilt, not received
};

// One session at alpha = 0.2, the byte_path benchmark's error rate.
SessionRun run_session(std::size_t m) {
  const transmit::DocumentTransmitter tx(document(m), {.packet_size = kPacketSize,
                                                        .gamma = 1.5,
                                                        .doc_id = 1});
  channel::WirelessChannel ch({.seed = 7},
                              std::make_unique<channel::IidErrorModel>(0.2));
  const transmit::ReceiverConfig rc{.doc_id = tx.doc_id(),
                                    .m = tx.m(),
                                    .n = tx.n(),
                                    .packet_size = tx.packet_size(),
                                    .payload_size = tx.payload_size()};
  SessionRun run;
  const long before = g_allocations.load();
  {
    transmit::ClientReceiver receiver(rc, tx.document().segments);
    run.completed = transmit::TransferSession(tx, receiver, ch).run().completed;
    run.payload_matches = run.completed && receiver.reconstruct() == tx.document().payload;
    for (std::size_t j = 0; j < tx.m(); ++j) {
      run.solved_erasures = run.solved_erasures || !receiver.has_packet(j);
    }
  }
  run.allocations = g_allocations.load() - before;
  return run;
}

TEST(SessionAllocations, SameCountAtEveryM) {
  // Serial decode only: the thread pool's task hand-off allocates per call,
  // and a large M would cross the parallel threshold.
  const std::size_t old =
      ida::set_parallel_threshold(std::numeric_limits<std::size_t>::max());
  const SessionRun small = run_session(10);
  const SessionRun paper = run_session(40);
  const SessionRun large = run_session(100);
  ida::set_parallel_threshold(old);

  for (const SessionRun& r : {small, paper, large}) {
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.payload_matches);
    EXPECT_TRUE(r.solved_erasures);
  }
  EXPECT_EQ(paper.allocations, small.allocations);
  EXPECT_EQ(large.allocations, small.allocations);
  std::printf("allocations per session: M=10 %ld, M=40 %ld, M=100 %ld\n",
              small.allocations, paper.allocations, large.allocations);
}

}  // namespace

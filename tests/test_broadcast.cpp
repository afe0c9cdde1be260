// Broadcast ("air storage") dissemination.
#include <gtest/gtest.h>

#include <string>

#include "broadcast/broadcast.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "stats/describe.hpp"
#include "xml/parser.hpp"

namespace broadcast = mobiweb::broadcast;
namespace doc = mobiweb::doc;
namespace channel = mobiweb::channel;
using mobiweb::ContractViolation;

namespace {

doc::LinearDocument make_doc(int paragraphs, int seedish) {
  std::string src = "<paper>";
  for (int p = 0; p < paragraphs; ++p) {
    src += "<para>";
    for (int w = 0; w < 20; ++w) {
      src += "d";
      src += std::to_string(seedish);
      src += "p";
      src += std::to_string(p);
      src += "w";
      src += std::to_string(w);
      src += " ";
    }
    src += "</para>";
  }
  src += "</paper>";
  doc::ScGenerator gen;
  return doc::linearize(gen.generate(mobiweb::xml::parse(src)),
                        {.lod = doc::Lod::kParagraph, .rank = doc::RankBy::kIc});
}

channel::WirelessChannel make_channel(double alpha, std::uint64_t seed = 1) {
  return channel::WirelessChannel({.seed = seed},
                                  std::make_unique<channel::IidErrorModel>(alpha));
}

}  // namespace

TEST(BroadcastServer, CycleContainsAllFrames) {
  broadcast::BroadcastServer server({.packet_size = 128, .gamma = 1.5});
  const auto d1 = make_doc(4, 1);
  const auto d2 = make_doc(6, 2);
  const auto id1 = server.publish(d1);
  const auto id2 = server.publish(d2);
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);
  const auto& info1 = server.info(id1);
  const auto& info2 = server.info(id2);
  EXPECT_EQ(server.cycle_frames(), info1.n + info2.n);
  EXPECT_GE(info1.n, info1.m);
}

TEST(BroadcastServer, PublishAfterBuildRejected) {
  broadcast::BroadcastServer server;
  server.publish(make_doc(3, 1));
  (void)server.cycle();
  EXPECT_THROW(server.publish(make_doc(3, 2)), ContractViolation);
}

TEST(BroadcastServer, UnknownDocIdRejected) {
  broadcast::BroadcastServer server;
  server.publish(make_doc(3, 1));
  EXPECT_THROW((void)server.info(0), ContractViolation);
  EXPECT_THROW((void)server.info(2), ContractViolation);
}

TEST(BroadcastClient, CleanChannelFromCycleStart) {
  broadcast::BroadcastServer server({.packet_size = 128, .gamma = 1.5});
  const auto d = make_doc(5, 3);
  const auto id = server.publish(d);
  auto ch = make_channel(0.0);
  const auto r = broadcast::listen_for(server, id, 0, ch);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.payload, d.payload);
  // With a clean channel the client needs exactly m frames of its document.
  EXPECT_EQ(r.frames_of_doc, static_cast<long>(server.info(id).m));
}

TEST(BroadcastClient, MidCycleTuneInStillReconstructs) {
  broadcast::BroadcastServer server({.packet_size = 128, .gamma = 1.5});
  const auto d = make_doc(8, 4);
  const auto id = server.publish(d);
  const auto& info = server.info(id);
  auto ch = make_channel(0.0);
  // Tune in halfway through the document's frames: the client picks up the
  // tail (redundancy included) and wraps around — any m distinct frames do.
  const auto r = broadcast::listen_for(server, id, info.n / 2, ch);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.payload, d.payload);
  EXPECT_EQ(r.frames_of_doc, static_cast<long>(info.m));
}

TEST(BroadcastClient, LossyChannelUsesRedundancy) {
  broadcast::BroadcastServer server({.packet_size = 128, .gamma = 2.0});
  const auto d = make_doc(8, 5);
  const auto id = server.publish(d);
  auto ch = make_channel(0.3, 9);
  const auto r = broadcast::listen_for(server, id, 0, ch);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.payload, d.payload);
  // Corruption forced the client past the first m frames; the intact set it
  // finished with necessarily includes redundancy packets.
  EXPECT_GT(r.frames_heard, static_cast<long>(server.info(id).m));
}

TEST(BroadcastClient, OtherDocumentsFramesAreOverhead) {
  broadcast::BroadcastServer server({.packet_size = 128, .gamma = 1.5});
  const auto d1 = make_doc(4, 6);
  const auto d2 = make_doc(4, 7);
  server.publish(d1);
  const auto id2 = server.publish(d2);
  auto ch = make_channel(0.0);
  // Tuning in at cycle start (doc 1's frames) means waiting through them.
  const auto r = broadcast::listen_for(server, id2, 0, ch);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.frames_heard, r.frames_of_doc);
}

TEST(BroadcastClient, InterleavingShortensWaitForLateDocument) {
  // Sequential cycle: doc k's frames sit behind k-1 documents. Interleaved:
  // every document starts within #docs frames. Compare the wait for the last
  // document from offset 0 on a clean channel.
  const int docs = 5;
  auto build = [&](bool interleave) {
    broadcast::BroadcastServer server(
        {.packet_size = 128, .gamma = 1.5, .interleave = interleave});
    std::uint16_t last = 0;
    for (int i = 0; i < docs; ++i) last = server.publish(make_doc(4, 10 + i));
    auto ch = make_channel(0.0);
    return broadcast::listen_for(server, last, 0, ch).frames_heard;
  };
  EXPECT_LT(build(true), build(false));
}

TEST(BroadcastClient, ExpectedFramesMatchTheory) {
  // With corruption alpha and a single published document, the client must
  // hear ~m/(1-alpha) frames before holding m intact ones (corrupted frames
  // cannot be attributed to a document, so frames_of_doc counts only intact
  // ones — exactly m at completion).
  broadcast::BroadcastServer server({.packet_size = 128, .gamma = 3.0});
  const auto d = make_doc(10, 20);
  const auto id = server.publish(d);
  const auto m = static_cast<double>(server.info(id).m);
  mobiweb::stats::Moments heard;
  for (int trial = 0; trial < 300; ++trial) {
    auto ch = make_channel(0.25, 100 + static_cast<std::uint64_t>(trial));
    const auto r = broadcast::listen_for(server, id, 0, ch);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.frames_of_doc, static_cast<long>(m));
    heard.add(static_cast<double>(r.frames_heard));
  }
  EXPECT_NEAR(heard.mean(), m / 0.75, m * 0.08);
}

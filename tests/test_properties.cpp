// Randomized property tests across modules: invariants that must hold for
// arbitrary inputs, not just the hand-picked cases of the unit suites.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "doc/recognizer.hpp"
#include "doc/sc_io.hpp"
#include "ida/ida.hpp"
#include "sim/synthetic.hpp"
#include "sim/transfer.hpp"
#include "util/lzss.hpp"
#include "util/rng.hpp"
#include "xml/dtd.hpp"
#include "xml/parser.hpp"
#include "xml/serialize.hpp"

namespace doc = mobiweb::doc;
namespace xml = mobiweb::xml;
namespace sim = mobiweb::sim;
namespace ida = mobiweb::ida;
using mobiweb::Bytes;
using mobiweb::ByteSpan;
using mobiweb::Rng;

namespace {

// Random word from a small vocabulary (keeps term statistics interesting).
std::string random_word(Rng& rng) {
  static const char* kVocabulary[] = {
      "mobile", "web", "browsing", "wireless", "channel", "packet", "cache",
      "bandwidth", "document", "unit", "content", "query", "redundancy",
      "vandermonde", "dispersal", "section", "client", "server", "energy",
      "profile"};
  return kVocabulary[rng.next_below(std::size(kVocabulary))];
}

std::string random_sentence(Rng& rng, int words) {
  std::string out;
  for (int i = 0; i < words; ++i) {
    if (!out.empty()) out += ' ';
    out += random_word(rng);
  }
  return out;
}

// Generates a random well-formed paper-like XML document.
std::string random_paper_xml(Rng& rng) {
  std::string out = "<paper>";
  if (rng.next_bernoulli(0.7)) {
    out += "<title>" + random_sentence(rng, 1 + static_cast<int>(rng.next_below(5))) +
           "</title>";
  }
  const int sections = 1 + static_cast<int>(rng.next_below(4));
  for (int s = 0; s < sections; ++s) {
    out += "<section>";
    if (rng.next_bernoulli(0.5)) {
      out += "<title>" + random_sentence(rng, 2) + "</title>";
    }
    const int blocks = 1 + static_cast<int>(rng.next_below(4));
    for (int b = 0; b < blocks; ++b) {
      if (rng.next_bernoulli(0.4)) {
        out += "<subsection><para>" +
               random_sentence(rng, 3 + static_cast<int>(rng.next_below(20))) +
               "</para></subsection>";
      } else {
        out += "<para>" +
               random_sentence(rng, 3 + static_cast<int>(rng.next_below(20)));
        if (rng.next_bernoulli(0.3)) {
          out += " <em>" + random_word(rng) + "</em>";
        }
        out += "</para>";
      }
    }
    out += "</section>";
  }
  out += "</paper>";
  return out;
}

}  // namespace

class RandomDocProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomDocProperties, XmlRoundTripStable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const std::string source = random_paper_xml(rng);
  const xml::Document first = xml::parse(source);
  const std::string written = xml::write(first);
  const xml::Document second = xml::parse(written);
  EXPECT_EQ(first.root, second.root);
  // Writing is a fixed point after one round.
  EXPECT_EQ(xml::write(second), written);
}

TEST_P(RandomDocProperties, IcInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::string source = random_paper_xml(rng);
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(source));

  // Root IC is exactly 1 for any non-empty document.
  ASSERT_GT(sc.document_terms().total(), 0);
  EXPECT_NEAR(sc.root().info_content, 1.0, 1e-9);

  // ICs are in [0, 1]; every interior unit's IC >= sum of children; equality
  // when it has no own tokens.
  doc::walk(sc.root(), [&](const doc::OrgUnit& u, const std::vector<std::size_t>&) {
    EXPECT_GE(u.info_content, -1e-12);
    EXPECT_LE(u.info_content, 1.0 + 1e-9);
    if (u.is_leaf()) return;
    double child_sum = 0.0;
    for (const auto& c : u.children) child_sum += c.info_content;
    EXPECT_LE(child_sum, u.info_content + 1e-9);
    if (u.own_tokens.empty()) {
      EXPECT_NEAR(child_sum, u.info_content, 1e-9);
    }
  });
}

TEST_P(RandomDocProperties, QicMqicInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const std::string source = random_paper_xml(rng);
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(source));
  const std::string query_text =
      random_word(rng) + " " + random_word(rng) + " " + random_word(rng);
  const doc::ContentScorer scorer(
      sc, doc::Query::from_text(query_text, gen.extractor()));

  doc::walk(sc.root(), [&](const doc::OrgUnit& u, const std::vector<std::size_t>&) {
    const double q = scorer.qic(u);
    const double mq = scorer.mqic(u);
    EXPECT_GE(q, -1e-12);
    EXPECT_LE(q, 1.0 + 1e-9);
    EXPECT_GE(mq, -1e-12);
    EXPECT_LE(mq, 1.0 + 1e-9);
    // MQIC never zeroes out a unit that has static content.
    if (u.info_content > 1e-12) {
      EXPECT_GT(mq, 0.0);
    }
  });
  if (scorer.query_matches()) {
    EXPECT_NEAR(scorer.qic(sc.root()), 1.0, 1e-9);
  } else {
    EXPECT_EQ(scorer.qic(sc.root()), 0.0);
  }
  EXPECT_NEAR(scorer.mqic(sc.root()), 1.0, 1e-9);
}

TEST_P(RandomDocProperties, ScSerializationRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(random_paper_xml(rng)));
  const auto restored = doc::parse_sc(doc::write_sc(sc));
  const auto a = sc.rows();
  const auto b = restored.rows();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_NEAR(a[i].unit->info_content, b[i].unit->info_content, 1e-9);
    EXPECT_EQ(a[i].unit->terms.counts, b[i].unit->terms.counts);
  }
}

TEST_P(RandomDocProperties, LinearizeTilesPayload) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271);
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(random_paper_xml(rng)));
  for (const auto lod : {doc::Lod::kSection, doc::Lod::kParagraph}) {
    const auto lin = doc::linearize(sc, {.lod = lod, .rank = doc::RankBy::kIc});
    std::size_t offset = 0;
    double prev_score = 1e18;
    for (const auto& s : lin.segments) {
      EXPECT_EQ(s.offset, offset);
      offset += s.size;
      EXPECT_LE(s.content, prev_score + 1e-12);
      prev_score = s.content;
    }
    EXPECT_EQ(offset, lin.payload.size());
    EXPECT_NEAR(lin.content_of_prefix(lin.payload.size()), lin.total_content(),
                1e-9);
  }
}

TEST_P(RandomDocProperties, EncodeDecodeThroughRandomLoss) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 919);
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(random_paper_xml(rng)));
  const auto lin = doc::linearize(sc, {.lod = doc::Lod::kParagraph,
                                       .rank = doc::RankBy::kIc});
  if (lin.payload.empty()) return;
  const std::size_t packet_size = 64 + rng.next_below(192);
  const std::size_t m = ida::packet_count(lin.payload.size(), packet_size);
  if (m > 200) return;
  const std::size_t n = std::min<std::size_t>(255, m + 1 + rng.next_below(m));
  ida::Encoder enc(m, n);
  const auto cooked = enc.encode_payload(ByteSpan(lin.payload), packet_size);

  // Drop a random (n - m)-subset; decode from the rest.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  std::vector<std::pair<std::size_t, Bytes>> kept;
  for (std::size_t i = 0; i < m; ++i) kept.emplace_back(order[i], cooked[order[i]]);
  ida::Decoder dec(m, n);
  EXPECT_EQ(dec.decode_payload(kept, lin.payload.size()), lin.payload);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDocProperties, ::testing::Range(1, 21));

// ---- Simulator monotonicity properties --------------------------------------

struct SimGrid {
  double alpha;
  double gamma;
};

class SimMonotonicity : public ::testing::TestWithParam<SimGrid> {};

TEST_P(SimMonotonicity, CachingNeverSlowerOnAverage) {
  const auto [alpha, gamma] = GetParam();
  sim::TransferConfig cfg;
  cfg.m = 40;
  cfg.n = static_cast<int>(ida::cooked_count(40, gamma));
  cfg.alpha = alpha;
  const std::vector<double> content(40, 1.0 / 40);
  Rng rng_a(42);
  Rng rng_b(42);
  double cached = 0.0;
  double uncached = 0.0;
  for (int i = 0; i < 500; ++i) {
    cfg.caching = true;
    cached += sim::simulate_transfer(content, cfg, rng_a).time;
    cfg.caching = false;
    uncached += sim::simulate_transfer(content, cfg, rng_b).time;
  }
  EXPECT_LE(cached, uncached * 1.02);  // 2% tolerance for sampling noise
}

TEST_P(SimMonotonicity, AbortNeverSlowerThanFullDownload) {
  const auto [alpha, gamma] = GetParam();
  sim::TransferConfig cfg;
  cfg.m = 40;
  cfg.n = static_cast<int>(ida::cooked_count(40, gamma));
  cfg.alpha = alpha;
  cfg.caching = true;
  const std::vector<double> content(40, 1.0 / 40);
  Rng rng_a(77);
  Rng rng_b(77);
  double aborted = 0.0;
  double full = 0.0;
  for (int i = 0; i < 500; ++i) {
    cfg.relevance_threshold = 0.5;
    aborted += sim::simulate_transfer(content, cfg, rng_a).time;
    cfg.relevance_threshold = -1.0;
    full += sim::simulate_transfer(content, cfg, rng_b).time;
  }
  EXPECT_LE(aborted, full * 1.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimMonotonicity,
    ::testing::Values(SimGrid{0.1, 1.2}, SimGrid{0.1, 1.5}, SimGrid{0.3, 1.2},
                      SimGrid{0.3, 1.5}, SimGrid{0.3, 2.0}, SimGrid{0.5, 1.5},
                      SimGrid{0.5, 2.0}));

TEST(SyntheticProperties, ProfileAlwaysNormalizedAcrossSkews) {
  Rng rng(5);
  for (const double skew : {1.0, 2.0, 3.0, 5.0, 10.0}) {
    sim::SyntheticConfig cfg;
    cfg.skew = skew;
    for (int i = 0; i < 20; ++i) {
      const auto d = sim::generate_document(cfg, rng);
      for (const auto lod : {doc::Lod::kDocument, doc::Lod::kSection,
                             doc::Lod::kSubsection, doc::Lod::kParagraph}) {
        const auto p = sim::packet_content_profile(d, lod);
        EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
      }
    }
  }
}

// ---- DTD round-trip properties ----

namespace {

namespace dtd = mobiweb::xml::dtd;

// Random content-model particle tree. Groups hold 1-3 children; choice groups
// are forced to hold at least two, since "(a)" canonically parses as a
// sequence.
dtd::Particle random_particle(Rng& rng, int depth) {
  dtd::Particle p;
  const char* kNames[] = {"title", "para", "em", "section", "subsection"};
  if (depth == 0 || rng.next_bernoulli(0.55)) {
    p.kind = dtd::Particle::Kind::kName;
    p.name = kNames[rng.next_below(std::size(kNames))];
  } else {
    const bool choice = rng.next_bernoulli(0.5);
    p.kind = choice ? dtd::Particle::Kind::kChoice : dtd::Particle::Kind::kSeq;
    const std::size_t kids = (choice ? 2 : 1) + rng.next_below(2);
    for (std::size_t i = 0; i < kids; ++i) {
      p.children.push_back(random_particle(rng, depth - 1));
    }
  }
  switch (rng.next_below(4)) {
    case 1: p.occur = dtd::Particle::Occur::kOptional; break;
    case 2: p.occur = dtd::Particle::Occur::kStar; break;
    case 3: p.occur = dtd::Particle::Occur::kPlus; break;
    default: break;
  }
  return p;
}

// Canonical DTD syntax for a particle; the inverse of parse_particle.
std::string print_particle(const dtd::Particle& p) {
  std::string out;
  if (p.kind == dtd::Particle::Kind::kName) {
    out = p.name;
  } else {
    const char* sep = p.kind == dtd::Particle::Kind::kChoice ? " | " : ", ";
    out = "(";
    for (std::size_t i = 0; i < p.children.size(); ++i) {
      if (i) out += sep;
      out += print_particle(p.children[i]);
    }
    out += ")";
  }
  switch (p.occur) {
    case dtd::Particle::Occur::kOptional: out += '?'; break;
    case dtd::Particle::Occur::kStar: out += '*'; break;
    case dtd::Particle::Occur::kPlus: out += '+'; break;
    case dtd::Particle::Occur::kOne: break;
  }
  return out;
}

}  // namespace

TEST(DtdProperties, RandomContentModelsRoundTripThroughParser) {
  // print -> parse -> print is a fixed point for arbitrary particle trees:
  // the parser preserves group structure, separators and occurrence
  // modifiers exactly.
  Rng rng(2026);
  for (int i = 0; i < 300; ++i) {
    dtd::Particle root = random_particle(rng, 3);
    if (root.kind == dtd::Particle::Kind::kName) {
      // Top-level content models are always parenthesized groups.
      dtd::Particle wrap;
      wrap.kind = dtd::Particle::Kind::kSeq;
      wrap.children.push_back(std::move(root));
      root = std::move(wrap);
    }
    const std::string model = print_particle(root);
    const dtd::Dtd parsed = dtd::parse_dtd("<!ELEMENT root " + model + ">");
    const dtd::ElementDecl* decl = parsed.element("root");
    ASSERT_NE(decl, nullptr) << model;
    ASSERT_EQ(decl->model, dtd::ElementDecl::Model::kChildren) << model;
    EXPECT_EQ(print_particle(decl->content), model);
  }
}

TEST(DtdProperties, ParsedModelsValidateTheirOwnSimplestDocument) {
  // A pure-sequence model of required names accepts exactly that sequence.
  Rng rng(77);
  const char* kNames[] = {"title", "para", "section"};
  for (int i = 0; i < 100; ++i) {
    std::string model = "(";
    std::string doc_body;
    std::string decls;
    const std::size_t kids = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < kids; ++k) {
      const char* name = kNames[rng.next_below(std::size(kNames))];
      if (k) model += ", ";
      model += name;
      doc_body += std::string("<") + name + "/>";
    }
    model += ")";
    for (const char* name : kNames) {
      decls += std::string("<!ELEMENT ") + name + " EMPTY>";
    }
    const dtd::Dtd d =
        dtd::parse_dtd("<!ELEMENT root " + model + ">" + decls);
    const xml::Document doc = xml::parse("<root>" + doc_body + "</root>");
    EXPECT_TRUE(dtd::validate(doc, d).empty()) << model;
  }
}

// ---- LZSS round-trip properties ----

TEST(LzssProperties, PureRandomBytesRoundTrip) {
  // Incompressible input is the worst case for the match finder; identity
  // must hold and the stream must stay within the documented worst-case
  // expansion (header + flag byte per 8 literals).
  Rng rng(31337);
  for (int i = 0; i < 60; ++i) {
    Bytes in;
    const std::size_t n = rng.next_below(4096);
    in.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      in.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    const Bytes compressed = mobiweb::lzss_compress(ByteSpan(in));
    EXPECT_LE(compressed.size(), 4 + n + n / 8 + 1);
    EXPECT_EQ(mobiweb::lzss_decompress(ByteSpan(compressed)), in);
  }
}

TEST(LzssProperties, SmallAlphabetRandomBytesRoundTrip) {
  // Highly repetitive random strings exercise the match path heavily.
  Rng rng(4242);
  for (int i = 0; i < 60; ++i) {
    Bytes in;
    const std::size_t n = rng.next_below(8192);
    for (std::size_t b = 0; b < n; ++b) {
      in.push_back(static_cast<std::uint8_t>(rng.next_below(3)));
    }
    const Bytes compressed = mobiweb::lzss_compress(ByteSpan(in));
    const Bytes out = mobiweb::lzss_decompress(ByteSpan(compressed));
    EXPECT_EQ(out, in);
    if (n > 64) {
      EXPECT_LT(compressed.size(), in.size());
    }
  }
}

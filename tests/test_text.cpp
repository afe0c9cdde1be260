// Text pipeline: tokenizer, stop words, Porter stemmer, keyword extractor.
#include <gtest/gtest.h>

#include "text/keywords.hpp"
#include "text/porter.hpp"
#include "text/stopwords.hpp"
#include "text/tokenize.hpp"

namespace text = mobiweb::text;

TEST(Tokenize, LowercasesAndSplits) {
  const auto words = text::tokenize_words("Hello, World! FOO-bar 123");
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], "hello");
  EXPECT_EQ(words[1], "world");
  EXPECT_EQ(words[2], "foo-bar");
  EXPECT_EQ(words[3], "123");
}

TEST(Tokenize, InternalApostrophe) {
  const auto words = text::tokenize_words("the client's state isn't 'quoted'");
  EXPECT_EQ(words, (std::vector<std::string>{"the", "client's", "state", "isn't",
                                             "quoted"}));
}

TEST(Tokenize, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(text::tokenize_words("").empty());
  EXPECT_TRUE(text::tokenize_words("... --- !!!").empty());
}

TEST(Tokenize, EmphasisFlagAttached) {
  const auto toks = text::tokenize("bold words", true);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_TRUE(toks[0].emphasized);
  EXPECT_TRUE(toks[1].emphasized);
  EXPECT_FALSE(text::tokenize("plain", false)[0].emphasized);
}

TEST(StopWords, DefaultListBehaves) {
  text::StopWordFilter f;
  EXPECT_TRUE(f.is_stop_word("the"));
  EXPECT_TRUE(f.is_stop_word("isn't"));
  EXPECT_FALSE(f.is_stop_word("wireless"));
  EXPECT_FALSE(f.is_stop_word("bandwidth"));
}

TEST(StopWords, FilterStream) {
  text::StopWordFilter f;
  const auto kept = f.filter({"the", "mobile", "web", "is", "weakly", "connected"});
  EXPECT_EQ(kept, (std::vector<std::string>{"mobile", "web", "weakly", "connected"}));
}

TEST(StopWords, AddRemove) {
  text::StopWordFilter f;
  f.add("document");
  EXPECT_TRUE(f.is_stop_word("document"));
  f.remove("document");
  EXPECT_FALSE(f.is_stop_word("document"));
  f.remove("the");
  EXPECT_FALSE(f.is_stop_word("the"));
}

TEST(StopWords, CustomList) {
  text::StopWordFilter f(std::unordered_set<std::string>{"foo"});
  EXPECT_TRUE(f.is_stop_word("foo"));
  EXPECT_FALSE(f.is_stop_word("the"));
  EXPECT_EQ(f.size(), 1u);
}

// Classic Porter test pairs from the published algorithm description.
struct StemCase {
  const char* in;
  const char* out;
};

// Print a case as its input word. gtest's default prints the two string
// pointers, which move with every build, and ctest names each case by it.
void PrintTo(const StemCase& c, std::ostream* os) { *os << c.in; }

class PorterSuite : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterSuite, Stems) {
  const auto& [in, out] = GetParam();
  EXPECT_EQ(text::porter_stem(in), out) << in;
}

INSTANTIATE_TEST_SUITE_P(
    Classic, PorterSuite,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"}, StemCase{"predication", "predic"},
        StemCase{"operator", "oper"}, StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"}, StemCase{"hopefulness", "hope"},
        StemCase{"callousness", "callous"}, StemCase{"formaliti", "formal"},
        StemCase{"sensitiviti", "sensit"}, StemCase{"sensibiliti", "sensibl"},
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"}, StemCase{"revival", "reviv"},
        StemCase{"allowance", "allow"}, StemCase{"inference", "infer"},
        StemCase{"airliner", "airlin"}, StemCase{"gyroscopic", "gyroscop"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"}));

TEST(Porter, ShortWordsUnchanged) {
  EXPECT_EQ(text::porter_stem("a"), "a");
  EXPECT_EQ(text::porter_stem("is"), "is");
  EXPECT_EQ(text::porter_stem("be"), "be");
}

TEST(Porter, NonAlphaPassThrough) {
  EXPECT_EQ(text::porter_stem("19.2kbps"), "19.2kbps");
  EXPECT_EQ(text::porter_stem("e-mail"), "e-mail");
  EXPECT_EQ(text::porter_stem("x86"), "x86");
}

TEST(Porter, DomainWordsConsistent) {
  // browse/browsing/browsed collapse to one stem — essential so a query word
  // matches all inflections in a document.
  const std::string stem = text::porter_stem("browsing");
  EXPECT_EQ(text::porter_stem("browsed"), stem);
  EXPECT_EQ(text::porter_stem("browse"), stem);
  EXPECT_EQ(text::porter_stem("transmission"), text::porter_stem("transmissions"));
  EXPECT_EQ(text::porter_stem("caching"), text::porter_stem("cached"));
}

TEST(TermCounts, Basics) {
  text::TermCounts tc;
  tc.add("web", 3);
  tc.add("mobile");
  tc.add("web");
  EXPECT_EQ(tc.count("web"), 4);
  EXPECT_EQ(tc.count("mobile"), 1);
  EXPECT_EQ(tc.count("absent"), 0);
  EXPECT_EQ(tc.total(), 5);
  EXPECT_EQ(tc.max_count(), 4);
  EXPECT_EQ(tc.distinct(), 2u);
}

TEST(TermCounts, Merge) {
  text::TermCounts a;
  a.add("x", 2);
  text::TermCounts b;
  b.add("x", 1);
  b.add("y", 5);
  a.merge(b);
  EXPECT_EQ(a.count("x"), 3);
  EXPECT_EQ(a.count("y"), 5);
}

TEST(TermCounts, SortedDeterministic) {
  text::TermCounts tc;
  tc.add("b", 2);
  tc.add("a", 2);
  tc.add("c", 9);
  const auto sorted = tc.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, "c");
  EXPECT_EQ(sorted[1].first, "a");  // tie broken alphabetically
  EXPECT_EQ(sorted[2].first, "b");
}

TEST(KeywordExtractor, FullPipeline) {
  text::KeywordExtractor ex;
  const auto tc = ex.extract_text(
      "The mobile clients are browsing; a mobile client browses the web.");
  // "the", "are", "a" dropped; mobile x2; client(s) stemmed together x2;
  // browsing/browses stemmed together x2; web x1.
  EXPECT_EQ(tc.count("mobil"), 2);
  EXPECT_EQ(tc.count("client"), 2);
  EXPECT_EQ(tc.count(text::porter_stem("browsing")), 2);
  EXPECT_EQ(tc.count("web"), 1);
  EXPECT_EQ(tc.count("the"), 0);
}

TEST(KeywordExtractor, StopWordsDropped) {
  text::KeywordExtractor ex;
  EXPECT_EQ(ex.normalize("the"), "");
  EXPECT_EQ(ex.normalize("wireless"), text::porter_stem("wireless"));
}

TEST(KeywordExtractor, ShortWordsDropped) {
  text::KeywordExtractor ex;
  EXPECT_EQ(ex.normalize("x"), "");
}

TEST(KeywordExtractor, EmphasisQualifies) {
  text::KeywordExtractor ex;
  // A stop word in bold still counts (specially formatted words qualify).
  EXPECT_NE(ex.normalize("the", /*emphasized=*/true), "");
  const std::vector<text::Token> toks = {{"the", true}, {"the", false}};
  const auto tc = ex.extract(toks);
  EXPECT_EQ(tc.count("the"), 1);
}

TEST(KeywordExtractor, OptionsRespected) {
  text::KeywordOptions opts;
  opts.stem = false;
  opts.drop_stop_words = false;
  opts.min_word_length = 1;
  text::KeywordExtractor ex(opts);
  const auto tc = ex.extract_text("the browsing");
  EXPECT_EQ(tc.count("the"), 1);
  EXPECT_EQ(tc.count("browsing"), 1);
  EXPECT_EQ(tc.count("brows"), 0);
}

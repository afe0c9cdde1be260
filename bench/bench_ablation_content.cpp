// Ablation: alternative information-content definitions (§6 future work) —
// how fast does each transmission ordering deliver the document's "real"
// content?
//
// Reference content = the paper's IC (keyword-weighted). Each ordering ranks
// the paragraphs by its own score (document order / unit length / IC /
// TF-IDF against a small corpus) and we measure the clean-channel bytes
// needed before the accumulated *reference* content crosses each threshold.
// A good ordering fronts the keyword-dense units with few bytes.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data_paper.hpp"
#include "doc/content.hpp"
#include "doc/content_alt.hpp"
#include "doc/linear.hpp"
#include "xml/parser.hpp"

namespace bench = mobiweb::bench;
namespace doc = mobiweb::doc;
using mobiweb::TextTable;

namespace {

struct RankedUnit {
  const doc::OrgUnit* unit;
  double order_score;   // ranking key (higher first)
  double reference_ic;  // the paper's IC (what we account)
  std::size_t bytes;
};

// Bytes needed until cumulative reference IC >= threshold under the ordering.
std::size_t bytes_to_threshold(std::vector<RankedUnit> units, bool ranked,
                               double threshold) {
  if (ranked) {
    std::stable_sort(units.begin(), units.end(),
                     [](const RankedUnit& a, const RankedUnit& b) {
                       return a.order_score > b.order_score;
                     });
  }
  double content = 0.0;
  std::size_t bytes = 0;
  for (const auto& u : units) {
    if (content >= threshold) break;
    // Proportional accrual within the unit.
    const double missing = threshold - content;
    if (u.reference_ic > 0.0 && missing < u.reference_ic) {
      bytes += static_cast<std::size_t>(
          static_cast<double>(u.bytes) * missing / u.reference_ic);
      return bytes;
    }
    content += u.reference_ic;
    bytes += u.bytes;
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — content definitions: document order / length / IC / TF-IDF",
      "Clean channel; bytes transmitted before the accumulated reference\n"
      "(paper-IC) content reaches F, at paragraph LOD on the bundled paper.\n"
      "Lower is better; 'document order' is the conventional baseline.");

  doc::ScGenerator gen;
  const auto sc = gen.generate(mobiweb::xml::parse(bench::kPaperXml));

  // Small corpus for idf: the paper plus three unrelated documents.
  doc::CorpusStats corpus;
  corpus.add_document(sc);
  for (const char* other :
       {"<paper><para>recipes for baking bread and slow cooking stews with "
        "seasonal vegetables in a home kitchen</para></paper>",
        "<paper><para>league results and transfer rumours from the football "
        "season with match highlights</para></paper>",
        "<paper><para>gardening tips for growing tomatoes and pruning roses "
        "through the summer months</para></paper>"}) {
    corpus.add_document(gen.generate(mobiweb::xml::parse(other)));
  }
  const doc::TfIdfScorer tfidf(sc, corpus);

  const auto frontier = doc::frontier_at(sc.root(), doc::Lod::kParagraph);
  std::vector<RankedUnit> base;
  for (const auto* u : frontier) {
    RankedUnit r;
    r.unit = u;
    r.reference_ic = u->info_content;
    r.bytes = doc::render_unit_text(*u).size();
    r.order_score = 0.0;
    base.push_back(r);
  }

  TextTable table({"F", "document order", "length", "IC (paper)", "TF-IDF"});
  for (const double f : {0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    auto by_length = base;
    for (auto& r : by_length) r.order_score = doc::length_content(sc, *r.unit);
    auto by_ic = base;
    for (auto& r : by_ic) r.order_score = r.unit->info_content;
    auto by_tfidf = base;
    for (auto& r : by_tfidf) r.order_score = tfidf.content(*r.unit);

    table.add_row(
        {TextTable::fmt(f, 1),
         std::to_string(bytes_to_threshold(base, false, f)),
         std::to_string(bytes_to_threshold(by_length, true, f)),
         std::to_string(bytes_to_threshold(by_ic, true, f)),
         std::to_string(bytes_to_threshold(by_tfidf, true, f))});
  }
  bench::print_table("Bytes to reach reference content F", table);
  return 0;
}

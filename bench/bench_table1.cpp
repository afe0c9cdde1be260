// Table 1: "Information content of a draft paper" — IC, QIC and MQIC of every
// organizational unit of (an XML rendition of) this paper, for the query
// Q = {browsing, mobile, web}.
//
// Reproduction notes: the prose is a condensed rendition, so absolute values
// differ from the paper's Table 1; what reproduces is the structure (abstract
// = section 0, virtual subsections x.0), the additive rule, QIC = 0 for
// sections that never mention the querying words, and MQIC > 0 everywhere IC
// is positive.
#include "bench_common.hpp"
#include "data_paper.hpp"
#include "doc/content.hpp"
#include "xml/parser.hpp"

namespace doc = mobiweb::doc;
namespace bench = mobiweb::bench;
using mobiweb::TextTable;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Table 1 — IC / QIC / MQIC per organizational unit",
      "Query Q = {browsing, mobile, web}. Expect: additive rule per column,\n"
      "QIC = 0 rows for units without querying words, MQIC small-but-positive\n"
      "there, and the fault-tolerance section scoring high on IC but lower on\n"
      "QIC (it rarely says 'browsing mobile web').");

  const auto parsed = mobiweb::xml::parse(bench::kPaperXml);
  doc::ScGenerator generator;
  const auto sc = generator.generate(parsed);
  const auto query =
      doc::Query::from_text("browsing mobile web", generator.extractor());
  const doc::ContentScorer scorer(sc, query);

  TextTable table({"Sect./Subsect./Para.", "IC p", "QIC q^Q", "MQIC q~^Q"});
  for (const auto& row : sc.rows()) {
    if (row.depth == 0) continue;  // the paper's table lists non-root units
    table.add_row({row.label, TextTable::fmt(row.unit->info_content, 5),
                   TextTable::fmt(scorer.qic(*row.unit), 5),
                   TextTable::fmt(scorer.mqic(*row.unit), 5)});
  }
  bench::print_table("Table 1", table);

  // Invariant summary the paper states in §3.1/§3.2.
  double sec_ic = 0.0;
  double sec_qic = 0.0;
  double sec_mqic = 0.0;
  for (const auto& section : sc.root().children) {
    sec_ic += section.info_content;
    sec_qic += scorer.qic(section);
    sec_mqic += scorer.mqic(section);
  }
  std::printf(
      "\nAdditive-rule check over top-level sections:\n"
      "  sum IC   = %.5f (root carries title keywords; remainder %.5f)\n"
      "  sum QIC  = %.5f\n  sum MQIC = %.5f\n  lambda   = %.3f\n",
      sec_ic, sc.root().info_content - sec_ic, sec_qic, sec_mqic,
      scorer.lambda());
  return 0;
}

// Figure 7 (Experiment #4): impact of the skew factor delta on LOD-based
// transmission. Same setting as Experiment #3 with alpha fixed at 0.1 and
// delta in {2, 3, 4, 5}.
//
// Expected shape (paper §5.4): the larger delta, the larger the peak
// improvement (more non-uniform unit contents mean ranking pays off more);
// the peak sits near F = 0.1-0.2; with small delta the ranked order
// approaches sequential transmission and the improvement shrinks.
#include "bench_common.hpp"
#include "sim/experiment.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
namespace doc = mobiweb::doc;
using mobiweb::TextTable;

namespace {

double mean_response(double skew, double f, doc::Lod lod) {
  sim::ExperimentParams p;
  p.alpha = 0.1;
  p.caching = true;
  p.irrelevant_fraction = 1.0;
  p.relevance_threshold = f;
  p.lod = lod;
  p.document.skew = skew;
  p.repetitions = bench::repetitions();
  p.documents_per_session = bench::documents_per_session();
  p.seed = 5000 + static_cast<std::uint64_t>(f * 100) +
           static_cast<std::uint64_t>(skew * 10);
  return sim::run_browsing_experiment(p).response_time.mean();
}

void panel(double skew) {
  TextTable table({"F", "document", "section", "subsection", "paragraph"});
  for (double f = 0.1; f <= 1.001; f += 0.1) {
    const double base = mean_response(skew, f, doc::Lod::kDocument);
    std::vector<std::string> row = {TextTable::fmt(f, 1)};
    for (const auto lod : {doc::Lod::kDocument, doc::Lod::kSection,
                           doc::Lod::kSubsection, doc::Lod::kParagraph}) {
      row.push_back(TextTable::fmt(base / mean_response(skew, f, lod), 3));
    }
    table.add_row(std::move(row));
  }
  std::string caption = "Figure 7, Caching (delta = ";
  caption += TextTable::fmt(skew, 0) + ", alpha = 0.1) — improvement over document LOD";
  bench::print_table(caption, table);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Figure 7 — impact of the skew factor delta (Experiment #4)",
      "Improvement = RT(document LOD) / RT(LOD) with I = 1, alpha = 0.1.");
  panel(2.0);
  panel(3.0);
  panel(4.0);
  panel(5.0);
  return 0;
}

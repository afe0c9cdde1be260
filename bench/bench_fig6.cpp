// Figure 6 (Experiment #3): benefit of multi-resolution browsing when
// discarding irrelevant documents early. All documents irrelevant (I = 1),
// Caching, delta = 3. For each LOD, "improvement" is the ratio of the
// response time at the document LOD to the response time at that LOD, as a
// function of F, at alpha = 0.1 / 0.3 / 0.5.
//
// Expected shape (paper §5.3): paragraph LOD best — document LOD about
// 30-50% slower at F = 0.1..0.3; section/subsection bring 10-30%; the
// improvement is insensitive to alpha; all curves meet 1.0 at F -> 1.
#include "bench_common.hpp"
#include "sim/experiment.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
namespace doc = mobiweb::doc;
using mobiweb::TextTable;

namespace {

double mean_response(double alpha, double f, doc::Lod lod, double skew = 3.0) {
  sim::ExperimentParams p;
  p.alpha = alpha;
  p.caching = true;
  p.irrelevant_fraction = 1.0;
  p.relevance_threshold = f;
  p.lod = lod;
  p.document.skew = skew;
  p.repetitions = bench::repetitions();
  p.documents_per_session = bench::documents_per_session();
  p.seed = 4000 + static_cast<std::uint64_t>(f * 100) +
           static_cast<std::uint64_t>(alpha * 10);
  return sim::run_browsing_experiment(p).response_time.mean();
}

void panel(double alpha) {
  TextTable table({"F", "document", "section", "subsection", "paragraph"});
  for (double f = 0.1; f <= 1.001; f += 0.1) {
    const double base = mean_response(alpha, f, doc::Lod::kDocument);
    std::vector<std::string> row = {TextTable::fmt(f, 1)};
    for (const auto lod : {doc::Lod::kDocument, doc::Lod::kSection,
                           doc::Lod::kSubsection, doc::Lod::kParagraph}) {
      const double t = mean_response(alpha, f, lod);
      row.push_back(TextTable::fmt(base / t, 3));
    }
    table.add_row(std::move(row));
  }
  std::string caption = "Figure 6, Caching (I = 1, alpha = ";
  caption += TextTable::fmt(alpha, 1) + ") — improvement over document LOD";
  bench::print_table(caption, table);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Figure 6 — multi-resolution improvement by LOD (Experiment #3)",
      "Improvement = RT(document LOD) / RT(LOD); > 1 means faster than\n"
      "conventional sequential transmission. F = 0 is skipped (no download\n"
      "at all — the paper calls that point artificial).");
  panel(0.1);
  panel(0.3);
  panel(0.5);
  return 0;
}

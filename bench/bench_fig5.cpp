// Figure 5 (Experiment #2): the effect of early termination of irrelevant
// documents. First row: vary the irrelevant fraction I with F = 0.5. Second
// row: vary the required content F with I = 0.5. Document LOD, gamma = 1.5.
//
// Expected shape (paper §5.2): response time decreases linearly in I (it is a
// weighted average of relevant and irrelevant documents); versus F the rise
// is slow at first (a few clear-text packets carry F), then jumps (the client
// needs reconstruction, i.e. M intact packets), then flattens toward the
// full-download time.
#include "bench_common.hpp"
#include "sim/experiment.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
using mobiweb::TextTable;

namespace {

sim::ExperimentParams base(double alpha, bool caching) {
  sim::ExperimentParams p;
  p.alpha = alpha;
  p.caching = caching;
  p.lod = mobiweb::doc::Lod::kDocument;
  p.repetitions = bench::repetitions();
  p.documents_per_session = bench::documents_per_session();
  return p;
}

void panel_vary_i(const char* name, bool caching) {
  TextTable table({"I", "alpha=0.1", "alpha=0.2", "alpha=0.3", "alpha=0.4",
                   "alpha=0.5"});
  for (double i = 0.0; i <= 1.001; i += 0.1) {
    std::vector<std::string> row = {TextTable::fmt(i, 1)};
    for (const double alpha : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      auto p = base(alpha, caching);
      p.irrelevant_fraction = i;
      p.relevance_threshold = 0.5;
      p.seed = 2000 + static_cast<std::uint64_t>(i * 100);
      const auto r = sim::run_browsing_experiment(p);
      std::string cell = TextTable::fmt(r.response_time.mean(), 2);
      if (r.gave_up_fraction > 0.0) cell += "*";
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(name, table);
}

void panel_vary_f(const char* name, bool caching) {
  TextTable table({"F", "alpha=0.1", "alpha=0.2", "alpha=0.3", "alpha=0.4",
                   "alpha=0.5"});
  for (double f = 0.0; f <= 1.001; f += 0.1) {
    std::vector<std::string> row = {TextTable::fmt(f, 1)};
    for (const double alpha : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      auto p = base(alpha, caching);
      p.irrelevant_fraction = 0.5;
      p.relevance_threshold = f;
      p.seed = 3000 + static_cast<std::uint64_t>(f * 100);
      const auto r = sim::run_browsing_experiment(p);
      std::string cell = TextTable::fmt(r.response_time.mean(), 2);
      if (r.gave_up_fraction > 0.0) cell += "*";
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(name, table);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Figure 5 — impact of varying I and F (Experiment #2)",
      "Mean response time (s) per document at document LOD, gamma = 1.5.");
  panel_vary_i("Figure 5a: NoCaching, vary I (F = 0.5)", false);
  panel_vary_i("Figure 5b: Caching,   vary I (F = 0.5)", true);
  panel_vary_f("Figure 5c: NoCaching, vary F (I = 0.5)", false);
  panel_vary_f("Figure 5d: Caching,   vary F (I = 0.5)", true);
  return 0;
}

// Figure 3: "Redundancy ratio versus failure" — gamma = N/M against the
// failure probability alpha, at S = 95% and 99%, for M = 10 / 50 / 100
// (the paper plots M = 50 and shows the M-variation band).
#include "analysis/negbinom.hpp"
#include "bench_common.hpp"

using mobiweb::TextTable;
namespace analysis = mobiweb::analysis;
namespace bench = mobiweb::bench;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Figure 3 — redundancy ratio gamma = N/M vs failure probability alpha",
      "Expected shape: gamma grows from ~1.2 at alpha=0.1 to ~2.3-3 at\n"
      "alpha=0.5; the M=10..100 band is narrow, so gamma can be treated as a\n"
      "function of alpha alone (the paper's practical guideline).");

  TextTable table({"alpha", "S=95% M=10", "S=95% M=50", "S=95% M=100",
                   "S=99% M=10", "S=99% M=50", "S=99% M=100"});
  for (double alpha = 0.05; alpha <= 0.501; alpha += 0.05) {
    std::vector<std::string> row = {TextTable::fmt(alpha, 2)};
    for (const double s : {0.95, 0.99}) {
      for (const int m : {10, 50, 100}) {
        row.push_back(TextTable::fmt(analysis::redundancy_ratio(m, alpha, s), 3));
      }
    }
    // Reorder: the loop above builds S-major, matching the header.
    table.add_row(std::move(row));
  }
  bench::print_table("Figure 3", table);

  std::printf(
      "\nPaper check: at alpha=0.1 the default gamma=1.5 comfortably exceeds\n"
      "the 95%% requirement (%.3f); at alpha=0.5 gamma must reach %.3f.\n",
      analysis::redundancy_ratio(50, 0.1, 0.95),
      analysis::redundancy_ratio(50, 0.5, 0.95));
  return 0;
}

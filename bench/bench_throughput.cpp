// Throughput experiment — the measurement the paper lists as ongoing work:
// "we are also conducting experiments to measure the throughput of our system
// in browsing web documents when compared with traditional web browsing
// paradigm."
//
// Metric: documents finished (fully loaded or confidently discarded) per hour
// of airtime, over a mixed session (I = 0.5, F = 0.5), comparing:
//   conventional  — document order, no redundancy, full-reload recovery
//   ft-only       — document order, IDA gamma=1.5 + cache
//   multires-only — paragraph order, no redundancy, full-reload recovery
//   full system   — paragraph order, IDA gamma=1.5 + cache
#include "bench_common.hpp"
#include "sim/experiment.hpp"

namespace bench = mobiweb::bench;
namespace sim = mobiweb::sim;
namespace doc = mobiweb::doc;
using mobiweb::TextTable;

namespace {

double docs_per_hour(double alpha, doc::Lod lod, double gamma, bool caching) {
  sim::ExperimentParams p;
  p.alpha = alpha;
  p.lod = lod;
  p.gamma = gamma;
  p.caching = caching;
  p.irrelevant_fraction = 0.5;
  p.relevance_threshold = 0.5;
  p.repetitions = bench::repetitions();
  p.documents_per_session = bench::documents_per_session();
  p.max_rounds = 200;
  p.seed = 6100 + static_cast<std::uint64_t>(alpha * 100) +
           static_cast<std::uint64_t>(lod);
  const auto r = sim::run_browsing_experiment(p);
  return 3600.0 / r.response_time.mean();
}

// "mobiweb-bench/1" machine-readable run over a reduced alpha grid; the
// docs-per-hour keys end in `_per_hour` so bench_diff treats them as
// higher-is-better.
int emit_json(const std::string& path) {
  bench::JsonReport report("throughput");
  report.meta("irrelevant_fraction", 0.5);
  report.meta("relevance_threshold", 0.5);
  report.meta("repetitions", static_cast<double>(bench::repetitions()));
  for (const double alpha : {0.1, 0.3, 0.5}) {
    const std::string key = "alpha_" + TextTable::fmt(alpha, 1);
    report.metric(key + ".conventional.docs_per_hour",
                  docs_per_hour(alpha, doc::Lod::kDocument, 1.0, false));
    report.metric(key + ".full_system.docs_per_hour",
                  docs_per_hour(alpha, doc::Lod::kParagraph, 1.5, true));
  }
  return bench::emit_json(report.str(), path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"json"});
  if (const auto path = bench::json_request(argc, argv)) {
    return emit_json(*path);
  }
  bench::print_header(
      "Throughput — documents browsed per hour vs traditional browsing",
      "Mixed session (I = 0.5, F = 0.5), 19.2 kbps. 'conventional' is plain\n"
      "sequential transmission with whole-document reloads on corruption.");

  TextTable table({"alpha", "conventional", "ft-only", "multires-only",
                   "full system", "speedup"});
  for (const double alpha : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    const double conventional =
        docs_per_hour(alpha, doc::Lod::kDocument, 1.0, false);
    const double ft_only = docs_per_hour(alpha, doc::Lod::kDocument, 1.5, true);
    const double mr_only = docs_per_hour(alpha, doc::Lod::kParagraph, 1.0, false);
    const double full = docs_per_hour(alpha, doc::Lod::kParagraph, 1.5, true);
    table.add_row({TextTable::fmt(alpha, 2), TextTable::fmt(conventional, 1),
                   TextTable::fmt(ft_only, 1), TextTable::fmt(mr_only, 1),
                   TextTable::fmt(full, 1),
                   TextTable::fmt(full / conventional, 2) + "x"});
  }
  bench::print_table("Documents per hour of airtime", table);
  return 0;
}

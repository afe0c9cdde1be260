// Figure 4 (Experiment #1): mean response time vs redundancy ratio gamma,
// for Caching vs NoCaching and I = 0 vs I = 0.5, at alpha = 0.1..0.5.
// All documents are transmitted at the document LOD (conventional order).
//
// Expected shape (paper §5.1): caching dominates, dramatically so at high
// alpha; gamma = 1.5 suffices for small/moderate alpha or whenever caching is
// on; NoCaching at alpha > 0.3 needs gamma ~ 2. NoCaching cells at low gamma
// and high alpha explode (the paper's curves run off its 20 s axis); those
// transfers hit the max_rounds cap and are marked with '*'.
// --json[=PATH] runs a reduced gamma x alpha grid for Caching and NoCaching
// and emits mean response times plus per-condition aggregated round/session
// histograms (one metrics registry per condition).
#include <string>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace bench = mobiweb::bench;
namespace obs = mobiweb::obs;
namespace sim = mobiweb::sim;
using mobiweb::TextTable;

namespace {

void panel(const char* name, bool caching, double irrelevant_fraction) {
  TextTable table({"gamma", "alpha=0.1", "alpha=0.2", "alpha=0.3", "alpha=0.4",
                   "alpha=0.5"});
  for (double gamma = 1.1; gamma <= 2.501; gamma += 0.1) {
    std::vector<std::string> row = {TextTable::fmt(gamma, 1)};
    for (const double alpha : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      sim::ExperimentParams p;
      p.gamma = gamma;
      p.alpha = alpha;
      p.caching = caching;
      p.irrelevant_fraction = irrelevant_fraction;
      p.relevance_threshold = 0.5;
      p.lod = mobiweb::doc::Lod::kDocument;
      p.repetitions = bench::repetitions();
      p.documents_per_session = bench::documents_per_session();
      p.seed = 1000 + static_cast<std::uint64_t>(gamma * 10);
      const auto r = sim::run_browsing_experiment(p);
      std::string cell = TextTable::fmt(r.response_time.mean(), 2);
      if (r.gave_up_fraction > 0.0) cell += "*";
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(name, table);
}

int run_json_mode(const std::string& path) {
  std::string json = "{\n  \"schema\": \"mobiweb-bench/1\",\n  \"bench\": \"fig4\",\n  \"conditions\": [\n";
  bool first = true;
  for (const bool caching : {false, true}) {
    for (const double gamma : {1.2, 1.5, 2.0}) {
      for (const double alpha : {0.1, 0.3, 0.5}) {
        sim::ExperimentParams p;
        p.gamma = gamma;
        p.alpha = alpha;
        p.caching = caching;
        p.irrelevant_fraction = 0.5;
        p.relevance_threshold = 0.5;
        p.lod = mobiweb::doc::Lod::kDocument;
        p.repetitions = bench::fast_mode() ? 2 : 5;
        p.documents_per_session = bench::fast_mode() ? 20 : 50;
        p.seed = 1000 + static_cast<std::uint64_t>(gamma * 10);
        obs::MetricsRegistry registry;
        p.metrics = &registry;
        const auto r = sim::run_browsing_experiment(p);
        if (!first) json += ",\n";
        json += "    {\"caching\": " + std::string(caching ? "true" : "false") +
                ", \"gamma\": " + TextTable::fmt(gamma, 1) +
                ", \"alpha\": " + TextTable::fmt(alpha, 1) +
                ",\n     \"mean_response_time_s\": " +
                std::to_string(r.response_time.mean()) +
                ", \"stall_fraction\": " + std::to_string(r.stall_fraction) +
                ", \"gave_up_fraction\": " + std::to_string(r.gave_up_fraction) +
                ",\n     \"metrics\": " + registry.to_json() + "}";
        first = false;
      }
    }
  }
  json += "\n  ]\n}\n";
  return bench::emit_json(json, path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"json"});
  if (const auto path = bench::json_request(argc, argv)) {
    return run_json_mode(*path);
  }
  bench::print_header(
      "Figure 4 — Caching vs NoCaching across redundancy ratios (Experiment #1)",
      "Mean response time (s) per document; '*' = some transfers hit the\n"
      "retransmission cap (off the paper's 20 s axis).");
  panel("Figure 4a: NoCaching, I = 0 (all documents relevant)", false, 0.0);
  panel("Figure 4b: Caching,   I = 0 (all documents relevant)", true, 0.0);
  panel("Figure 4c: NoCaching, I = 0.5 (F = 0.5)", false, 0.5);
  panel("Figure 4d: Caching,   I = 0.5 (F = 0.5)", true, 0.5);
  return 0;
}

// Table 2: the default simulation parameter settings, as consumed by the
// experiment runner (printed from the live defaults, not hard-coded prose, so
// any drift between code and documentation shows up here).
//
// --json[=PATH] emits the defaults as JSON and, to show what the settings
// produce, runs a short metrics-instrumented browsing experiment and includes
// the aggregated per-round/per-session histograms.
#include <string>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace bench = mobiweb::bench;
namespace obs = mobiweb::obs;
namespace sim = mobiweb::sim;

namespace {

int run_json_mode(const std::string& path) {
  sim::ExperimentParams params;
  std::string json = "{\n  \"schema\": \"mobiweb-bench/1\",\n  \"bench\": \"table2\",\n  \"parameters\": {\n";
  json += "    \"packet_size\": " + std::to_string(params.document.packet_size) + ",\n";
  json += "    \"doc_size\": " + std::to_string(params.document.doc_size) + ",\n";
  json += "    \"overhead\": " + std::to_string(params.overhead) + ",\n";
  json += "    \"m\": " + std::to_string(params.m()) + ",\n";
  json += "    \"n\": " + std::to_string(params.n()) + ",\n";
  json += "    \"bandwidth_bps\": " + std::to_string(params.bandwidth_bps) + ",\n";
  json += "    \"gamma\": " + std::to_string(params.gamma) + ",\n";
  json += "    \"alpha\": " + std::to_string(params.alpha) + ",\n";
  json += "    \"irrelevant_fraction\": " + std::to_string(params.irrelevant_fraction) + ",\n";
  json += "    \"relevance_threshold\": " + std::to_string(params.relevance_threshold) + ",\n";
  json += "    \"caching\": " + std::string(params.caching ? "true" : "false") + ",\n";
  json += "    \"documents_per_session\": " + std::to_string(params.documents_per_session) + ",\n";
  json += "    \"repetitions\": " + std::to_string(params.repetitions) + ",\n";
  json += "    \"time_per_packet_s\": " + std::to_string(params.time_per_packet()) + "\n";
  json += "  },\n";

  // What the defaults yield: a short instrumented run aggregating every
  // document transfer into the metrics registry.
  obs::MetricsRegistry registry;
  params.repetitions = bench::fast_mode() ? 2 : 5;
  params.documents_per_session = bench::fast_mode() ? 20 : 50;
  params.metrics = &registry;
  const auto result = sim::run_browsing_experiment(params);
  json += "  \"sample_run\": {\n";
  json += "    \"repetitions\": " + std::to_string(params.repetitions) + ",\n";
  json += "    \"documents_per_session\": " +
          std::to_string(params.documents_per_session) + ",\n";
  json += "    \"mean_response_time_s\": " +
          std::to_string(result.response_time.mean()) + ",\n";
  json += "    \"stall_fraction\": " + std::to_string(result.stall_fraction) + ",\n";
  json += "    \"gave_up_fraction\": " + std::to_string(result.gave_up_fraction) + ",\n";
  json += "    \"metrics\": " + registry.to_json() + "\n  }\n}\n";
  return bench::emit_json(json, path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"json"});
  if (const auto path = bench::json_request(argc, argv)) {
    return run_json_mode(*path);
  }
  bench::print_header("Table 2 — parameter settings",
                      "Defaults of sim::ExperimentParams (paper Table 2).");
  const mobiweb::sim::ExperimentParams params;
  std::printf("\n%s", mobiweb::sim::describe_parameters(params).c_str());
  std::printf("\nDerived: time per cooked packet = %.4f s; document at document\n"
              "LOD needs M = %d intact packets = %.2f s minimum.\n",
              params.time_per_packet(), params.m(),
              params.m() * params.time_per_packet());
  return 0;
}

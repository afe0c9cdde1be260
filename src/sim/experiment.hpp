// Browsing-session experiment runner (paper §5).
//
// "Each simulated browsing session will visit 200 random documents, with a
// certain percentage of documents, I, defined to be irrelevant. Each
// irrelevant document will be discovered to be irrelevant by a client after a
// total information content of F has been received ... The mean response time
// taken to visit a document in a session is measured. The same experiment is
// repeated 50 times and the average of the 50 mean response times is taken."
#pragma once

#include <cstdint>
#include <string>

#include "channel/error_model.hpp"
#include "doc/lod.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/synthetic.hpp"
#include "sim/transfer.hpp"
#include "stats/describe.hpp"

namespace mobiweb::sim {

// Defaults are the paper's Table 2.
struct ExperimentParams {
  SyntheticConfig document;            // s_p=256, s_D=10240, 5x2x2, delta=3
  std::size_t overhead = 4;            // O: CRC + sequence number
  double bandwidth_bps = 19200.0;      // B
  double gamma = 1.5;                  // N/M
  double alpha = 0.1;                  // per-packet corruption probability
  double irrelevant_fraction = 0.5;    // I
  double relevance_threshold = 0.5;    // F
  bool caching = true;
  doc::Lod lod = doc::Lod::kDocument;
  int documents_per_session = 200;
  int repetitions = 50;
  int max_rounds = 25;
  std::uint64_t seed = 42;
  // Optional burst/error model replacing the iid `alpha` draw. Cloned once
  // per repetition and reset() between documents, so one document's burst
  // state cannot leak into the next (each document visit is an independent
  // link in the paper's setup).
  const channel::ErrorModel* error_model = nullptr;
  // Weak-connectivity fault injection. outage_duty > 0 drives a Markov on/off
  // link (MarkovOutageModel::with_duty_cycle) whose down-state swallows frames
  // outright: `outage_duty` is the long-run fraction of time the link is down
  // and `mean_outage_s` the mean length of one fade. Like the error model, the
  // outage process is reset between documents (independent link per visit).
  double outage_duty = 0.0;     // 0 = link always up
  double mean_outage_s = 5.0;   // mean down-dwell when outage_duty > 0
  // iid drop probability for each retransmission request on the back channel
  // (each drop costs one extra request_delay; see sim::TransferConfig).
  double feedback_loss = 0.0;
  // Optional metrics sink: every document transfer is traced and aggregated
  // here (see obs::aggregate_trace for the series produced).
  obs::MetricsRegistry* metrics = nullptr;

  [[nodiscard]] int m() const { return document.raw_packets(); }
  [[nodiscard]] int n() const;  // ida::cooked_count(m, gamma)
  [[nodiscard]] double time_per_packet() const {
    return static_cast<double>(document.packet_size + overhead) * 8.0 / bandwidth_bps;
  }
};

struct ExperimentResult {
  stats::Moments response_time;  // over the per-session means (seconds)
  double stall_fraction = 0.0;   // fraction of documents that stalled >= once
  double gave_up_fraction = 0.0; // fraction that hit max_rounds
  long total_packets = 0;
};

// Runs `repetitions` sessions of `documents_per_session` documents each;
// returns statistics over the per-session mean response times.
ExperimentResult run_browsing_experiment(const ExperimentParams& params);

// Renders Table 2 (the parameter settings) for the given params.
std::string describe_parameters(const ExperimentParams& params);

}  // namespace mobiweb::sim

// Ablation: weak-connectivity outages — resilient IDA transfer (Caching and
// NoCaching) vs selective-repeat ARQ at equal outage duty-cycle.
//
// Why it matters: the paper's weakly-connected scenario is not just random
// per-packet corruption but whole link fades. A Markov on/off outage process
// swallows frames outright while the link is down and the back channel drops
// retransmission requests, so the comparison probes end-to-end resilience:
// how often each scheme still completes, how often it degrades into a
// partial document, and how many frames the recovery costs. ARQ runs with a
// reliable back channel (a generous baseline); the resilient driver must
// push its requests through the same lossy feedback path it is measuring.
//
// Arguments: --duty=D1,D2,...   outage duty-cycles to sweep (default 0,0.2,0.4)
//            --feedback-loss=P  back-channel drop probability (default 0.3)
//            --json[=PATH]      machine-readable run ("mobiweb-bench/1" schema)
//            --trace[=PATH]     one traced session per duty value, exported as
//                               Chrome/Perfetto trace-event JSON (load the file
//                               at https://ui.perfetto.dev)
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "channel/channel.hpp"
#include "stats/describe.hpp"
#include "channel/error_model.hpp"
#include "channel/outage.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "obs/export.hpp"
#include "transmit/arq.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"
#include "xml/parser.hpp"

namespace bench = mobiweb::bench;
namespace channel = mobiweb::channel;
namespace doc = mobiweb::doc;
namespace transmit = mobiweb::transmit;
namespace xml = mobiweb::xml;
using mobiweb::TextTable;

namespace {

constexpr double kAlpha = 0.1;        // per-packet corruption while link is up
constexpr double kMeanOutageS = 1.0;  // mean length of one fade
constexpr double kGamma = 1.5;
constexpr std::size_t kPacketSize = 64;

doc::LinearDocument make_document() {
  std::string src = "<paper>";
  for (int p = 0; p < 12; ++p) {
    src += "<para>";
    for (int w = 0; w < 40; ++w) {
      src += "word" + std::to_string(p) + "x" + std::to_string(w) + " ";
    }
    src += "</para>";
  }
  src += "</paper>";
  doc::ScGenerator gen;
  const auto sc = gen.generate(xml::parse(src));
  return doc::linearize(sc, {.lod = doc::Lod::kParagraph,
                             .rank = doc::RankBy::kIc});
}

channel::WirelessChannel make_channel(double duty, double feedback_loss,
                                      std::uint64_t seed) {
  channel::ChannelConfig cc;
  cc.seed = seed;
  cc.feedback_loss_rate = feedback_loss;
  channel::WirelessChannel ch(
      cc, std::make_unique<channel::IidErrorModel>(kAlpha));
  if (duty > 0.0) {
    ch.set_outage(std::make_unique<channel::MarkovOutageModel>(
        channel::MarkovOutageModel::with_duty_cycle(duty, kMeanOutageS)));
  }
  return ch;
}

struct Cell {
  double completed = 0.0;   // fraction that fully reconstructed
  double degraded = 0.0;    // fraction that ended with a partial document
  double gave_up = 0.0;     // fraction that ended empty-handed
  double mean_frames = 0.0; // forward frames per document
  double mean_time = 0.0;   // response time per document (s)
  double mean_content = 0.0;
  std::vector<double> times;            // per-document response times
  mobiweb::stats::TailSummary tails;    // filled by normalize()
};

void record(Cell& cell, const transmit::SessionResult& r, bool has_partial) {
  switch (r.status) {
    case transmit::SessionStatus::kCompleted: cell.completed += 1.0; break;
    case transmit::SessionStatus::kAbortedIrrelevant: break;  // not used here
    case transmit::SessionStatus::kDegraded:
      (has_partial ? cell.degraded : cell.gave_up) += 1.0;
      break;
    case transmit::SessionStatus::kGaveUp:
      (has_partial ? cell.degraded : cell.gave_up) += 1.0;
      break;
  }
  cell.mean_frames += static_cast<double>(r.frames_sent);
  cell.mean_time += r.response_time;
  cell.mean_content += r.content_received;
  cell.times.push_back(r.response_time);
}

void normalize(Cell& cell, int docs) {
  const double d = static_cast<double>(docs);
  cell.completed /= d;
  cell.degraded /= d;
  cell.gave_up /= d;
  cell.mean_frames /= d;
  cell.mean_time /= d;
  cell.mean_content /= d;
  cell.tails = mobiweb::stats::summarize_tails(cell.times);
}

Cell run_resilient(const doc::LinearDocument& linear, bool caching,
                   double duty, double feedback_loss, int docs) {
  Cell cell;
  for (int d = 0; d < docs; ++d) {
    transmit::TransmitterConfig tc;
    tc.packet_size = kPacketSize;
    tc.gamma = kGamma;
    tc.doc_id = static_cast<std::uint16_t>(1 + (d % 60000));
    transmit::DocumentTransmitter tx(linear, tc);
    transmit::ReceiverConfig rc;
    rc.doc_id = tc.doc_id;
    rc.m = tx.m();
    rc.n = tx.n();
    rc.packet_size = kPacketSize;
    rc.payload_size = tx.payload_size();
    rc.caching = caching;
    transmit::ClientReceiver rx(rc, tx.document().segments);
    auto ch = make_channel(duty, feedback_loss,
                           0x007a6eull + static_cast<std::uint64_t>(d));
    transmit::ResilientConfig cfg;
    cfg.max_rounds = 50;
    cfg.retry.retry_budget = 12;
    cfg.retry.initial_timeout_s = 0.25;
    transmit::ResilientSession session(tx, rx, ch, cfg);
    const transmit::ResilientResult r = session.run();
    record(cell, r.session, !r.partial.empty());
  }
  normalize(cell, docs);
  return cell;
}

Cell run_arq(const doc::LinearDocument& linear, double duty,
             double feedback_loss, int docs) {
  Cell cell;
  for (int d = 0; d < docs; ++d) {
    transmit::TransmitterConfig tc;
    tc.packet_size = kPacketSize;
    tc.gamma = 1.0;  // no redundancy: pure selective repeat
    tc.doc_id = static_cast<std::uint16_t>(1 + (d % 60000));
    transmit::DocumentTransmitter tx(linear, tc);
    transmit::ReceiverConfig rc;
    rc.doc_id = tc.doc_id;
    rc.m = tx.m();
    rc.n = tx.n();
    rc.packet_size = kPacketSize;
    rc.payload_size = tx.payload_size();
    rc.caching = true;  // ARQ is inherently caching
    transmit::ClientReceiver rx(rc, tx.document().segments);
    auto ch = make_channel(duty, feedback_loss,
                           0xa59ull + static_cast<std::uint64_t>(d));
    transmit::ArqConfig cfg;
    cfg.max_rounds = 50;
    transmit::ArqSession session(tx, rx, ch, cfg);
    const transmit::SessionResult r = session.run();
    record(cell, r, false);
  }
  normalize(cell, docs);
  return cell;
}

// One fully-traced resilient transfer (caching variant) at the given duty
// cycle, for the --trace Perfetto export. The returned trace owns the full
// per-frame event log.
std::unique_ptr<mobiweb::obs::SessionTrace> run_one_traced(
    const doc::LinearDocument& linear, double duty, double feedback_loss) {
  auto trace = std::make_unique<mobiweb::obs::SessionTrace>(
      "resilient+caching duty=" + TextTable::fmt(duty, 2));
  trace->capture_events(true);
  transmit::TransmitterConfig tc;
  tc.packet_size = kPacketSize;
  tc.gamma = kGamma;
  tc.doc_id = 1;
  transmit::DocumentTransmitter tx(linear, tc);
  transmit::ReceiverConfig rc;
  rc.doc_id = tc.doc_id;
  rc.m = tx.m();
  rc.n = tx.n();
  rc.packet_size = kPacketSize;
  rc.payload_size = tx.payload_size();
  rc.caching = true;
  transmit::ClientReceiver rx(rc, tx.document().segments);
  auto ch = make_channel(duty, feedback_loss, 0x007a6eull);
  transmit::ResilientConfig cfg;
  cfg.max_rounds = 50;
  cfg.retry.retry_budget = 12;
  cfg.retry.initial_timeout_s = 0.25;
  cfg.trace = trace.get();
  transmit::ResilientSession session(tx, rx, ch, cfg);
  (void)session.run();
  return trace;
}

int run_trace_mode(const doc::LinearDocument& linear,
                   const std::vector<double>& duties, double feedback_loss,
                   const std::string& path) {
  std::vector<std::unique_ptr<mobiweb::obs::SessionTrace>> traces;
  traces.reserve(duties.size());
  for (const double duty : duties) {
    traces.push_back(run_one_traced(linear, duty, feedback_loss));
  }
  std::vector<const mobiweb::obs::SessionTrace*> ptrs;
  ptrs.reserve(traces.size());
  for (const auto& t : traces) ptrs.push_back(t.get());
  return bench::emit_json(mobiweb::obs::timeline_json(ptrs), path);
}

std::string cell_json(const char* variant, double duty, const Cell& c) {
  std::string json = "    {\"variant\": \"";
  json += variant;
  json += "\", \"duty\": " + TextTable::fmt(duty, 2);
  json += ", \"completed\": " + TextTable::fmt(c.completed, 4);
  json += ", \"degraded\": " + TextTable::fmt(c.degraded, 4);
  json += ", \"gave_up\": " + TextTable::fmt(c.gave_up, 4);
  json += ", \"mean_frames\": " + TextTable::fmt(c.mean_frames, 2);
  json += ", \"mean_time_s\": " + TextTable::fmt(c.mean_time, 4);
  json += ", \"p99_time_s\": " + TextTable::fmt(c.tails.p99, 4);
  json += ", \"ci95_time_s\": " + TextTable::fmt(c.tails.ci95, 4);
  json += ", \"mean_content\": " + TextTable::fmt(c.mean_content, 4) + "}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"duty", "feedback-loss", "json", "trace"});
  const std::vector<double> duties =
      bench::arg_double_list(argc, argv, "duty", {0.0, 0.2, 0.4});
  const double feedback_loss =
      bench::arg_double(argc, argv, "feedback-loss", 0.3);
  const int docs = bench::fast_mode() ? 20 : 100;
  const doc::LinearDocument linear = make_document();

  if (const auto trace_path = bench::trace_request(argc, argv)) {
    return run_trace_mode(linear, duties, feedback_loss, *trace_path);
  }

  if (const auto json_path = bench::json_request(argc, argv)) {
    bench::JsonReport report("outage");
    report.meta("alpha", kAlpha);
    report.meta("feedback_loss", feedback_loss);
    report.meta("mean_outage_s", kMeanOutageS);
    report.meta("documents", static_cast<double>(docs));
    std::string cells = "[\n";
    bool first = true;
    for (const double duty : duties) {
      const Cell caching = run_resilient(linear, true, duty, feedback_loss, docs);
      const Cell nocache = run_resilient(linear, false, duty, feedback_loss, docs);
      const Cell arq = run_arq(linear, duty, feedback_loss, docs);
      if (!first) cells += ",\n";
      cells += cell_json("resilient+caching", duty, caching) + ",\n";
      cells += cell_json("resilient+nocaching", duty, nocache) + ",\n";
      cells += cell_json("arq", duty, arq);
      first = false;
      const std::string key = "caching.duty_" + TextTable::fmt(duty, 2);
      report.metric(key + ".completed", caching.completed);
      report.metric(key + ".mean_content", caching.mean_content);
      report.metric(key + ".mean_time_s", caching.mean_time);
      report.metric(key + ".mean_frames", caching.mean_frames);
      // Tail keys: _p50/_p95/_p99 strip back to *_s (lower-is-better, gated);
      // _ci95 is informational context for the mean.
      report.metric(key + ".time_s_p50", caching.tails.p50);
      report.metric(key + ".time_s_p95", caching.tails.p95);
      report.metric(key + ".time_s_p99", caching.tails.p99);
      report.metric(key + ".time_s_ci95", caching.tails.ci95);
    }
    cells += "\n  ]";
    report.raw("cells", cells);
    return bench::emit_json(report.str(), *json_path);
  }

  bench::print_header(
      "Ablation — link outages: resilient IDA (caching / no caching) vs ARQ",
      "Markov on/off fades at equal duty-cycle swallow frames; the back\n"
      "channel drops retransmission requests (ARQ keeps reliable feedback).\n"
      "Expected: caching + redundancy completes most transfers and degrades\n"
      "gracefully; NoCaching wastes every interrupted round; ARQ needs many\n"
      "more recovery rounds once fades lengthen.");

  TextTable table({"variant", "duty", "completed", "degraded", "gave up",
                   "mean frames", "mean time (s)", "p99 time (s)",
                   "mean content"});
  for (const double duty : duties) {
    const Cell caching = run_resilient(linear, true, duty, feedback_loss, docs);
    const Cell nocache = run_resilient(linear, false, duty, feedback_loss, docs);
    const Cell arq = run_arq(linear, duty, feedback_loss, docs);
    const auto row = [&table, duty](const char* name, const Cell& c) {
      table.add_row({name, TextTable::fmt(duty, 2), TextTable::fmt(c.completed, 3),
                     TextTable::fmt(c.degraded, 3), TextTable::fmt(c.gave_up, 3),
                     TextTable::fmt(c.mean_frames, 1), TextTable::fmt(c.mean_time, 3),
                     TextTable::fmt(c.tails.p99, 3),
                     TextTable::fmt(c.mean_content, 3)});
    };
    row("resilient+caching", caching);
    row("resilient+nocaching", nocache);
    row("arq", arq);
  }
  bench::print_table(
      "feedback loss = " + TextTable::fmt(feedback_loss, 2), table);
  return 0;
}

#include "sim/experiment.hpp"

#include <cmath>
#include <sstream>

#include "channel/outage.hpp"
#include "ida/ida.hpp"
#include "util/check.hpp"

namespace mobiweb::sim {

int ExperimentParams::n() const {
  return static_cast<int>(ida::cooked_count(static_cast<std::size_t>(m()), gamma));
}

ExperimentResult run_browsing_experiment(const ExperimentParams& params) {
  MOBIWEB_CHECK_MSG(params.repetitions >= 1, "experiment: repetitions >= 1");
  MOBIWEB_CHECK_MSG(params.documents_per_session >= 1, "experiment: documents >= 1");
  MOBIWEB_CHECK_MSG(params.irrelevant_fraction >= 0.0 &&
                        params.irrelevant_fraction <= 1.0,
                    "experiment: I in [0,1]");
  MOBIWEB_CHECK_MSG(params.outage_duty >= 0.0 && params.outage_duty < 1.0,
                    "experiment: outage_duty in [0,1)");
  MOBIWEB_CHECK_MSG(params.outage_duty == 0.0 || params.mean_outage_s > 0.0,
                    "experiment: mean_outage_s > 0 when outages enabled");
  MOBIWEB_CHECK_MSG(params.feedback_loss >= 0.0 && params.feedback_loss < 1.0,
                    "experiment: feedback_loss in [0,1)");

  TransferConfig transfer;
  transfer.m = params.m();
  transfer.n = params.n();
  transfer.alpha = params.alpha;
  transfer.caching = params.caching;
  transfer.time_per_packet = params.time_per_packet();
  transfer.max_rounds = params.max_rounds;

  // Exact irrelevant count per session (lower variance than per-document
  // Bernoulli; documents are independent so position is irrelevant).
  const int irrelevant_docs = static_cast<int>(std::lround(
      params.irrelevant_fraction * static_cast<double>(params.documents_per_session)));

  Rng master(params.seed);
  ExperimentResult out;
  long stalled = 0;
  long gave_up = 0;
  const long total_docs = static_cast<long>(params.repetitions) *
                          static_cast<long>(params.documents_per_session);

  // One reusable trace feeding the registry; cleared per document.
  obs::SessionTrace trace;
  if (params.metrics != nullptr) transfer.trace = &trace;

  for (int rep = 0; rep < params.repetitions; ++rep) {
    Rng rng = master.fork();
    // Clone per repetition: repetitions must be independent experiments even
    // for stateful (burst) models.
    std::unique_ptr<channel::ErrorModel> model;
    if (params.error_model != nullptr) model = params.error_model->clone();
    std::unique_ptr<channel::MarkovOutageModel> outage;
    if (params.outage_duty > 0.0) {
      outage = std::make_unique<channel::MarkovOutageModel>(
          channel::MarkovOutageModel::with_duty_cycle(params.outage_duty,
                                                      params.mean_outage_s));
      transfer.link_up = [&outage, &rng](double now) {
        return outage->link_up(now, rng);
      };
    }
    if (params.feedback_loss > 0.0) {
      transfer.feedback_lost = [&rng, &params] {
        return rng.next_bernoulli(params.feedback_loss);
      };
    }
    stats::Moments per_doc;
    for (int d = 0; d < params.documents_per_session; ++d) {
      const SyntheticDocument document = generate_document(params.document, rng);
      const std::vector<double> profile = packet_content_profile(document, params.lod);
      transfer.relevance_threshold =
          (d < irrelevant_docs) ? params.relevance_threshold : -1.0;
      // Each document visit is an independent link: a fade in progress at the
      // end of one document must not bleed into the next (the analytic clock
      // also restarts at 0 per document, so the outage state must too).
      if (outage != nullptr) outage->reset();
      TransferResult r;
      if (model != nullptr) {
        // Same isolation for burst-error state.
        model->reset();
        r = simulate_transfer(profile, transfer,
                              [&] { return model->next_corrupted(rng); });
      } else {
        r = simulate_transfer(profile, transfer, rng);
      }
      per_doc.add(r.time);
      out.total_packets += r.packets;
      if (r.rounds > 1) ++stalled;
      if (r.gave_up) ++gave_up;
      if (params.metrics != nullptr) {
        obs::aggregate_trace(trace, *params.metrics);
        trace.clear();
      }
    }
    out.response_time.add(per_doc.mean());
  }

  out.stall_fraction = static_cast<double>(stalled) / static_cast<double>(total_docs);
  out.gave_up_fraction =
      static_cast<double>(gave_up) / static_cast<double>(total_docs);
  return out;
}

std::string describe_parameters(const ExperimentParams& p) {
  std::ostringstream os;
  os << "s_p (raw size per packet)        = " << p.document.packet_size << " bytes\n"
     << "s_D (size per document)          = " << p.document.doc_size << " bytes\n"
     << "O (overhead: CRC + seq number)   = " << p.overhead << " bytes\n"
     << "M (number of raw packets)        = " << p.m() << "\n"
     << "N (number of cooked packets)     = " << p.n() << "\n"
     << "B (bandwidth)                    = " << p.bandwidth_bps / 1000.0 << " kbps\n"
     << "delta (skew in info content)     = " << p.document.skew << "\n"
     << "I (irrelevant documents)         = " << p.irrelevant_fraction * 100.0 << "%\n"
     << "F (content to judge relevance)   = " << p.relevance_threshold << "\n"
     << "alpha (corrupted-packet prob.)   = " << p.alpha << "\n"
     << "gamma (redundancy ratio N/M)     = " << p.gamma << "\n"
     << "structure                        = " << p.document.sections << " sections x "
     << p.document.subsections_per_section << " subsections x "
     << p.document.paragraphs_per_subsection << " paragraphs\n"
     << "documents per session            = " << p.documents_per_session << "\n"
     << "repetitions                      = " << p.repetitions << "\n"
     << "LOD                              = " << lod_name(p.lod) << "\n"
     << "caching                          = " << (p.caching ? "yes" : "no") << "\n"
     << "outage duty cycle                = " << p.outage_duty * 100.0 << "%\n"
     << "mean outage duration             = " << p.mean_outage_s << " s\n"
     << "feedback loss probability        = " << p.feedback_loss << "\n";
  return os.str();
}

}  // namespace mobiweb::sim

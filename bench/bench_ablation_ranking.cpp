// Ablation: transmission-order ranking measure — document order vs static IC
// vs QIC vs MQIC (the §3 alternatives) — measured on the real stack (XML ->
// SC -> linearize -> IDA -> lossy channel -> receiver).
//
// Scenario: the user searched for a topic; the fetched document is judged
// relevant once the received information content reaches F. A query-aware
// order should surface the query-relevant units sooner, cutting frames and
// time; MQIC should behave like QIC when the query matches well, while
// degrading gracefully toward IC when it matches weakly.
#include <string>

#include "bench_common.hpp"
#include "core/mobiweb.hpp"
#include "data_paper.hpp"

namespace bench = mobiweb::bench;
namespace doc = mobiweb::doc;
using mobiweb::TextTable;

namespace {

struct Row {
  double frames = 0.0;
  double time = 0.0;
  double content = 0.0;
};

Row measure(doc::RankBy rank, const std::string& query, double f, double alpha,
            int trials) {
  mobiweb::Server server;
  server.publish_xml("doc://paper", bench::kPaperXml);
  Row acc;
  for (int t = 0; t < trials; ++t) {
    mobiweb::BrowseConfig cfg;
    cfg.alpha = alpha;
    cfg.seed = 7000 + static_cast<std::uint64_t>(t);
    mobiweb::BrowseSession session(server, cfg);
    mobiweb::FetchOptions opts;
    opts.lod = doc::Lod::kParagraph;
    opts.rank = rank;
    opts.query = query;
    opts.relevance_threshold = f;
    const auto r = session.fetch("doc://paper", opts);
    acc.frames += static_cast<double>(r.session.frames_sent);
    acc.time += r.session.response_time;
    acc.content += r.session.content_received;
  }
  acc.frames /= trials;
  acc.time /= trials;
  acc.content /= trials;
  return acc;
}

const char* rank_name(doc::RankBy r) {
  switch (r) {
    case doc::RankBy::kDocumentOrder: return "document order";
    case doc::RankBy::kIc: return "IC";
    case doc::RankBy::kQic: return "QIC";
    case doc::RankBy::kMqic: return "MQIC";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — transmission-order ranking: document order / IC / QIC / MQIC",
      "Real stack, paragraph LOD, alpha = 0.2, abort at F. Query-aware\n"
      "orders should reach F in fewer frames when the query targets specific\n"
      "sections. Note: under QIC/MQIC the client accrues *query-based*\n"
      "content, so F = fraction of the query-relevant mass.");

  const int trials = bench::fast_mode() ? 10 : 60;
  const double alpha = 0.2;

  for (const auto& [query, label] :
       {std::pair<std::string, std::string>{"redundancy cooked packets",
                                            "query: 'redundancy cooked packets'"},
        {"profile prefetching", "query: 'profile prefetching' (narrow match)"}}) {
    TextTable table({"ranking", "frames to F=0.3", "time (s)", "content@stop"});
    for (const auto rank : {doc::RankBy::kDocumentOrder, doc::RankBy::kIc,
                            doc::RankBy::kQic, doc::RankBy::kMqic}) {
      const auto r = measure(rank, query, 0.3, alpha, trials);
      table.add_row({rank_name(rank), TextTable::fmt(r.frames, 1),
                     TextTable::fmt(r.time, 3), TextTable::fmt(r.content, 3)});
    }
    bench::print_table(label, table);
  }
  return 0;
}

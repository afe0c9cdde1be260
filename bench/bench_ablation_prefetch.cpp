// Ablation: profile-driven prefetching over idle bandwidth (the paper's
// future-work feature) — user-perceived latency with and without it.
//
// Workload: a corpus of topic-tagged documents; the user repeatedly (a)
// thinks for a few seconds (idle airtime), then (b) requests a document,
// drawn 80% from their favourite topic. Relevance feedback trains the
// UserProfile online; the Prefetcher spends think-time pulling the
// highest-scored uncached documents.
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/mobiweb.hpp"
#include "core/prefetch.hpp"
#include "doc/profile.hpp"
#include "stats/describe.hpp"
#include "util/rng.hpp"

namespace bench = mobiweb::bench;
namespace doc = mobiweb::doc;
using mobiweb::Rng;
using mobiweb::TextTable;

namespace {

// A corpus with two topics; topical vocabulary makes the profile separable.
mobiweb::Server make_corpus(int docs_per_topic) {
  mobiweb::Server server;
  const char* wireless_words[] = {"wireless", "bandwidth", "channel", "handoff",
                                  "fading", "cellular", "packet", "antenna"};
  const char* cooking_words[] = {"recipe", "baking", "stew", "flavour",
                                 "kitchen", "roast", "simmer", "spice"};
  Rng rng(777);
  for (int topic = 0; topic < 2; ++topic) {
    const auto& words = topic == 0 ? wireless_words : cooking_words;
    for (int d = 0; d < docs_per_topic; ++d) {
      std::string xml = "<paper>";
      for (int p = 0; p < 6; ++p) {
        xml += "<para>";
        for (int w = 0; w < 30; ++w) {
          xml += std::string(words[rng.next_below(8)]) + " ";
          xml += "filler" + std::to_string(rng.next_below(200)) + " ";
        }
        xml += "</para>";
      }
      xml += "</paper>";
      server.publish_xml((topic == 0 ? "doc://wireless-" : "doc://cooking-") +
                             std::to_string(d),
                         xml);
    }
  }
  return server;
}

struct Outcome {
  double mean_latency = 0.0;
  double hit_rate = 0.0;
};

Outcome run_session(bool prefetch_enabled, double think_time, int requests,
                    std::uint64_t seed) {
  const mobiweb::Server server = make_corpus(12);
  mobiweb::BrowseConfig cfg;
  cfg.alpha = 0.2;
  cfg.fixed_gamma = 1.5;
  cfg.seed = seed;
  mobiweb::BrowseSession session(server, cfg);
  mobiweb::DocumentCache cache;
  mobiweb::Prefetcher prefetcher(server, session, cache, {.min_score = 0.01});
  doc::UserProfile profile(0.3);

  Rng rng(seed * 3 + 1);
  mobiweb::stats::Moments latency;
  int hits = 0;
  std::set<std::string> visited;

  for (int r = 0; r < requests; ++r) {
    // Think time: idle airtime the prefetcher may exploit.
    if (prefetch_enabled && profile.feedback_count() > 0) {
      prefetcher.run_idle(profile, think_time, visited);
    }
    // The user asks for a document: 80% favourite topic (wireless).
    const bool wireless = rng.next_bernoulli(0.8);
    const std::string url = (wireless ? "doc://wireless-" : "doc://cooking-") +
                            std::to_string(rng.next_below(12));
    visited.insert(url);

    if (const auto cached = cache.get(url)) {
      latency.add(0.0);  // served locally, no airtime
      ++hits;
    } else {
      const double before = session.now();
      const auto result = session.fetch(url, {});
      latency.add(session.now() - before);
      (void)result;
    }
    // Relevance feedback: the user likes wireless documents.
    profile.observe(server.find(url)->document_terms(), wireless);
  }
  return {latency.mean(), static_cast<double>(hits) / requests};
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {});
  bench::print_header(
      "Ablation — profile-driven prefetching over idle bandwidth",
      "User requests 80% wireless / 20% cooking documents with think time\n"
      "between requests; the profile learns online from relevance feedback.\n"
      "Latency = airtime the user waits per request; hits are served from\n"
      "the prefetch cache instantly.");

  const int requests = 24;
  const int reps = bench::fast_mode() ? 3 : 10;

  TextTable table({"think time (s)", "policy", "mean latency (s)", "cache hit rate"});
  for (const double think : {2.0, 5.0, 10.0}) {
    for (const bool enabled : {false, true}) {
      mobiweb::stats::Moments lat;
      mobiweb::stats::Moments hit;
      for (int rep = 0; rep < reps; ++rep) {
        const auto o = run_session(enabled, think, requests,
                                   1000 + static_cast<std::uint64_t>(rep));
        lat.add(o.mean_latency);
        hit.add(o.hit_rate);
      }
      table.add_row({TextTable::fmt(think, 1),
                     enabled ? "prefetch" : "no prefetch",
                     TextTable::fmt(lat.mean(), 3), TextTable::fmt(hit.mean(), 3)});
    }
  }
  bench::print_table("Prefetching ablation", table);
  return 0;
}

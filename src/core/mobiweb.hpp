// mobiweb — public facade.
//
// Ties the substrates together into the paper's prototype architecture
// (Figure 1): a Server holding documents with their Structural
// Characteristics (the "database gateway" + "document transmitter"), and a
// BrowseSession pairing a mobile client with the server across a simulated
// weakly-connected wireless channel (the "sequence manager" + "rendering
// manager" side).
//
// Typical use (see examples/quickstart.cpp):
//
//   mobiweb::Server server;
//   server.publish_xml("doc://paper", xml_text);
//   mobiweb::BrowseSession session(server, {.alpha = 0.3});
//   auto result = session.fetch("doc://paper", {.query = "mobile web"});
//
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "channel/channel.hpp"
#include "channel/outage.hpp"
#include "doc/content.hpp"
#include "doc/linear.hpp"
#include "obs/trace.hpp"
#include "sim/transfer.hpp"
#include "transmit/adaptive.hpp"
#include "transmit/receiver.hpp"
#include "transmit/resilient.hpp"
#include "transmit/session.hpp"
#include "transmit/transmitter.hpp"

namespace mobiweb {

struct ServerConfig {
  doc::ScOptions sc;  // keyword pipeline configuration
};

// Document store + SC generation + search. Not thread-safe (one server per
// simulation/session, as in the prototype).
class Server {
 public:
  explicit Server(ServerConfig config = {});

  // Publishes a document; any previous document under `url` is replaced.
  void publish_xml(const std::string& url, std::string_view xml_text);
  void publish_html(const std::string& url, std::string_view html_text);
  void publish_tree(const std::string& url, doc::OrgUnit tree);

  [[nodiscard]] std::vector<std::string> urls() const;
  [[nodiscard]] const doc::StructuralCharacteristic* find(std::string_view url) const;
  [[nodiscard]] std::size_t size() const { return documents_.size(); }

  // Keyword search over the published documents: documents are scored by the
  // QIC of their root unit (i.e. how much of the weighted query mass the
  // document carries) and returned in descending order; non-matching
  // documents are omitted.
  struct SearchHit {
    std::string url;
    double score;
  };
  [[nodiscard]] std::vector<SearchHit> search(std::string_view query_text) const;

  // Builds a Query through the server's keyword pipeline (stemming and stop
  // words consistent with document indexing).
  [[nodiscard]] doc::Query make_query(std::string_view query_text) const;

  [[nodiscard]] const doc::ScGenerator& generator() const { return generator_; }

 private:
  ServerConfig config_;
  doc::ScGenerator generator_;
  std::map<std::string, doc::StructuralCharacteristic, std::less<>> documents_;
};

struct BrowseConfig {
  double bandwidth_bps = 19200.0;
  double alpha = 0.1;                 // iid corruption probability
  double propagation_delay_s = 0.0;
  std::uint64_t seed = 7;
  std::size_t packet_size = 256;
  bool caching = true;
  // When true, γ follows the adaptive EWMA controller; otherwise fixed_gamma.
  bool adaptive_gamma = false;
  double fixed_gamma = 1.5;
  transmit::AdaptiveGammaConfig adaptive;
  // Weak-connectivity fault injection. `outage` (cloned into the channel, so
  // the caller's model is untouched) makes the link fade on/off: frames sent
  // while it is down are lost outright. The feedback knobs make the back
  // channel lossy/slow — retransmission requests are dropped with
  // `feedback_loss_rate` (or when the link is down) and otherwise cost
  // `feedback_delay_s` of one-way latency.
  const channel::OutageModel* outage = nullptr;
  double feedback_loss_rate = 0.0;
  double feedback_delay_s = 0.0;
  // When true, fetch() drives transfers through a ResilientSession: timed-out
  // retransmission requests are retried with exponential backoff + jitter,
  // outages suspend the session (resuming from the receiver's packet cache),
  // and exhausting `retry` degrades gracefully into FetchResult::partial
  // instead of hanging or returning nothing.
  bool resilient = false;
  sim::RetryConfig retry;
};

struct FetchOptions {
  doc::Lod lod = doc::Lod::kParagraph;
  doc::RankBy rank = doc::RankBy::kIc;
  std::string query;                  // used for kQic / kMqic ranking
  // < 0: relevant document, download fully; otherwise stop at threshold F.
  double relevance_threshold = -1.0;
  // LZSS-compress each unit before dispersal (the prototype's compression
  // interceptor): fewer packets on the air, same fault tolerance.
  bool compress = false;
  // Called for every newly displayable clear-text fragment, in arrival order.
  std::function<void(std::size_t raw_index, ByteSpan bytes)> render_hook;
};

struct FetchResult {
  transmit::SessionResult session;
  // Reconstructed document text. Full document when the transfer completed;
  // for a resilient fetch that ended Degraded/GaveUp, the renderable prefix
  // assembled from `partial` (decompressed when the units were compressed).
  std::string text;
  // The transmission plan actually used.
  std::size_t m = 0;
  std::size_t n = 0;
  double gamma = 0.0;
  std::vector<doc::Segment> segments;
  // Degraded-mode delivery (resilient fetches): every unit that is already
  // fully renderable from clear-text packets, in transmission (rank) order.
  transmit::PartialDocument partial;
  // Resilient-driver effort counters (zero for plain fetches).
  int request_attempts = 0;
  int timeouts = 0;
  int outages_ridden = 0;
  double backoff_total_s = 0.0;
};

// A client browsing documents from one Server over one wireless channel.
class BrowseSession {
 public:
  BrowseSession(const Server& server, BrowseConfig config = {});

  // Fetches a document with fault-tolerant multi-resolution transmission.
  // Throws std::out_of_range when the URL is unknown.
  FetchResult fetch(std::string_view url, const FetchOptions& options = {});

  [[nodiscard]] const channel::WirelessChannel& channel() const { return *channel_; }
  [[nodiscard]] const transmit::AdaptiveGamma& adaptive_gamma() const { return adaptive_; }
  [[nodiscard]] double now() const { return channel_->now(); }

  // Attaches an observability collector: every subsequent fetch records a
  // SessionTrace labelled with its URL, aggregates it into the collector's
  // metrics, and the channel feeds the collector's counters. nullptr
  // detaches (the default — fetches then run with no-op sinks).
  void attach_collector(obs::Collector* collector);
  [[nodiscard]] obs::Collector* collector() const { return collector_; }

 private:
  const Server* server_;
  BrowseConfig config_;
  std::unique_ptr<channel::WirelessChannel> channel_;
  transmit::AdaptiveGamma adaptive_;
  obs::Collector* collector_ = nullptr;
  std::uint16_t next_doc_id_ = 1;
};

}  // namespace mobiweb

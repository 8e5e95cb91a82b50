#include "distributed/distributed_mincut.h"

#include <cmath>
#include <limits>
#include <utility>

#include "comm/message.h"
#include "graph/connectivity.h"
#include "mincut/karger.h"
#include "sketch/serialization.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace dcs {
namespace {

// Candidate cuts are enumerated within this factor of the coarse minimum.
constexpr double kCandidateAlpha = 2.0;

// Median over one server's independent for-each copies (the MedianOfSketches
// boost, taken at query time).
double MedianEstimate(const std::vector<ForEachCutSketch>& copies,
                      const VertexSet& side) {
  std::vector<double> estimates;
  estimates.reserve(copies.size());
  for (const ForEachCutSketch& copy : copies) {
    estimates.push_back(copy.EstimateCut(side));
  }
  return Median(std::move(estimates));
}

}  // namespace

std::vector<UndirectedGraph> PartitionEdges(const UndirectedGraph& graph,
                                            int num_servers, Rng& rng) {
  DCS_CHECK_GE(num_servers, 1);
  std::vector<UndirectedGraph> parts(
      static_cast<size_t>(num_servers), UndirectedGraph(graph.num_vertices()));
  for (const Edge& e : graph.edges()) {
    const size_t server =
        static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(num_servers)));
    parts[server].AddEdge(e.src, e.dst, e.weight);
  }
  return parts;
}

DistributedMinCutPipeline::DistributedMinCutPipeline(
    std::vector<UndirectedGraph> server_graphs,
    const DistributedMinCutOptions& options, Rng& rng)
    : server_graphs_(std::move(server_graphs)), options_(options) {
  DCS_CHECK(!server_graphs_.empty());
  DCS_CHECK_GE(options_.median_boost, 1);
  for (const UndirectedGraph& server_graph : server_graphs_) {
    forall_sketches_.push_back(std::make_unique<BenczurKargerSparsifier>(
        server_graph, options_.coarse_epsilon, rng));
    std::vector<ForEachCutSketch> copies;
    copies.reserve(static_cast<size_t>(options_.median_boost));
    for (int b = 0; b < options_.median_boost; ++b) {
      copies.emplace_back(server_graph, options_.epsilon, rng);
    }
    foreach_copies_.push_back(std::move(copies));
  }
}

DistributedMinCutPipeline::Result DistributedMinCutPipeline::Coordinate(
    const std::vector<ServerView>& servers, double scale, Rng& rng) const {
  Result result;
  result.effective_epsilon = options_.epsilon;
  for (const ServerView& server : servers) {
    result.forall_bits += server.forall->SizeInBits();
    for (const ForEachCutSketch& copy : *server.foreach_copies) {
      result.foreach_bits += copy.SizeInBits();
    }
  }
  // Coordinator: merge the for-all sparsifiers into one coarse graph.
  const int n = server_graphs_.front().num_vertices();
  UndirectedGraph coarse(n);
  for (const ServerView& server : servers) {
    coarse.MergeFrom(server.forall->sparsifier());
  }
  // Enumerate every candidate cut within kCandidateAlpha of the coarse
  // minimum; the true minimum cut is among them as long as the coarse
  // sparsifier's error is below the alpha margin. A degraded run can leave
  // the survivors' coarse graph disconnected (the lost servers may have
  // held every edge across some split); then the component cut has coarse
  // weight zero and is the only candidate worth re-evaluating.
  std::vector<GlobalMinCut> candidates;
  if (IsConnected(coarse)) {
    candidates = EnumerateNearMinimumCuts(
        coarse, kCandidateAlpha, rng, options_.karger_repetitions);
    DCS_CHECK(!candidates.empty());
  } else {
    candidates.push_back(StoerWagnerMinCut(coarse));
  }
  // Re-evaluate each candidate with the accurate for-each sketches (cut
  // values add across edge-disjoint servers; `scale` corrects for lost
  // servers).
  result.estimate = std::numeric_limits<double>::infinity();
  for (const GlobalMinCut& candidate : candidates) {
    double accurate = 0;
    for (const ServerView& server : servers) {
      accurate += MedianEstimate(*server.foreach_copies, candidate.side);
    }
    accurate *= scale;
    ++result.candidates_considered;
    if (accurate < result.estimate) {
      result.estimate = accurate;
      result.best_side = candidate.side;
    }
  }
  return result;
}

DistributedMinCutPipeline::Result DistributedMinCutPipeline::Run(
    Rng& rng) const {
  std::vector<ServerView> servers;
  servers.reserve(forall_sketches_.size());
  for (size_t s = 0; s < forall_sketches_.size(); ++s) {
    servers.push_back(
        ServerView{forall_sketches_[s].get(), &foreach_copies_[s]});
  }
  return Coordinate(servers, /*scale=*/1.0, rng);
}

StatusOr<DistributedMinCutPipeline::Result> DistributedMinCutPipeline::Run(
    Rng& rng, const ChannelOptions& channel) const {
  channel.Check();
  const int total = num_servers();
  std::vector<std::unique_ptr<BenczurKargerSparsifier>> rx_forall;
  std::vector<std::vector<ForEachCutSketch>> rx_foreach;
  int64_t channel_wire_bits = 0;
  int64_t retransmitted_bits = 0;
  std::vector<int> lost_servers;
  for (int server = 0; server < total; ++server) {
    // One framed message per server: the for-all sparsifier followed by the
    // median_boost for-each copies, each in its own checksummed envelope.
    BitWriter writer;
    forall_sketches_[static_cast<size_t>(server)]->Serialize(writer);
    for (const ForEachCutSketch& copy :
         foreach_copies_[static_cast<size_t>(server)]) {
      copy.Serialize(writer);
    }
    const Message message = SealMessage(writer);
    ChannelOptions server_channel = channel;
    server_channel.seed = SubtaskSeed(channel.seed, server);
    ReliableLink link(server_channel);
    auto delivered = link.Transfer(message);
    channel_wire_bits += link.stats().wire_bits;
    retransmitted_bits += link.stats().retransmitted_bits;
    if (!delivered.ok()) {
      lost_servers.push_back(server);
      DCS_METRIC_INC("distributed.server.lost");
      continue;
    }
    // Recovered transfers are frame-checksummed end to end, so the bytes
    // match the server's serialization and value() is safe (the in-process
    // round-trip contract).
    BitReader reader = OpenMessage(delivered.value());
    rx_forall.push_back(std::make_unique<BenczurKargerSparsifier>(
        BenczurKargerSparsifier::Deserialize(reader).value()));
    std::vector<ForEachCutSketch> copies;
    copies.reserve(static_cast<size_t>(options_.median_boost));
    for (int b = 0; b < options_.median_boost; ++b) {
      copies.push_back(ForEachCutSketch::Deserialize(reader).value());
    }
    rx_foreach.push_back(std::move(copies));
  }
  if (rx_forall.empty()) {
    return UnavailableError(
        "distributed min-cut: every server transfer exceeded the channel "
        "deadline; no sketches reached the coordinator");
  }
  const int survivors = static_cast<int>(rx_forall.size());
  const int lost = total - survivors;
  // Uniform edge partition: the survivors hold a (S−L)/S fraction of every
  // cut's weight in expectation, so rescaling by S/(S−L) keeps the summed
  // estimate unbiased. The per-server sampling error does not shrink with
  // the missing servers, so the error bound widens by the same √ factor a
  // smaller sample would.
  const double scale = static_cast<double>(total) / survivors;
  std::vector<ServerView> views;
  views.reserve(rx_forall.size());
  for (size_t s = 0; s < rx_forall.size(); ++s) {
    views.push_back(ServerView{rx_forall[s].get(), &rx_foreach[s]});
  }
  Result result = Coordinate(views, scale, rng);
  result.channel_wire_bits = channel_wire_bits;
  result.retransmitted_bits = retransmitted_bits;
  result.degraded = lost > 0;
  result.lost_servers = std::move(lost_servers);
  result.effective_epsilon =
      lost > 0 ? options_.epsilon * std::sqrt(scale) : options_.epsilon;
  if (result.degraded) DCS_METRIC_INC("distributed.run.degraded");
  return result;
}

int64_t DistributedMinCutPipeline::NaiveShipAllBits() const {
  int64_t total = 0;
  for (const UndirectedGraph& server_graph : server_graphs_) {
    total += SerializedSizeInBits(server_graph);
  }
  return total;
}

}  // namespace dcs

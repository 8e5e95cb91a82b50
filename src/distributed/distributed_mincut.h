// Distributed minimum cut via cut sketches — the application that motivates
// the paper's lower bounds (Section 1, following [ACK+16]).
//
// The edges of a graph are partitioned across servers. Each server sends
// the coordinator two sketches of its edge set:
//   * a (1±coarse_ε) for-all sparsifier  — used to find every
//     O(1)-approximate minimum cut (there are only poly(n) of them, by
//     Karger's theorem), and
//   * a (1±ε) for-each sketch            — used to re-evaluate each
//     candidate cut accurately (cut values add across edge-disjoint
//     servers, so the coordinator sums per-server estimates).
// The final answer is the best candidate under the accurate estimates.
// Total communication is the serialized size of all sketches; the paper's
// Theorem 1.1/1.2 lower bounds say the for-each/for-all parts of this
// recipe are near-optimal.
//
// The channel-aware Run overload routes every server→coordinator message
// through a ReliableLink over a seeded LossyChannel (comm/channel.h,
// DESIGN.md §9). Servers whose transfer exceeds the retransmission deadline
// are *lost*, and the coordinator degrades gracefully instead of aborting:
// it proceeds with the surviving edge-disjoint servers, rescales the summed
// estimates by S/(S−L) (the edge partition is uniform, so survivors hold a
// (S−L)/S fraction of the weight in expectation), and reports
// Result::degraded, the lost-server set, and a widened effective error
// bound. Only the loss of every server is an error.

#ifndef DCS_DISTRIBUTED_DISTRIBUTED_MINCUT_H_
#define DCS_DISTRIBUTED_DISTRIBUTED_MINCUT_H_

#include <memory>
#include <vector>

#include "comm/channel.h"
#include "graph/ugraph.h"
#include "mincut/stoer_wagner.h"
#include "sketch/sampled_sketches.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// Tuning for the pipeline.
struct DistributedMinCutOptions {
  double epsilon = 0.1;          // accuracy of the final estimate
  double coarse_epsilon = 0.2;   // for-all sketch accuracy
  int karger_repetitions = 12;   // contraction runs for enumeration
  int median_boost = 3;          // independent for-each sketches per server
};

// Splits the edges of `graph` uniformly at random into `num_servers`
// edge-disjoint subgraphs on the same vertex set.
std::vector<UndirectedGraph> PartitionEdges(const UndirectedGraph& graph,
                                            int num_servers, Rng& rng);

// The full pipeline.
class DistributedMinCutPipeline {
 public:
  // Builds per-server sketches for the given edge partition.
  DistributedMinCutPipeline(std::vector<UndirectedGraph> server_graphs,
                            const DistributedMinCutOptions& options,
                            Rng& rng);

  struct Result {
    double estimate = 0;
    VertexSet best_side;
    int candidates_considered = 0;
    int64_t forall_bits = 0;   // communication spent on for-all sketches
    int64_t foreach_bits = 0;  // communication spent on for-each sketches
    // Channel accounting (zero for the in-process Run(rng) overload):
    // every bit the links put on the wire, and the share spent beyond
    // first attempts.
    int64_t channel_wire_bits = 0;
    int64_t retransmitted_bits = 0;
    // Graceful degradation. When servers are lost past the channel
    // deadline, the estimate is computed from the survivors rescaled by
    // S/(S−L) and effective_epsilon widens accordingly; with no losses it
    // equals options.epsilon.
    bool degraded = false;
    std::vector<int> lost_servers;
    double effective_epsilon = 0;
    int64_t total_bits() const { return forall_bits + foreach_bits; }
  };

  // Runs candidate enumeration + accurate re-evaluation in-process.
  Result Run(Rng& rng) const;

  // Same pipeline with every server→coordinator message carried by a
  // ReliableLink over a LossyChannel. Server s's link is seeded
  // SubtaskSeed(channel.seed, s), so each server replays its own fault
  // script independently. A run in which every transfer recovers returns
  // the same estimate/best_side as Run(rng) (the coordinator decodes the
  // identical sketch bytes and `rng` is consumed identically) — only the
  // transport accounting differs. Returns kUnavailable iff every server is
  // lost.
  StatusOr<Result> Run(Rng& rng, const ChannelOptions& channel) const;

  // Communication of the naive protocol (every server ships its edges).
  int64_t NaiveShipAllBits() const;

  int num_servers() const {
    return static_cast<int>(server_graphs_.size());
  }

 private:
  // One server's sketches as the coordinator sees them (owned elsewhere:
  // either this pipeline's members or the channel overload's decoded
  // copies).
  struct ServerView {
    const BenczurKargerSparsifier* forall = nullptr;
    const std::vector<ForEachCutSketch>* foreach_copies = nullptr;
  };

  // Coordinator logic over an arbitrary subset of servers. `scale`
  // multiplies the summed for-each estimates (S/(S−L) under degradation,
  // 1 otherwise). Handles a disconnected coarse graph — possible when lost
  // servers held every edge across some split — by falling back to the
  // zero-weight component cut instead of aborting.
  Result Coordinate(const std::vector<ServerView>& servers, double scale,
                    Rng& rng) const;

  std::vector<UndirectedGraph> server_graphs_;
  DistributedMinCutOptions options_;
  std::vector<std::unique_ptr<BenczurKargerSparsifier>> forall_sketches_;
  // Concrete per-server for-each copies (median taken at query time), so
  // the channel overload can serialize each copy through the existing
  // checksummed envelopes.
  std::vector<std::vector<ForEachCutSketch>> foreach_copies_;
};

}  // namespace dcs

#endif  // DCS_DISTRIBUTED_DISTRIBUTED_MINCUT_H_

#include "sketch/cut_balance_sparsifier.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "mincut/nagamochi_ibaraki.h"
#include "mincut/stoer_wagner.h"
#include "sketch/serialization.h"

namespace dcs {
namespace {

// Vertex-count cap shared with the graph deserializer; a payload that
// passed the checksum can still declare an absurd array length.
constexpr uint64_t kMaxImbalanceEntries = uint64_t{1} << 28;

uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^
         -static_cast<int64_t>(value & 1);
}

}  // namespace

CutBalanceSparsifier::CutBalanceSparsifier(const DirectedGraph& graph,
                                           double epsilon, double beta,
                                           Rng& rng, double oversample_c)
    : epsilon_(epsilon), beta_(beta), sample_(graph.num_vertices()) {
  DCS_CHECK(std::isfinite(epsilon) && epsilon > 0 && epsilon < 1);
  DCS_CHECK(std::isfinite(beta) && beta >= 1);
  const UndirectedGraph symmetric = graph.Symmetrized();
  const std::vector<double> strengths = NagamochiIbarakiStrengths(symmetric);
  // Directed pair weights, for the local balance rate; strengths of each
  // unordered pair, for the importance rate.
  std::map<std::pair<VertexId, VertexId>, double> pair_strength;
  std::map<std::pair<VertexId, VertexId>, double> pair_weight;
  for (size_t i = 0; i < symmetric.edges().size(); ++i) {
    const Edge& e = symmetric.edges()[i];
    pair_strength[{e.src, e.dst}] = strengths[i];
  }
  for (const Edge& e : graph.edges()) {
    pair_weight[{e.src, e.dst}] += e.weight;
  }
  const double n = std::max(2, graph.num_vertices());
  const double base_factor = oversample_c * std::log(n) / (epsilon * epsilon);
  for (const Edge& e : graph.edges()) {
    if (e.weight <= 0) continue;
    const auto key = e.src < e.dst ? std::make_pair(e.src, e.dst)
                                   : std::make_pair(e.dst, e.src);
    const auto it = pair_strength.find(key);
    DCS_CHECK(it != pair_strength.end());
    // Local pair balance: heavier-direction weight over lighter-direction
    // weight, capped by the promised global β (a missing reverse direction
    // means the pair is as skewed as the promise allows).
    const auto reverse = pair_weight.find({e.dst, e.src});
    double local_beta = beta;
    if (reverse != pair_weight.end() && reverse->second > 0) {
      const double forward = pair_weight[{e.src, e.dst}];
      const double ratio = std::max(forward, reverse->second) /
                           std::min(forward, reverse->second);
      local_beta = std::min(beta, ratio);
    }
    const double p = std::min(
        1.0, base_factor * (1 + local_beta) * (1 + local_beta) * e.weight /
                 it->second);
    if (rng.Bernoulli(p)) {
      sample_.AddEdge(e.src, e.dst, e.weight / p);
    }
  }
  // Quantization step: n·q/2 rounding error across any side must stay
  // below (ε/4)·u_min/(1+β) ≤ (ε/4)·w(S) for every proper cut. A graph
  // whose symmetrization is disconnected (u_min = 0) has a cut with no
  // wrong-direction weight at all; fall back to a tiny absolute step.
  double u_min = 0;
  if (graph.num_vertices() >= 2 && graph.num_edges() > 0) {
    u_min = StoerWagnerMinCut(symmetric).value;
  }
  const double scale = std::max(u_min, 1e-9);
  quantization_step_ =
      epsilon * scale / (2.0 * n * (1 + beta));
  const std::vector<double> imbalance = [&graph] {
    std::vector<double> d(static_cast<size_t>(graph.num_vertices()), 0);
    for (const Edge& e : graph.edges()) {
      d[static_cast<size_t>(e.src)] += e.weight;
      d[static_cast<size_t>(e.dst)] -= e.weight;
    }
    return d;
  }();
  quantized_imbalance_.resize(imbalance.size());
  for (size_t v = 0; v < imbalance.size(); ++v) {
    quantized_imbalance_[v] =
        static_cast<int64_t>(std::llround(imbalance[v] / quantization_step_));
  }
}

void CutBalanceSparsifier::Serialize(BitWriter& writer) const {
  BitWriter payload;
  payload.WriteDouble(epsilon_);
  payload.WriteDouble(beta_);
  payload.WriteDouble(quantization_step_);
  payload.WriteEliasGamma(quantized_imbalance_.size());
  for (const int64_t q : quantized_imbalance_) {
    payload.WriteEliasGamma(ZigZag(q));
  }
  SerializeDirectedGraph(sample_, payload);
  WriteEnvelope(StreamKind::kCutBalanceSparsifier, payload, writer);
}

StatusOr<CutBalanceSparsifier> CutBalanceSparsifier::Deserialize(
    BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(
      const EnvelopePayload payload,
      ReadEnvelopePayload(StreamKind::kCutBalanceSparsifier, reader));
  BitReader payload_reader(payload.bytes);
  CutBalanceSparsifier sketch;
  DCS_ASSIGN_OR_RETURN(sketch.epsilon_, payload_reader.TryReadDouble());
  if (!std::isfinite(sketch.epsilon_) || sketch.epsilon_ <= 0 ||
      sketch.epsilon_ >= 1) {
    return InvalidArgumentError("cut-balance epsilon outside (0, 1)");
  }
  DCS_ASSIGN_OR_RETURN(sketch.beta_, payload_reader.TryReadDouble());
  if (!std::isfinite(sketch.beta_) || sketch.beta_ < 1) {
    return InvalidArgumentError("cut-balance beta below 1 or non-finite");
  }
  DCS_ASSIGN_OR_RETURN(sketch.quantization_step_,
                       payload_reader.TryReadDouble());
  if (!std::isfinite(sketch.quantization_step_) ||
      sketch.quantization_step_ <= 0) {
    return InvalidArgumentError(
        "cut-balance quantization step non-positive or non-finite");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t count,
                       payload_reader.TryReadEliasGamma());
  if (count > kMaxImbalanceEntries ||
      count > static_cast<uint64_t>(payload_reader.RemainingBits())) {
    return DataLossError("cut-balance stream declares " +
                         std::to_string(count) +
                         " imbalance entries but only " +
                         std::to_string(payload_reader.RemainingBits()) +
                         " payload bits remain");
  }
  sketch.quantized_imbalance_.resize(static_cast<size_t>(count));
  for (size_t v = 0; v < sketch.quantized_imbalance_.size(); ++v) {
    DCS_ASSIGN_OR_RETURN(const uint64_t z,
                         payload_reader.TryReadEliasGamma());
    sketch.quantized_imbalance_[v] = UnZigZag(z);
  }
  DCS_ASSIGN_OR_RETURN(sketch.sample_,
                       DeserializeDirectedGraph(payload_reader));
  if (payload_reader.position() != payload.bit_count) {
    return DataLossError("cut-balance payload has trailing bits");
  }
  if (static_cast<uint64_t>(sketch.sample_.num_vertices()) != count) {
    return InvalidArgumentError(
        "imbalance array length does not match the sample's vertex count");
  }
  return sketch;
}

double CutBalanceSparsifier::EstimateCut(const VertexSet& side) const {
  DCS_CHECK_EQ(static_cast<int>(side.size()), sample_.num_vertices());
  const VertexSet complement = ComplementSet(side);
  const double u_estimate =
      sample_.CutWeight(side) + sample_.CutWeight(complement);
  int64_t quantized_sum = 0;
  for (size_t v = 0; v < side.size(); ++v) {
    if (side[v]) quantized_sum += quantized_imbalance_[v];
  }
  const double d_estimate =
      quantization_step_ * static_cast<double>(quantized_sum);
  return std::max(0.0, (u_estimate + d_estimate) / 2);
}

int64_t CutBalanceSparsifier::SizeInBits() const {
  BitWriter writer;
  Serialize(writer);
  return writer.bit_count();
}

int64_t CutBalanceSparsifier::imbalance_bits() const {
  BitWriter writer;
  writer.WriteEliasGamma(quantized_imbalance_.size());
  for (const int64_t q : quantized_imbalance_) {
    writer.WriteEliasGamma(ZigZag(q));
  }
  return writer.bit_count();
}

}  // namespace dcs

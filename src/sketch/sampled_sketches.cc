#include "sketch/sampled_sketches.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mincut/nagamochi_ibaraki.h"
#include "sketch/serialization.h"

namespace dcs {

UndirectedGraph ImportanceSampleByStrength(const UndirectedGraph& graph,
                                           double factor, Rng& rng) {
  DCS_CHECK_GT(factor, 0);
  const std::vector<double> strengths = NagamochiIbarakiStrengths(graph);
  UndirectedGraph sample(graph.num_vertices());
  for (size_t i = 0; i < graph.edges().size(); ++i) {
    const Edge& e = graph.edges()[i];
    if (e.weight <= 0) continue;
    const double p = std::min(1.0, factor * e.weight / strengths[i]);
    if (rng.Bernoulli(p)) {
      sample.AddEdge(e.src, e.dst, e.weight / p);
    }
  }
  return sample;
}

BenczurKargerSparsifier::BenczurKargerSparsifier(const UndirectedGraph& graph,
                                                 double epsilon, Rng& rng,
                                                 double oversample_c)
    : epsilon_(epsilon), sparsifier_(0), size_bits_(0) {
  DCS_CHECK(epsilon > 0 && epsilon < 1);
  const double n = std::max(2, graph.num_vertices());
  const double factor =
      oversample_c * std::log(n) / (epsilon * epsilon);
  sparsifier_ = ImportanceSampleByStrength(graph, factor, rng);
  BitWriter wire;
  Serialize(wire);
  size_bits_ = wire.bit_count();
}

BenczurKargerSparsifier::BenczurKargerSparsifier(double epsilon,
                                                 UndirectedGraph sparsifier)
    : epsilon_(epsilon), sparsifier_(std::move(sparsifier)), size_bits_(0) {
  BitWriter wire;
  Serialize(wire);
  size_bits_ = wire.bit_count();
}

BenczurKargerSparsifier BenczurKargerSparsifier::FromSparsifier(
    double epsilon, UndirectedGraph sparsifier) {
  return BenczurKargerSparsifier(epsilon, std::move(sparsifier));
}

void BenczurKargerSparsifier::Serialize(BitWriter& writer) const {
  BitWriter payload;
  payload.WriteDouble(epsilon_);
  SerializeUndirectedGraph(sparsifier_, payload);
  WriteEnvelope(StreamKind::kForAllSparsifier, payload, writer);
}

StatusOr<BenczurKargerSparsifier> BenczurKargerSparsifier::Deserialize(
    BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(
      const EnvelopePayload payload,
      ReadEnvelopePayload(StreamKind::kForAllSparsifier, reader));
  BitReader payload_reader(payload.bytes);
  DCS_ASSIGN_OR_RETURN(const double epsilon, payload_reader.TryReadDouble());
  if (!std::isfinite(epsilon) || epsilon <= 0 || epsilon >= 1) {
    return InvalidArgumentError("sparsifier epsilon outside (0, 1)");
  }
  DCS_ASSIGN_OR_RETURN(UndirectedGraph sparsifier,
                       DeserializeUndirectedGraph(payload_reader));
  if (payload_reader.position() != payload.bit_count) {
    return DataLossError("sparsifier payload has trailing bits");
  }
  return FromSparsifier(epsilon, std::move(sparsifier));
}

double BenczurKargerSparsifier::EstimateCut(const VertexSet& side) const {
  return sparsifier_.CutWeight(side);
}

int64_t BenczurKargerSparsifier::SizeInBits() const { return size_bits_; }

ForEachCutSketch::ForEachCutSketch(const UndirectedGraph& graph,
                                   double epsilon, Rng& rng,
                                   double oversample_c)
    : epsilon_(epsilon), sample_(0), size_bits_(0) {
  DCS_CHECK(epsilon > 0 && epsilon < 1);
  const double factor = oversample_c / epsilon;
  sample_ = ImportanceSampleByStrength(graph, factor, rng);
  BitWriter wire;
  Serialize(wire);
  size_bits_ = wire.bit_count();
}

ForEachCutSketch::ForEachCutSketch(double epsilon, UndirectedGraph sample)
    : epsilon_(epsilon), sample_(std::move(sample)), size_bits_(0) {
  BitWriter wire;
  Serialize(wire);
  size_bits_ = wire.bit_count();
}

ForEachCutSketch ForEachCutSketch::FromSample(double epsilon,
                                              UndirectedGraph sample) {
  return ForEachCutSketch(epsilon, std::move(sample));
}

void ForEachCutSketch::Serialize(BitWriter& writer) const {
  BitWriter payload;
  payload.WriteDouble(epsilon_);
  SerializeUndirectedGraph(sample_, payload);
  WriteEnvelope(StreamKind::kForEachSketch, payload, writer);
}

StatusOr<ForEachCutSketch> ForEachCutSketch::Deserialize(BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(
      const EnvelopePayload payload,
      ReadEnvelopePayload(StreamKind::kForEachSketch, reader));
  BitReader payload_reader(payload.bytes);
  DCS_ASSIGN_OR_RETURN(const double epsilon, payload_reader.TryReadDouble());
  if (!std::isfinite(epsilon) || epsilon <= 0 || epsilon >= 1) {
    return InvalidArgumentError("sketch epsilon outside (0, 1)");
  }
  DCS_ASSIGN_OR_RETURN(UndirectedGraph sample,
                       DeserializeUndirectedGraph(payload_reader));
  if (payload_reader.position() != payload.bit_count) {
    return DataLossError("sketch payload has trailing bits");
  }
  return FromSample(epsilon, std::move(sample));
}

double ForEachCutSketch::EstimateCut(const VertexSet& side) const {
  return sample_.CutWeight(side);
}

int64_t ForEachCutSketch::SizeInBits() const { return size_bits_; }

DegreeComplementSketch::DegreeComplementSketch(const UndirectedGraph& graph,
                                               double epsilon, Rng& rng,
                                               double oversample_c)
    : degrees_(static_cast<size_t>(graph.num_vertices()), 0),
      sample_(0),
      size_bits_(0) {
  DCS_CHECK(epsilon > 0 && epsilon < 1);
  for (const Edge& e : graph.edges()) {
    degrees_[static_cast<size_t>(e.src)] += e.weight;
    degrees_[static_cast<size_t>(e.dst)] += e.weight;
  }
  sample_ = ImportanceSampleByStrength(graph, oversample_c / epsilon, rng);
  // Wire cost: the degree table plus the sample graph.
  size_bits_ = 64 * static_cast<int64_t>(degrees_.size()) +
               SerializedSizeInBits(sample_);
}

double DegreeComplementSketch::EstimateCut(const VertexSet& side) const {
  DCS_CHECK_EQ(side.size(), degrees_.size());
  double degree_sum = 0;
  for (size_t v = 0; v < side.size(); ++v) {
    if (side[v]) degree_sum += degrees_[v];
  }
  double inside = 0;
  for (const Edge& e : sample_.edges()) {
    if (side[static_cast<size_t>(e.src)] &&
        side[static_cast<size_t>(e.dst)]) {
      inside += e.weight;
    }
  }
  return std::max(0.0, degree_sum - 2 * inside);
}

int64_t DegreeComplementSketch::SizeInBits() const { return size_bits_; }

}  // namespace dcs

#include "stream/agm_sketch.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "graph/connectivity.h"
#include "mincut/stoer_wagner.h"
#include "util/union_find.h"

namespace dcs {
namespace {

// The k-sketch digest's offset, distinct from a single sketch's.
constexpr uint64_t kKDigestOffset = 0x6b636f6e6e556565ULL;

int DefaultRounds(int n) {
  int rounds = 2;
  while ((1 << (rounds - 2)) < n) ++rounds;
  return rounds;
}

}  // namespace

AgmConnectivitySketch::AgmConnectivitySketch(int num_vertices, int rounds,
                                             uint64_t seed)
    : num_vertices_(num_vertices),
      rounds_(rounds > 0 ? rounds : DefaultRounds(num_vertices)),
      seed_(seed),
      levels_(L0LevelCount(static_cast<int64_t>(num_vertices) *
                           num_vertices)) {
  DCS_CHECK_GE(num_vertices, 1);
  const size_t n = static_cast<size_t>(num_vertices_);
  round_params_.reserve(static_cast<size_t>(rounds_));
  powers_.resize(static_cast<size_t>(rounds_) * n);
  for (int r = 0; r < rounds_; ++r) {
    // All samplers of one round share a seed (mergeable); rounds differ.
    const uint64_t round_seed = seed_ * 1000003ULL + static_cast<uint64_t>(r);
    const uint64_t base = FingerprintBase(round_seed);
    round_params_.push_back(Round{round_seed, base});
    const uint64_t stride = PowMod(base, n);
    uint64_t row = 1;
    uint64_t col = 1;
    for (size_t u = 0; u < n; ++u) {
      powers_[static_cast<size_t>(r) * n + u] = VertexPowers{row, col};
      row = MulMod(row, stride);
      col = MulMod(col, base);
    }
  }
  cells_.resize(CellOffset(rounds_, 0));
}

int64_t AgmConnectivitySketch::EdgeCoordinate(VertexId u, VertexId v) const {
  DCS_CHECK(u >= 0 && u < num_vertices_);
  DCS_CHECK(v >= 0 && v < num_vertices_);
  DCS_CHECK_NE(u, v);
  if (u > v) std::swap(u, v);
  return static_cast<int64_t>(u) * num_vertices_ + v;
}

void AgmConnectivitySketch::Apply(VertexId u, VertexId v, int64_t low_delta) {
  const int64_t coordinate = EdgeCoordinate(u, v);
  const VertexId low = std::min(u, v);
  const VertexId high = std::max(u, v);
  const size_t n = static_cast<size_t>(num_vertices_);
  // This is the streaming hot path. Both endpoints' samplers of a round
  // share its seed, hence its level hash and fingerprint base, so a round
  // costs one hash and one MulMod for the +1/−1 pair.
  for (int r = 0; r < rounds_; ++r) {
    const VertexPowers* powers = powers_.data() + static_cast<size_t>(r) * n;
    const uint64_t power = MulMod(powers[low].row, powers[high].col);
    const uint64_t low_term = FingerprintTerm(low_delta, power);
    const uint64_t high_term = FingerprintTerm(-low_delta, power);
    const int deepest = L0LevelOf(
        coordinate, round_params_[static_cast<size_t>(r)].seed, levels_);
    L0Cell* low_cells = cells_.data() + CellOffset(r, low);
    L0Cell* high_cells = cells_.data() + CellOffset(r, high);
    for (int j = 0; j <= deepest; ++j) {
      low_cells[j].Add(coordinate, low_delta, low_term);
      high_cells[j].Add(coordinate, -low_delta, high_term);
    }
  }
}

void AgmConnectivitySketch::AddEdge(VertexId u, VertexId v) {
  Apply(u, v, +1);
}

void AgmConnectivitySketch::RemoveEdge(VertexId u, VertexId v) {
  Apply(u, v, -1);
}

void AgmConnectivitySketch::MergeFrom(const AgmConnectivitySketch& other) {
  const Status status = TryMergeFrom(other);
  DCS_CHECK(status.ok());
}

Status AgmConnectivitySketch::TryMergeFrom(
    const AgmConnectivitySketch& other) {
  DCS_RETURN_IF_ERROR(CheckMergeable(other));
  MergeCells(cells_, other.cells_);
  return OkStatus();
}

Status AgmConnectivitySketch::CheckMergeable(
    const AgmConnectivitySketch& other) const {
  if (num_vertices_ != other.num_vertices_) {
    return InvalidArgumentError(
        "cannot merge AGM sketches over different vertex counts (" +
        std::to_string(num_vertices_) + " vs " +
        std::to_string(other.num_vertices_) + ")");
  }
  if (rounds_ != other.rounds_) {
    return InvalidArgumentError(
        "cannot merge AGM sketches with different round counts (" +
        std::to_string(rounds_) + " vs " + std::to_string(other.rounds_) +
        ")");
  }
  if (seed_ != other.seed_) {
    return InvalidArgumentError(
        "cannot merge AGM sketches built from different seeds (" +
        std::to_string(seed_) + " vs " + std::to_string(other.seed_) + ")");
  }
  return OkStatus();
}

StatusOr<uint64_t> AgmConnectivitySketch::AssignSum(
    std::span<const AgmConnectivitySketch* const> parts) {
  std::vector<const L0Cell*> sources;
  sources.reserve(parts.size());
  for (const AgmConnectivitySketch* part : parts) {
    DCS_RETURN_IF_ERROR(CheckMergeable(*part));
    sources.push_back(part->cells_.data());
  }
  uint64_t digest = IdentityDigest();
  // Cell by cell: sum the parts in order (so the result is bit-identical
  // to sequential TryMergeFrom into an empty sketch), store, and fold the
  // stored cell into the digest in Digest()'s order.
  for (size_t i = 0; i < cells_.size(); ++i) {
    L0Cell cell;
    if (!sources.empty()) {
      cell = sources[0][i];
      for (size_t p = 1; p < sources.size(); ++p) {
        cell.MergeFrom(sources[p][i]);
      }
    }
    cells_[i] = cell;
    cell.AppendDigest(digest);
  }
  return digest;
}

uint64_t AgmConnectivitySketch::IdentityDigest() const {
  constexpr uint64_t kOffset = 14695981039346656037ULL;  // FNV-1a offset
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t digest = kOffset;
  const auto fold = [&digest](uint64_t word) {
    digest = (digest ^ word) * kPrime;
  };
  fold(static_cast<uint64_t>(num_vertices_));
  fold(static_cast<uint64_t>(rounds_));
  fold(seed_);
  return digest;
}

uint64_t AgmConnectivitySketch::Digest() const {
  uint64_t digest = IdentityDigest();
  // [round][vertex][level] order: the sampler-by-sampler fold order.
  AppendCellsDigest(cells_, digest);
  return digest;
}

std::vector<Edge> AgmConnectivitySketch::SpanningForest() && {
  return ForestOfCells(cells_);
}

std::vector<Edge> AgmConnectivitySketch::SpanningForest() const& {
  std::vector<L0Cell> cells = cells_;
  return ForestOfCells(cells);
}

std::vector<Edge> AgmConnectivitySketch::ForestOfCells(
    std::span<L0Cell> cells) const {
  const int n = num_vertices_;
  UnionFind components(n);
  auto find = [&components](int v) { return components.Find(v); };

  // Per-component merged samplers, one per round, held at the root's own
  // cells: the merged round-r sampler of root's component.
  const auto sampler = [&](int r, int root) {
    return cells.subspan(CellOffset(r, root), static_cast<size_t>(levels_));
  };
  std::vector<Edge> forest;
  for (int r = 0; r < rounds_; ++r) {
    // Collect one candidate outgoing edge per component root.
    std::vector<std::pair<VertexId, VertexId>> candidates;
    const uint64_t base = round_params_[static_cast<size_t>(r)].base;
    for (int v = 0; v < n; ++v) {
      if (find(v) != v) continue;
      const std::optional<L0Sample> sample = SampleCells(sampler(r, v), base);
      if (!sample.has_value()) continue;
      const VertexId u = static_cast<VertexId>(sample->index / n);
      const VertexId w = static_cast<VertexId>(sample->index % n);
      if (u < 0 || u >= n || w < 0 || w >= n || u == w) continue;
      candidates.emplace_back(u, w);
    }
    bool merged_any = false;
    for (const auto& [u, w] : candidates) {
      const int root_u = find(u);
      const int root_w = find(w);
      if (root_u == root_w) continue;
      // Union: merge w's component into u's and combine the samplers of
      // every remaining round (earlier rounds are never read again). The
      // directed union keeps root_u as the representative, matching where
      // the merged samplers live.
      components.UnionInto(root_w, root_u);
      for (int rr = r; rr < rounds_; ++rr) {
        MergeCells(sampler(rr, root_u), sampler(rr, root_w));
      }
      forest.push_back(Edge{u, w, 1.0});
      merged_any = true;
    }
    if (!merged_any && r > 0) {
      // Components stopped merging: either done or every boundary sampler
      // failed this round; later rounds are fresh, so keep going only if
      // some component still looks non-isolated.
      bool any_boundary = false;
      for (int v = 0; v < n && !any_boundary; ++v) {
        if (find(v) != v) continue;
        if (!CellsAppearZero(sampler(r, v))) any_boundary = true;
      }
      if (!any_boundary) break;
    }
  }
  return forest;
}

int AgmConnectivitySketch::CountComponents() const {
  return num_vertices_ - static_cast<int>(SpanningForest().size());
}

bool AgmConnectivitySketch::IsConnected() const {
  return CountComponents() == 1;
}

int64_t AgmConnectivitySketch::SizeInBits() const {
  return MeasurementCount() * 64;
}

int64_t AgmConnectivitySketch::MeasurementCount() const {
  // Three words per level cell (see L0Sampler::SizeInBits).
  return 3 * static_cast<int64_t>(cells_.size());
}

AgmKConnectivitySketch::AgmKConnectivitySketch(int num_vertices, int k,
                                               int rounds, uint64_t seed)
    : num_vertices_(num_vertices) {
  DCS_CHECK_GE(k, 1);
  layers_.reserve(static_cast<size_t>(k));
  for (int layer = 0; layer < k; ++layer) {
    // Independent seeds per layer; rounds shared.
    layers_.emplace_back(num_vertices, rounds,
                         seed + 0x9e3779b9ULL * static_cast<uint64_t>(layer + 1));
  }
}

void AgmKConnectivitySketch::AddEdge(VertexId u, VertexId v) {
  for (AgmConnectivitySketch& layer : layers_) layer.AddEdge(u, v);
}

void AgmKConnectivitySketch::RemoveEdge(VertexId u, VertexId v) {
  for (AgmConnectivitySketch& layer : layers_) layer.RemoveEdge(u, v);
}

void AgmKConnectivitySketch::MergeFrom(const AgmKConnectivitySketch& other) {
  const Status status = TryMergeFrom(other);
  DCS_CHECK(status.ok());
}

Status AgmKConnectivitySketch::TryMergeFrom(
    const AgmKConnectivitySketch& other) {
  if (num_vertices_ != other.num_vertices_) {
    return InvalidArgumentError(
        "cannot merge k-connectivity sketches over different vertex counts "
        "(" +
        std::to_string(num_vertices_) + " vs " +
        std::to_string(other.num_vertices_) + ")");
  }
  if (layers_.size() != other.layers_.size()) {
    return InvalidArgumentError(
        "cannot merge k-connectivity sketches with different k (" +
        std::to_string(layers_.size()) + " vs " +
        std::to_string(other.layers_.size()) + ")");
  }
  // Validate every layer before mutating any: a failed merge must not leave
  // this sketch half-merged.
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    DCS_RETURN_IF_ERROR(layers_[layer].CheckMergeable(other.layers_[layer]));
  }
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    DCS_RETURN_IF_ERROR(layers_[layer].TryMergeFrom(other.layers_[layer]));
  }
  return OkStatus();
}

StatusOr<uint64_t> AgmKConnectivitySketch::AssignSum(
    std::span<const AgmKConnectivitySketch* const> parts) {
  for (const AgmKConnectivitySketch* part : parts) {
    if (part->num_vertices_ != num_vertices_ ||
        part->layers_.size() != layers_.size()) {
      return InvalidArgumentError(
          "cannot sum k-connectivity sketches of different shapes (n " +
          std::to_string(num_vertices_) + ", k " +
          std::to_string(layers_.size()) + " vs n " +
          std::to_string(part->num_vertices_) + ", k " +
          std::to_string(part->layers_.size()) + ")");
    }
    for (size_t layer = 0; layer < layers_.size(); ++layer) {
      DCS_RETURN_IF_ERROR(
          layers_[layer].CheckMergeable(part->layers_[layer]));
    }
  }
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t digest = kKDigestOffset;
  std::vector<const AgmConnectivitySketch*> layer_parts(parts.size());
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    for (size_t p = 0; p < parts.size(); ++p) {
      layer_parts[p] = &parts[p]->layers_[layer];
    }
    DCS_ASSIGN_OR_RETURN(const uint64_t layer_digest,
                         layers_[layer].AssignSum(layer_parts));
    digest = (digest ^ layer_digest) * kPrime;
  }
  return digest;
}

uint64_t AgmKConnectivitySketch::Digest() const {
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t digest = kKDigestOffset;
  for (const AgmConnectivitySketch& layer : layers_) {
    digest = (digest ^ layer.Digest()) * kPrime;
  }
  return digest;
}

UndirectedGraph AgmKConnectivitySketch::Certificate() && {
  UndirectedGraph certificate(num_vertices_);
  // Forests peeled from earlier layers are deleted from all later layers.
  for (size_t layer = 0; layer < layers_.size(); ++layer) {
    const std::vector<Edge> forest =
        std::move(layers_[layer]).SpanningForest();
    for (const Edge& e : forest) {
      certificate.AddEdge(e.src, e.dst, 1.0);
      for (size_t later = layer + 1; later < layers_.size(); ++later) {
        layers_[later].RemoveEdge(e.src, e.dst);
      }
    }
  }
  return certificate;
}

UndirectedGraph AgmKConnectivitySketch::Certificate() const& {
  AgmKConnectivitySketch copy = *this;
  return std::move(copy).Certificate();
}

double AgmKConnectivitySketch::MinCutUpToK() const {
  return CertificateMinCut(Certificate());
}

int64_t AgmKConnectivitySketch::SizeInBits() const {
  int64_t total = 0;
  for (const AgmConnectivitySketch& layer : layers_) {
    total += layer.SizeInBits();
  }
  return total;
}

double CertificateMinCut(const UndirectedGraph& certificate) {
  if (certificate.num_edges() == 0) return 0;
  if (!IsConnected(certificate)) return 0;
  return StoerWagnerMinCut(certificate).value;
}

AgmConnectivitySketch SketchGraph(const UndirectedGraph& graph, int rounds,
                                  uint64_t seed) {
  AgmConnectivitySketch sketch(graph.num_vertices(), rounds, seed);
  for (const Edge& e : graph.edges()) {
    DCS_CHECK_EQ(e.weight, 1.0);
    sketch.AddEdge(e.src, e.dst);
  }
  return sketch;
}

}  // namespace dcs

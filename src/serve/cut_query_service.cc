#include "serve/cut_query_service.h"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Queries per run. A run bounds the linear FindLane scan and how many
// misses wait for their object's one CutWeights pass.
constexpr int64_t kRunSize = 32;

// One run's distinct miss on an object whose oracle batches: the side it
// answers, its cache key (`hash`, `words`) when the cache is enabled, the
// first query it answers, and, once the run's oracle passes are done, its
// value.
struct Lane {
  int64_t object;
  const CutOracle* oracle;
  const VertexSet* side;
  uint64_t hash;
  PackedWords words;
  int64_t query;
  double value;
};

// The lane already holding this side of `object`, or -1. Linear: a run
// holds kRunSize queries.
int64_t FindLane(std::span<const Lane> lanes, int64_t object, uint64_t hash,
                 PackedWords words) {
  for (size_t k = 0; k < lanes.size(); ++k) {
    if (lanes[k].object == object && lanes[k].hash == hash &&
        std::ranges::equal(lanes[k].words, words)) {
      return static_cast<int64_t>(k);
    }
  }
  return -1;
}

}  // namespace

CutQueryService::CutQueryService(CutQueryServiceOptions options) {
  if (options.enable_cache) {
    CutQueryCache::Options cache_options;
    cache_options.capacity = options.cache_capacity;
    cache_ = std::make_unique<CutQueryCache>(cache_options);
  }
}

CutQueryService::ObjectId CutQueryService::Register(CutOracle oracle) {
  objects_.push_back(std::move(oracle));
  DCS_METRIC_INC("serve.object.registered");
  return static_cast<ObjectId>(objects_.size()) - 1;
}

CutQueryService::ObjectId CutQueryService::RegisterGraph(
    const DirectedGraph& graph) {
  return Register(ExactCutOracle(graph));
}

StatusOr<CutQueryService::ObjectId> CutQueryService::RegisterBackendSketch(
    const DirectedGraph& graph, const std::string& backend,
    const BackendOptions& options) {
  DCS_ASSIGN_OR_RETURN(std::unique_ptr<DirectedCutSketch> sketch,
                       BuildBackendSketch(backend, graph, options));
  owned_sketches_.push_back(std::move(sketch));
  return Register(SketchCutOracle(*owned_sketches_.back()));
}

const CutOracle& CutQueryService::OracleFor(ObjectId object) const {
  DCS_CHECK(object >= 0 && object < static_cast<ObjectId>(objects_.size()));
  return objects_[static_cast<size_t>(object)];
}

std::vector<double> CutQueryService::AnswerBatch(
    const std::vector<Query>& batch) {
  DCS_METRIC_TIMER("serve.batch.latency_ns");
  DCS_METRIC_RECORD("serve.batch.size",
                    static_cast<int64_t>(batch.size()));
  DCS_METRIC_ADD("serve.query.logical", static_cast<int64_t>(batch.size()));
  std::vector<double> answers(batch.size(), 0.0);
  const int64_t count = static_cast<int64_t>(batch.size());
  const bool cacheable = cache_ != nullptr;
  // Cache-key scratch, allocated once per batch: the r-th query of a run
  // packs into words [r * stride, r * stride + its word count), where its
  // lane's key stays until the run's inserts.
  size_t stride = 0;
  if (cacheable) {
    for (const Query& query : batch) {
      stride = std::max(stride, PackedWordCount(query.side.size()));
    }
  }
  std::vector<uint64_t> words(
      stride * static_cast<size_t>(std::min(count, kRunSize)));
  // Per run: misses on objects whose oracle batches become lanes, answered
  // after the probe loop in one AnswerMany per object; lane_of[r] is the
  // lane answering the run's r-th query, or -1 if the probe loop did.
  std::array<Lane, kRunSize> lanes;
  std::array<int64_t, kRunSize> lane_of;
  std::array<const VertexSet*, kRunSize> group_sides;
  std::array<double, kRunSize> group_values;
  std::array<size_t, kRunSize> group_lanes;
  for (int64_t begin = 0; begin < count; begin += kRunSize) {
    const int64_t end = std::min(count, begin + kRunSize);
    size_t num_lanes = 0;
    for (int64_t i = begin; i < end; ++i) {
      const size_t r = static_cast<size_t>(i - begin);
      lane_of[r] = -1;
      const Query& query = batch[static_cast<size_t>(i)];
      const CutOracle& oracle = OracleFor(query.object);
      uint64_t side_hash = 0;
      PackedWords key;
      if (cacheable) {
        const std::span<uint64_t> packed(
            words.data() + r * stride, PackedWordCount(query.side.size()));
        side_hash = PackSideWords(query.side, packed);
        key = packed;
        if (oracle.has_batch()) {
          // A side already pending here is a hit, as it would be had its
          // first miss been inserted before this probe.
          const int64_t lane =
              FindLane({lanes.data(), num_lanes}, query.object, side_hash, key);
          if (lane >= 0) {
            DCS_METRIC_INC("serve.cache.hits");
            lane_of[r] = lane;
            continue;
          }
        }
        if (const auto hit = cache_->Lookup(query.object, side_hash, key)) {
          answers[static_cast<size_t>(i)] = *hit;
          continue;
        }
      }
      if (oracle.has_batch()) {
        lanes[num_lanes] = {query.object, &oracle, &query.side, side_hash,
                            key,          i,       0.0};
        lane_of[r] = static_cast<int64_t>(num_lanes++);
        continue;
      }
      const double value = oracle(query.side);
      answers[static_cast<size_t>(i)] = value;
      if (cacheable) cache_->Insert(query.object, side_hash, key, value);
    }
    // One AnswerMany per object, its lanes in lane order. Answering a lane
    // clears its oracle, so later lanes of an answered object are skipped.
    for (size_t l = 0; l < num_lanes; ++l) {
      if (lanes[l].oracle == nullptr) continue;
      size_t size = 0;
      for (size_t m = l; m < num_lanes; ++m) {
        if (lanes[m].object != lanes[l].object) continue;
        group_sides[size] = lanes[m].side;
        group_lanes[size++] = m;
      }
      lanes[l].oracle->AnswerMany({group_sides.data(), size},
                                  {group_values.data(), size});
      for (size_t k = 0; k < size; ++k) {
        Lane& lane = lanes[group_lanes[k]];
        lane.value = group_values[k];
        lane.oracle = nullptr;
      }
    }
    // Answers and cache inserts in query order; a lane inserts at its
    // first query.
    for (int64_t i = begin; i < end; ++i) {
      const int64_t l = lane_of[static_cast<size_t>(i - begin)];
      if (l < 0) continue;
      const Lane& lane = lanes[static_cast<size_t>(l)];
      answers[static_cast<size_t>(i)] = lane.value;
      if (cacheable && lane.query == i) {
        cache_->Insert(lane.object, lane.hash, lane.words, lane.value);
      }
    }
  }
  return answers;
}

}  // namespace dcs

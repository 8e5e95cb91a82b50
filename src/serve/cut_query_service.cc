#include "serve/cut_query_service.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Queries per run. A run bounds the linear FindLane scan and how many
// misses wait for their object's one CutWeights pass.
constexpr int64_t kRunSize = 32;

// One run's distinct misses on one batching object: lane k answers
// sides[k]. `hashes` and `packed` hold each lane's cache key when the
// cache is enabled.
struct PendingLanes {
  int64_t object = 0;
  const CutOracle* oracle = nullptr;
  std::vector<const VertexSet*> sides;
  std::vector<uint64_t> hashes;
  std::vector<PackedSide> packed;
  std::vector<double> values;

  // The lane already holding this side, or -1. Linear: a run holds
  // kRunSize queries.
  int64_t FindLane(uint64_t hash, const PackedSide& side) const {
    for (size_t k = 0; k < hashes.size(); ++k) {
      if (hashes[k] == hash && packed[k] == side) {
        return static_cast<int64_t>(k);
      }
    }
    return -1;
  }
};

PendingLanes* FindLanes(std::vector<PendingLanes>& pending, int64_t object) {
  for (PendingLanes& lanes : pending) {
    if (lanes.object == object) return &lanes;
  }
  return nullptr;
}

// Query `query` takes its answer from lane `lane` of pending[lanes], and
// inserts it into the cache when `insert` (its lane's first, cached miss).
struct DeferredAnswer {
  int64_t query;
  int64_t lanes;
  int64_t lane;
  bool insert;
};

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
  // Misses on objects whose oracle batches, answered after each run's
  // probe loop in one pass per object; `deferred` records, in query
  // order, which lane answers which query.
  std::vector<PendingLanes> pending;
  std::vector<DeferredAnswer> deferred;
  // Cache-key scratch: PackSideInto reuses the word storage, so after the
  // first query the pack step performs zero allocations.
  PackedSide packed;
  for (int64_t begin = 0; begin < count; begin += kRunSize) {
    const int64_t end = std::min(count, begin + kRunSize);
    pending.clear();
    deferred.clear();
    for (int64_t i = begin; i < end; ++i) {
      const Query& query = batch[static_cast<size_t>(i)];
      const CutOracle& oracle = OracleFor(query.object);
      uint64_t side_hash = 0;
      if (cacheable) side_hash = PackSideInto(query.side, packed);
      PendingLanes* lanes = nullptr;
      if (oracle.has_batch()) {
        lanes = FindLanes(pending, query.object);
        if (cacheable && lanes != nullptr) {
          // A side already pending here is a hit, as it would be had its
          // first miss been inserted before this probe.
          const int64_t lane = lanes->FindLane(side_hash, packed);
          if (lane >= 0) {
            DCS_METRIC_INC("serve.cache.hits");
            deferred.push_back({i, lanes - pending.data(), lane, false});
            continue;
          }
        }
      }
      if (cacheable) {
        if (const auto hit =
                cache_->Lookup(query.object, side_hash, packed)) {
          answers[static_cast<size_t>(i)] = *hit;
          continue;
        }
      }
      if (oracle.has_batch()) {
        if (lanes == nullptr) {
          lanes = &pending.emplace_back();
          lanes->object = query.object;
          lanes->oracle = &oracle;
        }
        deferred.push_back({i, lanes - pending.data(),
                            static_cast<int64_t>(lanes->sides.size()),
                            cacheable});
        lanes->sides.push_back(&query.side);
        if (cacheable) {
          lanes->hashes.push_back(side_hash);
          lanes->packed.push_back(packed);
        }
        continue;
      }
      const double value = oracle(query.side);
      answers[static_cast<size_t>(i)] = value;
      if (cacheable) {
        cache_->Insert(query.object, side_hash, packed, value);
      }
    }
    for (PendingLanes& lanes : pending) {
      lanes.values.resize(lanes.sides.size());
      lanes.oracle->AnswerMany(lanes.sides, lanes.values);
    }
    for (const DeferredAnswer& d : deferred) {
      const PendingLanes& lanes = pending[static_cast<size_t>(d.lanes)];
      const size_t lane = static_cast<size_t>(d.lane);
      answers[static_cast<size_t>(d.query)] = lanes.values[lane];
      if (d.insert) {
        cache_->Insert(lanes.object, lanes.hashes[lane], lanes.packed[lane],
                       lanes.values[lane]);
      }
    }
  }
  return answers;
}

}  // namespace dcs

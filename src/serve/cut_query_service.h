// The batched cut-query serving layer (DESIGN.md §10).
//
// A CutQueryService owns a registry of queryable objects — exact graphs
// and named backend sketches — and answers *batches* of cut queries
// against them, on the calling thread, in runs of 32 queries. Every object
// is a pure function of the side, so repeated queries are answered from an
// LRU cache (query_cache.h) keyed on the canonical side. A run's misses on
// exact graphs are answered together after its cache probes, one
// DirectedGraph::CutWeights pass per graph, bit-identical to answering
// them one at a time; sketch misses run inline in issue order.
//
// Bit accounting: a cached answer is still a logical query. Every batch
// entry increments serve.query.logical exactly once, whether it hit the
// cache or ran the oracle — so the paper's query-count bounds (4 per
// for-each bit, Lemma 3.2) are asserted on serve.query.logical and hold
// with the cache cold or warm (tests/metrics_bounds_test.cc). What the
// cache changes is only how many of those logical queries reach a backend
// oracle.
//
// Thread-safety: register every object before serving (registration is not
// synchronized against queries). AnswerBatch may then run concurrently
// from multiple threads; the cache is the only state they share, and it
// locks its own mutex.

#ifndef DCS_SERVE_CUT_QUERY_SERVICE_H_
#define DCS_SERVE_CUT_QUERY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "lowerbound/cut_oracle.h"
#include "serve/query_cache.h"
#include "sketch/backend_registry.h"
#include "sketch/cut_sketch.h"
#include "util/status.h"

namespace dcs {

struct CutQueryServiceOptions {
  // Memoization cache over every registered object.
  bool enable_cache = true;
  int64_t cache_capacity = 1 << 16;
};

class CutQueryService {
 public:
  using ObjectId = int64_t;

  // One cut query: the oracle's estimate of w(S, V∖S) on `object`.
  struct Query {
    ObjectId object = 0;
    VertexSet side;
  };

  explicit CutQueryService(CutQueryServiceOptions options = {});

  CutQueryService(const CutQueryService&) = delete;
  CutQueryService& operator=(const CutQueryService&) = delete;

  // Registration (call before serving). A registered graph must outlive
  // the service.
  ObjectId RegisterGraph(const DirectedGraph& graph);
  // Builds a registered sparsifier backend (sketch/backend_registry.h)
  // over `graph` by name and registers it. The service owns the sketch,
  // so callers only keep the graph alive during the call.
  // kInvalidArgument naming the valid backends on a typo.
  StatusOr<ObjectId> RegisterBackendSketch(const DirectedGraph& graph,
                                           const std::string& backend,
                                           const BackendOptions& options);

  // Answers batch[i] into result[i] on the calling thread, one run of 32
  // queries at a time; with the cache enabled each query consults it in
  // issue order, and the run's misses populate it in query order. Counts
  // batch.size() logical queries and records serve.batch.{size,latency_ns}.
  std::vector<double> AnswerBatch(const std::vector<Query>& batch);

  int64_t num_objects() const {
    return static_cast<int64_t>(objects_.size());
  }
  // Entries currently cached (0 when the cache is disabled).
  int64_t cache_size() const { return cache_ ? cache_->size() : 0; }

  // Warm-tier hooks (store/cache_snapshot.h): the hottest cached entries
  // for persisting at drain, and their reload at boot. Empty/no-op when
  // the cache is disabled.
  std::vector<CutQueryCache::SnapshotEntry> SnapshotCache(
      int64_t max_entries) const {
    return cache_ ? cache_->SnapshotHottest(max_entries)
                  : std::vector<CutQueryCache::SnapshotEntry>{};
  }
  void RestoreCache(const std::vector<CutQueryCache::SnapshotEntry>& entries) {
    if (cache_) cache_->Restore(entries);
  }

 private:
  ObjectId Register(CutOracle oracle);
  const CutOracle& OracleFor(ObjectId object) const;

  std::vector<CutOracle> objects_;
  // Backend sketches built by RegisterBackendSketch; their oracles point
  // into this storage, which therefore lives as long as the service.
  std::vector<std::unique_ptr<DirectedCutSketch>> owned_sketches_;
  std::unique_ptr<CutQueryCache> cache_;  // null when disabled
};

}  // namespace dcs

#endif  // DCS_SERVE_CUT_QUERY_SERVICE_H_

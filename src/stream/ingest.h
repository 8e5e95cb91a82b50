// Concurrent streaming ingestion with snapshot-consistent queries.
//
// The AGM sketches (stream/agm_sketch.h) are linear, so edge updates from
// many producers can be applied in any order — and edge-disjoint parts can
// be sketched independently and merged. StreamIngestor turns that algebra
// into a pipeline:
//
//  * producers Push() inserts/deletes from any number of threads;
//  * each update is admitted into a fixed-capacity per-shard *gutter*
//    (shard = min(u, v) % num_shards, so shards are edge-disjoint), and a
//    full gutter is flushed by the producer that filled it into the shard's
//    incrementally maintained sketch; a flush swaps the gutter with the
//    shard's preallocated batch buffer, so nothing is allocated per flush;
//  * Barrier() drains every gutter with ParallelFor, sums the shard
//    sketches into the ingestor's one kept seal sketch (AssignSum, one
//    sweep that also folds the digest; a mismatch surfaces as a Status,
//    never an abort), extracts the forest in that sketch's own cells, and
//    seals an immutable StreamSnapshot under a monotonically increasing
//    epoch number;
//  * queries run against the last sealed snapshot while ingestion
//    continues (snapshot-at-batch-boundary consistency): snapshot() hands
//    out a shared_ptr to frozen state.
//
// Because every sketch transition is a commutative addition, the final
// sketch — and therefore every snapshot digest — is bit-identical for any
// producer count, thread count, gutter size, and flush interleaving. Tests
// and bench_stream assert exactly that.
//
// Admission is also where deletions are validated: each shard tracks the
// live multiplicity of its edges (buffered updates included), and a delete
// of an edge that was never inserted is rejected with kFailedPrecondition
// *before* it can reach a sketch. (A raw RemoveEdge of a never-inserted
// edge silently corrupts the linear measurements — see
// stream_test.cc RemoveNeverInsertedEdgeCorruptsRawSketch.) The tracking
// table (LiveEdgeLedger) is flat open addressing: 16-byte {key, count}
// slots, linear probing, backward-shift deletion, no allocation per edge.
//
// Lock order: gutter_mutex before apply_mutex within a shard; the barrier
// takes apply mutexes in ascending shard order. No thread ever holds two
// gutter mutexes.
//
// Metrics (DESIGN.md §8) are recorded per flushed batch or per seal, never
// per Push: `stream.update.applied` and `stream.gutter.flushed` per batch,
// `stream.barrier.merge_ns` / `.forest_ns` per seal, and
// `stream.epoch.sealed` plus the rejected-push tally per Barrier().

#ifndef DCS_STREAM_INGEST_H_
#define DCS_STREAM_INGEST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/types.h"
#include "graph/ugraph.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dcs {

struct StreamIngestorOptions {
  // Edge-disjoint sketch shards (>= 1). More shards reduce producer
  // contention; the sealed result is bit-identical regardless.
  int num_shards = 4;
  // Updates buffered per shard before the admitting producer flushes the
  // gutter into the shard sketch (>= 1).
  int gutter_capacity = 256;
  // Threads used by Barrier() to drain gutters (>= 1).
  int num_threads = 1;
  // Boruvka rounds per connectivity sketch; 0 = the sketch default.
  int rounds = 0;
  // k > 0 maintains AgmKConnectivitySketch shards (sparse cut certificate,
  // min-cut-up-to-k); k == 0 maintains plain AgmConnectivitySketch shards
  // (connectivity/forest only).
  int k = 0;
  // Sketch seed; all shards share it (required for merging).
  uint64_t seed = 1;
};

// Immutable state sealed by one Barrier() call. Queries against a snapshot
// are stable no matter how much ingestion happens afterwards.
struct StreamSnapshot {
  // Monotonically increasing: 0 for the empty pre-ingestion snapshot
  // sealed at construction, +1 per Barrier().
  int64_t epoch = 0;
  // Updates included in this snapshot.
  int64_t updates_applied = 0;
  // Digest of the merged sketch (AgmConnectivitySketch::Digest /
  // AgmKConnectivitySketch::Digest): the bit-identity witness.
  uint64_t digest = 0;

  // Connectivity view (whp correct; see AgmConnectivitySketch).
  std::vector<Edge> forest;
  int components = 0;
  bool connected = false;

  // k > 0 only: the k-forest sparse certificate and its global min cut
  // (exact below k, else a value in [k, true min cut]).
  std::optional<UndirectedGraph> certificate;
  double min_cut_up_to_k = 0.0;
};

class StreamIngestor {
 public:
  explicit StreamIngestor(int num_vertices,
                          StreamIngestorOptions options = {});

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

  int num_vertices() const { return num_vertices_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const StreamIngestorOptions& options() const { return options_; }

  // Admits one update. Thread-safe; any number of concurrent callers.
  //   kInvalidArgument  — endpoint out of [0, n) or a self-loop;
  //   kFailedPrecondition — delete of an edge with live multiplicity 0;
  //   kUnavailable      — the ingestor is draining (Shutdown in progress).
  // Rejected updates leave every sketch and gutter untouched.
  Status Push(const EdgeUpdate& update);
  Status PushInsert(VertexId u, VertexId v);
  Status PushDelete(VertexId u, VertexId v);

  // Drains all gutters (ParallelFor over num_threads), merges the shard
  // sketches, and seals a new snapshot. Returns the new epoch number.
  // Updates pushed concurrently with a Barrier land in either this epoch or
  // the next (snapshot-at-batch-boundary consistency); updates admitted
  // before Barrier() is called are always included. Thread-safe;
  // concurrent barriers serialize.
  StatusOr<int64_t> Barrier();

  // The last sealed snapshot (never null). Cheap; safe concurrently with
  // Push and Barrier.
  std::shared_ptr<const StreamSnapshot> snapshot() const;

  // Epoch of the last sealed snapshot.
  int64_t epoch() const { return snapshot()->epoch; }

  // Drain-then-stop (the SIGTERM path): stops admitting (subsequent Push
  // returns kUnavailable) and seals every already-accepted update into a
  // final Barrier() epoch. Every update accepted before or during the call is
  // either included in the returned epoch or was rejected with a non-OK
  // Push status — never silently lost. Returns the final epoch. Safe to
  // call concurrently with producers; calling it again seals another
  // (empty-delta) epoch.
  StatusOr<int64_t> Shutdown();

  // True once Shutdown has begun; new pushes are being rejected.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Total updates admitted (including still-buffered ones).
  int64_t updates_accepted() const {
    return updates_accepted_.load(std::memory_order_relaxed);
  }

 private:
  // Live multiplicity of every edge a shard has admitted (buffered or
  // applied): the ledger that rejects negative-going deletes. One flat
  // array of 16-byte {key, count} slots keyed by the packed canonical edge
  // (lo << 32) | hi; lo < hi makes every real key nonzero, so key 0 marks
  // an empty slot. Linear probing from Hash64; a count reaching zero frees
  // its slot by backward-shift deletion, so there are no tombstones. The
  // power-of-two capacity doubles at 7/8 load, never shrinks, and is first
  // allocated by the first Insert. The array is mapped pages of its own,
  // so a grown-out array goes back to the kernel instead of staying
  // resident as a freed block in a malloc arena. Not thread-safe (the
  // shard's gutter_mutex guards it).
  class LiveEdgeLedger {
   public:
    LiveEdgeLedger() = default;
    LiveEdgeLedger(const LiveEdgeLedger&) = delete;
    LiveEdgeLedger& operator=(const LiveEdgeLedger&) = delete;
    ~LiveEdgeLedger();

    // Adds one live copy of `key`.
    void Insert(uint64_t key);
    // Removes one live copy of `key`; false, changing nothing, if `key`
    // has none.
    bool Erase(uint64_t key);

   private:
    struct Slot {
      uint64_t key;
      int64_t count;
    };
    // The slot `key` probes first.
    size_t Home(uint64_t key) const;
    // Doubles the capacity (or makes the first allocation) and reinserts.
    void Grow();

    Slot* slots_ = nullptr;  // capacity_ zero-filled mapped slots
    size_t capacity_ = 0;
    size_t occupied_ = 0;
  };

  struct Shard {
    // Admission state; gutter_mutex also guards `live`.
    std::mutex gutter_mutex;
    std::vector<EdgeUpdate> gutter;
    LiveEdgeLedger live;

    // Application state: exactly one sketch is engaged (by options.k).
    std::mutex apply_mutex;
    std::optional<AgmConnectivitySketch> sketch;
    std::optional<AgmKConnectivitySketch> ksketch;
    // The gutter's swap partner, empty between flushes; both keep the
    // capacity reserved at construction.
    std::vector<EdgeUpdate> batch;
    int64_t applied = 0;  // updates applied to the sketch
  };

  // Validates and admits one update (the body of Push, minus the tallies).
  Status Admit(const EdgeUpdate& update);

  // Swaps the gutter with the shard's empty batch buffer under
  // `gutter_lock` (held on entry, on shard.gutter_mutex) and the apply
  // mutex, releases `gutter_lock`, then applies and empties the batch.
  void ApplyGutter(Shard& shard, std::unique_lock<std::mutex>& gutter_lock);

  // Applies the shard's gutter if it holds any updates.
  void FlushShard(Shard& shard);

  // Sums the shard sketches into the seal sketch under all apply mutexes,
  // then releases them and extracts the snapshot (everything but the epoch
  // number) from the seal sketch in place. AssignSum failures (never
  // expected from the ingestor's own same-seed shards) propagate as a
  // Status. Called by the constructor and under barrier_mutex_.
  StatusOr<std::shared_ptr<StreamSnapshot>> SealMerged();

  int num_vertices_;
  StreamIngestorOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> updates_accepted_{0};
  // Pushes rejected since the last Barrier(), which flushes the tally into
  // `stream.update.rejected`.
  std::atomic<int64_t> updates_rejected_{0};
  // Set (before the final flush) by Shutdown; re-checked inside each
  // shard's gutter_mutex so every Push is strictly ordered against the
  // drain barrier: admitted before it (and flushed) or rejected after it.
  std::atomic<bool> draining_{false};

  // Serializes Barrier() calls.
  std::mutex barrier_mutex_;
  // The sketch every seal sums the shards into and then consumes (one is
  // engaged, by options.k): kept for the ingestor's lifetime, so a seal
  // allocates no sketch. Guarded by barrier_mutex_.
  std::optional<AgmConnectivitySketch> seal_sketch_;
  std::optional<AgmKConnectivitySketch> seal_ksketch_;

  // Guards snapshot_ swaps; epoch lives inside the snapshot.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const StreamSnapshot> snapshot_;
};

// Replays every update of `reader` into `ingestor`, sealing an epoch every
// `updates_per_epoch` updates (0 = single final epoch). Stops at the first
// failed update or barrier. Returns the number of updates applied.
StatusOr<int64_t> ReplayStream(BinaryStreamReader& reader,
                               StreamIngestor& ingestor,
                               int64_t updates_per_epoch);

}  // namespace dcs

#endif  // DCS_STREAM_INGEST_H_

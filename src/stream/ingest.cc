#include "stream/ingest.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include <sys/mman.h>

#include "stream/l0_sampler.h"
#include "util/metrics.h"
#include "util/union_find.h"

namespace dcs {
namespace {

// Packs a canonical edge {lo, hi} (lo < hi) into the shard ledger key;
// hi >= 1, so a key is never 0.
uint64_t EdgeKey(VertexId lo, VertexId hi) {
  return (static_cast<uint64_t>(lo) << 32) | static_cast<uint64_t>(hi);
}

// Slots of a ledger's first allocation: one 4 KiB page.
constexpr size_t kLedgerInitialSlots = 256;

// `bytes` of zero-filled anonymous pages; unmapped with munmap.
void* MapZeroed(size_t bytes) {
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DCS_CHECK(pages != MAP_FAILED);
  return pages;
}

int64_t NanosBetween(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
      .count();
}

// A spanning forest of `graph` plus the implied component count.
void ForestOf(const UndirectedGraph& graph, std::vector<Edge>& forest,
              int& components) {
  UnionFind uf(graph.num_vertices());
  forest.clear();
  for (const Edge& e : graph.edges()) {
    if (uf.Union(e.src, e.dst)) forest.push_back(e);
  }
  components = graph.num_vertices() - static_cast<int>(forest.size());
}

}  // namespace

StreamIngestor::LiveEdgeLedger::~LiveEdgeLedger() {
  if (slots_ != nullptr) munmap(slots_, capacity_ * sizeof(Slot));
}

size_t StreamIngestor::LiveEdgeLedger::Home(uint64_t key) const {
  return static_cast<size_t>(Hash64(key, 0)) & (capacity_ - 1);
}

void StreamIngestor::LiveEdgeLedger::Insert(uint64_t key) {
  // Grow before probing, so an empty slot always ends the probe.
  if ((occupied_ + 1) * 8 > capacity_ * 7) Grow();
  const size_t mask = capacity_ - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.key == key) {
      ++slot.count;
      return;
    }
    if (slot.key == 0) {
      slot = Slot{key, 1};
      ++occupied_;
      return;
    }
  }
}

bool StreamIngestor::LiveEdgeLedger::Erase(uint64_t key) {
  if (capacity_ == 0) return false;
  const size_t mask = capacity_ - 1;
  size_t hole = Home(key);
  while (slots_[hole].key != key) {
    if (slots_[hole].key == 0) return false;
    hole = (hole + 1) & mask;
  }
  if (--slots_[hole].count > 0) return true;
  // Backward shift: walk the rest of the probe run and move into the hole
  // every slot whose home is not cyclically inside (hole, j], so no later
  // probe for it crosses an empty slot.
  for (size_t j = (hole + 1) & mask; slots_[j].key != 0; j = (j + 1) & mask) {
    if (((j - Home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{0, 0};
  --occupied_;
  return true;
}

void StreamIngestor::LiveEdgeLedger::Grow() {
  Slot* const old = slots_;
  const size_t old_capacity = capacity_;
  capacity_ = old_capacity == 0 ? kLedgerInitialSlots : 2 * old_capacity;
  slots_ = static_cast<Slot*>(MapZeroed(capacity_ * sizeof(Slot)));
  if (old == nullptr) return;
  const size_t mask = capacity_ - 1;
  for (size_t k = 0; k < old_capacity; ++k) {
    if (old[k].key == 0) continue;
    size_t i = Home(old[k].key);
    while (slots_[i].key != 0) i = (i + 1) & mask;
    slots_[i] = old[k];
  }
  munmap(old, old_capacity * sizeof(Slot));
}

StreamIngestor::StreamIngestor(int num_vertices, StreamIngestorOptions options)
    : num_vertices_(num_vertices),
      options_(options) {
  DCS_CHECK_GE(num_vertices, 2);
  DCS_CHECK_GE(options.num_shards, 1);
  DCS_CHECK_GE(options.gutter_capacity, 1);
  DCS_CHECK_GE(options.num_threads, 1);
  DCS_CHECK_GE(options.rounds, 0);
  DCS_CHECK_GE(options.k, 0);
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    if (options.k == 0) {
      shard->sketch.emplace(num_vertices, options.rounds, options.seed);
    } else {
      shard->ksketch.emplace(num_vertices, options.k, options.rounds,
                             options.seed);
    }
    shard->gutter.reserve(static_cast<size_t>(options.gutter_capacity));
    shard->batch.reserve(static_cast<size_t>(options.gutter_capacity));
    shards_.push_back(std::move(shard));
  }
  if (options.k == 0) {
    seal_sketch_.emplace(num_vertices, options.rounds, options.seed);
  } else {
    seal_ksketch_.emplace(num_vertices, options.k, options.rounds,
                          options.seed);
  }
  // Seal the empty epoch-0 snapshot so queries are well-defined before the
  // first Barrier(). Summing fresh same-seed shards cannot fail.
  StatusOr<std::shared_ptr<StreamSnapshot>> initial = SealMerged();
  DCS_CHECK(initial.ok());
  (*initial)->epoch = 0;
  snapshot_ = std::move(*initial);
}

Status StreamIngestor::Push(const EdgeUpdate& update) {
  Status status = Admit(update);
  if (status.ok()) {
    updates_accepted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    updates_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status StreamIngestor::Admit(const EdgeUpdate& update) {
  if (update.u < 0 || update.u >= num_vertices_ || update.v < 0 ||
      update.v >= num_vertices_) {
    return InvalidArgumentError(
        "update endpoint out of range [0, " + std::to_string(num_vertices_) +
        "): " + std::to_string(update.u) + " -- " + std::to_string(update.v));
  }
  if (update.u == update.v) {
    return InvalidArgumentError("update is a self-loop at vertex " +
                                std::to_string(update.u));
  }
  const VertexId lo = std::min(update.u, update.v);
  const VertexId hi = std::max(update.u, update.v);
  Shard& shard = *shards_[static_cast<size_t>(lo % num_shards())];
  {
    std::unique_lock<std::mutex> lock(shard.gutter_mutex);
    // Checked under the gutter mutex: Shutdown's final flush takes this
    // mutex after setting draining_, so a Push either precedes that flush
    // (accepted and sealed) or observes the flag (rejected). No accepted
    // update can slip past the final epoch.
    if (draining_.load(std::memory_order_acquire)) {
      return UnavailableError("ingestor is draining: update rejected");
    }
    const uint64_t key = EdgeKey(lo, hi);
    if (update.is_delete) {
      if (!shard.live.Erase(key)) {
        return FailedPreconditionError(
            "delete of edge " + std::to_string(lo) + " -- " +
            std::to_string(hi) +
            " with live multiplicity 0 (never inserted or already deleted)");
      }
    } else {
      shard.live.Insert(key);
    }
    shard.gutter.push_back(EdgeUpdate{lo, hi, update.is_delete});
    if (static_cast<int>(shard.gutter.size()) >= options_.gutter_capacity) {
      ApplyGutter(shard, lock);
    }
  }
  return OkStatus();
}

Status StreamIngestor::PushInsert(VertexId u, VertexId v) {
  return Push(EdgeUpdate{u, v, false});
}

Status StreamIngestor::PushDelete(VertexId u, VertexId v) {
  return Push(EdgeUpdate{u, v, true});
}

void StreamIngestor::ApplyGutter(Shard& shard,
                                 std::unique_lock<std::mutex>& gutter_lock) {
  // Acquire the apply mutex before releasing the gutter mutex (the
  // documented lock order): the batch buffer is only touched under it, and
  // a barrier cannot seal a snapshot in the window between this swap and
  // the apply — the swapped batch is always applied before SealMerged can
  // freeze this shard. The gutter is released before the (per-update-cost)
  // apply, so admission on this shard resumes immediately. Swapping two
  // preallocated buffers keeps flushes free of allocation.
  std::lock_guard<std::mutex> apply_lock(shard.apply_mutex);
  shard.gutter.swap(shard.batch);
  gutter_lock.unlock();
  for (const EdgeUpdate& update : shard.batch) {
    if (options_.k == 0) {
      if (update.is_delete) {
        shard.sketch->RemoveEdge(update.u, update.v);
      } else {
        shard.sketch->AddEdge(update.u, update.v);
      }
    } else {
      if (update.is_delete) {
        shard.ksketch->RemoveEdge(update.u, update.v);
      } else {
        shard.ksketch->AddEdge(update.u, update.v);
      }
    }
  }
  shard.applied += static_cast<int64_t>(shard.batch.size());
  DCS_METRIC_ADD("stream.update.applied",
                 static_cast<int64_t>(shard.batch.size()));
  DCS_METRIC_INC("stream.gutter.flushed");
  shard.batch.clear();
}

void StreamIngestor::FlushShard(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.gutter_mutex);
  if (!shard.gutter.empty()) ApplyGutter(shard, lock);
}

StatusOr<std::shared_ptr<StreamSnapshot>> StreamIngestor::SealMerged() {
  const auto started = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point merged_at;
  // Freeze every shard sketch at once (ascending order; producers mid-flush
  // block here, producers mid-admission do not).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    locks.emplace_back(shard->apply_mutex);
  }
  auto snapshot = std::make_shared<StreamSnapshot>();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    snapshot->updates_applied += shard->applied;
  }
  if (options_.k == 0) {
    std::vector<const AgmConnectivitySketch*> parts;
    parts.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_) {
      parts.push_back(&*shard->sketch);
    }
    DCS_ASSIGN_OR_RETURN(snapshot->digest, seal_sketch_->AssignSum(parts));
    // The sum is done; Boruvka runs in the seal sketch, which only the
    // next seal (serialized by barrier_mutex_) touches again, so producers
    // may resume flushing.
    locks.clear();
    merged_at = std::chrono::steady_clock::now();
    snapshot->forest = std::move(*seal_sketch_).SpanningForest();
    // A forest is acyclic, so components = n − |forest|.
    snapshot->components =
        num_vertices_ - static_cast<int>(snapshot->forest.size());
  } else {
    std::vector<const AgmKConnectivitySketch*> parts;
    parts.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_) {
      parts.push_back(&*shard->ksketch);
    }
    DCS_ASSIGN_OR_RETURN(snapshot->digest, seal_ksketch_->AssignSum(parts));
    locks.clear();
    merged_at = std::chrono::steady_clock::now();
    snapshot->certificate = std::move(*seal_ksketch_).Certificate();
    snapshot->min_cut_up_to_k = CertificateMinCut(*snapshot->certificate);
    ForestOf(*snapshot->certificate, snapshot->forest, snapshot->components);
  }
  snapshot->connected = snapshot->components == 1;
  DCS_METRIC_RECORD("stream.barrier.merge_ns",
                    NanosBetween(started, merged_at));
  DCS_METRIC_RECORD("stream.barrier.forest_ns",
                    NanosBetween(merged_at, std::chrono::steady_clock::now()));
  return snapshot;
}

StatusOr<int64_t> StreamIngestor::Barrier() {
  std::lock_guard<std::mutex> barrier_lock(barrier_mutex_);
  DCS_METRIC_ADD("stream.update.rejected",
                 updates_rejected_.exchange(0, std::memory_order_relaxed));
  ParallelFor(options_.num_threads, num_shards(), [this](int64_t s) {
    FlushShard(*shards_[static_cast<size_t>(s)]);
  });
  DCS_ASSIGN_OR_RETURN(std::shared_ptr<StreamSnapshot> snapshot, SealMerged());
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
  snapshot->epoch = snapshot_->epoch + 1;
  snapshot_ = std::move(snapshot);
  DCS_METRIC_INC("stream.epoch.sealed");
  return snapshot_->epoch;
}

StatusOr<int64_t> StreamIngestor::Shutdown() {
  // Order matters: the flag goes up first, then the final barrier's
  // FlushShard walks every gutter mutex. Any Push that was admitted under
  // a gutter mutex before the flush reached it is in that gutter (or
  // already applied under the shard's apply mutex, which SealMerged also
  // takes); any Push after sees draining_ and is rejected.
  draining_.store(true, std::memory_order_release);
  return Barrier();
}

std::shared_ptr<const StreamSnapshot> StreamIngestor::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

StatusOr<int64_t> ReplayStream(BinaryStreamReader& reader,
                               StreamIngestor& ingestor,
                               int64_t updates_per_epoch) {
  DCS_CHECK_GE(updates_per_epoch, 0);
  int64_t applied = 0;
  int64_t since_barrier = 0;
  while (!reader.AtEnd()) {
    DCS_ASSIGN_OR_RETURN(const EdgeUpdate update, reader.Next());
    DCS_RETURN_IF_ERROR(ingestor.Push(update));
    ++applied;
    if (updates_per_epoch > 0 && ++since_barrier >= updates_per_epoch) {
      DCS_RETURN_IF_ERROR(ingestor.Barrier().status());
      since_barrier = 0;
    }
  }
  DCS_RETURN_IF_ERROR(ingestor.Barrier().status());
  return applied;
}

}  // namespace dcs

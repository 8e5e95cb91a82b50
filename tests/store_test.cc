// Disk-backed sketch store (store/sketch_store.h) round-trip and recovery
// tests.
//
// The central property: random mixes of ALL eight storable StreamKinds
// appended across seal/no-seal reopen cycles come back memcmp-identical
// after the store is "killed" (destructor closes without sealing) and
// reopened — the store may lose an unsealed tail to a crash, but it must
// never serve different bytes than were put. Plus fsck classification over
// a deliberately torn tail, mid-file header and payload damage, a segment
// roll, the pinned byte layout and the older layout's refusal, compaction
// reclaim, the warm-tier cache snapshot round trip, the verified records
// Open hands a booting worker, and that worker's warm-load contract.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "fnv1a.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/cluster.h"
#include "serve/cut_query_service.h"
#include "serve/query_cache.h"
#include "serve/wire.h"
#include "sketch/cut_balance_sparsifier.h"
#include "sketch/directed_sketches.h"
#include "sketch/sampled_sketches.h"
#include "sketch/serialization.h"
#include "store/cache_snapshot.h"
#include "store/segment.h"
#include "serve/transport.h"
#include "store/sketch_store.h"
#include "stream/binary_stream.h"
#include "util/bitio.h"
#include "util/envelope.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {
namespace {

// A fresh scratch directory per test, removed (recursively, one level) on
// destruction.
class ScratchDir {
 public:
  ScratchDir() {
    char temp[] = "/tmp/dcs_store_test_XXXXXX";
    path_ = ::mkdtemp(temp);
  }
  ~ScratchDir() {
    const std::string command = "rm -rf '" + path_ + "'";
    if (std::system(command.c_str()) != 0) {
      // Best-effort cleanup; nothing to assert on in a destructor.
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  ASSERT_EQ(std::fclose(file), 0);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  for (int c = std::fgetc(file); c != EOF; c = std::fgetc(file)) {
    bytes.push_back(static_cast<uint8_t>(c));
  }
  std::fclose(file);
  return bytes;
}

// XORs `mask` into the byte at `offset` of the file at `path`.
void FlipFileByte(const std::string& path, long offset, int mask) {
  FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, offset, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, offset, SEEK_SET), 0);
  std::fputc(byte ^ mask, file);
  ASSERT_EQ(std::fclose(file), 0);
}

struct TestObject {
  StreamKind kind = StreamKind::kDirectedGraph;
  std::vector<uint8_t> bytes;
  int64_t bit_count = 0;
};

// One valid envelope of every storable StreamKind, deterministic in `rng`.
// Variety in sizes is deliberate: some payloads span several hundred bytes,
// others a few dozen.
std::vector<TestObject> MakeOneOfEachKind(Rng& rng) {
  std::vector<TestObject> objects;
  auto add = [&objects](StreamKind kind, const BitWriter& writer) {
    objects.push_back(TestObject{kind, writer.bytes(), writer.bit_count()});
  };
  const int n = 8 + static_cast<int>(rng.UniformInt(8));
  const DirectedGraph digraph = RandomBalancedDigraph(n, 0.5, 2.0, rng);
  const UndirectedGraph ugraph =
      RandomUndirectedGraph(n, 0.5, 0.25, 1.5, true, rng);
  {
    BitWriter writer;
    SerializeDirectedGraph(digraph, writer);
    add(StreamKind::kDirectedGraph, writer);
  }
  {
    BitWriter writer;
    SerializeUndirectedGraph(ugraph, writer);
    add(StreamKind::kUndirectedGraph, writer);
  }
  {
    BitWriter writer;
    ForEachCutSketch(ugraph, 0.4, rng).Serialize(writer);
    add(StreamKind::kForEachSketch, writer);
  }
  {
    BitWriter writer;
    BenczurKargerSparsifier(ugraph, 0.4, rng).Serialize(writer);
    add(StreamKind::kForAllSparsifier, writer);
  }
  {
    BitWriter writer;
    DirectedForEachSketch(digraph, 0.4, 2.0, rng).Serialize(writer);
    add(StreamKind::kDirectedForEachSketch, writer);
  }
  {
    BitWriter writer;
    DirectedForAllSketch(digraph, 0.4, 2.0, rng).Serialize(writer);
    add(StreamKind::kDirectedForAllSketch, writer);
  }
  {
    BinaryStreamWriter stream(n);
    for (const EdgeUpdate& update :
         RandomUpdateStream(n, 20 + static_cast<int64_t>(rng.UniformInt(20)),
                            0.2, rng)) {
      stream.Append(update);
    }
    BitWriter writer;
    stream.Seal(writer);
    add(StreamKind::kEdgeStream, writer);
  }
  {
    BitWriter writer;
    CutBalanceSparsifier(digraph, 0.4, 2.0, rng).Serialize(writer);
    add(StreamKind::kCutBalanceSparsifier, writer);
  }
  return objects;
}

TEST(SketchStoreTest, AllEightKindsRoundTripAcrossReopens) {
  ScratchDir scratch;
  Rng rng(2026);
  // What each object id should currently hold (later puts supersede).
  std::map<int64_t, TestObject> expected;
  int64_t next_id = 0;

  // Three "process lifetimes". The first two end in Seal (a clean drain);
  // the third ends with the destructor only — a crash-equivalent close
  // whose appended records must still be readable after recovery because
  // the bytes were written through, just not sealed.
  for (int lifetime = 0; lifetime < 3; ++lifetime) {
    auto store = SketchStore::Open(scratch.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // Everything from prior lifetimes is still there, bit for bit.
    for (const auto& [id, want] : expected) {
      const auto got = (*store)->Get(id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->kind, want.kind);
      EXPECT_EQ(got->bit_count, want.bit_count);
      EXPECT_EQ(got->bytes, want.bytes);
    }
    const std::vector<TestObject> fresh = MakeOneOfEachKind(rng);
    for (const TestObject& object : fresh) {
      const int64_t id = next_id++;
      ASSERT_TRUE((*store)
                      ->Put(id, object.kind, object.bytes, object.bit_count)
                      .ok());
      expected[id] = object;
    }
    // Overwrite one earlier object with a different payload: the newest
    // version must win after reopen.
    if (lifetime > 0) {
      const TestObject& replacement = fresh[0];
      ASSERT_TRUE((*store)
                      ->Put(0, replacement.kind, replacement.bytes,
                            replacement.bit_count)
                      .ok());
      expected[0] = replacement;
    }
    if (lifetime < 2) {
      ASSERT_TRUE((*store)->Seal().ok());
    }
  }

  auto reopened = SketchStore::Open(scratch.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->num_objects(),
            static_cast<int64_t>(expected.size()));
  for (const auto& [id, want] : expected) {
    const auto got = (*reopened)->Get(id);
    ASSERT_TRUE(got.ok()) << "object " << id << ": "
                          << got.status().ToString();
    EXPECT_EQ(got->kind, want.kind) << "object " << id;
    EXPECT_EQ(got->bit_count, want.bit_count) << "object " << id;
    EXPECT_EQ(got->bytes, want.bytes) << "object " << id;
  }
  const auto missing = (*reopened)->Get(next_id + 17);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SketchStoreTest, PutRejectsBytesThatAreNotAnEnvelopeOfTheKind) {
  ScratchDir scratch;
  auto store = SketchStore::Open(scratch.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Rng rng(5);
  BitWriter writer;
  SerializeDirectedGraph(RandomBalancedDigraph(6, 0.5, 2.0, rng), writer);
  // Wrong kind for valid bytes: the store must refuse to hold bytes it
  // could not re-serve under the declared kind.
  EXPECT_FALSE((*store)
                   ->Put(0, StreamKind::kUndirectedGraph, writer.bytes(),
                         writer.bit_count())
                   .ok());
  // Garbage bytes under any kind.
  std::vector<uint8_t> garbage(64);
  for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
  EXPECT_FALSE((*store)
                   ->Put(1, StreamKind::kDirectedGraph, garbage, 64 * 8)
                   .ok());
  // Well-formed envelopes of kinds the store does not hold: the reserved
  // value 9 (the older layout's index footer) and a cache snapshot.
  for (const uint64_t kind :
       {uint64_t{9}, static_cast<uint64_t>(StreamKind::kCacheSnapshot)}) {
    BitWriter envelope;
    AppendEnvelope(0xD5CE, kind, writer.bytes(), writer.bit_count(),
                   envelope);
    EXPECT_FALSE((*store)
                     ->Put(2, static_cast<StreamKind>(kind),
                           envelope.bytes(), envelope.bit_count())
                     .ok())
        << "kind " << kind;
  }
  EXPECT_EQ((*store)->num_objects(), 0);
}

// Appends a valid object, kills the store unsealed, then tears the
// segment's tail mid-record on disk.
void TearActiveSegmentTail(const std::string& dir, int64_t* kept_objects) {
  Rng rng(99);
  const std::vector<TestObject> objects = MakeOneOfEachKind(rng);
  {
    auto store = SketchStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE((*store)
                      ->Put(static_cast<int64_t>(i), objects[i].kind,
                            objects[i].bytes, objects[i].bit_count)
                      .ok());
    }
    // No Seal: the destructor close is the simulated kill.
  }
  // Chop the file inside the second record.
  const std::string segment = dir + "/segment-000001.seg";
  struct stat info;
  ASSERT_EQ(::stat(segment.c_str(), &info), 0);
  const int64_t second_offset = SegmentRecordByteLength(objects[0].bit_count);
  ASSERT_LT(second_offset, info.st_size);
  ASSERT_EQ(::truncate(segment.c_str(),
                       second_offset +
                           (info.st_size - second_offset) / 2),
            0);
  *kept_objects = 1;
}

TEST(SketchStoreTest, FsckClassifiesATornTailWithoutTouchingTheFile) {
  ScratchDir scratch;
  int64_t kept = 0;
  TearActiveSegmentTail(scratch.path(), &kept);

  struct stat before;
  ASSERT_EQ(::stat((scratch.path() + "/segment-000001.seg").c_str(),
                   &before),
            0);
  const auto report = FsckSketchStore(scratch.path());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->segments.size(), 1u);
  EXPECT_EQ(report->segments[0].state, "recovered_torn_tail");
  EXPECT_EQ(report->segments[0].records, kept);
  EXPECT_GT(report->segments[0].dropped_tail_bytes, 0);
  EXPECT_EQ(report->corrupt_segments, 0);
  EXPECT_EQ(report->recovered_segments, 1);
  EXPECT_TRUE(report->clean());
  // fsck is read-only: same size after as before.
  struct stat after;
  ASSERT_EQ(::stat((scratch.path() + "/segment-000001.seg").c_str(),
                   &after),
            0);
  EXPECT_EQ(before.st_size, after.st_size);
}

TEST(SketchStoreTest, OpenRecoversATornTailByTruncating) {
  ScratchDir scratch;
  int64_t kept = 0;
  TearActiveSegmentTail(scratch.path(), &kept);

  auto store = SketchStore::Open(scratch.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->get()->open_report().torn_tails_recovered, 1);
  EXPECT_GT(store->get()->open_report().dropped_tail_bytes, 0);
  EXPECT_EQ(store->get()->num_objects(), kept);
  EXPECT_TRUE(store->get()->Get(0).ok());
  EXPECT_EQ(store->get()->Get(1).status().code(), StatusCode::kNotFound);
  // The truncation is durable: a second fsck sees a clean unsealed prefix.
  store->reset();
  const auto report = FsckSketchStore(scratch.path());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->segments[0].state, "unsealed");
  EXPECT_EQ(report->recovered_segments, 0);
}

TEST(SketchStoreTest, ZeroByteSegmentOpensAsTheActiveSegment) {
  // A crash right after a roll created the next segment leaves it empty:
  // the scan must take it as an empty unsealed segment, not fail to map.
  ScratchDir scratch;
  Rng rng(5);
  const std::vector<TestObject> objects = MakeOneOfEachKind(rng);
  {
    auto store = SketchStore::Open(scratch.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)
                    ->Put(0, objects[0].kind, objects[0].bytes,
                          objects[0].bit_count)
                    .ok());
    ASSERT_TRUE((*store)->Seal().ok());
  }
  std::FILE* empty =
      std::fopen((scratch.path() + "/segment-000002.seg").c_str(), "wb");
  ASSERT_NE(empty, nullptr);
  ASSERT_EQ(std::fclose(empty), 0);

  const auto fsck = FsckSketchStore(scratch.path());
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  ASSERT_EQ(fsck->segments.size(), 2u);
  EXPECT_EQ(fsck->segments[1].state, "unsealed");
  EXPECT_EQ(fsck->segments[1].records, 0);
  EXPECT_TRUE(fsck->clean());

  std::vector<SegmentRecord> records;
  auto store = SketchStore::Open(scratch.path(), &records);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->open_report().segments, 2);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, objects[0].bytes);
  // The empty segment is the active one: the next Put lands in it.
  ASSERT_TRUE((*store)
                  ->Put(1, objects[1].kind, objects[1].bytes,
                        objects[1].bit_count)
                  .ok());
  const auto got = (*store)->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->bytes, objects[1].bytes);
  EXPECT_EQ(ReadFileBytes(scratch.path() + "/segment-000002.seg").size(),
            static_cast<size_t>(SegmentRecordByteLength(objects[1].bit_count)));
}

TEST(SketchStoreTest, UnreadableSegmentIsAStatusNotAnAbort) {
  // A segment name that is a directory opens but cannot be mapped; one
  // that is a dangling link cannot be opened. Both refuse Open and fsck
  // with the reason, and neither is called corruption.
  const struct {
    const char* label;
    StatusCode code;
  } cases[] = {{"directory", StatusCode::kInternal},
               {"dangling link", StatusCode::kNotFound}};
  for (const auto& c : cases) {
    ScratchDir scratch;
    const std::string segment = scratch.path() + "/segment-000001.seg";
    if (c.code == StatusCode::kInternal) {
      ASSERT_EQ(::mkdir(segment.c_str(), 0755), 0);
    } else {
      ASSERT_EQ(::symlink("nowhere.seg", segment.c_str()), 0);
    }
    const auto store = SketchStore::Open(scratch.path());
    ASSERT_FALSE(store.ok()) << c.label;
    EXPECT_EQ(store.status().code(), c.code)
        << c.label << ": " << store.status().ToString();
    EXPECT_NE(store.status().message().find("segment-000001.seg"),
              std::string::npos)
        << store.status().ToString();
    const auto fsck = FsckSketchStore(scratch.path());
    ASSERT_FALSE(fsck.ok()) << c.label;
    EXPECT_EQ(fsck.status().code(), c.code)
        << c.label << ": " << fsck.status().ToString();
  }
}

TEST(SketchStoreTest, MidFileDamageIsDataLossNotRecovery) {
  Rng rng(7);
  const std::vector<TestObject> objects = MakeOneOfEachKind(rng);
  // Byte 3 is in the FIRST record's header (its object id), byte 40 in its
  // payload: either way committed data is damaged while a later record is
  // intact — truncating would silently discard record 1, so the store must
  // refuse to open and leave the file as it is.
  for (const long offset : {3L, 40L}) {
    ScratchDir scratch;
    {
      auto store = SketchStore::Open(scratch.path());
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)
                      ->Put(0, objects[0].kind, objects[0].bytes,
                            objects[0].bit_count)
                      .ok());
      ASSERT_TRUE((*store)
                      ->Put(1, objects[1].kind, objects[1].bytes,
                            objects[1].bit_count)
                      .ok());
    }
    const std::string segment = scratch.path() + "/segment-000001.seg";
    FlipFileByte(segment, offset, 0x20);
    const std::vector<uint8_t> damaged = ReadFileBytes(segment);

    const auto store = SketchStore::Open(scratch.path());
    ASSERT_FALSE(store.ok()) << "byte " << offset;
    EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(store.status().ToString().find("data_loss: segment"),
              std::string::npos)
        << store.status().ToString();
    EXPECT_EQ(ReadFileBytes(segment), damaged) << "byte " << offset;

    const auto report = FsckSketchStore(scratch.path());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->segments[0].state, "corrupt") << "byte " << offset;
    EXPECT_FALSE(report->clean());
  }
}

TEST(SketchStoreTest, CompactDropsSupersededVersions) {
  ScratchDir scratch;
  Rng rng(11);
  const std::vector<TestObject> objects = MakeOneOfEachKind(rng);
  auto store = SketchStore::Open(scratch.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Five versions of object 0, one of object 1.
  for (int version = 0; version < 5; ++version) {
    ASSERT_TRUE((*store)
                    ->Put(0, objects[0].kind, objects[0].bytes,
                          objects[0].bit_count)
                    .ok());
  }
  ASSERT_TRUE((*store)
                  ->Put(1, objects[1].kind, objects[1].bytes,
                        objects[1].bit_count)
                  .ok());
  const auto report = (*store)->Compact();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records_dropped, 4);
  EXPECT_LT(report->bytes_after, report->bytes_before);
  EXPECT_EQ((*store)->num_objects(), 2);
  const auto got = (*store)->Get(0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->bytes, objects[0].bytes);
  // Compaction leaves exactly one sealed segment behind.
  store->reset();
  const auto fsck = FsckSketchStore(scratch.path());
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  ASSERT_EQ(fsck->segments.size(), 1u);
  EXPECT_EQ(fsck->segments[0].state, "sealed");
}

// The byte layout, pinned: two records and a seal trailer over graphs
// whose edges are placed by hand and whose weights come from a fixed seed.
// Any change to a field's width, order, magic or checksum moves the
// digest; such a change also bumps the record magic, so that ScanSegment
// can name the layout it replaced. The records' graph payloads are pinned
// apart from their envelopes: FNV-1a over each equals the checksum field
// the 0x5E61 layout's version-1 envelopes carried, so the move to CRC32C
// left every payload bit in place.
TEST(SketchStoreTest, SealedTwoRecordImageIsPinned) {
  Rng rng(2024);
  std::vector<uint8_t> image;
  int64_t payload_bytes = 0;
  for (int64_t id : {3, 10}) {
    DirectedGraph graph(5);
    for (int v = 0; v < 5; ++v) {
      graph.AddEdge(v, (v + 1 + static_cast<int>(id) % 3) % 5,
                    rng.UniformDouble());
    }
    BitWriter writer;
    SerializeDirectedGraph(graph, writer);
    AppendSegmentRecord(SegmentRecord{id, StreamKind::kDirectedGraph,
                                      writer.bytes(), writer.bit_count()},
                        image);
    payload_bytes += static_cast<int64_t>(writer.bytes().size());
  }
  const int64_t records_end = static_cast<int64_t>(image.size());
  EXPECT_EQ(records_end, 2 * 23 + payload_bytes);
  const std::vector<uint8_t> seal = BuildSegmentSeal(records_end);
  ASSERT_EQ(seal.size(), 16u);
  image.insert(image.end(), seal.begin(), seal.end());
  EXPECT_EQ(image[0], 0x62);
  EXPECT_EQ(image[1], 0x5E);
  EXPECT_EQ(image.size(), 174u);
  EXPECT_EQ(Fnv1a32(image), 0xCEFBD319u);

  const auto scan = ScanSegment(image);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->sealed);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].object_id, 3);
  EXPECT_EQ(scan->records[1].object_id, 10);
  const uint32_t payload_fnv[] = {0xDD3D0006u, 0xA6885831u};
  for (size_t r = 0; r < 2; ++r) {
    BitReader reader(scan->records[r].payload);
    const auto graph_payload =
        ReadEnvelopePayload(StreamKind::kDirectedGraph, reader);
    ASSERT_TRUE(graph_payload.ok()) << graph_payload.status().ToString();
    EXPECT_EQ(Fnv1a32(graph_payload->bytes), payload_fnv[r]) << "record " << r;
  }
}

// A segment in the older layout, built field by field: records with magic
// 0x5E60 behind a 27-byte prefix (header FNV-1a over the 19 header bytes,
// then a payload FNV-1a) and, when sealed, an index footer (an envelope of
// the now-reserved kind 9 listing id, kind, offset and length per record)
// and a 16-byte trailer (footer offset, 0x5EA1D5CE, FNV-1a).
std::vector<uint8_t> OlderLayoutSegment(const std::vector<TestObject>& objects,
                                        bool sealed) {
  BitWriter out;
  BitWriter index;
  index.WriteEliasGamma(objects.size());
  for (size_t id = 0; id < objects.size(); ++id) {
    const TestObject& object = objects[id];
    const uint64_t offset = static_cast<uint64_t>(out.bit_count() / 8);
    BitWriter header;
    header.WriteBits(0x5E60, 16);
    header.WriteBits(id, 64);
    header.WriteBits(static_cast<uint64_t>(object.kind), 8);
    header.WriteBits(static_cast<uint64_t>(object.bit_count), 64);
    out.AppendBits(header.bytes(), header.bit_count());
    out.WriteBits(Fnv1a32(header.bytes()), 32);
    out.WriteBits(Fnv1a32(object.bytes), 32);
    out.AppendBits(object.bytes, 8 * static_cast<int64_t>(object.bytes.size()));
    index.WriteEliasGamma(id);
    index.WriteBits(static_cast<uint64_t>(object.kind), 8);
    index.WriteEliasGamma(offset);
    index.WriteEliasGamma(27 + object.bytes.size());
  }
  if (sealed) {
    const uint64_t footer_offset = static_cast<uint64_t>(out.bit_count() / 8);
    BitWriter footer;
    AppendEnvelope(0xD5CE, 9, index.bytes(), index.bit_count(), footer);
    out.AppendBits(footer.bytes(),
                   8 * static_cast<int64_t>(footer.bytes().size()));
    BitWriter trailer;
    trailer.WriteBits(footer_offset, 64);
    trailer.WriteBits(0x5EA1D5CE, 32);
    out.AppendBits(trailer.bytes(), trailer.bit_count());
    out.WriteBits(Fnv1a32(trailer.bytes()), 32);
  }
  return out.bytes();
}

// Segments the 0x5E61 layout wrote (FNV-1a in the record header, the seal
// trailer and the payloads' version-1 envelopes), recorded from that build
// through SketchStore: objects 0 and 1, each a 3-vertex graph with edges
// 0->1 (weight 1.5 + id) and 2->0 (0.25), then Seal (sealed image) or
// Flush (unsealed image, the records alone).
const std::vector<uint8_t> kFnvLayoutSealedSegment = {
    0x61, 0x5E, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xDF,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x8A, 0xAA, 0x36, 0x5C, 0xCE,
    0xD5, 0x01, 0x01, 0x80, 0xC4, 0xF0, 0xC2, 0xF4, 0x6B, 0xE2, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xC0, 0xFF, 0x71, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xE8, 0x1F, 0x61, 0x5E, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0xDF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5D, 0xE4,
    0xD6, 0x53, 0xCE, 0xD5, 0x01, 0x01, 0x80, 0xC4, 0xD3, 0x67, 0x64, 0x7E,
    0xE2, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x00, 0x72, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xE8, 0x1F, 0x66, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xCE, 0xD5, 0xA2, 0x5E, 0x36, 0xE9, 0x6C, 0x65};
const std::vector<uint8_t> kFnvLayoutUnsealedSegment(
    kFnvLayoutSealedSegment.begin(), kFnvLayoutSealedSegment.end() - 16);

TEST(SketchStoreTest, OlderLayoutSegmentIsDataLossAndNeverTruncated) {
  Rng rng(13);
  const std::vector<TestObject> objects = MakeOneOfEachKind(rng);
  // Unsealed is the case that matters most: without the layout check the
  // current walk reads the whole file as a torn tail and Open truncates it.
  const struct {
    std::vector<uint8_t> image;
    std::string magic;
  } cases[] = {
      {OlderLayoutSegment({objects[0], objects[1]}, true), "0x5E60"},
      {OlderLayoutSegment({objects[0], objects[1]}, false), "0x5E60"},
      {kFnvLayoutSealedSegment, "0x5E61"},
      {kFnvLayoutUnsealedSegment, "0x5E61"},
  };
  for (const auto& c : cases) {
    const std::string label =
        c.magic + ", " + std::to_string(c.image.size()) + " bytes";
    ScratchDir scratch;
    const std::string segment = scratch.path() + "/segment-000001.seg";
    WriteFileBytes(segment, c.image);

    const auto store = SketchStore::Open(scratch.path());
    ASSERT_FALSE(store.ok()) << label;
    EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(store.status().ToString().find(
                  "older store layout (record magic " + c.magic + ")"),
              std::string::npos)
        << store.status().ToString();

    const auto report = FsckSketchStore(scratch.path());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->segments.size(), 1u);
    EXPECT_EQ(report->segments[0].state, "corrupt");
    EXPECT_NE(report->segments[0].detail.find(c.magic), std::string::npos)
        << report->segments[0].detail;
    EXPECT_FALSE(report->clean());
    EXPECT_EQ(ReadFileBytes(segment), c.image) << label;
  }
}

// A directed-graph envelope of about 190 KB. Weights depend on `id`, so
// every object's bytes differ.
TestObject LargeGraphObject(int64_t id) {
  DirectedGraph graph(256);
  for (int e = 0; e < 16384; ++e) {
    graph.AddEdge(e % 256, (7 * e + 1) % 256,
                  1.0 + static_cast<double>(id) + e / 1024.0);
  }
  BitWriter writer;
  SerializeDirectedGraph(graph, writer);
  return TestObject{StreamKind::kDirectedGraph, writer.bytes(),
                    writer.bit_count()};
}

TEST(SketchStoreTest, PutPastTheSegmentCapRollsToASealedSegment) {
  ScratchDir scratch;
  const std::string second = scratch.path() + "/segment-000002.seg";
  std::vector<TestObject> objects;
  {
    auto store = SketchStore::Open(scratch.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // The Put that finds the active segment holding kMaxSegmentBytes seals
    // it and writes its record into a fresh segment.
    while (::access(second.c_str(), F_OK) != 0) {
      ASSERT_LT(objects.size(), 100u) << "no roll after 100 puts";
      const int64_t id = static_cast<int64_t>(objects.size());
      objects.push_back(LargeGraphObject(id));
      ASSERT_TRUE((*store)
                      ->Put(id, objects.back().kind, objects.back().bytes,
                            objects.back().bit_count)
                      .ok());
    }
    struct stat first;
    ASSERT_EQ(::stat((scratch.path() + "/segment-000001.seg").c_str(),
                     &first),
              0);
    EXPECT_GE(first.st_size, kMaxSegmentBytes);
    const auto fsck = FsckSketchStore(scratch.path());
    ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
    ASSERT_EQ(fsck->segments.size(), 2u);
    EXPECT_EQ(fsck->segments[0].state, "sealed");
    EXPECT_EQ(fsck->segments[0].records,
              static_cast<int64_t>(objects.size()) - 1);
    EXPECT_EQ(fsck->segments[1].state, "unsealed");
    EXPECT_EQ(fsck->segments[1].records, 1);
  }

  auto store = SketchStore::Open(scratch.path());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->open_report().segments, 2);
  EXPECT_EQ((*store)->num_objects(), static_cast<int64_t>(objects.size()));
  for (size_t id = 0; id < objects.size(); ++id) {
    const auto got = (*store)->Get(static_cast<int64_t>(id));
    ASSERT_TRUE(got.ok()) << "object " << id << ": "
                          << got.status().ToString();
    EXPECT_EQ(got->bit_count, objects[id].bit_count) << "object " << id;
    EXPECT_EQ(got->bytes, objects[id].bytes) << "object " << id;
  }

  const auto compacted = (*store)->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->records_dropped, 0);
  for (size_t id = 0; id < objects.size(); ++id) {
    const auto got = (*store)->Get(static_cast<int64_t>(id));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->bytes, objects[id].bytes) << "object " << id;
  }
  store->reset();
  const auto fsck = FsckSketchStore(scratch.path());
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  ASSERT_EQ(fsck->segments.size(), 1u);
  EXPECT_EQ(fsck->segments[0].state, "sealed");
  EXPECT_EQ(fsck->segments[0].records, static_cast<int64_t>(objects.size()));
}

// The records Open handed over match Get: one per object, in ascending
// id, byte for byte and kind for kind.
void ExpectRecordsMatchGet(const SketchStore& store,
                           const std::vector<SegmentRecord>& records) {
  const std::vector<int64_t> ids = store.ListObjects();
  ASSERT_EQ(records.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(records[i].object_id, ids[i]) << "position " << i;
    const auto got = store.Get(ids[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(records[i].kind, got->kind) << "object " << ids[i];
    EXPECT_EQ(records[i].payload_bits, got->bit_count) << "object " << ids[i];
    EXPECT_EQ(records[i].payload, got->bytes) << "object " << ids[i];
  }
}

TEST(SketchStoreHandOffTest, EmptyStoreHandsOverNothing) {
  ScratchDir scratch;
  // A stale entry in the caller's vector does not survive the hand-over.
  std::vector<SegmentRecord> records(1);
  auto store = SketchStore::Open(scratch.path(), &records);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(records.empty());
  ExpectRecordsMatchGet(**store, records);
}

TEST(SketchStoreHandOffTest, NewestRecordWinsAcrossASegmentRoll) {
  ScratchDir scratch;
  const std::string second = scratch.path() + "/segment-000002.seg";
  const TestObject replacement = LargeGraphObject(1000);
  {
    auto store = SketchStore::Open(scratch.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Rng rng(31);
    const TestObject original = MakeOneOfEachKind(rng)[1];
    ASSERT_TRUE((*store)
                    ->Put(0, original.kind, original.bytes,
                          original.bit_count)
                    .ok());
    // Fill the first segment until a Put rolls to the second, then put
    // object 0 again: its newest record lives in the second segment.
    for (int64_t id = 1; ::access(second.c_str(), F_OK) != 0; ++id) {
      ASSERT_LT(id, 100) << "no roll after 100 puts";
      const TestObject object = LargeGraphObject(id);
      ASSERT_TRUE(
          (*store)->Put(id, object.kind, object.bytes, object.bit_count).ok());
    }
    ASSERT_TRUE((*store)
                    ->Put(0, replacement.kind, replacement.bytes,
                          replacement.bit_count)
                    .ok());
  }
  std::vector<SegmentRecord> records;
  auto store = SketchStore::Open(scratch.path(), &records);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->open_report().segments, 2);
  ExpectRecordsMatchGet(**store, records);
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[0].object_id, 0);
  EXPECT_EQ(records[0].kind, replacement.kind);
  EXPECT_EQ(records[0].payload, replacement.bytes);
}

TEST(SketchStoreHandOffTest, RecoveredTornTailHandsOverTheValidPrefix) {
  ScratchDir scratch;
  int64_t kept = 0;
  TearActiveSegmentTail(scratch.path(), &kept);
  std::vector<SegmentRecord> records;
  auto store = SketchStore::Open(scratch.path(), &records);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->open_report().torn_tails_recovered, 1);
  EXPECT_EQ(static_cast<int64_t>(records.size()), kept);
  ExpectRecordsMatchGet(**store, records);
}

TEST(CacheSnapshotTest, RoundTripsThroughFileAndCache) {
  ScratchDir scratch;
  const std::string path = scratch.path() + "/cache.snap";
  // Cold boot: missing file is kNotFound, not an error to recover from.
  EXPECT_EQ(ReadCacheSnapshotFile(path).status().code(),
            StatusCode::kNotFound);

  Rng rng(23);
  std::vector<CacheSnapshotEntry> entries;
  for (int e = 0; e < 12; ++e) {
    CacheSnapshotEntry entry;
    entry.object = e % 3;
    entry.side_words = {rng.Next(), rng.Next() & 0xFFFF};
    entry.value = rng.UniformDouble() * 100.0;
    entries.push_back(entry);
  }
  ASSERT_TRUE(WriteCacheSnapshotFile(path, entries).ok());
  const auto reread = ReadCacheSnapshotFile(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->size(), entries.size());
  for (size_t e = 0; e < entries.size(); ++e) {
    EXPECT_EQ((*reread)[e].object, entries[e].object);
    EXPECT_EQ((*reread)[e].side_words, entries[e].side_words);
    EXPECT_EQ((*reread)[e].value, entries[e].value);
  }

  // And through the live cache: restore, then look the entries up via the
  // packed-side hash the cache itself uses.
  CutQueryCache::Options cache_options;
  cache_options.capacity = 256;
  CutQueryCache cache(cache_options);
  std::vector<CutQueryCache::SnapshotEntry> restored;
  for (const CacheSnapshotEntry& entry : *reread) {
    CutQueryCache::SnapshotEntry live;
    live.object = entry.object;
    live.side.words = entry.side_words;
    live.value = entry.value;
    restored.push_back(std::move(live));
  }
  cache.Restore(restored);
  for (const CacheSnapshotEntry& entry : entries) {
    PackedSide side;
    side.words = entry.side_words;
    const auto hit = cache.Lookup(entry.object, HashPackedSide(side), side);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, entry.value);
  }
}

TEST(CacheSnapshotTest, EveryBitFlipOfTheSnapshotIsRejected) {
  // The snapshot is an optimization: any damage must come back kDataLoss
  // (cold cache), never a crash or a wrong entry.
  Rng rng(31);
  std::vector<CacheSnapshotEntry> entries;
  for (int e = 0; e < 4; ++e) {
    CacheSnapshotEntry entry;
    entry.object = e;
    entry.side_words = {rng.Next()};
    entry.value = rng.UniformDouble();
    entries.push_back(entry);
  }
  const std::vector<uint8_t> bytes = EncodeCacheSnapshot(entries);
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> mutated = bytes;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const auto decoded = DecodeCacheSnapshot(mutated);
    ASSERT_FALSE(decoded.ok()) << "flipping snapshot bit " << bit;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DecodeCacheSnapshot(truncated).ok())
        << "truncating snapshot to " << len;
  }
}

// A snapshot in the older 0xCA5E layout (magic, version, gamma length,
// FNV-1a, payload), recorded from the build before snapshots moved into the
// serialization envelope. Entries e = 0, 1, 2: object e, one side word
// 0x0123456789ABCDEF * (e + 1), value 1.5 * (e + 1).
const std::vector<uint8_t> kOldFormatSnapshot = {
    0x5E, 0xCA, 0x01, 0x00, 0xD3, 0x3E, 0x6B, 0xFE, 0x14, 0x49, 0xBD, 0x37,
    0xAF, 0x26, 0x9E, 0x15, 0x8D, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xE0, 0xFF, 0x48, 0xDE, 0x9B, 0x57, 0x13, 0xCF, 0x8A, 0x46, 0x02, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x56, 0x73, 0xDA, 0x40, 0xA7,
    0x0D, 0x74, 0xDA, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x04, 0x10};

// The same entries in the version-1 serialization envelope (FNV-1a in its
// checksum field), recorded from the build before the move to CRC32C.
const std::vector<uint8_t> kVersionOneSnapshot = {
    0xCE, 0xD5, 0x01, 0x0A, 0x00, 0xD3, 0x3E, 0x6B, 0xFE, 0x14, 0x49, 0xBD,
    0x37, 0xAF, 0x26, 0x9E, 0x15, 0x8D, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xE0, 0xFF, 0x48, 0xDE, 0x9B, 0x57, 0x13, 0xCF, 0x8A, 0x46, 0x02,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x56, 0x73, 0xDA, 0x40,
    0xA7, 0x0D, 0x74, 0xDA, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x04,
    0x10};

std::vector<CacheSnapshotEntry> OldFormatSnapshotEntries() {
  std::vector<CacheSnapshotEntry> entries;
  for (int e = 0; e < 3; ++e) {
    CacheSnapshotEntry entry;
    entry.object = e;
    entry.side_words = {0x0123456789ABCDEFULL * static_cast<uint64_t>(e + 1)};
    entry.value = 1.5 * (e + 1);
    entries.push_back(entry);
  }
  return entries;
}

TEST(CacheSnapshotTest, OldFormatSnapshotIsDataLoss) {
  const auto decoded = DecodeCacheSnapshot(kOldFormatSnapshot);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
      << decoded.status().ToString();
  const auto version_one = DecodeCacheSnapshot(kVersionOneSnapshot);
  ASSERT_FALSE(version_one.ok());
  EXPECT_EQ(version_one.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(version_one.status().message().find(
                "unsupported envelope version 1"),
            std::string::npos)
      << version_one.status().ToString();
  // The same entries in the current layout decode.
  const auto current =
      DecodeCacheSnapshot(EncodeCacheSnapshot(OldFormatSnapshotEntries()));
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(current->size(), 3u);
}

TEST(CacheSnapshotTest, WarmRestartOverOldFormatSnapshotBootsCold) {
  ScratchDir scratch;
  const std::string store_dir = scratch.path() + "/store";
  ClusterWorkerOptions options;
  options.store_dir = store_dir;
  const Endpoint endpoint = *ParseEndpoint("tcp:127.0.0.1:0");

  // One 64-vertex graph (object 0), queried on the side the old snapshot's
  // object-0 entry names plus a few more: were that entry loaded, the first
  // answer would be its bogus 1.5.
  Rng rng(41);
  const DirectedGraph graph = RandomBalancedDigraph(64, 0.2, 2.0, rng);
  RpcRequest query;
  query.kind = RpcKind::kQueryBatch;
  query.object_id = 0;
  query.num_vertices = 64;
  for (int q = 0; q < 4; ++q) {
    VertexSet side(64, 0);
    for (int v = 0; v < 64; ++v) {
      side[v] = q == 0 ? static_cast<uint8_t>(
                             (0x0123456789ABCDEFULL >> v) & 1)
                       : static_cast<uint8_t>(rng.Bernoulli(0.5) ? 1 : 0);
    }
    query.sides.push_back(std::move(side));
  }
  CutQueryService reference;
  const auto reference_id = reference.RegisterGraph(graph);
  std::vector<CutQueryService::Query> reference_batch;
  for (const VertexSet& side : query.sides) {
    reference_batch.push_back(CutQueryService::Query{reference_id, side});
  }
  const std::vector<double> expected = reference.AnswerBatch(reference_batch);
  ASSERT_NE(expected[0], 1.5);

  {
    auto worker = ClusterWorker::Create(endpoint, options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    const RpcRequest registration = RegisterGraphRequest(graph);
    const RpcResponse registered = (*worker)->Execute(registration);
    ASSERT_TRUE(registered.status.ok()) << registered.status.ToString();
    ASSERT_EQ(registered.object_id, 0);
  }

  // Control: the same entries in the current layout do warm the cache.
  WriteFileBytes(store_dir + "/cache.snap",
                 EncodeCacheSnapshot(OldFormatSnapshotEntries()));
  {
    auto worker = ClusterWorker::Create(endpoint, options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    EXPECT_EQ((*worker)->cache_entries(), 1);
  }

  // Each worker's drain rewrites cache.snap, so every pass writes its
  // snapshot afresh.
  for (const std::vector<uint8_t>* snapshot :
       {&kOldFormatSnapshot, &kVersionOneSnapshot}) {
    WriteFileBytes(store_dir + "/cache.snap", *snapshot);
    auto worker = ClusterWorker::Create(endpoint, options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    EXPECT_EQ((*worker)->warm_loaded_objects(), 1);
    EXPECT_EQ((*worker)->cache_entries(), 0);
    const RpcResponse answered = (*worker)->Execute(query);
    ASSERT_TRUE(answered.status.ok()) << answered.status.ToString();
    ASSERT_EQ(answered.values.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(
          std::memcmp(&answered.values[i], &expected[i], sizeof(double)), 0)
          << "query " << i;
    }
  }
}

// Warm-load contract: a worker booting from a store holds every object at
// the id its round-robin registration gave it, whatever the shard count,
// and refuses a store it cannot reproduce with the lowest failing id.
constexpr int64_t kWarmObjects = 37;  // not a multiple of S, > S threads

DirectedGraph WarmGraph(int64_t id) {
  Rng rng(SubtaskSeed(700, id));
  return RandomBalancedDigraph(10 + static_cast<int>(id % 7), 0.4, 2.0, rng);
}

TestObject GraphObject(const DirectedGraph& graph) {
  BitWriter writer;
  SerializeDirectedGraph(graph, writer);
  return TestObject{StreamKind::kDirectedGraph, writer.bytes(),
                    writer.bit_count()};
}

// A directed-graph envelope Put accepts but no deserializer does: edge
// `loop_edge` of `num_edges` is a self-loop at `loop_vertex`.
TestObject SelfLoopGraphObject(int num_edges, int loop_edge,
                               int loop_vertex) {
  constexpr int kVertices = 8;
  BitWriter payload;
  payload.WriteEliasGamma(kVertices);
  payload.WriteEliasGamma(static_cast<uint64_t>(num_edges));
  for (int e = 0; e < num_edges; ++e) {
    const bool loop = e == loop_edge;
    payload.WriteEliasGamma(
        static_cast<uint64_t>(loop ? loop_vertex : e % kVertices));
    payload.WriteEliasGamma(
        static_cast<uint64_t>(loop ? loop_vertex : (e + 1) % kVertices));
    payload.WriteDouble(1.0);
  }
  BitWriter writer;
  WriteEnvelope(StreamKind::kDirectedGraph, payload, writer);
  return TestObject{StreamKind::kDirectedGraph, writer.bytes(),
                    writer.bit_count()};
}

// Puts WarmGraph(id) for every id in [0, kWarmObjects) except those in
// `replaced` (put as given) and `skipped` (not put at all), then seals.
void BuildWarmStore(const std::string& dir,
                    const std::map<int64_t, TestObject>& replaced,
                    const std::vector<int64_t>& skipped) {
  auto store = SketchStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int64_t id = 0; id < kWarmObjects; ++id) {
    if (std::find(skipped.begin(), skipped.end(), id) != skipped.end()) {
      continue;
    }
    const auto it = replaced.find(id);
    const TestObject object =
        it != replaced.end() ? it->second : GraphObject(WarmGraph(id));
    ASSERT_TRUE(
        (*store)->Put(id, object.kind, object.bytes, object.bit_count).ok())
        << "object " << id;
  }
  ASSERT_TRUE((*store)->Seal().ok());
}

StatusOr<std::unique_ptr<ClusterWorker>> CreateWarmWorker(
    const std::string& dir, int num_shards) {
  ClusterWorkerOptions options;
  options.num_shards = num_shards;
  options.store_dir = dir;
  return ClusterWorker::Create(*ParseEndpoint("tcp:127.0.0.1:0"), options);
}

TEST(WarmLoadTest, EveryObjectAnswersAndReattachesAtEveryShardCount) {
  ScratchDir scratch;
  const std::string dir = scratch.path() + "/store";
  BuildWarmStore(dir, {}, {});
  CutQueryService reference;
  Rng rng(71);
  std::vector<RpcRequest> queries;
  std::vector<std::vector<double>> expected;
  for (int64_t id = 0; id < kWarmObjects; ++id) {
    const DirectedGraph graph = WarmGraph(id);
    ASSERT_EQ(reference.RegisterGraph(graph), id);
    RpcRequest query;
    query.kind = RpcKind::kQueryBatch;
    query.object_id = id;
    query.num_vertices = graph.num_vertices();
    std::vector<CutQueryService::Query> batch;
    for (int q = 0; q < 4; ++q) {
      VertexSet side(static_cast<size_t>(graph.num_vertices()), 0);
      for (auto& member : side) member = rng.Bernoulli(0.5) ? 1 : 0;
      batch.push_back(CutQueryService::Query{id, side});
      query.sides.push_back(std::move(side));
    }
    expected.push_back(reference.AnswerBatch(batch));
    queries.push_back(std::move(query));
  }

  for (const int shards : {1, 2, 3}) {
    auto worker = CreateWarmWorker(dir, shards);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    EXPECT_EQ((*worker)->warm_loaded_objects(), kWarmObjects);
    EXPECT_EQ((*worker)->num_registered(), kWarmObjects);
    for (int64_t id = 0; id < kWarmObjects; ++id) {
      const size_t slot = static_cast<size_t>(id);
      const RpcResponse answered = (*worker)->Execute(queries[slot]);
      ASSERT_TRUE(answered.status.ok())
          << "S=" << shards << " object " << id << ": "
          << answered.status.ToString();
      ASSERT_EQ(answered.values.size(), expected[slot].size());
      for (size_t q = 0; q < expected[slot].size(); ++q) {
        EXPECT_EQ(std::memcmp(&answered.values[q], &expected[slot][q],
                              sizeof(double)),
                  0)
            << "S=" << shards << " object " << id << " query " << q;
      }
      RpcRequest reattach;
      reattach.kind = RpcKind::kReattach;
      reattach.object_id = id;
      reattach.num_vertices = queries[slot].num_vertices;
      reattach.graph_checksum = GraphEnvelopeChecksum(WarmGraph(id));
      const RpcResponse reattached = (*worker)->Execute(reattach);
      EXPECT_TRUE(reattached.status.ok())
          << "S=" << shards << " object " << id << ": "
          << reattached.status.ToString();
      EXPECT_EQ(reattached.object_id, id);
    }
  }
}

TEST(WarmLoadTest, GapInIdsRefusesTheBoot) {
  ScratchDir scratch;
  const std::string dir = scratch.path() + "/store";
  BuildWarmStore(dir, {}, {12, 30});
  for (const int shards : {1, 2, 3}) {
    const auto worker = CreateWarmWorker(dir, shards);
    ASSERT_FALSE(worker.ok()) << "S=" << shards;
    EXPECT_EQ(worker.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(worker.status().message(),
              "store object ids are not contiguous from 0 (found id 13 at "
              "position 12); refusing to warm-load with a broken id "
              "assignment");
  }
}

TEST(WarmLoadTest, NonGraphKindRefusesTheBoot) {
  ScratchDir scratch;
  const std::string dir = scratch.path() + "/store";
  Rng rng(5);
  BitWriter writer;
  SerializeUndirectedGraph(RandomUndirectedGraph(9, 0.5, 0.25, 1.5, true, rng),
                           writer);
  const TestObject undirected{StreamKind::kUndirectedGraph, writer.bytes(),
                              writer.bit_count()};
  BuildWarmStore(dir, {{5, undirected}, {33, undirected}}, {});
  for (const int shards : {1, 2, 3}) {
    const auto worker = CreateWarmWorker(dir, shards);
    ASSERT_FALSE(worker.ok()) << "S=" << shards;
    EXPECT_EQ(worker.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(worker.status().message(),
              std::string("store object 5 is a ") +
                  StreamKindName(StreamKind::kUndirectedGraph) +
                  ", not a directed graph");
  }
}

TEST(WarmLoadTest, LowestUndeserializableIdIsReportedWhateverTheSchedule) {
  // Id 7's self-loop is its last of 2000 edges, id 20's its first: a
  // thread reaching 20 fails long before one reaching 7, yet 7 is named.
  ScratchDir scratch;
  const std::string dir = scratch.path() + "/store";
  BuildWarmStore(dir,
                 {{7, SelfLoopGraphObject(2000, 1999, 3)},
                  {20, SelfLoopGraphObject(1, 0, 5)}},
                 {});
  for (const int shards : {1, 2, 3}) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const auto worker = CreateWarmWorker(dir, shards);
      ASSERT_FALSE(worker.ok()) << "S=" << shards;
      EXPECT_EQ(worker.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(worker.status().message(),
                "edge 1999 is a self-loop at vertex 3")
          << "S=" << shards;
    }
  }
}

// Graphs at the edges of the graph encoding: no edges on one and two
// vertices, parallel edges, the extreme weights (zero, negative zero, the
// smallest denormal, the largest double), and endpoints on both sides of
// every Elias-gamma length step up to 2^8.
std::vector<DirectedGraph> EncodingEdgeCaseGraphs() {
  std::vector<DirectedGraph> graphs;
  graphs.emplace_back(1);
  graphs.emplace_back(2);
  DirectedGraph parallel(2);
  parallel.AddEdge(0, 1, 1.5);
  parallel.AddEdge(0, 1, 1.5);
  parallel.AddEdge(1, 0, 2.0);
  parallel.AddEdge(0, 1, 0.25);
  graphs.push_back(parallel);
  DirectedGraph weights(3);
  weights.AddEdge(0, 1, 0.0);
  weights.AddEdge(1, 2, -0.0);
  weights.AddEdge(2, 0, std::numeric_limits<double>::denorm_min());
  weights.AddEdge(0, 2, DBL_MAX);
  graphs.push_back(weights);
  DirectedGraph ids(257);
  for (int k = 1; k <= 8; ++k) {
    ids.AddEdge((1 << k) - 1, 1 << k, k);
    ids.AddEdge(1 << k, (1 << k) - 1, 0.5 * k);
  }
  graphs.push_back(ids);
  return graphs;
}

std::vector<uint8_t> SerializedBytes(const DirectedGraph& graph,
                                     int64_t* bit_count) {
  BitWriter writer;
  SerializeDirectedGraph(graph, writer);
  *bit_count = writer.bit_count();
  return writer.bytes();
}

RpcRequest ReattachRequest(int64_t id, const DirectedGraph& graph) {
  RpcRequest reattach;
  reattach.kind = RpcKind::kReattach;
  reattach.object_id = id;
  reattach.num_vertices = graph.num_vertices();
  reattach.graph_checksum = GraphEnvelopeChecksum(graph);
  return reattach;
}

TEST(RegisterEnvelopeTest, StoredRecordIsTheCanonicalEnvelope) {
  ScratchDir scratch;
  const std::string dir = scratch.path() + "/store";
  const std::vector<DirectedGraph> graphs = EncodingEdgeCaseGraphs();
  const int64_t count = static_cast<int64_t>(graphs.size());
  {
    auto worker = CreateWarmWorker(dir, 2);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    for (int64_t id = 0; id < count; ++id) {
      const DirectedGraph& graph = graphs[static_cast<size_t>(id)];
      const StatusOr<RpcRequest> decoded =
          DecodeRpcRequest(EncodeRpcRequest(RegisterGraphRequest(graph)));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      int64_t bits = 0;
      const std::vector<uint8_t> expected = SerializedBytes(graph, &bits);
      EXPECT_EQ(decoded->graph->bytes(), expected) << "graph " << id;
      EXPECT_EQ(decoded->graph->bit_count(), bits) << "graph " << id;
      EXPECT_EQ(decoded->graph->checksum(), GraphEnvelopeChecksum(graph));
      const RpcResponse registered = (*worker)->Execute(*decoded);
      ASSERT_TRUE(registered.status.ok()) << registered.status.ToString();
      ASSERT_EQ(registered.object_id, id);
      // The checksum recorded at registration is the client's.
      EXPECT_TRUE((*worker)->Execute(ReattachRequest(id, graph)).status.ok())
          << "graph " << id;
    }
    RpcRequest bare;
    bare.kind = RpcKind::kRegisterGraph;
    EXPECT_EQ((*worker)->Execute(bare).status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*worker)->num_registered(), count);
  }
  {
    auto store = SketchStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int64_t id = 0; id < count; ++id) {
      const StatusOr<StoredObject> stored = (*store)->Get(id);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      int64_t bits = 0;
      const std::vector<uint8_t> expected =
          SerializedBytes(graphs[static_cast<size_t>(id)], &bits);
      EXPECT_EQ(stored->kind, StreamKind::kDirectedGraph);
      EXPECT_EQ(stored->bit_count, bits) << "graph " << id;
      ASSERT_EQ(stored->bytes.size(), expected.size()) << "graph " << id;
      EXPECT_EQ(std::memcmp(stored->bytes.data(), expected.data(),
                            expected.size()),
                0)
          << "graph " << id;
    }
  }
  auto restarted = CreateWarmWorker(dir, 2);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ((*restarted)->warm_loaded_objects(), count);
  for (int64_t id = 0; id < count; ++id) {
    const RpcResponse reattached = (*restarted)->Execute(
        ReattachRequest(id, graphs[static_cast<size_t>(id)]));
    EXPECT_TRUE(reattached.status.ok())
        << "graph " << id << ": " << reattached.status.ToString();
    EXPECT_EQ(reattached.object_id, id);
  }
}

}  // namespace
}  // namespace dcs

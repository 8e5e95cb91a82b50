// Deterministic lossy-channel simulation with reliable delivery on top.
//
// The paper's theorems bound *transcript bits*; a perfectly reliable byte
// vector (message.h) realizes that transcript, but says nothing about what
// the reductions cost when the wire misbehaves. This layer makes failure a
// first-class, replayable experiment:
//
//  * LossyChannel applies a seed-deterministic fault script to every frame
//    placed on the wire — per-frame drop, single-bit corruption,
//    truncation, duplication, and (for batched sends) reordering. The same
//    ChannelOptions::seed replays the identical fault sequence, so chaos
//    runs are reproducible bit for bit, including their metrics.
//  * ReliableLink transfers a Message over a LossyChannel as framed chunks
//    reusing the PR 2 checksummed-envelope idiom (magic / sequence /
//    length / CRC32C), with NACK-driven retransmission rounds under capped
//    exponential backoff and a per-transfer deadline budget. On success the
//    delivered Message is bit-identical to the input; past the deadline the
//    transfer fails cleanly with kDeadlineExceeded.
//
// Accounting rule (DESIGN.md §9): every bit placed on the wire — framing,
// ACK traffic, and *retransmissions* — is counted in ChannelStats, and the
// protocol runners add it to their measured transcript. The theorems'
// quantity stays honest under faults: recovery is never free.
//
// Instrumented as comm.channel.* (drops/flips/truncations/duplicates/
// reorders/retransmits counters, backoff + rounds histograms).

#ifndef DCS_COMM_CHANNEL_H_
#define DCS_COMM_CHANNEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "comm/message.h"
#include "util/random.h"
#include "util/status.h"

namespace dcs {

// The fault script and retransmission policy for one simulated link.
// Defaults describe a perfect wire (no faults) with framing still applied,
// so a fault-free channel run exercises the full chunking/ACK machinery.
struct ChannelOptions {
  uint64_t seed = 0;            // replays the exact fault sequence
  double drop_rate = 0;         // P[frame vanishes]
  double flip_rate = 0;         // P[one uniformly chosen bit flips]
  double truncate_rate = 0;     // P[frame is cut at a uniform bit length]
  double duplicate_rate = 0;    // P[frame arrives twice]
  double reorder_rate = 0;      // P[adjacent in-flight frames swap]
  int chunk_payload_bits = 2048;  // frame payload size (last chunk shorter)
  int max_rounds = 10;            // retransmission rounds before deadline
  int64_t backoff_cap = 64;       // cap on per-round exponential backoff
  // Fraction of each capped backoff randomized away (equal-jitter): round r
  // waits a deterministic seed-derived value in [(1-jitter)*b, b] where b
  // is the capped exponential base. 0 keeps the historical fixed schedule;
  // 1 allows full decorrelation. Jitter draws come from a dedicated stream
  // (SubtaskSeed of `seed`), so enabling it never perturbs the fault
  // script replayed by the channel itself.
  double backoff_jitter = 0;

  // True if any fault can ever fire.
  bool any_faults() const {
    return drop_rate > 0 || flip_rate > 0 || truncate_rate > 0 ||
           duplicate_rate > 0 || reorder_rate > 0;
  }

  // CHECK-fails on rates outside [0, 1] or non-positive budgets.
  void Check() const;
};

// Exact per-link accounting. Wire bits include framing headers, ACK
// bitmaps, and every retransmission; retransmitted_bits is the subset of
// wire bits spent beyond each frame's first attempt.
struct ChannelStats {
  int64_t frames_sent = 0;        // transmission attempts, incl. retransmits
  int64_t frames_delivered = 0;   // frames that arrived and validated
  int64_t frames_dropped = 0;
  int64_t frames_flipped = 0;
  int64_t frames_truncated = 0;
  int64_t frames_duplicated = 0;
  int64_t frames_reordered = 0;
  int64_t frames_rejected = 0;    // arrived but failed frame validation
  int64_t retransmitted_frames = 0;
  int64_t wire_bits = 0;          // every bit on the wire (frames + ACKs)
  int64_t retransmitted_bits = 0;
  int64_t ack_bits = 0;
  int64_t backoff_units = 0;      // sum of capped exponential backoffs
  int64_t rounds = 0;             // retransmission rounds used
  int64_t transfers = 0;
  int64_t transfers_recovered = 0;
  int64_t transfers_expired = 0;  // deadline exceeded

  void MergeFrom(const ChannelStats& other);
};

// A frame in flight: packed bytes plus the exact bit length (frames reuse
// the Message layout but are a distinct concept: one chunk of a transfer).
using Frame = Message;

// Frame wire format helpers, exposed for the corruption harness: header
// (magic 16 / seq / total chunks / total message bits / payload bits, the
// counts Elias-gamma) + CRC32C payload checksum (32) + payload bits.
void WriteChannelFrame(int64_t seq, int64_t total_chunks,
                       int64_t message_bits, const std::vector<uint8_t>& payload,
                       int64_t payload_bits, BitWriter& out);

// One validated frame. Parsing treats the bytes as hostile (Try* reads,
// length caps before allocation, checksum) and returns kDataLoss on any
// mutation — never aborts, hangs, or over-allocates.
struct ParsedChannelFrame {
  int64_t seq = 0;
  int64_t total_chunks = 0;
  int64_t message_bits = 0;
  std::vector<uint8_t> payload;
  int64_t payload_bits = 0;
};
StatusOr<ParsedChannelFrame> TryParseChannelFrame(BitReader& reader);

// The unreliable wire. Deterministic in (options.seed, sequence of calls):
// replaying the same frames through a channel with the same seed yields
// byte-identical deliveries and identical stats.
class LossyChannel {
 public:
  explicit LossyChannel(const ChannelOptions& options);

  // Applies the fault script to a batch of frames sent in one round and
  // returns what arrives, in delivery order (duplicates appended, adjacent
  // survivors possibly swapped). Every attempted frame is billed to
  // wire_bits whether or not it arrives — the sender paid for it.
  std::vector<Frame> TransmitRound(const std::vector<Frame>& frames);

  const ChannelOptions& options() const { return options_; }
  const ChannelStats& stats() const { return stats_; }
  ChannelStats& mutable_stats() { return stats_; }

 private:
  ChannelOptions options_;
  Rng rng_;
  ChannelStats stats_;
};

// Reliable delivery over a LossyChannel: chunking, per-frame checksums,
// NACK retransmission rounds with capped exponential backoff, and a
// deadline budget of max_rounds. One ReliableLink simulates one directed
// sender→receiver pair; construct a fresh link (with a derived seed) per
// logical connection.
class ReliableLink {
 public:
  explicit ReliableLink(const ChannelOptions& options);

  // Transfers `message`; on success the result is bit-identical to the
  // input. kDeadlineExceeded when max_rounds elapse with chunks missing —
  // stats() still reports everything spent on the failed attempt.
  StatusOr<Message> Transfer(const Message& message);

  const ChannelStats& stats() const { return channel_.stats(); }
  int64_t wire_bits() const { return channel_.stats().wire_bits; }

 private:
  ChannelOptions options_;
  LossyChannel channel_;
  Rng jitter_rng_;  // dedicated stream: jitter never shifts fault draws
};

}  // namespace dcs

#endif  // DCS_COMM_CHANNEL_H_

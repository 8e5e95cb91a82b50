#include "comm/channel.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/bitio.h"
#include "util/checksum.h"
#include "util/metrics.h"

namespace dcs {
namespace {

// Frame magic, distinct from the serialization envelope's 0xD5CE so a frame
// stream misfed to a sketch deserializer (or vice versa) is rejected at the
// first header field.
constexpr uint64_t kFrameMagic = 0xFA5C;

// Caps on header-declared counts, enforced before any allocation: a
// corrupted length field must never drive a huge reserve.
constexpr uint64_t kMaxChunks = uint64_t{1} << 32;
constexpr uint64_t kMaxMessageBits = uint64_t{1} << 48;

}  // namespace

void ChannelOptions::Check() const {
  auto check_rate = [](double rate) {
    DCS_CHECK_GE(rate, 0.0);
    DCS_CHECK_LE(rate, 1.0);
  };
  check_rate(drop_rate);
  check_rate(flip_rate);
  check_rate(truncate_rate);
  check_rate(duplicate_rate);
  check_rate(reorder_rate);
  DCS_CHECK_GE(chunk_payload_bits, 1);
  DCS_CHECK_GE(max_rounds, 1);
  DCS_CHECK_GE(backoff_cap, 1);
  check_rate(backoff_jitter);
}

void ChannelStats::MergeFrom(const ChannelStats& other) {
  frames_sent += other.frames_sent;
  frames_delivered += other.frames_delivered;
  frames_dropped += other.frames_dropped;
  frames_flipped += other.frames_flipped;
  frames_truncated += other.frames_truncated;
  frames_duplicated += other.frames_duplicated;
  frames_reordered += other.frames_reordered;
  frames_rejected += other.frames_rejected;
  retransmitted_frames += other.retransmitted_frames;
  wire_bits += other.wire_bits;
  retransmitted_bits += other.retransmitted_bits;
  ack_bits += other.ack_bits;
  backoff_units += other.backoff_units;
  rounds += other.rounds;
  transfers += other.transfers;
  transfers_recovered += other.transfers_recovered;
  transfers_expired += other.transfers_expired;
}

void WriteChannelFrame(int64_t seq, int64_t total_chunks, int64_t message_bits,
                       const std::vector<uint8_t>& payload,
                       int64_t payload_bits, BitWriter& out) {
  DCS_CHECK_GE(seq, 0);
  DCS_CHECK_LT(seq, total_chunks);
  DCS_CHECK_GE(payload_bits, 0);
  DCS_CHECK_EQ(static_cast<int64_t>(payload.size()), (payload_bits + 7) / 8);
  out.WriteBits(kFrameMagic, 16);
  out.WriteEliasGamma(static_cast<uint64_t>(seq));
  out.WriteEliasGamma(static_cast<uint64_t>(total_chunks));
  out.WriteEliasGamma(static_cast<uint64_t>(message_bits));
  out.WriteEliasGamma(static_cast<uint64_t>(payload_bits));
  out.WriteBits(Crc32c(payload), 32);
  out.AppendBits(payload, payload_bits);
}

StatusOr<ParsedChannelFrame> TryParseChannelFrame(BitReader& reader) {
  DCS_ASSIGN_OR_RETURN(const uint64_t magic, reader.TryReadBits(16));
  if (magic != kFrameMagic) {
    return DataLossError("bad channel frame magic");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t seq, reader.TryReadEliasGamma());
  DCS_ASSIGN_OR_RETURN(const uint64_t total, reader.TryReadEliasGamma());
  if (total == 0 || total > kMaxChunks || seq >= total) {
    return DataLossError("channel frame sequence " + std::to_string(seq) +
                         " of " + std::to_string(total) + " is invalid");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t message_bits,
                       reader.TryReadEliasGamma());
  if (message_bits > kMaxMessageBits) {
    return DataLossError("channel frame declares an absurd message size");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t payload_bits,
                       reader.TryReadEliasGamma());
  if (reader.RemainingBits() < 32 ||
      payload_bits > static_cast<uint64_t>(reader.RemainingBits() - 32)) {
    return DataLossError("channel frame declares " +
                         std::to_string(payload_bits) +
                         " payload bits but the stream is shorter");
  }
  DCS_ASSIGN_OR_RETURN(const uint64_t checksum, reader.TryReadBits(32));
  ParsedChannelFrame frame;
  frame.seq = static_cast<int64_t>(seq);
  frame.total_chunks = static_cast<int64_t>(total);
  frame.message_bits = static_cast<int64_t>(message_bits);
  frame.payload_bits = static_cast<int64_t>(payload_bits);
  DCS_RETURN_IF_ERROR(
      reader.TryReadBitsInto(frame.payload_bits, frame.payload));
  if (Crc32c(frame.payload) != checksum) {
    return DataLossError("channel frame checksum mismatch");
  }
  return frame;
}

LossyChannel::LossyChannel(const ChannelOptions& options)
    : options_(options), rng_(options.seed) {
  options_.Check();
}

std::vector<Frame> LossyChannel::TransmitRound(
    const std::vector<Frame>& frames) {
  std::vector<Frame> arrived;
  arrived.reserve(frames.size());
  for (const Frame& frame : frames) {
    ++stats_.frames_sent;
    stats_.wire_bits += frame.bit_count;
    if (rng_.Bernoulli(options_.drop_rate)) {
      ++stats_.frames_dropped;
      continue;
    }
    Frame delivered = frame;
    if (delivered.bit_count > 0 && rng_.Bernoulli(options_.flip_rate)) {
      const uint64_t bit =
          rng_.UniformInt(static_cast<uint64_t>(delivered.bit_count));
      delivered.bytes[static_cast<size_t>(bit >> 3)] ^=
          static_cast<uint8_t>(1u << (bit & 7));
      ++stats_.frames_flipped;
    }
    if (delivered.bit_count > 0 && rng_.Bernoulli(options_.truncate_rate)) {
      const int64_t keep = static_cast<int64_t>(
          rng_.UniformInt(static_cast<uint64_t>(delivered.bit_count)));
      delivered.bytes.resize(static_cast<size_t>((keep + 7) / 8));
      if (keep % 8 != 0 && !delivered.bytes.empty()) {
        // Zero the padding past the new length, as a writer would have.
        delivered.bytes.back() &=
            static_cast<uint8_t>((1u << (keep % 8)) - 1u);
      }
      delivered.bit_count = keep;
      ++stats_.frames_truncated;
    }
    const bool duplicate = rng_.Bernoulli(options_.duplicate_rate);
    ++stats_.frames_delivered;
    arrived.push_back(delivered);
    if (duplicate) {
      ++stats_.frames_duplicated;
      ++stats_.frames_delivered;
      // The duplicate traveled the wire too.
      stats_.wire_bits += delivered.bit_count;
      arrived.push_back(std::move(delivered));
    }
  }
  // In-flight reordering: adjacent survivors swap independently, so a batch
  // can arrive in any nearby permutation (the multi-server case).
  for (size_t i = 1; i < arrived.size(); ++i) {
    if (rng_.Bernoulli(options_.reorder_rate)) {
      std::swap(arrived[i - 1], arrived[i]);
      ++stats_.frames_reordered;
    }
  }
  return arrived;
}

ReliableLink::ReliableLink(const ChannelOptions& options)
    : options_(options),
      channel_(options),
      // A derived stream keeps jitter draws off the channel's fault script:
      // the same seed replays identical faults whether or not jitter is on.
      jitter_rng_(SubtaskSeed(options.seed, 0xBACC0FFull)) {
  options_.Check();
}

StatusOr<Message> ReliableLink::Transfer(const Message& message) {
  DCS_CHECK_EQ(static_cast<int64_t>(message.bytes.size()),
               (message.bit_count + 7) / 8);
  ChannelStats& stats = channel_.mutable_stats();
  const ChannelStats before = stats;
  ++stats.transfers;

  const int64_t chunk_bits = options_.chunk_payload_bits;
  const int64_t total_chunks =
      std::max<int64_t>(1, (message.bit_count + chunk_bits - 1) / chunk_bits);

  // Sender-side chunk payloads (packed bytes + exact bit count each).
  std::vector<Frame> chunks(static_cast<size_t>(total_chunks));
  BitReader source(message.bytes);
  for (int64_t seq = 0; seq < total_chunks; ++seq) {
    Frame& chunk = chunks[static_cast<size_t>(seq)];
    chunk.bit_count =
        std::min<int64_t>(chunk_bits, message.bit_count - seq * chunk_bits);
    // Cannot fail: the message's byte count was CHECKed above.
    DCS_RETURN_IF_ERROR(source.TryReadBitsInto(chunk.bit_count, chunk.bytes));
  }

  std::vector<std::optional<Frame>> received(
      static_cast<size_t>(total_chunks));
  std::vector<int> attempts(static_cast<size_t>(total_chunks), 0);
  int64_t received_count = 0;
  int rounds_used = 0;
  for (int round = 0; round < options_.max_rounds && received_count < total_chunks;
       ++round) {
    rounds_used = round + 1;
    if (round > 0) {
      // Capped exponential backoff between retransmission rounds. Simulated
      // time: the units are counted (and surfaced in the histogram), not
      // slept, so chaos sweeps stay fast and deterministic.
      const int64_t backoff =
          JitteredBackoff(1, round - 1, options_.backoff_cap,
                          options_.backoff_jitter, jitter_rng_);
      stats.backoff_units += backoff;
      DCS_METRIC_RECORD("comm.channel.backoff", backoff);
    }
    std::vector<Frame> batch;
    std::vector<int64_t> batch_seqs;
    for (int64_t seq = 0; seq < total_chunks; ++seq) {
      if (received[static_cast<size_t>(seq)].has_value()) continue;
      const Frame& chunk = chunks[static_cast<size_t>(seq)];
      BitWriter framed;
      WriteChannelFrame(seq, total_chunks, message.bit_count, chunk.bytes,
                        chunk.bit_count, framed);
      if (attempts[static_cast<size_t>(seq)] > 0) {
        ++stats.retransmitted_frames;
        stats.retransmitted_bits += framed.bit_count();
      }
      ++attempts[static_cast<size_t>(seq)];
      batch.push_back(Frame{framed.bytes(), framed.bit_count()});
      batch_seqs.push_back(seq);
    }
    const std::vector<Frame> arrived = channel_.TransmitRound(batch);
    for (const Frame& frame : arrived) {
      BitReader reader(frame.bytes);
      auto parsed = TryParseChannelFrame(reader);
      if (!parsed.ok() || parsed->total_chunks != total_chunks ||
          parsed->message_bits != message.bit_count) {
        ++stats.frames_rejected;  // NACKed: retransmitted next round
        continue;
      }
      auto& slot = received[static_cast<size_t>(parsed->seq)];
      if (slot.has_value()) continue;  // duplicate of an ACKed chunk
      slot = Frame{std::move(parsed->payload), parsed->payload_bits};
      ++received_count;
    }
    // Cumulative ACK bitmap for the round: one bit per chunk, billed to the
    // transcript like everything else on the wire.
    stats.ack_bits += total_chunks;
    stats.wire_bits += total_chunks;
  }
  stats.rounds += rounds_used;
  DCS_METRIC_RECORD("comm.channel.rounds", rounds_used);

  Status result_status = OkStatus();
  Message delivered;
  if (received_count < total_chunks) {
    ++stats.transfers_expired;
    // "transport deadline:" marks this as a wire-level retry-budget failure,
    // distinct from a peer *application* error relayed in a Status payload —
    // failover logic keys on the difference (DESIGN.md §14).
    result_status = DeadlineExceededError(
        "transport deadline: reliable link gave up after " +
        std::to_string(rounds_used) +
        " rounds with " + std::to_string(total_chunks - received_count) +
        " of " + std::to_string(total_chunks) + " chunks undelivered");
  } else {
    BitWriter out;
    for (const auto& slot : received) {
      out.AppendBits(slot->bytes, slot->bit_count);
    }
    if (out.bit_count() != message.bit_count) {
      // Unreachable given per-frame checksums; kept as a value, not CHECK,
      // because the receiver treats the wire as hostile end to end.
      result_status = DataLossError("reassembled message has wrong length");
    } else {
      ++stats.transfers_recovered;
      delivered = Message{out.bytes(), out.bit_count()};
    }
  }

  // Flush this transfer's deltas to the process-wide registry.
  const ChannelStats& s = stats;
  DCS_METRIC_ADD("comm.channel.frame.sent", s.frames_sent - before.frames_sent);
  DCS_METRIC_ADD("comm.channel.frame.dropped",
                 s.frames_dropped - before.frames_dropped);
  DCS_METRIC_ADD("comm.channel.frame.flipped",
                 s.frames_flipped - before.frames_flipped);
  DCS_METRIC_ADD("comm.channel.frame.truncated",
                 s.frames_truncated - before.frames_truncated);
  DCS_METRIC_ADD("comm.channel.frame.duplicated",
                 s.frames_duplicated - before.frames_duplicated);
  DCS_METRIC_ADD("comm.channel.frame.reordered",
                 s.frames_reordered - before.frames_reordered);
  DCS_METRIC_ADD("comm.channel.frame.rejected",
                 s.frames_rejected - before.frames_rejected);
  DCS_METRIC_ADD("comm.channel.frame.retransmitted",
                 s.retransmitted_frames - before.retransmitted_frames);
  DCS_METRIC_ADD("comm.channel.wire_bits", s.wire_bits - before.wire_bits);
  DCS_METRIC_ADD("comm.channel.retransmitted_bits",
                 s.retransmitted_bits - before.retransmitted_bits);
  DCS_METRIC_INC("comm.channel.transfer.started");
  if (result_status.ok()) {
    DCS_METRIC_INC("comm.channel.transfer.recovered");
  } else {
    DCS_METRIC_INC("comm.channel.transfer.expired");
  }

  if (!result_status.ok()) return result_status;
  return delivered;
}

}  // namespace dcs

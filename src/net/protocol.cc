#include "src/net/protocol.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "src/common/serialize.h"

namespace asketch {
namespace net {

namespace {

std::vector<uint8_t> FrameFromWriter(Opcode opcode, uint8_t flags,
                                     NetStatus status,
                                     const BinaryWriter& writer) {
  return EncodeFrame(opcode, flags, status, writer.buffer());
}

}  // namespace

std::string_view NetStatusName(NetStatus status) {
  switch (status) {
    case NetStatus::kOk: return "ok";
    case NetStatus::kBadFrame: return "bad_frame";
    case NetStatus::kUnknownOpcode: return "unknown_opcode";
    case NetStatus::kVersionMismatch: return "version_mismatch";
    case NetStatus::kHelloRequired: return "hello_required";
    case NetStatus::kBadRequest: return "bad_request";
    case NetStatus::kSnapshotFailed: return "snapshot_failed";
    case NetStatus::kShuttingDown: return "shutting_down";
    case NetStatus::kOverloaded: return "overloaded";
  }
  return "unknown_status";
}

std::optional<uint32_t> NegotiateVersion(uint32_t server_min,
                                         uint32_t server_max,
                                         uint32_t client_min,
                                         uint32_t client_max) {
  if (server_min > server_max || client_min > client_max) {
    return std::nullopt;
  }
  const uint32_t low = std::max(server_min, client_min);
  const uint32_t high = std::min(server_max, client_max);
  if (low > high) return std::nullopt;
  return high;
}

namespace {

/// Writes a frame header announcing `payload_bytes` of payload; the
/// caller appends exactly that many bytes.
void PutFrameHeader(BinaryWriter& writer, Opcode opcode, uint8_t flags,
                    NetStatus status, size_t payload_bytes) {
  writer.PutU32(static_cast<uint32_t>(4 + payload_bytes));
  writer.PutU8(static_cast<uint8_t>(opcode));
  writer.PutU8(flags);
  writer.PutBytes(&status, sizeof(uint16_t));
}

}  // namespace

std::vector<uint8_t> EncodeFrame(Opcode opcode, uint8_t flags,
                                 NetStatus status,
                                 std::span<const uint8_t> payload) {
  BinaryWriter writer;
  writer.Reserve(kFrameHeaderBytes + payload.size());
  PutFrameHeader(writer, opcode, flags, status, payload.size());
  writer.PutBytes(payload.data(), payload.size());
  return writer.TakeBuffer();
}

void FrameDecoder::Feed(const void* data, size_t size) {
  if (corrupt_ || size == 0) return;
  // Reclaim consumed prefix before appending, so buffering stays bounded
  // by one partial frame plus one read.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

bool FrameDecoder::Next(Frame* frame) {
  if (corrupt_) return false;
  const size_t available = buffer_.size() - consumed_;
  if (available < sizeof(uint32_t)) return false;
  uint32_t length = 0;
  std::memcpy(&length, buffer_.data() + consumed_, sizeof(length));
  // length counts the opcode/flags/status header tail plus the payload;
  // anything below that minimum or beyond the cap is a lying prefix.
  if (length < 4 || length > 4 + kMaxFramePayloadBytes) {
    corrupt_ = true;
    return false;
  }
  if (available < sizeof(uint32_t) + length) return false;
  const uint8_t* body = buffer_.data() + consumed_ + sizeof(uint32_t);
  frame->opcode = static_cast<Opcode>(body[0]);
  frame->flags = body[1];
  uint16_t status = 0;
  std::memcpy(&status, body + 2, sizeof(status));
  frame->status = static_cast<NetStatus>(status);
  frame->payload.assign(body + 4, body + length);
  consumed_ += sizeof(uint32_t) + length;
  return true;
}

std::optional<Frame> FrameDecoder::Next() {
  Frame frame;
  if (!Next(&frame)) return std::nullopt;
  return frame;
}

// -- HELLO --------------------------------------------------------------

std::vector<uint8_t> EncodeHelloRequest(const HelloRequest& hello) {
  BinaryWriter writer;
  writer.PutU32(hello.magic);
  writer.PutU32(hello.min_version);
  writer.PutU32(hello.max_version);
  return FrameFromWriter(Opcode::kHello, 0, NetStatus::kOk, writer);
}

bool ParseHelloRequest(std::span<const uint8_t> payload,
                       HelloRequest* out) {
  if (payload.size() != 12) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU32(&out->magic) && reader.GetU32(&out->min_version) &&
         reader.GetU32(&out->max_version) && out->magic == kProtocolMagic;
}

std::vector<uint8_t> EncodeHelloResponse(const HelloResponse& hello) {
  BinaryWriter writer;
  writer.PutU32(hello.version);
  writer.PutU32(hello.num_shards);
  return FrameFromWriter(Opcode::kHello, kFlagResponse, NetStatus::kOk,
                         writer);
}

bool ParseHelloResponse(std::span<const uint8_t> payload,
                        HelloResponse* out) {
  if (payload.size() != 8) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU32(&out->version) && reader.GetU32(&out->num_shards);
}

std::vector<uint8_t> EncodeVersionMismatch(uint32_t server_min,
                                           uint32_t server_max) {
  BinaryWriter writer;
  writer.PutU32(server_min);
  writer.PutU32(server_max);
  return FrameFromWriter(Opcode::kHello, kFlagResponse,
                         NetStatus::kVersionMismatch, writer);
}

// -- UPDATE -------------------------------------------------------------

// The tuple block is the in-memory Tuple array: BinaryWriter and
// BinaryReader move host-order bytes, so one bulk copy writes and reads
// exactly the bytes a per-field PutU32/GetU32 pair would.
static_assert(std::is_trivially_copyable_v<Tuple>);
static_assert(sizeof(Tuple) == 8 && offsetof(Tuple, key) == 0 &&
              offsetof(Tuple, value) == 4);

std::vector<uint8_t> EncodeUpdateRequest(std::span<const Tuple> tuples,
                                         bool want_ack, bool replay) {
  uint8_t flags = want_ack ? kFlagWantAck : uint8_t{0};
  if (replay) flags |= kFlagReplay;
  // Header and payload go into one buffer: the largest frames a client
  // sends are these, so they skip EncodeFrame's payload copy.
  const size_t block = tuples.size() * sizeof(Tuple);
  BinaryWriter writer;
  writer.Reserve(kFrameHeaderBytes + 4 + block);
  PutFrameHeader(writer, Opcode::kUpdate, flags, NetStatus::kOk, 4 + block);
  writer.PutU32(static_cast<uint32_t>(tuples.size()));
  writer.PutBytes(tuples.data(), block);
  return writer.TakeBuffer();
}

bool ParseUpdateRequest(std::span<const uint8_t> payload,
                        std::vector<Tuple>* out) {
  uint32_t count = 0;
  if (payload.size() >= sizeof(count)) {
    std::memcpy(&count, payload.data(), sizeof(count));
  }
  // Cap before allocating, then cross-check the declared count against
  // the bytes actually present (8 bytes per tuple, no trailing garbage;
  // a payload too short to hold the count fails here with count = 0).
  if (count > kMaxBatchTuples ||
      payload.size() != 4 + static_cast<size_t>(count) * sizeof(Tuple)) {
    out->clear();
    return false;
  }
  // No clear() first: resizing a reused vector to the size it already
  // has constructs nothing, and the copy overwrites every element.
  out->resize(count);
  if (count != 0) {
    std::memcpy(out->data(), payload.data() + 4, count * sizeof(Tuple));
  }
  return true;
}

std::vector<uint8_t> EncodeUpdateAck(const UpdateAck& ack) {
  BinaryWriter writer;
  writer.PutU64(ack.received_tuples);
  writer.PutU64(ack.shed_weight);
  return FrameFromWriter(Opcode::kUpdate, kFlagResponse, NetStatus::kOk,
                         writer);
}

bool ParseUpdateAck(std::span<const uint8_t> payload, UpdateAck* out) {
  if (payload.size() != 16) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU64(&out->received_tuples) &&
         reader.GetU64(&out->shed_weight);
}

// -- QUERY / QUERY_BATCH -------------------------------------------------

std::vector<uint8_t> EncodeQueryRequest(item_t key) {
  BinaryWriter writer;
  writer.PutU32(key);
  return FrameFromWriter(Opcode::kQuery, 0, NetStatus::kOk, writer);
}

bool ParseQueryRequest(std::span<const uint8_t> payload, item_t* out) {
  if (payload.size() != 4) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU32(out);
}

std::vector<uint8_t> EncodeQueryResponse(uint64_t estimate) {
  BinaryWriter writer;
  writer.PutU64(estimate);
  return FrameFromWriter(Opcode::kQuery, kFlagResponse, NetStatus::kOk,
                         writer);
}

bool ParseQueryResponse(std::span<const uint8_t> payload, uint64_t* out) {
  if (payload.size() != 8) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU64(out);
}

std::vector<uint8_t> EncodeQueryBatchRequest(
    std::span<const item_t> keys) {
  BinaryWriter writer;
  writer.Reserve(4 + keys.size() * 4);
  writer.PutU32(static_cast<uint32_t>(keys.size()));
  for (const item_t key : keys) writer.PutU32(key);
  return FrameFromWriter(Opcode::kQueryBatch, 0, NetStatus::kOk, writer);
}

bool ParseQueryBatchRequest(std::span<const uint8_t> payload,
                            std::vector<item_t>* out) {
  out->clear();
  BinaryReader reader(payload.data(), payload.size());
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return false;
  if (count > kMaxQueryKeys) return false;
  if (payload.size() != 4 + static_cast<size_t>(count) * 4) return false;
  out->resize(count);
  for (item_t& key : *out) {
    if (!reader.GetU32(&key)) return false;
  }
  return true;
}

std::vector<uint8_t> EncodeQueryBatchResponse(
    std::span<const uint64_t> estimates) {
  BinaryWriter writer;
  writer.Reserve(4 + estimates.size() * 8);
  writer.PutU32(static_cast<uint32_t>(estimates.size()));
  for (const uint64_t estimate : estimates) writer.PutU64(estimate);
  return FrameFromWriter(Opcode::kQueryBatch, kFlagResponse,
                         NetStatus::kOk, writer);
}

bool ParseQueryBatchResponse(std::span<const uint8_t> payload,
                             std::vector<uint64_t>* out) {
  out->clear();
  BinaryReader reader(payload.data(), payload.size());
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return false;
  if (count > kMaxQueryKeys) return false;
  if (payload.size() != 4 + static_cast<size_t>(count) * 8) return false;
  out->resize(count);
  for (uint64_t& estimate : *out) {
    if (!reader.GetU64(&estimate)) return false;
  }
  return true;
}

// -- TOPK ----------------------------------------------------------------

std::vector<uint8_t> EncodeTopKRequest(uint32_t k) {
  BinaryWriter writer;
  writer.PutU32(k);
  return FrameFromWriter(Opcode::kTopK, 0, NetStatus::kOk, writer);
}

bool ParseTopKRequest(std::span<const uint8_t> payload, uint32_t* out) {
  if (payload.size() != 4) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU32(out);
}

std::vector<uint8_t> EncodeTopKResponse(
    std::span<const TopKEntry> entries) {
  BinaryWriter writer;
  writer.Reserve(4 + entries.size() * 20);
  writer.PutU32(static_cast<uint32_t>(entries.size()));
  for (const TopKEntry& e : entries) {
    writer.PutU32(e.key);
    writer.PutU64(e.estimate);
    writer.PutU64(e.exact_hits);
  }
  return FrameFromWriter(Opcode::kTopK, kFlagResponse, NetStatus::kOk,
                         writer);
}

bool ParseTopKResponse(std::span<const uint8_t> payload,
                       std::vector<TopKEntry>* out) {
  out->clear();
  BinaryReader reader(payload.data(), payload.size());
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return false;
  if (count > kMaxTopK) return false;
  if (payload.size() != 4 + static_cast<size_t>(count) * 20) return false;
  out->resize(count);
  for (TopKEntry& e : *out) {
    if (!reader.GetU32(&e.key) || !reader.GetU64(&e.estimate) ||
        !reader.GetU64(&e.exact_hits)) {
      return false;
    }
  }
  return true;
}

// -- STATS ---------------------------------------------------------------

std::vector<uint8_t> EncodeStatsRequest() {
  return EncodeFrame(Opcode::kStats, 0, NetStatus::kOk, {});
}

std::vector<uint8_t> EncodeStatsResponse(const WireStats& stats) {
  BinaryWriter writer;
  writer.PutU32(stats.num_shards);
  writer.PutU64(stats.ingested);
  writer.PutU64(stats.shed_weight);
  writer.PutU64(stats.inline_applied);
  writer.PutU64(stats.filtered_weight);
  writer.PutU64(stats.sketch_weight);
  writer.PutU64(stats.exchanges);
  writer.PutU64(stats.sketch_updates);
  writer.PutU64(stats.memory_bytes);
  writer.PutU64(stats.snapshot_generation);
  writer.PutU32(static_cast<uint32_t>(stats.per_shard_ingested.size()));
  for (const uint64_t ingested : stats.per_shard_ingested) {
    writer.PutU64(ingested);
  }
  return FrameFromWriter(Opcode::kStats, kFlagResponse, NetStatus::kOk,
                         writer);
}

bool ParseStatsResponse(std::span<const uint8_t> payload, WireStats* out) {
  BinaryReader reader(payload.data(), payload.size());
  uint32_t shard_count = 0;
  if (!reader.GetU32(&out->num_shards) || !reader.GetU64(&out->ingested) ||
      !reader.GetU64(&out->shed_weight) ||
      !reader.GetU64(&out->inline_applied) ||
      !reader.GetU64(&out->filtered_weight) ||
      !reader.GetU64(&out->sketch_weight) ||
      !reader.GetU64(&out->exchanges) ||
      !reader.GetU64(&out->sketch_updates) ||
      !reader.GetU64(&out->memory_bytes) ||
      !reader.GetU64(&out->snapshot_generation) ||
      !reader.GetU32(&shard_count)) {
    return false;
  }
  // Shard counts are small (a serving box has at most a few dozen
  // kernels); the cap rejects corrupt counts before allocating.
  constexpr uint32_t kMaxShards = 4096;
  if (shard_count > kMaxShards) return false;
  if (payload.size() != 80 + static_cast<size_t>(shard_count) * 8) {
    return false;
  }
  out->per_shard_ingested.resize(shard_count);
  for (uint64_t& ingested : out->per_shard_ingested) {
    if (!reader.GetU64(&ingested)) return false;
  }
  return true;
}

// -- SNAPSHOT / DIGEST -----------------------------------------------------

std::vector<uint8_t> EncodeSnapshotRequest() {
  return EncodeFrame(Opcode::kSnapshot, 0, NetStatus::kOk, {});
}

std::vector<uint8_t> EncodeDigestRequest() {
  return EncodeFrame(Opcode::kDigest, 0, NetStatus::kOk, {});
}

std::vector<uint8_t> EncodeStateDigestResponse(Opcode opcode,
                                               const StateDigest& digest) {
  BinaryWriter writer;
  writer.PutU64(digest.generation);
  writer.PutU64(digest.ingested);
  writer.PutU32(digest.digest);
  return FrameFromWriter(opcode, kFlagResponse, NetStatus::kOk, writer);
}

bool ParseStateDigestResponse(std::span<const uint8_t> payload,
                              StateDigest* out) {
  if (payload.size() != 20) return false;
  BinaryReader reader(payload.data(), payload.size());
  return reader.GetU64(&out->generation) && reader.GetU64(&out->ingested) &&
         reader.GetU32(&out->digest);
}

// -- errors ---------------------------------------------------------------

std::vector<uint8_t> EncodeErrorResponse(Opcode opcode, NetStatus status,
                                         std::string_view message) {
  return EncodeFrame(
      opcode, kFlagResponse, status,
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(message.data()),
          message.size()));
}

}  // namespace net
}  // namespace asketch

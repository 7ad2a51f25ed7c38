// asketchd wire protocol: a small length-prefixed binary framing over
// TCP. The normative specification lives in docs/PROTOCOL.md; this
// header is its executable twin — the protocol-version negotiation test
// (tests/net_protocol_test.cc) pins the two together so they cannot
// drift silently.
//
// Frame layout (little-endian):
//
//   offset  size  field
//        0     4  length  — bytes that follow this field (4 .. 4 + 1 MiB)
//        4     1  opcode
//        5     1  flags   (bit 0: response, bit 1: want-ack,
//                          bit 2: replayed)
//        6     2  status  (requests: 0; responses: a NetStatus code)
//        8     …  payload (length - 4 bytes)
//
// Every parser here is defensive in the same way the snapshot/serialize
// deserializers are (PR 2 capacity caps): declared counts are bounded
// before any allocation and cross-checked against the bytes actually
// present, so truncated, oversized, or garbage frames yield a parse
// failure — never a crash, an over-read, or a giant allocation.

#ifndef ASKETCH_NET_PROTOCOL_H_
#define ASKETCH_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace asketch {
namespace net {

/// Bytes of the fixed header (length + opcode + flags + status).
inline constexpr size_t kFrameHeaderBytes = 8;

/// Maximum payload a frame may declare. Bounds both the decoder's
/// buffering and the largest UPDATE batch (~128K tuples).
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 20;

/// Handshake magic carried by HELLO ("ASKN").
inline constexpr uint32_t kProtocolMagic = 0x4e4b5341u;

/// Protocol versions this build speaks, inclusive. A server and client
/// negotiate the highest version both ranges contain (see
/// NegotiateVersion); disjoint ranges abort the connection with
/// kVersionMismatch.
inline constexpr uint32_t kProtocolVersionMin = 1;
inline constexpr uint32_t kProtocolVersionMax = 1;

/// Caps on declared element counts (all cross-checked against the bytes
/// actually present before any allocation).
inline constexpr uint32_t kMaxBatchTuples =
    (kMaxFramePayloadBytes - 4) / 8;
inline constexpr uint32_t kMaxQueryKeys = 1u << 16;
inline constexpr uint32_t kMaxTopK = 1u << 16;

enum class Opcode : uint8_t {
  kHello = 0x01,     ///< version negotiation; must open every connection
  kUpdate = 0x02,    ///< batched tuples; fire-and-forget unless want-ack
  kQuery = 0x03,     ///< single-key point query
  kQueryBatch = 0x04,///< many point queries in one round trip
  kTopK = 0x05,      ///< merged heavy-hitter report
  kStats = 0x06,     ///< serving/ingest statistics
  kSnapshot = 0x07,  ///< cut a checkpoint now
  kDigest = 0x08,    ///< CRC32C digest of the full serialized state
};

/// Frame flag bits.
inline constexpr uint8_t kFlagResponse = 0x01;
inline constexpr uint8_t kFlagWantAck = 0x02;
/// Set by a reconnecting client on UPDATE batches re-sent from its
/// unacked replay buffer. The server applies flagged batches normally
/// (replay is at-least-once by design — PROTOCOL.md "Ack-based replay")
/// and counts them toward the connection's cumulative ack, but books
/// their tuples into asketch_net_replayed_tuples_total instead of the
/// first-transmission counter, so global ingest metrics are not
/// inflated by retransmissions. Servers that predate the flag ignore
/// unknown bits, so it is wire-compatible with protocol version 1.
inline constexpr uint8_t kFlagReplay = 0x04;

/// Status codes carried by response frames.
enum class NetStatus : uint16_t {
  kOk = 0,
  kBadFrame = 1,         ///< malformed payload for the opcode
  kUnknownOpcode = 2,
  kVersionMismatch = 3,  ///< HELLO ranges are disjoint
  kHelloRequired = 4,    ///< non-HELLO frame before negotiation
  kBadRequest = 5,       ///< well-formed but unsatisfiable (e.g. k = 0)
  kSnapshotFailed = 6,   ///< persistence disabled or the save failed
  kShuttingDown = 7,     ///< server is draining; retry elsewhere
  kOverloaded = 8,       ///< reserved: queue-full rejection policy
};

/// Human-readable name of a status code (diagnostics/logs).
std::string_view NetStatusName(NetStatus status);

/// One decoded frame.
struct Frame {
  Opcode opcode = Opcode::kHello;
  uint8_t flags = 0;
  NetStatus status = NetStatus::kOk;
  std::vector<uint8_t> payload;

  bool is_response() const { return (flags & kFlagResponse) != 0; }
  bool want_ack() const { return (flags & kFlagWantAck) != 0; }
  bool is_replay() const { return (flags & kFlagReplay) != 0; }
};

/// Highest protocol version inside both inclusive ranges, or nullopt if
/// the ranges are disjoint (→ kVersionMismatch).
std::optional<uint32_t> NegotiateVersion(uint32_t server_min,
                                         uint32_t server_max,
                                         uint32_t client_min,
                                         uint32_t client_max);

/// Wraps `payload` in a frame header.
std::vector<uint8_t> EncodeFrame(Opcode opcode, uint8_t flags,
                                 NetStatus status,
                                 std::span<const uint8_t> payload);

/// Incremental frame parser. Feed() appends raw bytes from the socket;
/// Next() pops complete frames in order. A frame declaring a length
/// below the 4-byte minimum or beyond kMaxFramePayloadBytes poisons the
/// decoder (corrupt() stays true; Next() returns nothing) — the caller
/// must drop the connection, because resynchronizing inside a byte
/// stream with a lying length prefix is impossible.
class FrameDecoder {
 public:
  void Feed(const void* data, size_t size);

  /// Refills `frame` with the next complete frame and returns true, or
  /// returns false (leaving `frame` untouched) when more bytes are
  /// needed or the stream is corrupt. The payload is assigned into
  /// `frame`'s existing vector, so a caller that keeps one Frame across
  /// calls decodes without allocating once its capacity covers the
  /// largest frame seen.
  bool Next(Frame* frame);

  /// Next(Frame*) into a fresh Frame; nullopt when it returns false.
  std::optional<Frame> Next();

  bool corrupt() const { return corrupt_; }
  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool corrupt_ = false;
};

// ---------------------------------------------------------------------
// Typed payloads. Encode* returns a complete frame (header included);
// Parse* consumes a Frame::payload and returns false on any malformed
// input (short payload, trailing bytes, count beyond cap).
// ---------------------------------------------------------------------

struct HelloRequest {
  uint32_t magic = kProtocolMagic;
  uint32_t min_version = kProtocolVersionMin;
  uint32_t max_version = kProtocolVersionMax;
};

struct HelloResponse {
  uint32_t version = 0;     ///< negotiated protocol version
  uint32_t num_shards = 0;  ///< server shard count (informational)
};

/// Cumulative per-connection ingest accounting, returned by want-ack
/// UPDATE frames.
struct UpdateAck {
  uint64_t received_tuples = 0;  ///< tuples accepted from this connection
  uint64_t shed_weight = 0;      ///< weight shed under overload
};

struct TopKEntry {
  item_t key = 0;
  uint64_t estimate = 0;    ///< filter new_count (exact for hot keys)
  uint64_t exact_hits = 0;  ///< new_count - old_count
};

/// The STATS response: aggregate ingest/serving counters across shards.
struct WireStats {
  uint32_t num_shards = 0;
  uint64_t ingested = 0;              ///< tuples applied to the shards
  uint64_t shed_weight = 0;           ///< weight dropped under overload
  uint64_t inline_applied = 0;        ///< tuples applied inline (overload)
  uint64_t filtered_weight = 0;       ///< N1 summed over shards
  uint64_t sketch_weight = 0;         ///< N2 summed over shards
  uint64_t exchanges = 0;
  uint64_t sketch_updates = 0;
  uint64_t memory_bytes = 0;
  uint64_t snapshot_generation = 0;   ///< 0 when never checkpointed
  std::vector<uint64_t> per_shard_ingested;
};

/// The SNAPSHOT / DIGEST response. `digest` is CRC32C over the exact
/// serialized shard payload, so two states with equal digests are
/// bit-identical under serialization.
struct StateDigest {
  uint64_t generation = 0;  ///< snapshot generation (0 for kDigest)
  uint64_t ingested = 0;    ///< tuples applied when the state was cut
  uint32_t digest = 0;
};

std::vector<uint8_t> EncodeHelloRequest(const HelloRequest& hello);
bool ParseHelloRequest(std::span<const uint8_t> payload, HelloRequest* out);
std::vector<uint8_t> EncodeHelloResponse(const HelloResponse& hello);
bool ParseHelloResponse(std::span<const uint8_t> payload,
                        HelloResponse* out);
/// Version-mismatch reply: status kVersionMismatch, payload = the
/// server's supported range.
std::vector<uint8_t> EncodeVersionMismatch(uint32_t server_min,
                                           uint32_t server_max);

/// `replay` sets kFlagReplay (reconnect retransmissions only).
std::vector<uint8_t> EncodeUpdateRequest(std::span<const Tuple> tuples,
                                         bool want_ack,
                                         bool replay = false);
bool ParseUpdateRequest(std::span<const uint8_t> payload,
                        std::vector<Tuple>* out);
std::vector<uint8_t> EncodeUpdateAck(const UpdateAck& ack);
bool ParseUpdateAck(std::span<const uint8_t> payload, UpdateAck* out);

std::vector<uint8_t> EncodeQueryRequest(item_t key);
bool ParseQueryRequest(std::span<const uint8_t> payload, item_t* out);
std::vector<uint8_t> EncodeQueryResponse(uint64_t estimate);
bool ParseQueryResponse(std::span<const uint8_t> payload, uint64_t* out);

std::vector<uint8_t> EncodeQueryBatchRequest(std::span<const item_t> keys);
bool ParseQueryBatchRequest(std::span<const uint8_t> payload,
                            std::vector<item_t>* out);
std::vector<uint8_t> EncodeQueryBatchResponse(
    std::span<const uint64_t> estimates);
bool ParseQueryBatchResponse(std::span<const uint8_t> payload,
                             std::vector<uint64_t>* out);

std::vector<uint8_t> EncodeTopKRequest(uint32_t k);
bool ParseTopKRequest(std::span<const uint8_t> payload, uint32_t* out);
std::vector<uint8_t> EncodeTopKResponse(std::span<const TopKEntry> entries);
bool ParseTopKResponse(std::span<const uint8_t> payload,
                       std::vector<TopKEntry>* out);

std::vector<uint8_t> EncodeStatsRequest();
std::vector<uint8_t> EncodeStatsResponse(const WireStats& stats);
bool ParseStatsResponse(std::span<const uint8_t> payload, WireStats* out);

std::vector<uint8_t> EncodeSnapshotRequest();
std::vector<uint8_t> EncodeDigestRequest();
/// Shared by the SNAPSHOT and DIGEST responses.
std::vector<uint8_t> EncodeStateDigestResponse(Opcode opcode,
                                               const StateDigest& digest);
bool ParseStateDigestResponse(std::span<const uint8_t> payload,
                              StateDigest* out);

/// Error reply for any request: echoes the opcode, carries a nonzero
/// status and a UTF-8 message as the payload.
std::vector<uint8_t> EncodeErrorResponse(Opcode opcode, NetStatus status,
                                         std::string_view message);

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_PROTOCOL_H_

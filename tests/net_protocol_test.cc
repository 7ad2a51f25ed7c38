// Wire-protocol unit tests: frame codec round trips, incremental
// decoding, the corrupt-stream poisoning rule, capacity-cap enforcement
// mirroring the PR-2 deserializer discipline, a seeded garbage fuzz, and
// the version-negotiation matrix pinned against docs/PROTOCOL.md so the
// spec and the code cannot drift silently.

#include "src/net/protocol.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>

#include "gtest/gtest.h"
#include "src/common/serialize.h"

namespace asketch {
namespace net {
namespace {

Frame DecodeOne(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  auto frame = decoder.Next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_EQ(decoder.buffered(), 0u);
  return frame.value_or(Frame{});
}

TEST(FrameCodec, HeaderLayout) {
  const auto bytes =
      EncodeFrame(Opcode::kQuery, kFlagResponse, NetStatus::kOk,
                  std::vector<uint8_t>{0xaa, 0xbb});
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 2);
  // length counts opcode+flags+status+payload, little-endian.
  EXPECT_EQ(bytes[0], 6u);
  EXPECT_EQ(bytes[1], 0u);
  EXPECT_EQ(bytes[4], static_cast<uint8_t>(Opcode::kQuery));
  EXPECT_EQ(bytes[5], kFlagResponse);
}

TEST(FrameCodec, RoundTrip) {
  const std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  const Frame frame = DecodeOne(
      EncodeFrame(Opcode::kUpdate, kFlagWantAck, NetStatus::kOk, payload));
  EXPECT_EQ(frame.opcode, Opcode::kUpdate);
  EXPECT_TRUE(frame.want_ack());
  EXPECT_FALSE(frame.is_response());
  EXPECT_EQ(frame.status, NetStatus::kOk);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameCodec, EmptyPayload) {
  const Frame frame = DecodeOne(EncodeStatsRequest());
  EXPECT_EQ(frame.opcode, Opcode::kStats);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameDecoderTest, ByteAtATime) {
  const auto bytes = EncodeQueryRequest(0xdeadbeef);
  FrameDecoder decoder;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    EXPECT_FALSE(decoder.Next().has_value());
  }
  decoder.Feed(&bytes.back(), 1);
  const auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  item_t key = 0;
  EXPECT_TRUE(ParseQueryRequest(frame->payload, &key));
  EXPECT_EQ(key, 0xdeadbeefu);
}

TEST(FrameDecoderTest, MultipleFramesOneFeed) {
  auto bytes = EncodeQueryRequest(1);
  const auto second = EncodeTopKRequest(5);
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  auto a = decoder.Next();
  auto b = decoder.Next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->opcode, Opcode::kQuery);
  EXPECT_EQ(b->opcode, Opcode::kTopK);
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameDecoderTest, OversizedLengthPoisons) {
  uint8_t bytes[8] = {};
  const uint32_t length = 4 + kMaxFramePayloadBytes + 1;
  std::memcpy(bytes, &length, 4);
  FrameDecoder decoder;
  decoder.Feed(bytes, sizeof(bytes));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.corrupt());
  // A poisoned decoder stays poisoned: further bytes are ignored.
  const auto good = EncodeStatsRequest();
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameDecoderTest, UndersizedLengthPoisons) {
  uint8_t bytes[4] = {3, 0, 0, 0};  // below the 4-byte header tail
  FrameDecoder decoder;
  decoder.Feed(bytes, sizeof(bytes));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.corrupt());
}

TEST(FrameDecoderTest, TruncatedFrameNeverDelivers) {
  const auto bytes = EncodeQueryRequest(7);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_FALSE(decoder.corrupt());
  EXPECT_EQ(decoder.buffered(), bytes.size() - 1);
}

// Seeded garbage fuzz: random byte streams must never crash, over-read
// (ASan would flag it), or deliver a frame with an out-of-bounds
// payload. The decoder either yields well-formed frames or poisons.
TEST(FrameDecoderTest, GarbageFuzz) {
  std::mt19937 rng(20260807);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    std::uniform_int_distribution<int> len_dist(1, 512);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    for (int feed = 0; feed < 8 && !decoder.corrupt(); ++feed) {
      std::vector<uint8_t> chunk(len_dist(rng));
      for (auto& b : chunk) b = static_cast<uint8_t>(byte_dist(rng));
      decoder.Feed(chunk.data(), chunk.size());
      while (auto frame = decoder.Next()) {
        EXPECT_LE(frame->payload.size(), kMaxFramePayloadBytes);
        // Parsers must reject or accept without crashing.
        std::vector<Tuple> tuples;
        ParseUpdateRequest(frame->payload, &tuples);
        std::vector<item_t> keys;
        ParseQueryBatchRequest(frame->payload, &keys);
        WireStats stats;
        ParseStatsResponse(frame->payload, &stats);
      }
    }
  }
}

std::vector<Tuple> RandomTuples(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Tuple> tuples(n);
  for (Tuple& t : tuples) {
    t.key = static_cast<item_t>(rng());
    t.value = static_cast<count_t>(rng());
  }
  return tuples;
}

// An UPDATE frame split at every byte offset into two feeds decodes to
// the same frame and the same tuples as the frame fed whole: the
// reused-buffer decode never delivers a frame early or mis-slices one
// that straddles two receives.
TEST(FrameDecoderTest, UpdateSplitAtEveryOffsetDecodesIdentically) {
  const std::vector<Tuple> tuples = RandomTuples(97, 11);
  const auto bytes = EncodeUpdateRequest(tuples, true);
  const Frame whole = DecodeOne(bytes);
  FrameDecoder decoder;
  Frame frame;
  std::vector<Tuple> parsed;
  for (size_t split = 0; split <= bytes.size(); ++split) {
    decoder.Feed(bytes.data(), split);
    if (split < bytes.size()) {
      ASSERT_FALSE(decoder.Next(&frame)) << "split " << split;
      decoder.Feed(bytes.data() + split, bytes.size() - split);
    }
    ASSERT_TRUE(decoder.Next(&frame)) << "split " << split;
    EXPECT_EQ(frame.opcode, whole.opcode);
    EXPECT_EQ(frame.flags, whole.flags);
    EXPECT_EQ(frame.status, whole.status);
    EXPECT_EQ(frame.payload, whole.payload) << "split " << split;
    ASSERT_TRUE(ParseUpdateRequest(frame.payload, &parsed));
    EXPECT_EQ(parsed, tuples);
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_EQ(decoder.buffered(), 0u);
  }
  EXPECT_FALSE(decoder.corrupt());
}

// One Frame and one tuple vector reused across back-to-back frames that
// go long, short, empty, long: each decode carries exactly its own
// payload, with no bytes left over from a longer predecessor.
TEST(FrameDecoderTest, ReusedFrameCarriesNoStalePayload) {
  const std::vector<Tuple> first = RandomTuples(1000, 1);
  const std::vector<Tuple> short_batch = RandomTuples(3, 2);
  const std::vector<Tuple> last = RandomTuples(700, 3);
  std::vector<uint8_t> stream;
  for (const auto& bytes :
       {EncodeUpdateRequest(first, false), EncodeQueryRequest(0x01020304),
        EncodeUpdateRequest(short_batch, false), EncodeStatsRequest(),
        EncodeUpdateRequest(last, true)}) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Frame frame;
  std::vector<Tuple> parsed;

  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_TRUE(ParseUpdateRequest(frame.payload, &parsed));
  EXPECT_EQ(parsed, first);

  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.opcode, Opcode::kQuery);
  EXPECT_EQ(frame.payload, (std::vector<uint8_t>{4, 3, 2, 1}));
  item_t key = 0;
  EXPECT_TRUE(ParseQueryRequest(frame.payload, &key));
  EXPECT_EQ(key, 0x01020304u);

  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_FALSE(frame.want_ack());
  ASSERT_TRUE(ParseUpdateRequest(frame.payload, &parsed));
  EXPECT_EQ(parsed, short_batch);

  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.opcode, Opcode::kStats);
  EXPECT_TRUE(frame.payload.empty());

  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_TRUE(frame.want_ack());
  ASSERT_TRUE(ParseUpdateRequest(frame.payload, &parsed));
  EXPECT_EQ(parsed, last);

  EXPECT_FALSE(decoder.Next(&frame));
  EXPECT_EQ(decoder.buffered(), 0u);
  // A rejected payload leaves the reused vector empty, not stale.
  EXPECT_FALSE(ParseUpdateRequest(std::span<const uint8_t>(), &parsed));
  EXPECT_TRUE(parsed.empty());
}

// Next() and Next(Frame*) agree frame for frame — on well-formed
// streams and on seeded garbage, including when and whether the stream
// poisons.
TEST(FrameDecoderTest, OptionalAndOutParamFormsAgree) {
  std::mt19937 rng(20261019);
  std::uniform_int_distribution<int> len_dist(1, 300);
  for (int round = 0; round < 100; ++round) {
    std::vector<uint8_t> stream;
    if (round % 2 == 0) {
      for (int i = 0; i < 4; ++i) {
        const auto bytes = EncodeUpdateRequest(
            RandomTuples(static_cast<size_t>(len_dist(rng)),
                         static_cast<uint32_t>(rng())),
            (i & 1) != 0);
        stream.insert(stream.end(), bytes.begin(), bytes.end());
      }
    } else {
      stream.resize(static_cast<size_t>(len_dist(rng)) * 4);
      for (auto& b : stream) b = static_cast<uint8_t>(rng());
    }
    FrameDecoder a;
    FrameDecoder b;
    Frame reused;
    for (size_t at = 0; at < stream.size();) {
      const size_t n = std::min(stream.size() - at,
                                static_cast<size_t>(len_dist(rng)));
      a.Feed(stream.data() + at, n);
      b.Feed(stream.data() + at, n);
      at += n;
      for (;;) {
        const auto fresh = a.Next();
        const bool got = b.Next(&reused);
        ASSERT_EQ(fresh.has_value(), got);
        if (!got) break;
        EXPECT_EQ(fresh->opcode, reused.opcode);
        EXPECT_EQ(fresh->flags, reused.flags);
        EXPECT_EQ(fresh->status, reused.status);
        EXPECT_EQ(fresh->payload, reused.payload);
      }
      ASSERT_EQ(a.corrupt(), b.corrupt());
      ASSERT_EQ(a.buffered(), b.buffered());
    }
  }
}

TEST(TypedPayloads, HelloRoundTrip) {
  const Frame frame = DecodeOne(EncodeHelloRequest(HelloRequest{}));
  HelloRequest hello{0, 0, 0};
  ASSERT_TRUE(ParseHelloRequest(frame.payload, &hello));
  EXPECT_EQ(hello.magic, kProtocolMagic);
  EXPECT_EQ(hello.min_version, kProtocolVersionMin);
  EXPECT_EQ(hello.max_version, kProtocolVersionMax);

  const Frame reply = DecodeOne(EncodeHelloResponse(HelloResponse{1, 4}));
  HelloResponse parsed;
  ASSERT_TRUE(ParseHelloResponse(reply.payload, &parsed));
  EXPECT_EQ(parsed.version, 1u);
  EXPECT_EQ(parsed.num_shards, 4u);
}

TEST(TypedPayloads, HelloRejectsBadMagic) {
  BinaryWriter writer;
  writer.PutU32(0x12345678u);
  writer.PutU32(1);
  writer.PutU32(1);
  HelloRequest hello;
  EXPECT_FALSE(ParseHelloRequest(writer.buffer(), &hello));
}

TEST(TypedPayloads, UpdateRoundTrip) {
  const std::vector<Tuple> tuples{{1, 2}, {3, 4}, {5, 1}};
  const Frame frame = DecodeOne(EncodeUpdateRequest(tuples, true));
  EXPECT_TRUE(frame.want_ack());
  std::vector<Tuple> parsed;
  ASSERT_TRUE(ParseUpdateRequest(frame.payload, &parsed));
  EXPECT_EQ(parsed, tuples);
}

TEST(TypedPayloads, UpdateRejectsLyingCount) {
  // Declares 3 tuples but carries 2: byte cross-check must fail.
  BinaryWriter writer;
  writer.PutU32(3);
  for (int i = 0; i < 2; ++i) {
    writer.PutU32(1);
    writer.PutU32(1);
  }
  std::vector<Tuple> parsed;
  EXPECT_FALSE(ParseUpdateRequest(writer.buffer(), &parsed));
  // Trailing garbage after the declared tuples must also fail.
  BinaryWriter trailing;
  trailing.PutU32(1);
  trailing.PutU32(1);
  trailing.PutU32(1);
  trailing.PutU8(0);
  EXPECT_FALSE(ParseUpdateRequest(trailing.buffer(), &parsed));
}

TEST(TypedPayloads, UpdateRejectsCountBeyondCap) {
  BinaryWriter writer;
  writer.PutU32(kMaxBatchTuples + 1);
  std::vector<Tuple> parsed;
  EXPECT_FALSE(ParseUpdateRequest(writer.buffer(), &parsed));
}

// The UPDATE wire bytes are pinned by hand: little-endian length,
// opcode, flags, status, count, then key/value pairs, including the
// extreme values 0 and 0xFFFFFFFF.
TEST(TypedPayloads, UpdateEncodesLittleEndianWireBytes) {
  const std::vector<Tuple> tuples{
      {0, 0}, {0xFFFFFFFFu, 0xFFFFFFFFu}, {0x01020304u, 0xA0B0C0D0u},
      {0, 0xFFFFFFFFu}, {0xFFFFFFFFu, 0}};
  const std::vector<uint8_t> expected{
      0x30, 0x00, 0x00, 0x00,  // length: 4 header + 4 count + 5 * 8
      0x02,                    // opcode kUpdate
      0x06,                    // flags: want-ack | replayed
      0x00, 0x00,              // status kOk
      0x05, 0x00, 0x00, 0x00,  // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
      0x04, 0x03, 0x02, 0x01, 0xD0, 0xC0, 0xB0, 0xA0,
      0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF,
      0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(EncodeUpdateRequest(tuples, /*want_ack=*/true, /*replay=*/true),
            expected);
  const std::vector<uint8_t> empty{0x08, 0x00, 0x00, 0x00, 0x02, 0x00,
                                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(EncodeUpdateRequest({}, false), empty);
  std::vector<Tuple> parsed;
  ASSERT_TRUE(ParseUpdateRequest(
      std::span<const uint8_t>(expected).subspan(kFrameHeaderBytes),
      &parsed));
  EXPECT_EQ(parsed, tuples);
}

TEST(TypedPayloads, QueryBatchRejectsCountBeyondCap) {
  BinaryWriter writer;
  writer.PutU32(kMaxQueryKeys + 1);
  std::vector<item_t> parsed;
  EXPECT_FALSE(ParseQueryBatchRequest(writer.buffer(), &parsed));
}

TEST(TypedPayloads, TopKRoundTrip) {
  const std::vector<TopKEntry> entries{{7, 100, 40}, {9, 50, 50}};
  const Frame frame = DecodeOne(EncodeTopKResponse(entries));
  std::vector<TopKEntry> parsed;
  ASSERT_TRUE(ParseTopKResponse(frame.payload, &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].key, 7u);
  EXPECT_EQ(parsed[0].estimate, 100u);
  EXPECT_EQ(parsed[1].exact_hits, 50u);
}

TEST(TypedPayloads, StatsRoundTrip) {
  WireStats stats;
  stats.num_shards = 4;
  stats.ingested = 1'000'000;
  stats.shed_weight = 5;
  stats.filtered_weight = 900'000;
  stats.sketch_weight = 100'000;
  stats.per_shard_ingested = {1, 2, 3, 4};
  const Frame frame = DecodeOne(EncodeStatsResponse(stats));
  WireStats parsed;
  ASSERT_TRUE(ParseStatsResponse(frame.payload, &parsed));
  EXPECT_EQ(parsed.ingested, stats.ingested);
  EXPECT_EQ(parsed.per_shard_ingested, stats.per_shard_ingested);
}

TEST(TypedPayloads, DigestRoundTrip) {
  const StateDigest digest{42, 1'000'000, 0xdeadbeef};
  const Frame frame =
      DecodeOne(EncodeStateDigestResponse(Opcode::kSnapshot, digest));
  EXPECT_EQ(frame.opcode, Opcode::kSnapshot);
  StateDigest parsed;
  ASSERT_TRUE(ParseStateDigestResponse(frame.payload, &parsed));
  EXPECT_EQ(parsed.generation, 42u);
  EXPECT_EQ(parsed.ingested, 1'000'000u);
  EXPECT_EQ(parsed.digest, 0xdeadbeefu);
}

TEST(TypedPayloads, ErrorResponseCarriesMessage) {
  const Frame frame = DecodeOne(EncodeErrorResponse(
      Opcode::kTopK, NetStatus::kBadRequest, "k out of range"));
  EXPECT_EQ(frame.opcode, Opcode::kTopK);
  EXPECT_TRUE(frame.is_response());
  EXPECT_EQ(frame.status, NetStatus::kBadRequest);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()),
            "k out of range");
}

TEST(Negotiation, Matrix) {
  // Equal single-version ranges.
  EXPECT_EQ(NegotiateVersion(1, 1, 1, 1), 1u);
  // Overlap picks the highest common version.
  EXPECT_EQ(NegotiateVersion(1, 3, 2, 5), 3u);
  EXPECT_EQ(NegotiateVersion(2, 5, 1, 3), 3u);
  // Disjoint ranges fail.
  EXPECT_EQ(NegotiateVersion(1, 1, 2, 3), std::nullopt);
  EXPECT_EQ(NegotiateVersion(4, 5, 1, 3), std::nullopt);
  // Inverted ranges are malformed.
  EXPECT_EQ(NegotiateVersion(2, 1, 1, 1), std::nullopt);
  EXPECT_EQ(NegotiateVersion(1, 1, 3, 2), std::nullopt);
}

// ---------------------------------------------------------------------
// Doc pinning: docs/PROTOCOL.md carries a machine-readable constants
// line and an opcode table; this test fails when either disagrees with
// the code, so the spec cannot drift silently.
// ---------------------------------------------------------------------

std::string ReadProtocolDoc() {
  const std::string path =
      std::string(ASKETCH_REPO_ROOT) + "/docs/PROTOCOL.md";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return text;
}

TEST(ProtocolDoc, ConstantsMatchCode) {
  const std::string doc = ReadProtocolDoc();
  ASSERT_FALSE(doc.empty()) << "docs/PROTOCOL.md missing";
  char expected[160];
  std::snprintf(expected, sizeof(expected),
                "<!-- protocol-constants: version_min=%u version_max=%u "
                "magic=0x%08x max_payload=%u -->",
                kProtocolVersionMin, kProtocolVersionMax, kProtocolMagic,
                kMaxFramePayloadBytes);
  EXPECT_NE(doc.find(expected), std::string::npos)
      << "docs/PROTOCOL.md protocol-constants line disagrees with "
         "src/net/protocol.h; expected: "
      << expected;
}

TEST(ProtocolDoc, OpcodeTableMatchesCode) {
  const std::string doc = ReadProtocolDoc();
  ASSERT_FALSE(doc.empty()) << "docs/PROTOCOL.md missing";
  const struct {
    Opcode opcode;
    const char* name;
  } kOpcodes[] = {
      {Opcode::kHello, "HELLO"},         {Opcode::kUpdate, "UPDATE"},
      {Opcode::kQuery, "QUERY"},         {Opcode::kQueryBatch, "QUERY_BATCH"},
      {Opcode::kTopK, "TOPK"},           {Opcode::kStats, "STATS"},
      {Opcode::kSnapshot, "SNAPSHOT"},   {Opcode::kDigest, "DIGEST"},
  };
  for (const auto& entry : kOpcodes) {
    char row[64];
    std::snprintf(row, sizeof(row), "| `0x%02x` | `%s` |",
                  static_cast<unsigned>(entry.opcode), entry.name);
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/PROTOCOL.md opcode table missing or stale row: " << row;
  }
}

TEST(ProtocolDoc, StatusTableMatchesCode) {
  const std::string doc = ReadProtocolDoc();
  ASSERT_FALSE(doc.empty()) << "docs/PROTOCOL.md missing";
  for (uint16_t code = 0; code <= 8; ++code) {
    const auto status = static_cast<NetStatus>(code);
    char row[64];
    std::snprintf(row, sizeof(row), "| %u | `%s` |", code,
                  std::string(NetStatusName(status)).c_str());
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/PROTOCOL.md status table missing or stale row: " << row;
  }
}

}  // namespace
}  // namespace net
}  // namespace asketch

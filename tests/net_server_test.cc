// End-to-end tests for the asketchd serving core: lifecycle, HELLO
// negotiation over the wire (including mismatch and hello-required
// rejection), single-client determinism against an in-process ShardSet
// oracle, streamed DIGEST vs the serialized payload, concurrent-client
// conservation, garbage-resilience, overload degradation, and
// snapshot/recover bit-identity.

#include "src/net/server.h"

#include <filesystem>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32c.h"
#include "src/common/serialize.h"
#include "src/common/snapshot.h"
#include "src/net/client.h"
#include "src/net/shard_set.h"
#include "src/workload/stream_generator.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define ASKETCH_NET_TESTS 1
#else
#define ASKETCH_NET_TESTS 0
#endif

namespace asketch {
namespace net {
namespace {

#if ASKETCH_NET_TESTS

namespace fs = std::filesystem;

ServerOptions SmallServer() {
  ServerOptions options;
  options.shards.num_shards = 4;
  options.shards.shard_config.total_bytes = 32 * 1024;
  return options;
}

std::vector<Tuple> TestStream(uint64_t n, uint64_t seed = 7) {
  StreamSpec spec;
  spec.stream_size = n;
  spec.num_distinct = n / 4 + 16;
  spec.seed = seed;
  return GenerateStream(spec);
}

/// A raw connection that can speak arbitrary bytes — for the handshake
/// and garbage tests the Client class is too well-behaved for.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one frame arrives (or the peer closes → nullopt).
  std::optional<Frame> ReadFrame() {
    uint8_t buffer[4096];
    for (;;) {
      if (auto frame = decoder_.Next()) return frame;
      if (decoder_.corrupt()) return std::nullopt;
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      decoder_.Feed(buffer, static_cast<size_t>(n));
    }
  }

  /// True when the server closed the connection.
  bool WaitClosed() {
    uint8_t buffer[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      // drain any pending frames
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(NetServer, StartStopIdempotent) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  EXPECT_GT(server.port(), 0);
  EXPECT_NE(server.Start(), std::nullopt);  // double start refused
  server.Stop();
  server.Stop();  // idempotent
}

TEST(NetServer, HelloNegotiation) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  EXPECT_EQ(client.negotiated_version(), kProtocolVersionMax);
  EXPECT_EQ(client.server_shards(), 4u);
}

TEST(NetServer, HelloVersionMismatch) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send(EncodeHelloRequest(
      HelloRequest{kProtocolMagic, kProtocolVersionMax + 1,
                   kProtocolVersionMax + 2})));
  const auto reply = conn.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, NetStatus::kVersionMismatch);
  EXPECT_TRUE(conn.WaitClosed());
}

TEST(NetServer, OpcodeBeforeHelloRejected) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  RawConn conn(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send(EncodeStatsRequest()));
  const auto reply = conn.ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, NetStatus::kHelloRequired);
  EXPECT_TRUE(conn.WaitClosed());
}

TEST(NetServer, GarbageStreamDropsConnectionButServerSurvives) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  {
    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    // A lying length prefix (beyond the cap) poisons the stream.
    std::vector<uint8_t> garbage(64, 0xff);
    ASSERT_TRUE(conn.Send(garbage));
    EXPECT_TRUE(conn.WaitClosed());
  }
  // The server keeps serving fresh connections.
  Client client;
  EXPECT_EQ(client.Connect({.port = server.port()}), std::nullopt);
}

// The wire path must be a pure transport: a server-fed ShardSet and an
// identically configured in-process oracle fed the same stream must end
// bit-identical (equal serialized digests), with equal estimates and
// TOPK reports.
/// Ingests `tuples` in the 1000-tuple slices the tests' clients send as
/// UPDATE frames, so an in-process oracle sees the server's call
/// boundaries.
void IngestInSlices(ShardSet& shards, const std::vector<Tuple>& tuples) {
  for (size_t offset = 0; offset < tuples.size(); offset += 1000) {
    const size_t n = std::min<size_t>(1000, tuples.size() - offset);
    shards.Ingest(std::span<const Tuple>(tuples.data() + offset, n));
  }
}

TEST(NetServer, SingleClientMatchesInProcessOracle) {
  const ServerOptions options = SmallServer();
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  ShardSet oracle(options.shards);

  // The applied state depends on Ingest call boundaries (per-call key
  // combining), so the oracle ingests the same 1000-tuple slices the
  // client sends as UPDATE frames.
  const auto tuples = TestStream(50'000);
  IngestInSlices(oracle, tuples);
  oracle.Drain();

  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  for (size_t offset = 0; offset < tuples.size(); offset += 1000) {
    const size_t n = std::min<size_t>(1000, tuples.size() - offset);
    ASSERT_EQ(client.Update(std::span<const Tuple>(
                  tuples.data() + offset, n)),
              std::nullopt);
  }
  ASSERT_EQ(client.Flush(), std::nullopt);
  EXPECT_EQ(client.last_ack().received_tuples, tuples.size());
  EXPECT_EQ(client.last_ack().shed_weight, 0u);

  StateDigest server_digest;
  ASSERT_EQ(client.Digest(&server_digest), std::nullopt);
  StateDigest oracle_digest;
  oracle.SerializeState(&oracle_digest);
  EXPECT_EQ(server_digest.digest, oracle_digest.digest);
  EXPECT_EQ(server_digest.ingested, oracle_digest.ingested);

  // Spot-check point queries and the merged TOPK over the wire.
  std::vector<item_t> keys;
  for (size_t i = 0; i < tuples.size(); i += 997) {
    keys.push_back(tuples[i].key);
  }
  std::vector<uint64_t> estimates;
  ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
  ASSERT_EQ(estimates.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(estimates[i], oracle.Estimate(keys[i]));
  }
  std::vector<TopKEntry> wire_topk;
  ASSERT_EQ(client.TopK(16, &wire_topk), std::nullopt);
  const auto oracle_topk = oracle.TopK(16);
  ASSERT_EQ(wire_topk.size(), oracle_topk.size());
  for (size_t i = 0; i < wire_topk.size(); ++i) {
    EXPECT_EQ(wire_topk[i].key, oracle_topk[i].key);
    EXPECT_EQ(wire_topk[i].estimate, oracle_topk[i].estimate);
  }
}

// DIGEST streams CRC32C over the live shards instead of building the
// SerializeState payload. Fed over the wire at a multi-MiB shard size,
// the server must report the digest of that payload bit for bit.
// Returns the wire digest.
StateDigest ExpectWireDigestMatchesSerializedPayload(
    const ServerOptions& options, const std::vector<Tuple>& tuples) {
  Server server(options);
  EXPECT_EQ(server.Start(), std::nullopt);
  Client client;
  EXPECT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  for (size_t offset = 0; offset < tuples.size(); offset += 1000) {
    const size_t n = std::min<size_t>(1000, tuples.size() - offset);
    EXPECT_EQ(client.Update(std::span<const Tuple>(
                  tuples.data() + offset, n)),
              std::nullopt);
  }
  EXPECT_EQ(client.Flush(), std::nullopt);

  StateDigest wire;
  EXPECT_EQ(client.Digest(&wire), std::nullopt);
  EXPECT_EQ(wire.ingested, tuples.size());
  StateDigest local;
  const std::vector<uint8_t> payload =
      server.shards().SerializeState(&local);
  EXPECT_GT(payload.size(), options.shards.num_shards *
                                options.shards.shard_config.total_bytes / 2);
  EXPECT_EQ(wire.digest, local.digest);
  EXPECT_EQ(wire.digest, Crc32c(payload.data(), payload.size()));
  EXPECT_EQ(wire.ingested, local.ingested);
  return wire;
}

ServerOptions MultiMiBServer() {
  ServerOptions options;
  options.shards.num_shards = 2;
  options.shards.shard_config.total_bytes = 4 << 20;
  return options;
}

TEST(NetServer, WireDigestMatchesSerializedPayloadAndOracle) {
  const ServerOptions options = MultiMiBServer();
  const auto tuples = TestStream(200'000);
  const StateDigest wire =
      ExpectWireDigestMatchesSerializedPayload(options, tuples);

  ShardSet oracle(options.shards);
  IngestInSlices(oracle, tuples);
  StateDigest oracle_digest;
  oracle.SerializeState(&oracle_digest);
  EXPECT_EQ(wire.digest, oracle_digest.digest);
}

// Concurrent clients: total ingested tuples are conserved and every
// sampled estimate keeps the one-sided guarantee against an exact
// counter of the union stream.
TEST(NetServer, ConcurrentClientsConserveAndStayOneSided) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);

  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 20'000;
  std::vector<std::vector<Tuple>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(TestStream(kPerClient, /*seed=*/100 + c));
  }
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (auto error = client.Connect({.port = server.port()})) {
        errors[c] = *error;
        return;
      }
      const auto& stream = streams[c];
      for (size_t offset = 0; offset < stream.size(); offset += 500) {
        const size_t n = std::min<size_t>(500, stream.size() - offset);
        if (auto error = client.Update(std::span<const Tuple>(
                stream.data() + offset, n))) {
          errors[c] = *error;
          return;
        }
      }
      if (auto error = client.Flush()) errors[c] = *error;
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors) EXPECT_EQ(error, "");

  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  StateDigest barrier;
  ASSERT_EQ(client.Digest(&barrier), std::nullopt);  // drains queues
  EXPECT_EQ(barrier.ingested, kClients * kPerClient);

  WireStats stats;
  ASSERT_EQ(client.Stats(&stats), std::nullopt);
  EXPECT_EQ(stats.ingested, kClients * kPerClient);
  EXPECT_EQ(stats.shed_weight, 0u);
  // Unit weights: filter + sketch shares must add up to the stream.
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight,
            kClients * kPerClient);

  std::unordered_map<item_t, uint64_t> exact;
  for (const auto& stream : streams) {
    for (const Tuple& t : stream) exact[t.key] += t.value;
  }
  std::vector<item_t> keys;
  for (const auto& [key, count] : exact) {
    keys.push_back(key);
    if (keys.size() == 2048) break;
  }
  std::vector<uint64_t> estimates;
  ASSERT_EQ(client.QueryBatch(keys, &estimates), std::nullopt);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_GE(estimates[i], exact[keys[i]])
        << "one-sided guarantee violated for key " << keys[i];
  }
}

TEST(NetServer, SnapshotRecoverBitIdentical) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_recover_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "ckpt").string();

  ServerOptions options = SmallServer();
  options.snapshot_prefix = prefix;
  StateDigest saved;
  {
    Server server(options);
    ASSERT_EQ(server.Start(), std::nullopt);
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
    const auto tuples = TestStream(30'000);
    ASSERT_EQ(client.Update(tuples), std::nullopt);
    ASSERT_EQ(client.Flush(), std::nullopt);
    ASSERT_EQ(client.Snapshot(&saved), std::nullopt);
    EXPECT_GT(saved.generation, 0u);
    EXPECT_EQ(saved.ingested, 30'000u);
    // The snapshot re-adopts the serialized form: the live digest now
    // equals the saved one.
    StateDigest live;
    ASSERT_EQ(client.Digest(&live), std::nullopt);
    EXPECT_EQ(live.digest, saved.digest);
    server.Stop();
  }
  {
    ServerOptions recover_options = options;
    recover_options.recover = true;
    Server server(recover_options);
    ASSERT_EQ(server.Start(), std::nullopt);
    ASSERT_TRUE(server.recovered().has_value());
    EXPECT_EQ(server.recovered()->digest, saved.digest);
    EXPECT_EQ(server.recovered()->ingested, saved.ingested);
    Client client;
    ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
    StateDigest recovered;
    ASSERT_EQ(client.Digest(&recovered), std::nullopt);
    EXPECT_EQ(recovered.digest, saved.digest);
    EXPECT_EQ(recovered.ingested, saved.ingested);
  }
  fs::remove_all(dir);
}

TEST(NetServer, RecoverWithoutSnapshotFails) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_recover_empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServerOptions options = SmallServer();
  options.snapshot_prefix = (dir / "ckpt").string();
  options.recover = true;
  Server server(options);
  EXPECT_NE(server.Start(), std::nullopt);
  fs::remove_all(dir);
}

TEST(NetServer, SnapshotWithoutPrefixAnswersError) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  StateDigest digest;
  const auto error = client.Snapshot(&digest);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("snapshot_failed"), std::string::npos);
}

TEST(ShardSetTest, OverloadShedsWhenStalledAndQueuesBounded) {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  options.max_queue_batches = 2;
  options.max_enqueue_wait_ms = 1;
  options.overload = OverloadPolicy::kShed;
  ShardSet shards(options);
  shards.StallWorkersForTesting(true);

  const auto tuples = TestStream(10'000);
  uint64_t shed = 0;
  for (int round = 0; round < 8; ++round) {
    shed += shards.Ingest(tuples);
  }
  EXPECT_GT(shed, 0u) << "stalled bounded queues must shed";

  shards.StallWorkersForTesting(false);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.shed_weight, shed);
  // Conservation: everything not shed was applied.
  uint64_t total_weight = 0;
  for (const Tuple& t : tuples) total_weight += t.value;
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight,
            8 * total_weight - shed);
}

TEST(ShardSetTest, OverloadInlineAppliesEverything) {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  options.max_queue_batches = 2;
  options.max_enqueue_wait_ms = 1;
  options.overload = OverloadPolicy::kInlineApply;
  ShardSet shards(options);
  shards.StallWorkersForTesting(true);

  const auto tuples = TestStream(10'000);
  uint64_t shed = 0;
  for (int round = 0; round < 4; ++round) {
    shed += shards.Ingest(tuples);
  }
  EXPECT_EQ(shed, 0u);
  shards.StallWorkersForTesting(false);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.ingested, 4 * tuples.size());
  EXPECT_GT(stats.inline_applied, 0u)
      << "stalled bounded queues must degrade to inline application";
}

TEST(ShardSetTest, ShardRoutingIsDisjointAndTotal) {
  // Every key maps to exactly one shard, and estimates route there.
  ShardSetOptions options;
  options.num_shards = 4;
  options.shard_config.total_bytes = 32 * 1024;
  ShardSet shards(options);
  const std::vector<Tuple> tuples{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  shards.Ingest(tuples);
  shards.Drain();
  for (const Tuple& t : tuples) {
    EXPECT_GE(shards.Estimate(t.key), t.value);
  }
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.ingested, tuples.size());
}

// Builds a serialized ShardSet payload ("SRD1") whose shard owning
// `bad_key` carries a filter entry with new_count < old_count. Live
// streams cannot produce that state — Appendix A deletions equalize the
// counters instead of crossing them — but RestoreState accepts any
// payload that deserializes (snapshots written by external tools or
// older builds are not revalidated), and TOPK used to compute
// exact_hits = new_count - old_count with unsigned arithmetic, wrapping
// to ~4.29e9 for such an entry.
std::vector<uint8_t> PayloadWithUnderflowedEntry(
    const ShardSetOptions& options, item_t bad_key, count_t bad_new,
    count_t bad_old) {
  BinaryWriter writer;
  writer.PutU32(kShardSetPayloadType);  // "SRD1"
  writer.PutU32(options.num_shards);
  writer.PutU64(0);  // shed_weight
  writer.PutU64(0);  // inline_applied
  const uint32_t bad_shard = ShardOf(bad_key, options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    ServingSketch crafted =
        MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config);
    // Some ordinary traffic, including an Appendix A deletion — which
    // leaves new_count == old_count, never below.
    crafted.Update(bad_key + 1, 6);
    crafted.Update(bad_key + 1, -2);
    if (s == bad_shard) {
      crafted.filter().Insert(bad_key, bad_new, bad_old);
    }
    writer.PutU64(10);  // applied_tuples
    if (!crafted.SerializeTo(writer)) return {};
  }
  return writer.buffer();
}

TEST(ShardSetTest, TopKClampsUnderflowedRestoredCounts) {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  const item_t bad_key = 99;
  const std::vector<uint8_t> payload =
      PayloadWithUnderflowedEntry(options, bad_key, /*bad_new=*/5,
                                  /*bad_old=*/9);
  ASSERT_FALSE(payload.empty());
  ShardSet set(options);
  ASSERT_EQ(set.RestoreState(payload), std::nullopt);
  bool found = false;
  for (const TopKEntry& e : set.TopK(16)) {
    EXPECT_LE(e.exact_hits, e.estimate) << "key " << e.key;
    if (e.key == bad_key) {
      found = true;
      EXPECT_EQ(e.estimate, 5u);
      // The regression: unsigned 5 - 9 wrapped to 4294967292 before the
      // clamp; an entry with no filter-era hits must report zero.
      EXPECT_EQ(e.exact_hits, 0u);
    }
  }
  EXPECT_TRUE(found);
}

// A checkpoint whose shards hold some other sketch — such as one cut by
// an older build that could serve SALSA — must fail to restore hard,
// leaving the live state untouched, instead of misreading its counters.
TEST(ShardSetTest, RestoreRejectsForeignSketchPayload) {
  ShardSetOptions options;
  options.num_shards = 2;
  options.shard_config.total_bytes = 32 * 1024;
  BinaryWriter writer;
  writer.PutU32(kShardSetPayloadType);  // "SRD1", WriteLocked's header
  writer.PutU32(options.num_shards);
  writer.PutU64(0);  // shed_weight
  writer.PutU64(0);  // inline_applied
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    auto foreign = MakeASketchSalsa<RelaxedHeapFilter>(options.shard_config);
    foreign.Update(s + 1, 3);
    writer.PutU64(1);  // applied_tuples
    ASSERT_TRUE(foreign.SerializeTo(writer));
  }
  ASSERT_TRUE(writer.ok());

  ShardSet set(options);
  set.Ingest(TestStream(5'000));
  StateDigest before;
  set.DigestState(&before);
  const auto error = set.RestoreState(writer.buffer());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("failed to deserialize"), std::string::npos)
      << *error;
  StateDigest after;
  set.DigestState(&after);
  EXPECT_EQ(after.digest, before.digest);
  EXPECT_EQ(after.ingested, before.ingested);
}

TEST(NetServer, TopKClampsUnderflowOverWireAfterRecover) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "asketchd_underflow_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "ckpt").string();

  ServerOptions options = SmallServer();
  const item_t bad_key = 424242;
  const std::vector<uint8_t> payload =
      PayloadWithUnderflowedEntry(options.shards, bad_key, /*bad_new=*/7,
                                  /*bad_old=*/11);
  ASSERT_FALSE(payload.empty());
  SnapshotStore store(prefix, options.snapshot_retain);
  ASSERT_EQ(store.Save(kShardSetPayloadType, payload), std::nullopt);

  options.snapshot_prefix = prefix;
  options.recover = true;
  Server server(options);
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  std::vector<TopKEntry> top;
  ASSERT_EQ(client.TopK(32, &top), std::nullopt);
  bool found = false;
  for (const TopKEntry& e : top) {
    EXPECT_LE(e.exact_hits, e.estimate) << "key " << e.key;
    if (e.key == bad_key) {
      found = true;
      EXPECT_EQ(e.estimate, 7u);
      EXPECT_EQ(e.exact_hits, 0u);
    }
  }
  EXPECT_TRUE(found);
  // The underflowed entry still answers point queries with its exact
  // filter count.
  uint64_t estimate = 0;
  ASSERT_EQ(client.Query(bad_key, &estimate), std::nullopt);
  EXPECT_EQ(estimate, 7u);
  server.Stop();
  fs::remove_all(dir);
}

TEST(NetServer, QueryBatchMatchesPointQueries) {
  Server server(SmallServer());
  ASSERT_EQ(server.Start(), std::nullopt);
  Client client;
  ASSERT_EQ(client.Connect({.port = server.port()}), std::nullopt);
  const auto tuples = TestStream(20'000);
  ASSERT_EQ(client.Update(tuples), std::nullopt);
  ASSERT_EQ(client.Flush(), std::nullopt);
  // Queries read the *applied* state and UPDATE acks only cover the
  // enqueue; DIGEST drains every shard queue, making the whole stream
  // visible before the comparisons below.
  StateDigest digest;
  ASSERT_EQ(client.Digest(&digest), std::nullopt);

  // Mixed batch: seen keys, unseen keys, and duplicates — the grouped
  // per-shard fanout must answer each position exactly like a point
  // query, in request order.
  std::vector<item_t> keys;
  for (uint32_t i = 0; i < 200; ++i) keys.push_back(tuples[i * 7].key);
  for (uint32_t i = 0; i < 16; ++i) keys.push_back(3'000'000'000u + i);
  keys.push_back(keys.front());
  std::vector<uint64_t> batched;
  ASSERT_EQ(client.QueryBatch(keys, &batched), std::nullopt);
  ASSERT_EQ(batched.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t single = 0;
    ASSERT_EQ(client.Query(keys[i], &single), std::nullopt);
    EXPECT_EQ(batched[i], single) << "position " << i;
  }
  // An empty batch is a valid request with an empty answer.
  std::vector<uint64_t> empty;
  ASSERT_EQ(client.QueryBatch({}, &empty), std::nullopt);
  EXPECT_TRUE(empty.empty());
  server.Stop();
}

#endif  // ASKETCH_NET_TESTS

}  // namespace
}  // namespace net
}  // namespace asketch

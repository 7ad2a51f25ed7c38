// ShardSet delta-mode ingest (src/net/shard_set.{h,cc}): parity with
// queue mode under a stable head, flush/drain barrier semantics, the
// overload paths, snapshot round-trips, and — under TSan — concurrent
// decode threads building private deltas while lock-free readers query.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/shard_set.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace net {
namespace {

constexpr uint32_t kFilterItems = 16;
constexpr uint32_t kDomain = 4096;

ShardSetOptions BaseOptions(IngestMode mode) {
  ShardSetOptions options;
  options.num_shards = 4;
  options.ingest_mode = mode;
  options.shard_config.total_bytes = 32 * 1024;
  options.shard_config.width = 4;
  options.shard_config.filter_items = kFilterItems;
  options.shard_config.seed = 99;
  return options;
}

/// Heavy warm-up tuples: per-shard filters fill with the hottest keys
/// at weights no tail estimate can beat, so the heads stay stable for
/// the rest of the test (the CountMin equivalence regime).
std::vector<Tuple> WarmupTuples() {
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 4 * kFilterItems; ++key) {
    tuples.push_back(Tuple{key, 1 << 20});
  }
  return tuples;
}

std::vector<Tuple> PayloadTuples(uint64_t seed) {
  StreamSpec spec;
  spec.stream_size = 30000;
  spec.num_distinct = kDomain;
  spec.skew = 1.1;
  spec.seed = seed;
  return GenerateStream(spec);
}

uint64_t TotalApplied(const ShardSet& shards) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < shards.num_shards(); ++i) {
    total += shards.AppliedTuples(i);
  }
  return total;
}

TEST(NetDeltaIngestTest, QueueAndDeltaModeAgreeUnderStableHead) {
  ShardSet queue_set(BaseOptions(IngestMode::kQueue));
  ShardSet delta_set(BaseOptions(IngestMode::kDelta));
  const std::vector<Tuple> warmup = WarmupTuples();
  // Null state => queue path in both sets: identical warm-up.
  queue_set.Ingest(warmup);
  delta_set.Ingest(warmup);
  queue_set.Drain();
  delta_set.Drain();

  const std::vector<Tuple> payload = PayloadTuples(31);
  queue_set.Ingest(payload);
  DeltaIngestState state = delta_set.MakeDeltaState();
  // Many small UPDATE-sized slices, exercising epoch rollover.
  for (size_t begin = 0; begin < payload.size(); begin += 997) {
    const size_t count = std::min<size_t>(997, payload.size() - begin);
    delta_set.Ingest(
        std::span<const Tuple>(payload.data() + begin, count), &state);
  }
  delta_set.FlushDeltas(state);
  queue_set.Drain();
  delta_set.Drain();

  EXPECT_EQ(TotalApplied(queue_set), TotalApplied(delta_set));
  EXPECT_EQ(TotalApplied(delta_set), warmup.size() + payload.size());
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_EQ(delta_set.Estimate(key), queue_set.Estimate(key))
        << "key " << key;
  }
  // The merged top-k reports agree too (same filters, same counts).
  const auto queue_topk = queue_set.TopK(32);
  const auto delta_topk = delta_set.TopK(32);
  ASSERT_EQ(queue_topk.size(), delta_topk.size());
  for (size_t i = 0; i < queue_topk.size(); ++i) {
    EXPECT_EQ(queue_topk[i].key, delta_topk[i].key);
    EXPECT_EQ(queue_topk[i].estimate, delta_topk[i].estimate);
  }
}

TEST(NetDeltaIngestTest, TuplesBecomeVisibleOnlyAtFlush) {
  ShardSetOptions options = BaseOptions(IngestMode::kDelta);
  options.delta_flush_tuples = 1u << 30;  // never auto-flush
  ShardSet shards(options);
  DeltaIngestState state = shards.MakeDeltaState();
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 100; ++key) tuples.push_back(Tuple{key, 7});
  shards.Ingest(tuples, &state);
  shards.Drain();
  // Still private to the accumulator: nothing queued, nothing applied.
  EXPECT_EQ(state.PendingTuples(), tuples.size());
  EXPECT_EQ(TotalApplied(shards), 0u);
  shards.FlushDeltas(state);
  shards.Drain();
  EXPECT_EQ(state.PendingTuples(), 0u);
  EXPECT_EQ(TotalApplied(shards), tuples.size());
  for (item_t key = 0; key < 100; ++key) {
    EXPECT_GE(shards.Estimate(key), 7u);
  }
}

TEST(NetDeltaIngestTest, AutoFlushHonorsEpochThreshold) {
  ShardSetOptions options = BaseOptions(IngestMode::kDelta);
  options.delta_flush_tuples = 256;
  ShardSet shards(options);
  DeltaIngestState state = shards.MakeDeltaState();
  const std::vector<Tuple> payload = PayloadTuples(41);
  shards.Ingest(payload, &state);
  // Every shard saw far more than one epoch of tuples, so almost all
  // of the payload must already have been flushed without an explicit
  // FlushDeltas call.
  EXPECT_LT(state.PendingTuples(),
            4ull * options.delta_flush_tuples + 4ull * payload.size() / 256);
  shards.FlushDeltas(state);
  shards.Drain();
  EXPECT_EQ(TotalApplied(shards), payload.size());
}

TEST(NetDeltaIngestTest, ShedOverloadAccountsDeltaWeight) {
  ShardSetOptions options = BaseOptions(IngestMode::kDelta);
  options.overload = OverloadPolicy::kShed;
  options.max_queue_batches = 1;
  options.max_enqueue_wait_ms = 1;
  ShardSet shards(options);
  shards.StallWorkersForTesting(true);
  DeltaIngestState state = shards.MakeDeltaState();
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 512; ++key) tuples.push_back(Tuple{key, 3});
  shards.Ingest(tuples, &state);
  uint64_t shed = shards.FlushDeltas(state);
  // One delta per shard fits the queue; flushing again with fresh
  // tuples must shed and report the dropped weight.
  shards.Ingest(tuples, &state);
  shed += shards.FlushDeltas(state);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(shed % 3, 0u);  // whole tuples of weight 3
  shards.StallWorkersForTesting(false);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.shed_weight, shed);
}

TEST(NetDeltaIngestTest, SnapshotRoundTripsDeltaIngestedState) {
  ShardSet shards(BaseOptions(IngestMode::kDelta));
  DeltaIngestState state = shards.MakeDeltaState();
  const std::vector<Tuple> payload = PayloadTuples(43);
  shards.Ingest(payload, &state);
  shards.FlushDeltas(state);
  StateDigest digest;
  const std::vector<uint8_t> payload_bytes = shards.SerializeState(&digest);
  ASSERT_FALSE(payload_bytes.empty());
  EXPECT_EQ(digest.ingested, payload.size());

  ShardSet restored(BaseOptions(IngestMode::kDelta));
  ASSERT_FALSE(restored.RestoreState(payload_bytes).has_value());
  for (item_t key = 0; key < kDomain; key += 7) {
    EXPECT_EQ(restored.Estimate(key), shards.Estimate(key));
  }
}

// The TSan target: decode threads accumulate and flush private deltas
// while a reader hammers the lock-free query paths. Ends with an
// exactness check on applied counts and a one-sidedness check against
// the union stream.
TEST(NetDeltaIngestTest, ConcurrentDecodeThreadsAndReadersAreSafe) {
  ShardSetOptions options = BaseOptions(IngestMode::kDelta);
  options.delta_flush_tuples = 512;
  ShardSet shards(options);
  ExactCounter truth(kDomain);
  std::vector<std::vector<Tuple>> streams;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    streams.push_back(PayloadTuples(100 + seed));
    for (const Tuple& t : streams.back()) {
      truth.Update(t.key, static_cast<delta_t>(t.value));
    }
  }
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    uint64_t sink = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      sink += shards.Estimate(5);
      sink += shards.TopK(8).size();
    }
    EXPECT_GE(sink, 0u);
  });
  std::vector<std::thread> writers;
  for (const auto& stream : streams) {
    writers.emplace_back([&shards, &stream] {
      DeltaIngestState state = shards.MakeDeltaState();
      for (size_t begin = 0; begin < stream.size(); begin += 503) {
        const size_t count = std::min<size_t>(503, stream.size() - begin);
        shards.Ingest(
            std::span<const Tuple>(stream.data() + begin, count), &state);
      }
      shards.FlushDeltas(state);
    });
  }
  for (std::thread& t : writers) t.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  shards.Drain();

  uint64_t expected = 0;
  for (const auto& stream : streams) expected += stream.size();
  EXPECT_EQ(TotalApplied(shards), expected);
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_GE(static_cast<wide_count_t>(shards.Estimate(key)),
              truth.Count(key))
        << "key " << key;
  }
}

}  // namespace
}  // namespace net
}  // namespace asketch

// ShardSet's one ingest path (src/net/shard_set.{h,cc}): per-call key
// combining against a serial UpdateBatch oracle under a stable head,
// drain-barrier visibility, the overload paths, snapshot round-trips,
// the combiner's edge cases (saturating aggregates, zero weights, more
// distinct keys than the claim cap), and — under TSan — concurrent
// decode threads combining while lock-free readers query.

#include <algorithm>
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

ShardSetOptions BaseOptions() {
  ShardSetOptions options;
  options.num_shards = 4;
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

/// Feeds `tuples` to `shards` in Ingest calls of `slice` tuples, through
/// one reusable state.
void IngestSliced(ShardSet& shards, std::span<const Tuple> tuples,
                  size_t slice) {
  DeltaIngestState state = shards.MakeDeltaState();
  for (size_t begin = 0; begin < tuples.size(); begin += slice) {
    shards.Ingest(tuples.subspan(begin, std::min(slice,
                                                 tuples.size() - begin)),
                  &state);
  }
}

// The stable-head law (ALGORITHMS.md §7): whatever the call boundaries,
// combining only regroups filter hits and linear Count-Min updates, so
// every estimate, the top-k report and the stream split equal a serial
// per-shard UpdateBatch of the same tuples.
TEST(NetIngestTest, OnePathMatchesSerialUpdateBatchUnderStableHead) {
  const ShardSetOptions options = BaseOptions();
  const std::vector<Tuple> warmup = WarmupTuples();
  const std::vector<Tuple> payload = PayloadTuples(31);

  std::vector<ServingSketch> oracle;
  std::vector<std::vector<Tuple>> warmup_split(options.num_shards);
  std::vector<std::vector<Tuple>> payload_split(options.num_shards);
  for (const Tuple& t : warmup) {
    warmup_split[ShardOf(t.key, options.num_shards)].push_back(t);
  }
  for (const Tuple& t : payload) {
    payload_split[ShardOf(t.key, options.num_shards)].push_back(t);
  }
  ASketchStats oracle_stats;
  std::vector<TopKEntry> oracle_topk;
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    oracle.push_back(
        MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config));
    oracle[s].UpdateBatch(warmup_split[s]);
    oracle[s].UpdateBatch(payload_split[s]);
    oracle_stats.filtered_weight += oracle[s].stats().filtered_weight;
    oracle_stats.sketch_weight += oracle[s].stats().sketch_weight;
    for (const FilterEntry& e : oracle[s].TopK()) {
      oracle_topk.push_back(
          TopKEntry{e.key, e.new_count, e.new_count - e.old_count});
    }
  }
  std::sort(oracle_topk.begin(), oracle_topk.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.key < b.key;
            });

  for (const size_t slice : {size_t{1}, size_t{997}, payload.size()}) {
    SCOPED_TRACE(testing::Message() << "slice " << slice);
    ShardSet shards(options);
    shards.Ingest(warmup);  // null state: call-local scratch
    IngestSliced(shards, payload, slice);
    shards.Drain();

    EXPECT_EQ(TotalApplied(shards), warmup.size() + payload.size());
    for (item_t key = 0; key < kDomain; ++key) {
      ASSERT_EQ(shards.Estimate(key),
                oracle[ShardOf(key, options.num_shards)].Estimate(key))
          << "key " << key;
    }
    const auto topk = shards.TopK(kMaxTopK);
    ASSERT_EQ(topk.size(), oracle_topk.size());
    for (size_t i = 0; i < topk.size(); ++i) {
      EXPECT_EQ(topk[i].key, oracle_topk[i].key);
      EXPECT_EQ(topk[i].estimate, oracle_topk[i].estimate);
    }
    const WireStats stats = shards.GetStats();
    EXPECT_EQ(stats.filtered_weight, oracle_stats.filtered_weight);
    EXPECT_EQ(stats.sketch_weight, oracle_stats.sketch_weight);
  }
}

TEST(NetIngestTest, TuplesVisibleAfterDrainWithoutFlush) {
  ShardSet shards(BaseOptions());
  DeltaIngestState state = shards.MakeDeltaState();
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 100; ++key) tuples.push_back(Tuple{key, 7});
  shards.Ingest(tuples, &state);
  // The state is still alive and was never flushed: the Drain barrier
  // alone must cover everything Ingest accepted.
  shards.Drain();
  EXPECT_EQ(TotalApplied(shards), tuples.size());
  for (item_t key = 0; key < 100; ++key) {
    EXPECT_GE(shards.Estimate(key), 7u);
  }
  StateDigest digest;
  shards.DigestState(&digest);
  EXPECT_EQ(digest.ingested, tuples.size());
}

TEST(NetIngestTest, ShedOverloadAccountsCombinedWeight) {
  ShardSetOptions options = BaseOptions();
  options.overload = OverloadPolicy::kShed;
  options.max_queue_batches = 1;
  options.max_enqueue_wait_ms = 1;
  ShardSet shards(options);
  shards.StallWorkersForTesting(true);
  DeltaIngestState state = shards.MakeDeltaState();
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < 512; ++key) tuples.push_back(Tuple{key, 3});
  // The first call's work item per shard fills its 1-deep queue; the
  // second call's items all find full queues and are shed whole.
  uint64_t shed = shards.Ingest(tuples, &state);
  shed += shards.Ingest(tuples, &state);
  EXPECT_EQ(shed, 3u * 512u);
  shards.StallWorkersForTesting(false);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.shed_weight, shed);
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight, 3u * 512u);
}

TEST(NetIngestTest, SnapshotRoundTripsCombinedState) {
  ShardSet shards(BaseOptions());
  const std::vector<Tuple> payload = PayloadTuples(43);
  IngestSliced(shards, payload, 1000);
  StateDigest digest;
  const std::vector<uint8_t> payload_bytes = shards.SerializeState(&digest);
  ASSERT_FALSE(payload_bytes.empty());
  EXPECT_EQ(digest.ingested, payload.size());

  ShardSet restored(BaseOptions());
  ASSERT_FALSE(restored.RestoreState(payload_bytes).has_value());
  for (item_t key = 0; key < kDomain; key += 7) {
    EXPECT_EQ(restored.Estimate(key), shards.Estimate(key));
  }
}

// Two maximal weights for one key in one call: their sum does not fit
// count_t, so the combiner spills the second into its own tuple and the
// owner books both in full.
TEST(NetIngestTest, SaturatingAggregateSpillsWithoutLosingWeight) {
  ShardSet shards(BaseOptions());
  constexpr count_t kMax = 0xFFFFFFFFu;
  const std::vector<Tuple> tuples = {Tuple{5, kMax}, Tuple{5, kMax}};
  shards.Ingest(tuples);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.ingested, 2u);
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight, 2ull * kMax);
  EXPECT_EQ(shards.Estimate(5), kMax);
}

TEST(NetIngestTest, ZeroWeightTuplesCountAsAppliedButChangeNoState) {
  ShardSet plain(BaseOptions());
  ShardSet zeros(BaseOptions());
  const std::vector<Tuple> payload = PayloadTuples(47);
  IngestSliced(plain, payload, 1000);
  IngestSliced(zeros, payload, 1000);
  std::vector<Tuple> zero_tuples;
  for (item_t key = 0; key < 3000; ++key) {
    zero_tuples.push_back(Tuple{key % kDomain, 0});
  }
  IngestSliced(zeros, zero_tuples, 1000);
  plain.Drain();
  zeros.Drain();

  const WireStats a = plain.GetStats();
  const WireStats b = zeros.GetStats();
  EXPECT_EQ(b.ingested, a.ingested + zero_tuples.size());
  EXPECT_EQ(b.filtered_weight, a.filtered_weight);
  EXPECT_EQ(b.sketch_weight, a.sketch_weight);
  EXPECT_EQ(b.sketch_updates, a.sketch_updates);
  EXPECT_EQ(b.exchanges, a.exchanges);
  for (item_t key = 0; key < kDomain; ++key) {
    ASSERT_EQ(zeros.Estimate(key), plain.Estimate(key)) << "key " << key;
  }
  const auto topk_a = plain.TopK(kMaxTopK);
  const auto topk_b = zeros.TopK(kMaxTopK);
  ASSERT_EQ(topk_a.size(), topk_b.size());
  for (size_t i = 0; i < topk_a.size(); ++i) {
    EXPECT_EQ(topk_a[i].key, topk_b[i].key);
    EXPECT_EQ(topk_a[i].estimate, topk_b[i].estimate);
  }
}

// One call carrying ~2000 distinct keys per shard, each three times:
// the first 640 per shard (the claim cap, 5/8 of 1024 slots) claim
// combining slots and the rest pass through raw. Either way no weight
// is lost and no estimate under-counts.
TEST(NetIngestTest, KeysPastClaimCapStayConservedAndOneSided) {
  ShardSet shards(BaseOptions());
  constexpr uint32_t kKeys = 8000;
  ExactCounter truth(kKeys);
  std::vector<Tuple> tuples;
  for (uint32_t round = 0; round < 3; ++round) {
    for (item_t key = 0; key < kKeys; ++key) {
      tuples.push_back(Tuple{key, round + 1});
      truth.Update(key, static_cast<delta_t>(round + 1));
    }
  }
  shards.Ingest(tuples);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.ingested, tuples.size());
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight, 6ull * kKeys);
  for (item_t key = 0; key < kKeys; ++key) {
    ASSERT_GE(static_cast<wide_count_t>(shards.Estimate(key)),
              truth.Count(key))
        << "key " << key;
  }
}

// STATS.ingested counts tuples sent, not the combined tuples the owners
// applied — the figure clients and perfbench reconcile against.
TEST(NetIngestTest, StatsIngestedEqualsTuplesSent) {
  ShardSet shards(BaseOptions());
  std::vector<Tuple> tuples;
  for (uint32_t i = 0; i < 10000; ++i) {
    tuples.push_back(Tuple{static_cast<item_t>(i % 100), 1});
  }
  IngestSliced(shards, tuples, 2500);
  shards.Drain();
  const WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.ingested, tuples.size());
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight, tuples.size());
  // 100 distinct keys per call, four calls: combining leaves each owner
  // at most one sketch update per key and call.
  EXPECT_LE(stats.sketch_updates, 4u * 100u);
}

// The TSan target: decode threads combine through private states while
// a reader hammers the lock-free query paths. Ends with an exactness
// check on applied counts and a one-sidedness check against the union
// stream.
TEST(NetIngestTest, ConcurrentDecodeThreadsAndReadersAreSafe) {
  ShardSet shards(BaseOptions());
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
    writers.emplace_back(
        [&shards, &stream] { IngestSliced(shards, stream, 503); });
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

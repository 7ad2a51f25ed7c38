// Sampled tail ingest (NitroSketch-style geometric skip counters,
// ALGORITHMS.md §8). Pins the three guarantees the mode ships with:
// the filter head stays bit-exact under a stable head (hits and
// writebacks are never sampled), the sampled tail is unbiased across
// sampler seeds (1/p-scaled compensation with stochastic rounding),
// and rate 1.0 is bit-identical to the unsampled path — the sampler
// is inert at permille 1000, so enabling the flag at rate 1.0 cannot
// perturb a single serialized byte for either backend. Also covers
// the delta-mode accounting invariants: tail_weight() books true
// (unscaled) mass and sampled_skips() counts the elisions, and the same
// laws end to end through a ShardSet in both ingest modes.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sampling.h"
#include "src/common/serialize.h"
#include "src/core/asketch.h"
#include "src/core/delta_batch.h"
#include "src/net/shard_set.h"
#include "src/obs/metrics.h"
#include "src/workload/exact_counter.h"
#include "src/workload/stream_generator.h"

namespace asketch {
namespace {

constexpr uint32_t kFilterItems = 16;
constexpr uint32_t kDomain = 4096;

ASketchConfig SmallConfig() {
  ASketchConfig config;
  config.total_bytes = 32 * 1024;
  config.width = 4;
  config.filter_items = kFilterItems;
  config.seed = 99;
  return config;
}

/// Stable-head warm-up (delta_batch_test idiom): the filter fills with
/// keys [0, kFilterItems) at weights no tail estimate can beat, so no
/// exchange can evict them for the rest of the test. This isolates the
/// head-exactness claim from exchange-timing differences — under head
/// churn the sampled run may legitimately make different exchange
/// decisions, because exchanges consult (perturbed) tail estimates.
template <typename ASketchT>
void WarmHead(ASketchT& sketch) {
  for (item_t key = 0; key < kFilterItems; ++key) {
    sketch.Update(key, 1 << 20);
  }
  ASSERT_TRUE(sketch.filter().Full());
}

/// Hot traffic on the head keys [0, head_keys) interleaved with a zipf
/// tail on [head_keys, kDomain).
std::vector<Tuple> MixedStream(uint64_t seed,
                               uint32_t head_keys = kFilterItems) {
  StreamSpec spec;
  spec.stream_size = 30000;
  spec.num_distinct = kDomain - head_keys;
  spec.skew = 1.1;
  spec.seed = seed;
  std::vector<Tuple> stream = GenerateStream(spec);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i % 3 == 0) {
      stream[i] = Tuple{static_cast<item_t>(i % head_keys), 2};
    } else {
      stream[i].key += head_keys;
    }
  }
  return stream;
}

// ---------------------------------------------------------------------
// GeometricSampler unit behavior.
// ---------------------------------------------------------------------

TEST(GeometricSamplerTest, InactiveAtPermille1000) {
  GeometricSampler sampler(7);
  EXPECT_FALSE(sampler.active());
  sampler.SetPermille(1000);
  EXPECT_FALSE(sampler.active());
  sampler.SetPermille(250);
  EXPECT_TRUE(sampler.active());
}

TEST(GeometricSamplerTest, ApplyRateMatchesPermille) {
  GeometricSampler sampler(11);
  sampler.SetPermille(100);  // p = 0.1
  const uint64_t trials = 200000;
  uint64_t applied = 0;
  for (uint64_t i = 0; i < trials; ++i) {
    if (sampler.ShouldApply()) ++applied;
  }
  const double rate = static_cast<double>(applied) / trials;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(GeometricSamplerTest, ScaleDeltaIsUnbiased) {
  GeometricSampler sampler(13);
  sampler.SetPermille(300);  // p = 0.3; 7/0.3 is fractional
  const uint64_t trials = 100000;
  uint64_t total = 0;
  for (uint64_t i = 0; i < trials; ++i) {
    total += static_cast<uint64_t>(sampler.ScaleDelta(7));
  }
  const double mean = static_cast<double>(total) / trials;
  EXPECT_NEAR(mean, 7.0 / 0.3, 0.1);
}

// ---------------------------------------------------------------------
// Head exactness: with a stable head, every filter entry is untouched
// by sampling — hits and free-slot inserts bypass the sampler.
// ---------------------------------------------------------------------

TEST(SampledIngestTest, HeadStaysBitExactUnderStableHead) {
  auto plain = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto sampled = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  sampled.SetTailSampleRate(0.05, /*seed=*/77);
  WarmHead(plain);
  WarmHead(sampled);
  const std::vector<Tuple> stream = MixedStream(31);
  for (const Tuple& t : stream) {
    plain.Update(t.key, static_cast<delta_t>(t.value));
    sampled.Update(t.key, static_cast<delta_t>(t.value));
  }
  EXPECT_GT(sampled.stats().sampled_skips, 0u)
      << "sampling never engaged; the test is vacuous";
  // True-mass accounting: sketch_weight books unscaled tail mass, so
  // the two ledgers agree exactly even though the sampled instance
  // elided most tail sketch updates.
  EXPECT_EQ(sampled.stats().sketch_weight, plain.stats().sketch_weight);
  EXPECT_EQ(sampled.stats().filtered_weight, plain.stats().filtered_weight);
  // The heads are bit-identical: same keys, same exact counters.
  const auto plain_top = plain.TopK();
  const auto sampled_top = sampled.TopK();
  ASSERT_EQ(plain_top.size(), sampled_top.size());
  for (size_t i = 0; i < plain_top.size(); ++i) {
    EXPECT_EQ(plain_top[i].key, sampled_top[i].key);
    EXPECT_EQ(plain_top[i].new_count, sampled_top[i].new_count);
    EXPECT_EQ(plain_top[i].old_count, sampled_top[i].old_count);
  }
}

// ---------------------------------------------------------------------
// Tail unbiasedness: averaged over independent sampler seeds, sampled
// tail estimates converge to the unsampled ones. Per-key estimates are
// noisy (variance ~ count·(1/p − 1)), so the check aggregates over a
// key set; the tolerance is far below the ~1/p one-sided error a
// non-compensated skip policy would produce.
// ---------------------------------------------------------------------

TEST(SampledIngestTest, TailUnbiasedAcrossSeedsWithinTolerance) {
  auto plain = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(plain);
  const std::vector<Tuple> stream = MixedStream(43);
  for (const Tuple& t : stream) {
    plain.Update(t.key, static_cast<delta_t>(t.value));
  }
  std::vector<item_t> tail_keys;
  for (item_t key = kFilterItems; key < kFilterItems + 512; ++key) {
    tail_keys.push_back(key);
  }
  uint64_t reference = 0;
  for (item_t key : tail_keys) reference += plain.Estimate(key);
  ASSERT_GT(reference, 0u);

  constexpr uint64_t kSeeds = 16;
  double mean_total = 0.0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto sampled = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
    sampled.SetTailSampleRate(0.1, seed * 0x9e3779b97f4a7c15ull);
    WarmHead(sampled);
    for (const Tuple& t : stream) {
      sampled.Update(t.key, static_cast<delta_t>(t.value));
    }
    uint64_t total = 0;
    for (item_t key : tail_keys) total += sampled.Estimate(key);
    mean_total += static_cast<double>(total) / kSeeds;
  }
  const double ref = static_cast<double>(reference);
  EXPECT_NEAR(mean_total / ref, 1.0, 0.05)
      << "mean sampled tail mass drifted from the unsampled reference";
}

// ---------------------------------------------------------------------
// Rate 1.0 is the unsampled path, bit for bit, on both backends: the
// sampler is inert at permille 1000 (no RNG draw, no scaling), so the
// serialized states cannot differ.
// ---------------------------------------------------------------------

template <typename ASketchT>
void ExpectRateOneBitIdentical(ASketchT plain, ASketchT sampled) {
  sampled.SetTailSampleRate(1.0, /*seed=*/12345);  // seed is irrelevant
  const std::vector<Tuple> stream = MixedStream(59);
  for (const Tuple& t : stream) {
    plain.Update(t.key, static_cast<delta_t>(t.value));
    sampled.Update(t.key, static_cast<delta_t>(t.value));
  }
  EXPECT_EQ(sampled.stats().sampled_skips, 0u);
  BinaryWriter plain_bytes;
  BinaryWriter sampled_bytes;
  ASSERT_TRUE(plain.SerializeTo(plain_bytes));
  ASSERT_TRUE(sampled.SerializeTo(sampled_bytes));
  EXPECT_EQ(plain_bytes.buffer(), sampled_bytes.buffer());
}

TEST(SampledIngestTest, RateOneBitIdenticalCountMin) {
  ExpectRateOneBitIdentical(
      MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig()),
      MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig()));
}

TEST(SampledIngestTest, RateOneBitIdenticalSalsa) {
  ExpectRateOneBitIdentical(
      MakeASketchSalsa<RelaxedHeapFilter>(SmallConfig()),
      MakeASketchSalsa<RelaxedHeapFilter>(SmallConfig()));
}

// ---------------------------------------------------------------------
// Delta-mode accounting: the DeltaBatch tail sampler elides tuples but
// tail_weight() keeps booking the true mass, and applying the delta
// carries the unscaled ledger into the owner.
// ---------------------------------------------------------------------

TEST(SampledIngestTest, DeltaBatchBooksTrueMassAndCountsSkips) {
  auto owner = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(owner);
  DeltaBatch<CountMin> delta = owner.MakeDeltaBatch();
  delta.SetTailSampleRate(0.1, /*seed=*/7);
  const std::vector<Tuple> stream = MixedStream(61);
  uint64_t true_mass = 0;
  for (const Tuple& t : stream) {
    delta.Add(t.key, t.value);
    true_mass += t.value;
  }
  EXPECT_GT(delta.sampled_skips(), 0u);
  EXPECT_EQ(delta.head_weight() + delta.tail_weight(), true_mass)
      << "sampling must elide sketch updates, not ledger mass";
  // Applying the delta conserves the true mass across the owner's N1/N2
  // ledgers (head aggregates land in whichever structure the live
  // filter dictates, so only the sum is pinned).
  const uint64_t booked_before =
      owner.stats().filtered_weight + owner.stats().sketch_weight;
  ASSERT_FALSE(owner.ApplyDelta(delta).has_value());
  EXPECT_EQ(owner.stats().filtered_weight + owner.stats().sketch_weight -
                booked_before,
            true_mass);
}

TEST(SampledIngestTest, DeltaBatchRateOneLeavesPathUntouched) {
  auto owner = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(owner);
  DeltaBatch<CountMin> plain = owner.MakeDeltaBatch();
  DeltaBatch<CountMin> sampled = owner.MakeDeltaBatch();
  sampled.SetTailSampleRate(1.0, /*seed=*/7);
  const std::vector<Tuple> stream = MixedStream(67);
  for (const Tuple& t : stream) {
    plain.Add(t.key, t.value);
    sampled.Add(t.key, t.value);
  }
  EXPECT_EQ(sampled.sampled_skips(), 0u);
  EXPECT_EQ(sampled.tail_weight(), plain.tail_weight());
  auto a = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  auto b = MakeASketchCountMin<RelaxedHeapFilter>(SmallConfig());
  WarmHead(a);
  WarmHead(b);
  ASSERT_FALSE(a.ApplyDelta(plain).has_value());
  ASSERT_FALSE(b.ApplyDelta(sampled).has_value());
  BinaryWriter a_bytes;
  BinaryWriter b_bytes;
  ASSERT_TRUE(a.SerializeTo(a_bytes));
  ASSERT_TRUE(b.SerializeTo(b_bytes));
  EXPECT_EQ(a_bytes.buffer(), b_bytes.buffer());
}

// ---------------------------------------------------------------------
// ShardSet end to end, both ingest modes: queue mode samples in the
// shard owners, delta mode in each epoch's DeltaBatch. Whichever runs,
// the head stays exact, the N1/N2 ledgers book the true mass, and the
// skips land in the one core counter.
// ---------------------------------------------------------------------

constexpr uint32_t kShards = 2;
constexpr uint32_t kShardHeadKeys = kShards * kFilterItems;

net::ShardSetOptions ShardOptions(net::IngestMode mode) {
  net::ShardSetOptions options;
  options.num_shards = kShards;
  options.ingest_mode = mode;
  options.shard_config = SmallConfig();
  return options;
}

/// Keys [0, kShardHeadKeys) at weights no tail estimate can beat:
/// ShardOf spreads them evenly, so every shard's filter fills with its
/// share and keeps it (the stable-head regime of WarmHead).
std::vector<Tuple> ShardWarmup() {
  std::vector<Tuple> tuples;
  for (item_t key = 0; key < kShardHeadKeys; ++key) {
    tuples.push_back(Tuple{key, 1 << 20});
  }
  return tuples;
}

/// Warm-up through the queue path (null delta state, so no sampling in
/// either mode and the heads fill first), then `payload` through the
/// mode's own path, then a barrier.
void IngestThroughShardSet(net::ShardSet& shards,
                           const std::vector<Tuple>& payload) {
  shards.Ingest(ShardWarmup());
  shards.Drain();
  net::DeltaIngestState state = shards.MakeDeltaState();
  for (size_t begin = 0; begin < payload.size(); begin += 1000) {
    const size_t count = std::min<size_t>(1000, payload.size() - begin);
    shards.Ingest(std::span<const Tuple>(payload.data() + begin, count),
                  &state);
  }
  shards.FlushDeltas(state);
  shards.Drain();
}

uint64_t SampledSkipsTotal() {
  return obs::MetricsRegistry::Global()
      .GetCounter("asketch_sampled_skips_total")
      .Value();
}

class ShardSetSampledIngestTest
    : public ::testing::TestWithParam<net::IngestMode> {};

TEST_P(ShardSetSampledIngestTest, HeadExactMassConservedSkipsCounted) {
  net::ShardSetOptions options = ShardOptions(GetParam());
  options.sample_rate = 0.1;
  net::ShardSet shards(options);
  const std::vector<Tuple> payload = MixedStream(71, kShardHeadKeys);
  ExactCounter truth(kDomain);
  uint64_t weight_sent = 0;
  for (const std::vector<Tuple>& part : {ShardWarmup(), payload}) {
    for (const Tuple& t : part) {
      truth.Update(t.key, static_cast<delta_t>(t.value));
      weight_sent += t.value;
    }
  }
  const uint64_t skips_before = SampledSkipsTotal();

  IngestThroughShardSet(shards, payload);

  const net::WireStats stats = shards.GetStats();
  EXPECT_EQ(stats.filtered_weight + stats.sketch_weight, weight_sent)
      << "sampling must elide sketch updates, not ledger mass";
  for (item_t key = 0; key < kShardHeadKeys; ++key) {
    EXPECT_EQ(static_cast<wide_count_t>(shards.Estimate(key)),
              truth.Count(key))
        << "head key " << key;
  }
#ifndef ASKETCH_NO_TELEMETRY
  EXPECT_GT(SampledSkipsTotal(), skips_before)
      << "skips must reach asketch_sampled_skips_total in either mode";
#else
  (void)skips_before;
#endif
}

TEST_P(ShardSetSampledIngestTest, RateOneDigestMatchesDefaultOptions) {
  net::ShardSetOptions exact = ShardOptions(GetParam());
  exact.sample_rate = 1.0;
  net::ShardSet sampled(exact);
  net::ShardSet plain(ShardOptions(GetParam()));
  const std::vector<Tuple> payload = MixedStream(73, kShardHeadKeys);
  IngestThroughShardSet(sampled, payload);
  IngestThroughShardSet(plain, payload);
  net::StateDigest sampled_digest;
  net::StateDigest plain_digest;
  sampled.DigestState(&sampled_digest);
  plain.DigestState(&plain_digest);
  EXPECT_EQ(sampled_digest.ingested, plain_digest.ingested);
  EXPECT_EQ(sampled_digest.digest, plain_digest.digest);
}

INSTANTIATE_TEST_SUITE_P(
    BothIngestModes, ShardSetSampledIngestTest,
    ::testing::Values(net::IngestMode::kQueue, net::IngestMode::kDelta),
    [](const ::testing::TestParamInfo<net::IngestMode>& info) {
      return info.param == net::IngestMode::kQueue ? "Queue" : "Delta";
    });

}  // namespace
}  // namespace asketch

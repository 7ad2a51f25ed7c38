// In-process per-layer measurements for the traced run. Each block times
// calls to one layer's public functions on the workload's own traffic
// and server shape (2 shards, the workload's per-shard bytes and ingest
// mode, asketchd's default width/filter/seed), so a layer figure can be
// set beside the end-to-end figure it should move.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/asketch.h"
#include "src/core/delta_batch.h"
#include "src/net/protocol.h"
#include "src/net/shard_set.h"

namespace perfbench {

namespace net = asketch::net;
using asketch::ASketchConfig;
using asketch::CountMin;
using asketch::DeltaBatch;
using asketch::RelaxedHeapFilter;
using ShardSketch = asketch::ASketch<RelaxedHeapFilter, CountMin>;

namespace {

constexpr uint64_t kLayerTuples = 2u << 20;  // per connection pool
constexpr int kReps = 3;
constexpr size_t kProbeChunk = 16;
constexpr size_t kSketchChunk = 4096;
constexpr size_t kMaxDeltaEpochs = 24;  // per shard

// asketchd's defaults for everything but --bytes and --ingest-mode.
ASketchConfig ShardConfig(const WorkloadSpec& spec) {
  ASketchConfig config;
  config.total_bytes = spec.shard_bytes;
  return config;
}

double NsPer(uint64_t ns, uint64_t count) {
  return count == 0 ? 0.0 : static_cast<double>(ns) / count;
}

/// One shard's sub-batches of the pools, split exactly as ShardSet
/// splits them, with the batch id of the pool batch each came from.
struct SubBatch {
  uint64_t batch_id;
  std::vector<Tuple> tuples;
};

std::vector<std::vector<SubBatch>> SplitByShard(const LayerInputs& in,
                                                uint64_t per_pool) {
  std::vector<std::vector<SubBatch>> shards(kShards);
  for (uint64_t begin = 0; begin < per_pool; begin += kBatchTuples) {
    for (uint32_t c = 0; c < kIngestConnections; ++c) {
      const uint64_t id = BatchId(c, begin / kBatchTuples);
      for (auto& shard : shards) shard.push_back({id, {}});
      for (const Tuple& t : in.pools[c].subspan(begin, kBatchTuples)) {
        shards[net::ShardOf(t.key, kShards)].back().tuples.push_back(t);
      }
    }
  }
  return shards;
}

}  // namespace

bool MeasureLayers(const LayerInputs& in, size_t first_recorder,
                   std::vector<SpanRecorder>* recorders,
                   std::vector<Metric>* metrics) {
  const WorkloadSpec& spec = *in.spec;
  const uint64_t per_pool =
      std::min<uint64_t>(kLayerTuples, in.pools[0].size()) /
      kBatchTuples * kBatchTuples;
  const uint64_t total = kIngestConnections * per_pool;
  SpanRecorder& main_spans = (*recorders)[first_recorder];
  bool ok = true;

  // ----- net.protocol: EncodeUpdateRequest; FrameDecoder + Parse -----
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    SpanRecorder* spans = rep == 0 ? &main_spans : nullptr;
    uint64_t encode_total = 0;
    uint64_t decode_total = 0;
    uint64_t tuples = 0;
    net::FrameDecoder decoder;
    std::vector<Tuple> decoded;
    for (uint32_t c = 0; c < kIngestConnections; ++c) {
      for (uint64_t begin = 0; begin < per_pool; begin += kBatchTuples) {
        const auto batch = in.pools[c].subspan(begin, kBatchTuples);
        const uint64_t id = BatchId(c, begin / kBatchTuples);
        uint64_t t0 = NowNs();
        std::vector<uint8_t> frame;
        {
          ScopedSpan span(spans, "net.protocol.encode", id);
          frame = net::EncodeUpdateRequest(batch, false);
        }
        uint64_t t1 = NowNs();
        bool parsed = false;
        {
          ScopedSpan span(spans, "net.protocol.decode", id);
          decoder.Feed(frame.data(), frame.size());
          std::optional<net::Frame> f = decoder.Next();
          parsed = f.has_value() &&
                   net::ParseUpdateRequest(f->payload, &decoded);
        }
        const uint64_t t2 = NowNs();
        encode_total += t1 - t0;
        decode_total += t2 - t1;
        tuples += batch.size();
        if (!parsed || !std::equal(decoded.begin(), decoded.end(),
                                   batch.begin(), batch.end())) {
          std::fprintf(stderr, "layers: UPDATE frame did not round-trip\n");
          ok = false;
        }
      }
    }
    encode_ns.push_back(NsPer(encode_total, tuples));
    decode_ns.push_back(NsPer(decode_total, tuples));
  }
  metrics->push_back(
      {"net.protocol.encode_ns_per_tuple", Median(encode_ns), "ns"});
  metrics->push_back(
      {"net.protocol.decode_ns_per_tuple", Median(decode_ns), "ns"});

  // ----- net.shard_set: Ingest from 2 caller threads, Drain, reads -----
  net::ShardSetOptions options;
  options.num_shards = kShards;
  options.shard_config = ShardConfig(spec);
  options.ingest_mode =
      spec.delta ? net::IngestMode::kDelta : net::IngestMode::kQueue;
  std::vector<double> ingest_ns;
  std::vector<double> ingest_call_us;
  std::vector<double> drain_ms;
  std::vector<double> inproc_tps;
  std::vector<double> serialize_ms;
  std::vector<double> estimate_batch_ns;
  std::vector<double> topk_us;
  for (int rep = 0; rep < kReps; ++rep) {
    net::ShardSet set(options);
    std::atomic<uint32_t> running{kIngestConnections};
    uint64_t caller_ns[kIngestConnections] = {};
    std::vector<double> call_us[kIngestConnections];
    const uint64_t start = NowNs();
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kIngestConnections; ++c) {
      threads.emplace_back([&, c] {
        SpanRecorder* spans =
            rep == 0 ? &(*recorders)[first_recorder + 1 + c] : nullptr;
        net::DeltaIngestState state = set.MakeDeltaState();
        net::DeltaIngestState* delta = spec.delta ? &state : nullptr;
        for (uint64_t begin = 0; begin < per_pool;
             begin += kBatchTuples) {
          const uint64_t id = BatchId(c, begin / kBatchTuples);
          const uint64_t t0 = NowNs();
          {
            ScopedSpan span(spans, "net.shard_set.ingest", id);
            set.Ingest(in.pools[c].subspan(begin, kBatchTuples), delta);
          }
          const uint64_t ns = NowNs() - t0;
          caller_ns[c] += ns;
          call_us[c].push_back(ns / 1e3);
        }
        if (delta != nullptr) {
          const uint64_t t0 = NowNs();
          {
            ScopedSpan span(spans, "net.shard_set.flush_deltas");
            set.FlushDeltas(state);
          }
          caller_ns[c] += NowNs() - t0;
        }
        running.fetch_sub(1);
      });
    }
    // Reads while ingest runs, paced so the reader does not take a core.
    threads.emplace_back([&] {
      SpanRecorder* spans =
          rep == 0 ? &(*recorders)[first_recorder + 3] : nullptr;
      std::vector<uint64_t> estimates;
      size_t offset = 0;
      while (running.load() > 0) {
        const auto keys = in.query_keys.subspan(offset, kQueryBatchKeys);
        offset = (offset + kQueryBatchKeys) % in.query_keys.size();
        uint64_t t0 = NowNs();
        {
          ScopedSpan span(spans, "net.shard_set.estimate_batch");
          set.EstimateBatch(keys, &estimates);
        }
        uint64_t t1 = NowNs();
        estimate_batch_ns.push_back(NsPer(t1 - t0, keys.size()));
        {
          ScopedSpan span(spans, "net.shard_set.topk");
          set.TopK(kTopK);
        }
        topk_us.push_back((NowNs() - t1) / 1e3);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    for (std::thread& t : threads) t.join();
    uint64_t t0 = NowNs();
    {
      ScopedSpan span(rep == 0 ? &main_spans : nullptr,
                      "net.shard_set.drain");
      set.Drain();
    }
    const uint64_t end = NowNs();
    drain_ms.push_back((end - t0) / 1e6);
    inproc_tps.push_back(total / ((end - start) / 1e9));
    ingest_ns.push_back(NsPer(caller_ns[0] + caller_ns[1], total));
    for (const auto& v : call_us) {
      ingest_call_us.insert(ingest_call_us.end(), v.begin(), v.end());
    }
    if (set.GetStats().ingested != total) {
      std::fprintf(stderr, "layers: ShardSet applied %llu of %llu tuples\n",
                   static_cast<unsigned long long>(set.GetStats().ingested),
                   static_cast<unsigned long long>(total));
      ok = false;
    }
    t0 = NowNs();
    {
      ScopedSpan span(rep == 0 ? &main_spans : nullptr,
                      "net.shard_set.serialize");
      set.SerializeState();
    }
    serialize_ms.push_back((NowNs() - t0) / 1e6);
  }
  metrics->push_back(
      {"net.shard_set.ingest_ns_per_tuple", Median(ingest_ns), "ns"});
  metrics->push_back({"net.shard_set.ingest_us_p99",
                      Percentile(ingest_call_us, 0.99), "us"});
  metrics->push_back({"net.shard_set.drain_ms", Median(drain_ms), "ms"});
  metrics->push_back(
      {"net.shard_set.inproc_tps", Median(inproc_tps), "tuples/s"});
  metrics->push_back(
      {"net.shard_set.serialize_ms", Median(serialize_ms), "ms"});
  metrics->push_back({"net.shard_set.estimate_batch_ns_per_key",
                      Median(estimate_batch_ns), "ns"});
  metrics->push_back({"net.shard_set.topk_us", Median(topk_us), "us"});

  // ----- core.asketch: each shard's sub-stream through UpdateBatch -----
  const std::vector<std::vector<SubBatch>> shard_batches =
      SplitByShard(in, per_pool);
  const ASketchConfig config = ShardConfig(spec);
  std::vector<ShardSketch> replayed;
  replayed.reserve(kShards);
  uint64_t update_ns = 0;
  uint64_t replay_tuples = 0;
  uint64_t filtered = 0;
  uint64_t total_weight = 0;
  uint64_t exchanges = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    replayed.push_back(asketch::MakeASketchCountMin<RelaxedHeapFilter>(config));
    ShardSketch& sketch = replayed.back();
    for (const SubBatch& b : shard_batches[s]) {
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(&main_spans, "core.asketch.update_batch", b.batch_id);
        sketch.UpdateBatch(b.tuples);
      }
      update_ns += NowNs() - t0;
      replay_tuples += b.tuples.size();
    }
    const asketch::ASketchStats& st = sketch.stats();
    filtered += st.filtered_weight;
    total_weight += st.filtered_weight + st.sketch_weight;
    exchanges += st.exchanges;
  }
  if (total_weight != replay_tuples) {
    std::fprintf(stderr, "layers: ASketch weight %llu != tuples %llu\n",
                 static_cast<unsigned long long>(total_weight),
                 static_cast<unsigned long long>(replay_tuples));
    ok = false;
  }
  metrics->push_back({"core.asketch.update_ns_per_tuple",
                      NsPer(update_ns, replay_tuples), "ns"});
  metrics->push_back({"core.asketch.filter_hit_ratio",
                      total_weight == 0
                          ? 0.0
                          : static_cast<double>(filtered) / total_weight,
                      "ratio"});
  metrics->push_back({"core.asketch.exchanges_per_mtuple",
                      replay_tuples == 0
                          ? 0.0
                          : exchanges / (replay_tuples / 1e6),
                      "1/Mtuple"});

  // Point reads on the replayed shards: ASketch, then its filter and a
  // Count-Min fed only the tuples that miss the final filter.
  uint64_t sink = 0;
  {
    ScopedSpan span(&main_spans, "core.asketch.estimate");
    const uint64_t t0 = NowNs();
    for (const item_t key : in.query_keys) {
      sink += replayed[net::ShardOf(key, kShards)].EstimateConcurrent(key);
    }
    metrics->push_back({"core.asketch.estimate_ns_per_key",
                        NsPer(NowNs() - t0, in.query_keys.size()), "ns"});
  }
  uint64_t find_ns = 0;
  uint64_t find_keys = 0;
  uint64_t sketch_update_ns = 0;
  uint64_t sketch_tuples = 0;
  std::vector<CountMin> tails;
  for (uint32_t s = 0; s < kShards; ++s) {
    const RelaxedHeapFilter& filter = replayed[s].filter();
    std::vector<Tuple> missed;
    item_t keys[kProbeChunk];
    int32_t slots[kProbeChunk];
    {
      ScopedSpan span(&main_spans, "filter.find_batch");
      for (const SubBatch& b : shard_batches[s]) {
        for (size_t i = 0; i < b.tuples.size(); i += kProbeChunk) {
          const size_t n = std::min(kProbeChunk, b.tuples.size() - i);
          for (size_t j = 0; j < n; ++j) keys[j] = b.tuples[i + j].key;
          const uint64_t t0 = NowNs();
          filter.FindBatch(keys, n, slots);
          find_ns += NowNs() - t0;
          find_keys += n;
          for (size_t j = 0; j < n; ++j) {
            if (slots[j] < 0) missed.push_back(b.tuples[i + j]);
          }
        }
      }
    }
    tails.emplace_back(replayed[s].sketch().config());
    ScopedSpan span(&main_spans, "sketch.update_batch");
    for (size_t i = 0; i < missed.size(); i += kSketchChunk) {
      const size_t n = std::min(kSketchChunk, missed.size() - i);
      const uint64_t t0 = NowNs();
      tails.back().UpdateBatch(std::span<const Tuple>(missed.data() + i, n));
      sketch_update_ns += NowNs() - t0;
      sketch_tuples += n;
    }
  }
  metrics->push_back(
      {"filter.find_ns_per_key", NsPer(find_ns, find_keys), "ns"});
  metrics->push_back({"sketch.update_ns_per_tuple",
                      NsPer(sketch_update_ns, sketch_tuples), "ns"});
  {
    ScopedSpan span(&main_spans, "sketch.estimate");
    const uint64_t t0 = NowNs();
    for (const item_t key : in.query_keys) {
      sink += tails[net::ShardOf(key, kShards)].Estimate(key);
    }
    metrics->push_back({"sketch.estimate_ns_per_key",
                        NsPer(NowNs() - t0, in.query_keys.size()), "ns"});
  }

  // ----- core.delta_batch + ApplyDelta + CountMin::MergeFrom -----
  // Epochs of asketchd's default delta_flush_tuples per shard, built
  // against and applied to a live shard, as delta-mode ingest does.
  const uint32_t epoch_tuples = net::ShardSetOptions{}.delta_flush_tuples;
  uint64_t make_ns = 0;
  uint64_t add_ns = 0;
  uint64_t apply_ns = 0;
  uint64_t merge_ns = 0;
  uint64_t epochs = 0;
  uint64_t delta_tuples = 0;
  uint64_t head_weight = 0;
  uint64_t tail_weight = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    ShardSketch live = asketch::MakeASketchCountMin<RelaxedHeapFilter>(config);
    CountMin merged(live.sketch().config());
    std::vector<Tuple> stream;
    for (const SubBatch& b : shard_batches[s]) {
      stream.insert(stream.end(), b.tuples.begin(), b.tuples.end());
    }
    for (size_t begin = 0;
         begin < stream.size() && begin / epoch_tuples < kMaxDeltaEpochs;
         begin += epoch_tuples) {
      const size_t n = std::min<size_t>(epoch_tuples, stream.size() - begin);
      ScopedSpan epoch_span(&main_spans, "core.delta_batch.epoch");
      uint64_t t0 = NowNs();
      main_spans.Begin("core.delta_batch.make");
      DeltaBatch<CountMin> delta = live.MakeDeltaBatch();
      main_spans.End();
      uint64_t t1 = NowNs();
      make_ns += t1 - t0;
      main_spans.Begin("core.delta_batch.add");
      for (size_t i = begin; i < begin + n; ++i) {
        delta.Add(stream[i].key, stream[i].value);
      }
      delta.FlushMisses();
      main_spans.End();
      t0 = NowNs();
      add_ns += t0 - t1;
      main_spans.Begin("sketch.merge");
      const auto merge_error = merged.MergeFrom(delta.tail());
      main_spans.End();
      t1 = NowNs();
      merge_ns += t1 - t0;
      head_weight += delta.head_weight();
      tail_weight += delta.tail_weight();
      delta_tuples += delta.tuple_count();
      main_spans.Begin("core.asketch.apply_delta");
      const auto error = live.ApplyDelta(delta);
      main_spans.End();
      apply_ns += NowNs() - t1;
      ++epochs;
      for (const auto& e : {merge_error, error}) {
        if (e) {
          std::fprintf(stderr, "layers: delta merge: %s\n", e->c_str());
          ok = false;
        }
      }
    }
  }
  metrics->push_back({"core.asketch.apply_delta_ns_per_tuple",
                      NsPer(apply_ns, delta_tuples), "ns"});
  metrics->push_back({"core.delta_batch.add_ns_per_tuple",
                      NsPer(add_ns, delta_tuples), "ns"});
  metrics->push_back(
      {"core.delta_batch.make_us", NsPer(make_ns, epochs) / 1e3, "us"});
  metrics->push_back({"core.delta_batch.head_hit_ratio",
                      head_weight + tail_weight == 0
                          ? 0.0
                          : static_cast<double>(head_weight) /
                                (head_weight + tail_weight),
                      "ratio"});
  metrics->push_back(
      {"sketch.merge_us", NsPer(merge_ns, epochs) / 1e3, "us"});
  // Query keys come from the traffic's own distribution, so their
  // estimates cannot all be 0.
  if (sink == 0) {
    std::fprintf(stderr, "layers: every estimate was 0\n");
    ok = false;
  }
  return ok;
}

}  // namespace perfbench

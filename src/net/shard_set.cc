#include "src/net/shard_set.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "src/common/atomic_util.h"
#include "src/common/crc32c.h"
#include "src/net/net_metrics.h"
#include "src/obs/metrics.h"

namespace asketch {
namespace net {

namespace {

constexpr uint32_t kShardSetMagic = 0x31445253u;  // "SRD1"

uint64_t BatchWeight(std::span<const Tuple> tuples) {
  uint64_t weight = 0;
  for (const Tuple& t : tuples) weight += t.value;
  return weight;
}

}  // namespace

void DeltaIngestState::Combiner::Add(item_t key, count_t weight) {
  ++source_tuples;
  if (weight == 0) return;
  // Home slot: the high bits of a 64-bit Fibonacci product. ShardOf
  // already used the low bits of the 32-bit one, so reusing that hash
  // would pile one shard's keys onto a fraction of the slots. Claims
  // stop short of a full table, so the probe always ends.
  constexpr int kBits = std::countr_zero(kSlots);
  uint32_t i = static_cast<uint32_t>(
      (uint64_t{key} * 0x9e3779b97f4a7c15ull) >> (64 - kBits));
  while (slots[i].index != 0 && slots[i].key != key) {
    i = (i + 1) & (kSlots - 1);
  }
  Slot& slot = slots[i];
  if (slot.index != 0) {
    count_t& sum = tuples[slot.index - 1].value;
    if (sum <= ~count_t{0} - weight) {
      sum += weight;
      return;
    }
    // Spill: the key sums into a new tuple from here on.
  } else if (claimed.size() < kClaimLimit) {
    slot.key = key;
    claimed.push_back(static_cast<uint16_t>(i));
  } else {
    tuples.push_back(Tuple{key, weight});  // past the claim cap: raw
    return;
  }
  tuples.push_back(Tuple{key, weight});
  slot.index = static_cast<uint32_t>(tuples.size());
}

void DeltaIngestState::Combiner::Clear() {
  for (const uint16_t i : claimed) slots[i].index = 0;
  claimed.clear();
  tuples.clear();
  source_tuples = 0;
}

std::optional<std::string> ShardSetOptions::Validate() const {
  if (num_shards < 1) return std::string("num_shards must be >= 1");
  if (max_queue_batches < 1) {
    return std::string("max_queue_batches must be >= 1");
  }
  return shard_config.Validate();
}

ShardSet::ShardSet(const ShardSetOptions& options)
    : options_(options),
      route_(options.num_shards) {
  ASKETCH_CHECK(!options.Validate().has_value());
  shards_.reserve(options.num_shards);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        MakeASketchCountMin<RelaxedHeapFilter>(options.shard_config)));
    Shard* shard = shards_.back().get();
    PublishStatsLocked(*shard);  // no worker or reader yet
    gauge_ids_.push_back(registry.RegisterCallbackGauge(
        "asketch_net_shard_queue_depth",
        "shard=\"" + std::to_string(i) + "\"", [shard]() -> double {
          std::lock_guard<std::mutex> lock(shard->queue_mu);
          return static_cast<double>(shard->queue.size());
        }));
  }
  // The placeholder series keeps the family present before/after any
  // ShardSet instance is alive (same trick as the pipeline gauge).
  NetMetrics::Get();
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(*s); });
  }
}

ShardSet::~ShardSet() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const uint64_t id : gauge_ids_) {
    registry.UnregisterCallbackGauge(id);
  }
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->queue_mu);
    shard->cv_pop.notify_all();
    shard->cv_push.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardSet::WorkerLoop(Shard& shard) {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(shard.queue_mu);
      shard.cv_pop.wait(lock, [&] {
        const bool stop = stop_.load(std::memory_order_acquire);
        if (shard.queue.empty()) return stop;
        // A stop request overrides the test stall: remaining queued
        // batches are applied before the worker exits, so ~ShardSet
        // never strands acknowledged tuples.
        return stop || !stalled_.load(std::memory_order_acquire);
      });
      if (shard.queue.empty()) return;  // only reachable when stopping
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
      shard.busy = true;
      shard.cv_push.notify_one();
    }
    {
      std::lock_guard<std::mutex> guard(shard.mu);
      ApplyLocked(shard, item);
    }
    {
      std::lock_guard<std::mutex> lock(shard.queue_mu);
      shard.busy = false;
      if (shard.queue.empty()) shard.cv_idle.notify_all();
    }
  }
}

uint64_t ShardSet::ApplyLocked(Shard& shard, WorkItem& item) {
  shard.sketch.UpdateBatch(item.tuples);
  // Release: a reader that observes this boundary via AppliedTuples()
  // is guaranteed to also observe the work it accounts for (the
  // concurrency tests' oracle bracketing).
  shard.applied_tuples.fetch_add(item.source_tuples,
                                 std::memory_order_release);
  PublishStatsLocked(shard);
  return item.source_tuples;
}

void ShardSet::PublishStatsLocked(Shard& shard) {
  const ASketchStats& s = shard.sketch.stats();
  Shard::PublishedStats& p = shard.published;
  SeqWriteSection section(shard.stats_seq);
  ReleaseStore(p.filtered_weight, uint64_t{s.filtered_weight});
  ReleaseStore(p.sketch_weight, uint64_t{s.sketch_weight});
  ReleaseStore(p.exchanges, s.exchanges);
  ReleaseStore(p.sketch_updates, s.sketch_updates);
  ReleaseStore(p.memory_bytes,
               static_cast<uint64_t>(shard.sketch.MemoryUsageBytes()));
  ReleaseStore(p.applied_tuples,
               shard.applied_tuples.load(std::memory_order_relaxed));
}

uint64_t ShardSet::Submit(Shard& shard, WorkItem item) {
  NetMetrics& metrics = NetMetrics::Get();
  bool enqueued = false;
  {
    std::unique_lock<std::mutex> lock(shard.queue_mu);
    if (shard.queue.size() >= options_.max_queue_batches) {
      metrics.enqueue_waits.Add(1);
      shard.cv_push.wait_for(
          lock, std::chrono::milliseconds(options_.max_enqueue_wait_ms),
          [&] {
            return shard.queue.size() < options_.max_queue_batches ||
                   stop_.load(std::memory_order_acquire);
          });
    }
    if (shard.queue.size() < options_.max_queue_batches &&
        !stop_.load(std::memory_order_acquire)) {
      shard.queue.push_back(std::move(item));
      shard.cv_pop.notify_one();
      enqueued = true;
    }
  }
  if (enqueued) return 0;
  // Bounded wait exhausted: degrade. Sticky gauge — an operator seeing
  // asketch_net_degraded == 1 knows at least one queue overflowed
  // since startup (the *_total counters say how much).
  metrics.degraded.Set(1);
  if (options_.overload == OverloadPolicy::kInlineApply) {
    std::lock_guard<std::mutex> guard(shard.mu);
    const uint64_t applied = ApplyLocked(shard, item);
    inline_applied_.fetch_add(applied, std::memory_order_relaxed);
    metrics.inline_applied.Add(applied);
    return 0;
  }
  const uint64_t weight = BatchWeight(item.tuples);
  shed_weight_.fetch_add(weight, std::memory_order_relaxed);
  metrics.shed_weight.Add(weight);
  return weight;
}

uint64_t ShardSet::Ingest(std::span<const Tuple> tuples,
                          DeltaIngestState* state) {
  const uint32_t n = num_shards();
  DeltaIngestState local;
  if (state == nullptr) {
    local = MakeDeltaState();
    state = &local;
  }
  ASKETCH_CHECK(state->per_shard_.size() == n);
  auto& combiners = state->per_shard_;
  for (const Tuple& t : tuples) {
    combiners[route_(t.key)].Add(t.key, t.value);
  }
  uint64_t shed = 0;
  for (uint32_t i = 0; i < n; ++i) {
    DeltaIngestState::Combiner& combiner = combiners[i];
    if (combiner.source_tuples == 0) continue;
    // Copied out at its exact size: the scratch keeps its capacity for
    // the next call, and the queue holds no slack.
    WorkItem item{std::vector<Tuple>(combiner.tuples.begin(),
                                     combiner.tuples.end()),
                  combiner.source_tuples};
    combiner.Clear();
    shed += Submit(*shards_[i], std::move(item));
  }
  return shed;
}

DeltaIngestState ShardSet::MakeDeltaState() const {
  DeltaIngestState state;
  state.per_shard_.resize(num_shards());
  return state;
}

uint64_t ShardSet::FlushDeltas(DeltaIngestState&) { return 0; }

void ShardSet::Drain() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->queue_mu);
    shard->cv_idle.wait(lock, [&] {
      return shard->queue.empty() && !shard->busy;
    });
  }
}

namespace {

/// Books one lock-free read (and any torn-snapshot retries it burned)
/// into the read-path counters.
void RecordLocklessRead(uint64_t reads, uint64_t retries) {
  NetMetrics& metrics = NetMetrics::Get();
  metrics.lockless_reads.Add(reads);
  if (retries != 0) metrics.seqlock_retries.Add(retries);
}

/// Exact filter-era hits of a filter entry, clamped at 0: a snapshot
/// forged or corrupted into new_count < old_count must not wrap the
/// unsigned subtraction into a ~2^32 "exact hit" count (every live
/// update path preserves new_count >= old_count, but deserialization
/// does not enforce it).
uint64_t ExactHits(const FilterEntry& e) {
  return e.new_count >= e.old_count
             ? static_cast<uint64_t>(e.new_count - e.old_count)
             : 0;
}

}  // namespace

count_t ShardSet::Estimate(item_t key) const {
  const Shard& shard = *shards_[route_(key)];
  uint64_t retries = 0;
  const count_t estimate = shard.sketch.EstimateConcurrent(key, &retries);
  RecordLocklessRead(1, retries);
  return estimate;
}

void ShardSet::EstimateBatch(std::span<const item_t> keys,
                             std::vector<uint64_t>* estimates) const {
  const uint32_t n = num_shards();
  estimates->assign(keys.size(), 0);
  // Resolve the owning shard once per key and answer shard by shard:
  // one shard's filter ids and sketch rows stay cache-hot for its whole
  // group instead of being round-robined out by the next key's shard.
  std::vector<std::vector<uint32_t>> groups(n);
  for (size_t i = 0; i < keys.size(); ++i) {
    groups[route_(keys[i])].push_back(static_cast<uint32_t>(i));
  }
  uint64_t retries = 0;
  for (uint32_t s = 0; s < n; ++s) {
    const ServingSketch& sketch = shards_[s]->sketch;
    for (const uint32_t i : groups[s]) {
      (*estimates)[i] = sketch.EstimateConcurrent(keys[i], &retries);
    }
  }
  RecordLocklessRead(keys.size(), retries);
}

std::vector<TopKEntry> ShardSet::TopK(uint32_t k) const {
  std::vector<TopKEntry> merged;
  uint64_t retries = 0;
  for (const auto& shard : shards_) {
    for (const FilterEntry& e : shard->sketch.TopKConcurrent(&retries)) {
      merged.push_back(TopKEntry{e.key, e.new_count, ExactHits(e)});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.key < b.key;
            });
  if (merged.size() > k) merged.resize(k);
  RecordLocklessRead(1, retries);
  return merged;
}

uint64_t ShardSet::AppliedTuples(uint32_t shard) const {
  return shards_[shard]->applied_tuples.load(std::memory_order_acquire);
}

WireStats ShardSet::GetStats() const {
  WireStats stats;
  stats.num_shards = num_shards();
  stats.shed_weight = shed_weight_.load(std::memory_order_relaxed);
  stats.inline_applied = inline_applied_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const Shard::PublishedStats& p = shard->published;
    Shard::PublishedStats s;
    for (uint64_t attempt = 0;; SeqRetryBackoff(attempt++)) {
      const uint32_t begin = shard->stats_seq.ReadBegin();
      if ((begin & 1u) != 0) continue;
      s.filtered_weight = AcquireLoad(p.filtered_weight);
      s.sketch_weight = AcquireLoad(p.sketch_weight);
      s.exchanges = AcquireLoad(p.exchanges);
      s.sketch_updates = AcquireLoad(p.sketch_updates);
      s.memory_bytes = AcquireLoad(p.memory_bytes);
      s.applied_tuples = AcquireLoad(p.applied_tuples);
      if (shard->stats_seq.ReadValidate(begin)) break;
    }
    stats.filtered_weight += s.filtered_weight;
    stats.sketch_weight += s.sketch_weight;
    stats.exchanges += s.exchanges;
    stats.sketch_updates += s.sketch_updates;
    stats.memory_bytes += s.memory_bytes;
    stats.ingested += s.applied_tuples;
    stats.per_shard_ingested.push_back(s.applied_tuples);
  }
  return stats;
}

bool ShardSet::WriteLocked(BinaryWriter& writer) const {
  writer.PutU32(kShardSetMagic);
  writer.PutU32(num_shards());
  writer.PutU64(shed_weight_.load(std::memory_order_relaxed));
  writer.PutU64(inline_applied_.load(std::memory_order_relaxed));
  for (const auto& shard : shards_) {
    writer.PutU64(shard->applied_tuples.load(std::memory_order_relaxed));
    if (!shard->sketch.SerializeTo(writer)) return false;
  }
  return writer.ok();
}

std::vector<uint8_t> ShardSet::SerializeLocked() const {
  BinaryWriter writer;
  if (!WriteLocked(writer)) return {};
  return writer.buffer();
}

uint64_t ShardSet::AppliedTotalLocked() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->applied_tuples.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::unique_lock<std::mutex>> ShardSet::DrainAndLockAll() {
  Drain();
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  return locks;
}

std::optional<std::string> ShardSet::RestoreLocked(
    std::span<const uint8_t> payload) {
  BinaryReader reader(payload.data(), payload.size());
  uint32_t magic = 0;
  uint32_t shard_count = 0;
  uint64_t shed = 0;
  uint64_t inline_applied = 0;
  if (!reader.GetU32(&magic) || magic != kShardSetMagic ||
      !reader.GetU32(&shard_count) || !reader.GetU64(&shed) ||
      !reader.GetU64(&inline_applied)) {
    return std::string("shard-set payload: bad header");
  }
  if (shard_count != num_shards()) {
    return "shard-set payload holds " + std::to_string(shard_count) +
           " shards but this server runs " + std::to_string(num_shards()) +
           " (the key partition depends on the shard count; restart with "
           "a matching --shards)";
  }
  // Parse everything before committing, so a truncated payload cannot
  // leave the set half-restored. A shard whose sketch is not Count-Min
  // (its payload magic differs) fails to deserialize here instead of
  // half-adopting.
  std::vector<uint64_t> applied(shard_count);
  std::vector<ServingSketch> sketches;
  sketches.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    if (!reader.GetU64(&applied[i])) {
      return std::string("shard-set payload: truncated shard header");
    }
    auto sketch = ServingSketch::DeserializeFrom(reader);
    if (!sketch.has_value()) {
      return "shard-set payload: shard " + std::to_string(i) +
             " failed to deserialize (corrupt, or not a Count-Min "
             "ASketch)";
    }
    sketches.push_back(*std::move(sketch));
  }
  // Adopt in place: the restored state is copied into the live shards'
  // existing buffers instead of move-assigned over them, so lock-free
  // readers racing a restore (the SNAPSHOT re-adoption runs during live
  // serving) never chase a freed cell array or filter slab. That makes
  // shape compatibility a hard requirement; check every shard before
  // touching any of them so a mismatch cannot half-restore the set.
  for (uint32_t i = 0; i < shard_count; ++i) {
    if (!shards_[i]->sketch.CanAdoptFrom(sketches[i])) {
      return "shard-set payload: shard " + std::to_string(i) +
             " has a different filter capacity or sketch geometry than "
             "this server's configuration (restart with the snapshot's "
             "original sizing flags)";
    }
  }
  for (uint32_t i = 0; i < shard_count; ++i) {
    shards_[i]->sketch.AdoptFrom(std::move(sketches[i]));
    shards_[i]->applied_tuples.store(applied[i],
                                     std::memory_order_release);
    PublishStatsLocked(*shards_[i]);
  }
  shed_weight_.store(shed, std::memory_order_relaxed);
  inline_applied_.store(inline_applied, std::memory_order_relaxed);
  return std::nullopt;
}

std::vector<uint8_t> ShardSet::SerializeState(StateDigest* digest) {
  const auto locks = DrainAndLockAll();
  std::vector<uint8_t> payload = SerializeLocked();
  if (digest != nullptr) {
    digest->generation = 0;
    digest->ingested = AppliedTotalLocked();
    digest->digest = Crc32c(payload.data(), payload.size());
  }
  return payload;
}

void ShardSet::DigestState(StateDigest* digest) {
  const auto locks = DrainAndLockAll();
  BinaryWriter writer = BinaryWriter::ChecksumOnly();
  // A failed write leaves SerializeLocked's payload empty, whose CRC32C
  // is 0; mirror that so both paths always agree.
  const bool ok = WriteLocked(writer);
  digest->generation = 0;
  digest->ingested = AppliedTotalLocked();
  digest->digest = ok ? writer.checksum() : Crc32c(nullptr, 0);
}

std::optional<std::string> ShardSet::RestoreState(
    std::span<const uint8_t> payload) {
  const auto locks = DrainAndLockAll();
  return RestoreLocked(payload);
}

std::optional<std::string> ShardSet::SaveSnapshot(SnapshotStore& store,
                                                  StateDigest* digest) {
  const auto locks = DrainAndLockAll();
  std::vector<uint8_t> payload = SerializeLocked();
  if (payload.empty()) {
    return std::string("shard-set serialization failed");
  }
  // Re-adopt the serialized form (the CLI's SaveAndReload discipline),
  // then serialize again: deserialization re-heapifies the filters, which
  // can reorder entries, so only the second serialization is a fixpoint
  // of save -> recover -> serialize. Persisting the canonical bytes makes
  // the digest returned here match what a --recover'd server reports.
  if (auto error = RestoreLocked(payload)) {
    return "post-save re-adoption failed: " + *error;
  }
  payload = SerializeLocked();
  if (payload.empty()) {
    return std::string("shard-set serialization failed");
  }
  if (auto error = store.Save(kShardSetPayloadType, payload)) return error;
  if (digest != nullptr) {
    digest->generation = store.LatestGeneration();
    digest->ingested = AppliedTotalLocked();
    digest->digest = Crc32c(payload.data(), payload.size());
  }
  return std::nullopt;
}

std::optional<std::string> ShardSet::RecoverFromStore(
    const SnapshotStore& store, StateDigest* digest) {
  std::string error;
  const auto loaded = store.Load(kShardSetPayloadType, &error);
  if (!loaded.has_value()) {
    return "recovery failed: " + (error.empty() ? "no snapshot" : error);
  }
  const auto locks = DrainAndLockAll();
  if (auto restore_error = RestoreLocked(loaded->payload)) {
    return restore_error;
  }
  if (digest != nullptr) {
    digest->generation = loaded->generation;
    digest->ingested = AppliedTotalLocked();
    digest->digest =
        Crc32c(loaded->payload.data(), loaded->payload.size());
  }
  return std::nullopt;
}

void ShardSet::StallWorkersForTesting(bool stalled) {
  stalled_.store(stalled, std::memory_order_release);
  if (!stalled) {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->queue_mu);
      shard->cv_pop.notify_all();
    }
  }
}

}  // namespace net
}  // namespace asketch

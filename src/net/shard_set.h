// A keyspace-sharded group of ASketch instances with per-shard ingest
// workers — the serving-side analogue of the paper's SPMD evaluation
// (§6, Fig. 13): each shard owns a disjoint key partition, so point
// queries route to exactly one shard and the merged TOPK report is the
// exact union of the per-shard reports (no cross-shard double counting).
//
// Ingest is asynchronous: UPDATE batches are split by shard and pushed
// onto bounded per-shard queues drained by one worker thread each via
// ASketch::UpdateBatch. When a queue stays full past the bounded wait,
// the pipeline overload policy applies (reusing OverloadPolicy from
// pipeline_asketch.h): kInlineApply applies the sub-batch on the caller
// thread under the shard mutex (one-sided guarantee intact, caller pays
// the cycles), kShed drops it and accounts the weight. Both paths are
// reported through NetMetrics and WireStats.
//
// Two ingest modes share those queues (docs/ARCHITECTURE.md):
//
//   kQueue — raw tuple sub-batches queue per shard; the owner worker
//   replays them through ASketch::UpdateBatch, so the applied state is
//   bit-identical to per-tuple serial ingest in arrival order.
//
//   kDelta — each decode thread accumulates its tuples into private
//   per-shard DeltaBatches (exact head table + tail sketch, see
//   src/core/delta_batch.h) held in a caller-owned DeltaIngestState.
//   When a shard's delta reaches delta_flush_tuples the whole delta is
//   queued as one work item and the owner folds it in with
//   ASketch::ApplyDelta. The single-writer seqlock invariant holds by
//   construction — decode threads never touch shard state — and the
//   per-tuple hot path shrinks to a private table probe or tail-sketch
//   update with no locks, condition variables, or seqlock sections.
//
// Either mode can sample the tail at a rate fixed at construction
// (ShardSetOptions::sample_rate, ALGORITHMS.md §8): queue mode in the
// shard owners, delta mode in each epoch's DeltaBatch. The head stays
// exact in both, and both count their skips in one metric family.
//
// Queries read the *applied* state: tuples still queued are not yet
// visible. SNAPSHOT and DIGEST therefore drain all queues first, making
// them barriers — every tuple enqueued before the call is reflected in
// the cut. In delta mode a tuple enters the queue only when its delta
// is flushed, so the barrier covers flushed deltas; callers that need a
// tuple in the next cut must FlushDeltas their state first (the server
// flushes a connection's deltas before STATS/SNAPSHOT/DIGEST and at
// connection teardown).
//
// Reads are contention-free: Estimate/EstimateBatch/TopK never take
// shard.mu. Point and top-k lookups run against the filter's
// single-writer seqlock (src/filter/seqlock.h) and fall through to
// relaxed atomic sketch-cell reads, so read latency no longer collapses
// when an ingest worker is mid-batch under the mutex. Answers remain
// one-sided and prefix-consistent per key (DESIGN.md §5c); shard.mu
// still serializes the writers (worker, inline-apply, restore).
//
// Persistence mirrors asketch_cli's checkpoint discipline: SaveSnapshot
// serializes all shards into one SnapshotStore generation (payload tag
// "SRD1"), then re-adopts the deserialized form, so the live state, the
// on-disk state, and any --recover'd state are bit-identical under
// serialization — the CRC32C digest returned here equals the digest a
// recovered server reports.

#ifndef ASKETCH_NET_SHARD_SET_H_
#define ASKETCH_NET_SHARD_SET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/snapshot.h"
#include "src/common/types.h"
#include "src/core/asketch.h"
#include "src/core/pipeline_asketch.h"
#include "src/net/protocol.h"

namespace asketch {
namespace net {

/// The serving synopsis type — the same composition asketch_cli
/// persists, so operators can inspect asketchd snapshots with the CLI's
/// tooling conventions. Count-Min is the paper's configuration and the
/// one backend the AVX2 batch kernel and hugepage-backed arrays serve;
/// SalsaCountMin runs in process only (MakeASketchSalsa).
using ServingSketch = ASketch<RelaxedHeapFilter, CountMin>;

/// Snapshot payload tag for a serialized ShardSet ("SRD1" — application
/// namespace, top byte outside the library's 0x41 composed tags).
inline constexpr uint32_t kShardSetPayloadType = 0x31445253u;

/// Owning shard of `key`: Knuth multiplicative hash — multiply by the
/// constant 2654435761 mod 2^32 — then modulo the shard count.
/// Deterministic and config-independent, so any client can precompute
/// shard affinity; documented in docs/PROTOCOL.md §Sharding (which
/// states the same constant).
inline uint32_t ShardOf(item_t key, uint32_t num_shards) {
  return (key * 2654435761u) % num_shards;
}

/// How UPDATE traffic reaches a shard's owner thread (file comment).
enum class IngestMode {
  kQueue,  ///< raw tuple batches, replayed serially by the owner
  kDelta,  ///< caller-built DeltaBatches, folded in via ApplyDelta
};

/// A decode thread's private delta accumulator, one slot per shard.
/// Obtained from ShardSet::MakeDeltaState and passed back to Ingest /
/// FlushDeltas by the same thread; never shared between threads without
/// external synchronization (the whole point is that it needs none).
class DeltaIngestState {
 public:
  DeltaIngestState() = default;

  /// Tuples accumulated but not yet flushed to the shard queues.
  uint64_t PendingTuples() const;

 private:
  friend class ShardSet;

  std::vector<std::optional<DeltaBatch<CountMin>>> per_shard_;
};

struct ShardSetOptions {
  uint32_t num_shards = 4;
  ASketchConfig shard_config;
  /// Bounded per-shard queue length, in batches.
  size_t max_queue_batches = 64;
  /// How long Ingest waits on a full queue before degrading.
  uint32_t max_enqueue_wait_ms = 100;
  OverloadPolicy overload = OverloadPolicy::kInlineApply;
  /// Queue mode until delta-mode parity is proven in production
  /// (`asketchd --ingest-mode`); both modes pass the same equivalence,
  /// concurrency, and recovery suites.
  IngestMode ingest_mode = IngestMode::kQueue;
  /// Delta epoch length: a shard's delta is flushed to the owner once
  /// it has absorbed this many tuples. Larger epochs amortize the dense
  /// sketch merge over more tuples; smaller epochs shorten the window
  /// in which a delta's tuples are invisible to queries (the server
  /// flushes a connection's deltas before answering its STATS/SNAPSHOT/
  /// DIGEST, so a connection always reads its own writes regardless).
  uint32_t delta_flush_tuples = 32768;
  /// Tail sampling rate (NitroSketch-style, ALGORITHMS.md §8): each
  /// tail-sketch update is applied with this probability and scaled by
  /// its inverse. Head keys (exact filter / delta head table) are never
  /// sampled. 1.0 (the default) is bit-identical to unsampled ingest;
  /// below 1.0 tail estimates are unbiased but no longer one-sided.
  /// In (0, 1], fixed for the set's lifetime and exported as
  /// asketch_net_sample_rate_permille. Queue mode samples in the shard
  /// owner's MissPositive; delta mode samples in the decode threads'
  /// DeltaBatch tail path. Skips count into asketch_sampled_skips_total.
  double sample_rate = 1.0;

  std::optional<std::string> Validate() const;
};

class ShardSet {
 public:
  explicit ShardSet(const ShardSetOptions& options);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Splits `tuples` by shard and enqueues per-shard sub-batches. Blocks
  /// at most max_enqueue_wait_ms per full queue, then degrades per the
  /// overload policy. Returns the weight shed (0 under kInlineApply).
  ///
  /// Under IngestMode::kDelta with a non-null `delta_state`, tuples are
  /// instead absorbed into the caller's private per-shard deltas; only
  /// shards whose delta crossed delta_flush_tuples touch the queues.
  /// With a null `delta_state` the queue path is used regardless of
  /// mode (warm-up / oracle traffic in tests relies on this).
  uint64_t Ingest(std::span<const Tuple> tuples,
                  DeltaIngestState* delta_state = nullptr);

  /// A delta accumulator sized for this set; see DeltaIngestState.
  DeltaIngestState MakeDeltaState() const;

  /// Flushes every non-empty delta in `state` to its shard queue (same
  /// bounded-wait + overload discipline as Ingest). Returns the weight
  /// shed. After this returns, a Drain() barrier covers the tuples.
  uint64_t FlushDeltas(DeltaIngestState& state);

  /// Blocks until every queued batch has been applied and all workers
  /// are idle. Concurrent Ingest calls may refill queues afterwards.
  void Drain();

  /// Point query against the applied state of the owning shard.
  /// Lock-free: never blocks on shard.mu (see file comment).
  count_t Estimate(item_t key) const;

  /// Batched point query: estimates->at(i) answers keys[i]. Keys are
  /// grouped by owning shard once and each group is answered in one
  /// pass, instead of re-resolving the shard per key — QUERY_BATCH's
  /// fanout. Lock-free like Estimate.
  void EstimateBatch(std::span<const item_t> keys,
                     std::vector<uint64_t>* estimates) const;

  /// Mutex-baseline point query: the pre-seqlock read path (take
  /// shard.mu, query under the lock), kept for the read-concurrency
  /// bench so the contention win stays measurable against the real
  /// implementation (bench/bench_net_read_concurrency.cc).
  count_t EstimateMutexBaseline(item_t key) const;

  /// Merged heavy-hitter report: per-shard filter contents, globally
  /// sorted by descending estimate, truncated to `k`. Exact union —
  /// shards partition the keyspace. Lock-free like Estimate; each
  /// shard's entries come from one validated filter snapshot.
  std::vector<TopKEntry> TopK(uint32_t k) const;

  /// Tuples applied so far by `shard` (worker + inline applies). Only
  /// advances after a whole sub-batch is applied, so the value is always
  /// a sub-batch boundary — the prefix-cut handle the concurrency tests
  /// bracket their oracle checks with.
  uint64_t AppliedTuples(uint32_t shard) const;

  /// Aggregate counters across shards (snapshot_generation left 0; the
  /// server fills it in from its SnapshotStore).
  WireStats GetStats() const;

  /// Drains, then serializes every shard into one payload. The digest is
  /// CRC32C over that payload.
  std::vector<uint8_t> SerializeState(StateDigest* digest = nullptr);

  /// Drains, then reports the digest SerializeState would, bit for bit,
  /// by streaming CRC32C over the live shards under their locks: one
  /// pass, and no payload is built. Serves the DIGEST barrier.
  void DigestState(StateDigest* digest);

  /// Replaces all shard state from a SerializeState payload. Returns an
  /// error message on malformed payloads, a shard-count mismatch (the
  /// partition function depends on num_shards, so a snapshot can only be
  /// adopted by a server with the same --shards), or a sketch-shape
  /// mismatch (state is adopted into the live shards' buffers so
  /// lock-free readers never chase freed memory, which requires the
  /// snapshot's filter capacity and sketch geometry to match this
  /// server's configuration).
  std::optional<std::string> RestoreState(std::span<const uint8_t> payload);

  /// Drain + serialize + store.Save + re-adopt. On success fills
  /// `digest` (generation, ingested, CRC32C of the saved payload).
  std::optional<std::string> SaveSnapshot(SnapshotStore& store,
                                          StateDigest* digest);

  /// Recovers from the newest valid generation in `store`. Returns the
  /// recovered digest, or an error message.
  std::optional<std::string> RecoverFromStore(const SnapshotStore& store,
                                              StateDigest* digest);

  /// Test hook: while stalled, workers stop popping batches, so queues
  /// fill deterministically and the overload paths can be exercised.
  void StallWorkersForTesting(bool stalled);

 private:
  /// One unit of owner-thread work: a raw tuple sub-batch (queue mode)
  /// or a whole decode-thread delta (delta mode).
  using WorkItem = std::variant<std::vector<Tuple>, DeltaBatch<CountMin>>;

  struct Shard {
    /// Serializes the *writers* of sketch + applied_tuples (worker
    /// batch application, inline-apply, restore). Readers go through
    /// the sketch's lock-free query path instead of taking it.
    mutable std::mutex mu;
    ServingSketch sketch;
    /// Tuples applied (worker + inline). Written under mu, bumped only
    /// at work-item boundaries; read without mu by AppliedTuples.
    std::atomic<uint64_t> applied_tuples{0};

    std::mutex queue_mu;
    std::condition_variable cv_push;  ///< signalled when space frees up
    std::condition_variable cv_pop;   ///< signalled when work arrives
    std::condition_variable cv_idle;  ///< signalled when fully drained
    std::deque<WorkItem> queue;
    bool busy = false;  ///< worker currently applying a batch
    std::thread worker;

    explicit Shard(ServingSketch s) : sketch(std::move(s)) {}
  };

  void WorkerLoop(Shard& shard);
  /// Applies one work item under shard.mu (caller holds it) and bumps
  /// applied_tuples at the boundary; returns the tuple count applied.
  uint64_t ApplyLocked(Shard& shard, WorkItem& item);
  /// Bounded-wait enqueue of `item`, degrading per the overload policy
  /// when the wait expires. Returns the weight shed (0 unless kShed).
  uint64_t Submit(Shard& shard, WorkItem item);
  /// Delta-mode Ingest body: absorb into `state`, flush full epochs.
  uint64_t IngestDelta(std::span<const Tuple> tuples,
                       DeltaIngestState& state);
  /// Flushes shard `index`'s delta from `state` if it is non-empty.
  uint64_t FlushShardDelta(uint32_t index, DeltaIngestState& state);
  /// Writes the SerializeState payload of all shards to `writer`;
  /// caller must hold every shard.mu. False if a write failed.
  bool WriteLocked(BinaryWriter& writer) const;
  /// WriteLocked into a fresh buffer; empty on failure.
  std::vector<uint8_t> SerializeLocked() const;
  /// Sum of every shard's applied_tuples; caller holds every shard.mu.
  uint64_t AppliedTotalLocked() const;
  /// Drain(), then take every shard.mu in index order.
  std::vector<std::unique_lock<std::mutex>> DrainAndLockAll();
  /// Deserializes `payload` into the shards; caller must hold every
  /// shard.mu. Returns an error message on failure (state unchanged).
  std::optional<std::string> RestoreLocked(
      std::span<const uint8_t> payload);

  ShardSetOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stalled_{false};
  std::atomic<uint64_t> shed_weight_{0};
  std::atomic<uint64_t> inline_applied_{0};
  /// Tail sampling rate in permille (1000 = off), and the sequence
  /// that gives each delta epoch a distinct sampler seed.
  const uint32_t sample_permille_;
  std::atomic<uint64_t> sampler_seq_{1};
  std::vector<uint64_t> gauge_ids_;
};

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_SHARD_SET_H_

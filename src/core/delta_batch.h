// DeltaBatch: a decode thread's private, mergeable slice of ingest.
//
// The serving layer's single-writer invariant (DESIGN.md §5c) allows
// exactly one thread to mutate a shard's filter seqlock and sketch
// cells, so adding decode threads cannot speed up ingest by touching
// the shard directly. A DeltaBatch is the indirection that removes the
// shared state from the hot path: each decode thread accumulates its
// tuples into a private delta — a compact exact table seeded with the
// keys that were filter-resident when the delta epoch opened (the *head
// snapshot*) plus a same-geometry tail sketch for everything else — and
// the shard's owner thread folds the whole delta in at a batch boundary
// via ASketch::ApplyDelta. No locks, no atomics, no seqlock sections on
// the per-tuple path; the owner pays one dense sketch merge plus at
// most |head| filter updates per delta.
//
// The head is not limited to the snapshot: any key may *claim* a free
// slot on first touch, up to a load cap. A skewed stream's warm keys —
// too cold for the 32-entry filter, hot enough to repeat within an
// epoch — then aggregate exactly too, and the owner applies each as a
// single sketch update (ApplyDelta's MissPositive path) instead of one
// per arrival. A key either aggregates fully in the head or flows fully
// to the tail; claiming never splits a key's mass.
//
// Splitting this way preserves both halves of the ASketch contract:
//   - head hits aggregate *exactly*, so the filter's new_count keeps
//     its exact (new - old) slack after the merge — the two-counter
//     protocol never sees sketch noise for a stably-hot key;
//   - tail mass lands in sketch cells via MergeFrom, whose cell-wise
//     (CountMin) or bucket-saturating (SalsaCountMin) addition keeps
//     every estimate one-sided under any merge order, and claimed keys
//     reach the sketch through one aggregate update — identical cell
//     sums under the plain (linear) CountMin policy, one-sided under
//     SALSA's saturating buckets (ALGORITHMS.md §7).
//
// The head snapshot is advisory, not authoritative: the live filter may
// have evicted or admitted keys since the epoch opened. ApplyDelta
// handles both races conservatively (head entries re-probe the live
// filter; live entries missing from the snapshot are inflated by the
// delta tail's estimate) — see asketch.h.
//
// Admission: tail mass merges into anonymous sketch cells, so the owner
// cannot discover newly-hot keys from the merge alone — without help,
// a filter that starts empty would stay empty forever in delta mode and
// every tuple would pay the full sketch-update price. First-touch
// claims are the primary fix: a cold stream's hot keys claim head slots
// immediately and reach the filter through ApplyDelta's MissPositive
// free-slot / exchange policy on the very first merge. As a safety net
// for when the head table saturates before the hot set is covered, the
// delta also runs a small Misra–Gries summary over its tail keys (the
// classic frequent-items guarantee: any key with more than
// tail/(capacity+1) of the delta's tail occurrences is monitored) and
// ApplyDelta offers the monitored keys to the same admission policy
// after the merge.

#ifndef ASKETCH_CORE_DELTA_BATCH_H_
#define ASKETCH_CORE_DELTA_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/sketch/frequency_estimator.h"
#include "src/sketch/misra_gries.h"

namespace asketch {

template <FrequencyEstimatorType SketchT>
class DeltaBatch {
 public:
  /// Builds a delta keyed on `head_keys` (the filter contents at epoch
  /// start) with `tail` as the miss sketch. `tail` must be built from
  /// the owner sketch's own config so MergeFrom's CompatibleWith
  /// precondition holds at apply time; use ASketch::MakeDeltaBatch.
  /// `candidate_capacity` sizes the admission summary — the filter's
  /// capacity is the natural choice (a full replacement set per epoch).
  /// `head_slots` lower-bounds the head table size, giving first-touch
  /// claims room beyond the snapshot (kDefaultHeadSlots below); 0
  /// disables claiming entirely (snapshot-only head — the routing the
  /// head-drift tests pin).
  DeltaBatch(std::span<const item_t> head_keys, SketchT tail,
             uint32_t candidate_capacity = 8,
             uint32_t head_slots = kDefaultHeadSlots)
      : tail_(std::move(tail)),
        candidates_(std::max<uint32_t>(1, candidate_capacity)) {
    // Open-addressed table, bounded load: the snapshot occupies at most
    // half the table, and first-touch claims stop at kClaimLoadNum/Den
    // so probe sequences stay short — a head hit must be cheaper than
    // the SIMD filter scan plus seqlock write section it replaces.
    uint32_t capacity = 8;
    while (capacity < 2 * head_keys.size() + 1) capacity *= 2;
    capacity = std::max(capacity, head_slots);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    claim_limit_ = head_slots == 0
                       ? 0
                       : std::max<uint32_t>(
                             static_cast<uint32_t>(head_keys.size()),
                             capacity / kClaimLoadDen * kClaimLoadNum);
    for (const item_t key : head_keys) {
      Slot& slot = ProbeSlot(key);
      if (!slot.used) {
        slot.used = true;
        slot.key = key;
        ++head_size_;
      }
    }
  }

  /// Accumulates one tuple: exact aggregation for keys with a head slot.
  /// The head is the snapshot plus any key that claims a free slot on
  /// first touch (until the load cap) — a key either aggregates fully in
  /// the head or flows fully to the tail, never split. Misses are staged
  /// and periodically flushed through the tail's batched update path
  /// (prepared buckets / prefetch for free on backends that have them).
  /// The only mutable state touched is this delta's — safe without
  /// synchronization from any thread.
  void Add(item_t key, count_t weight) {
    if (weight == 0) return;
    ++tuple_count_;
    Slot& slot = ProbeSlot(key);
    if (slot.used) {
      slot.weight += weight;
      head_weight_ += weight;
      return;
    }
    if (head_size_ < claim_limit_) {
      slot.used = true;
      slot.key = key;
      slot.weight = weight;
      ++head_size_;
      head_weight_ += weight;
      return;
    }
    tail_weight_ += weight;
    misses_.push_back(Tuple{key, weight});
    if (misses_.size() >= kMissFlushBatch) FlushMisses();
  }

  /// Batched Add.
  void AddBatch(std::span<const Tuple> tuples) {
    for (const Tuple& t : tuples) Add(t.key, t.value);
    FlushMisses();
  }

  /// Drains staged misses into the tail sketch and candidate summary.
  /// ApplyDelta calls this before reading tail(); callers that hand the
  /// delta to another thread flush first so the receiver sees a sealed
  /// tail.
  void FlushMisses() {
    if (misses_.empty()) return;
    tail_.UpdateBatch(misses_);
    for (const Tuple& t : misses_) candidates_.Update(t.key, t.value);
    tail_updates_ += misses_.size();
    misses_.clear();
  }

  /// Whether `key` aggregated in this delta's head — a snapshot member
  /// or a first-touch claim (regardless of accumulated weight). Keys for
  /// which this is true contributed nothing to the tail sketch.
  bool HeadContains(item_t key) const {
    // const_cast-free re-probe: ProbeSlot only reads until it decides.
    uint32_t index = (key * 2654435761u) & mask_;
    for (;;) {
      const Slot& slot = slots_[index];
      if (!slot.used) return false;
      if (slot.key == key) return true;
      index = (index + 1) & mask_;
    }
  }

  /// Visits every head-snapshot entry that accumulated weight.
  template <typename Fn>
  void ForEachHead(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used && slot.weight != 0) fn(slot.key, slot.weight);
    }
  }

  /// Visits the heavy tail keys this delta observed — ApplyDelta's
  /// admission candidates. Counts are MG lower bounds on the key's tail
  /// occurrences within this delta. Disjoint from the head snapshot by
  /// construction (head hits never reach the tail path).
  template <typename Fn>
  void ForEachCandidate(Fn&& fn) const {
    candidates_.ForEach(std::forward<Fn>(fn));
  }

  /// Staged-miss batch size: big enough for the tail's prepared-update
  /// prefetch to pay off, small enough to stay cache-resident.
  static constexpr size_t kMissFlushBatch = 512;

  /// Default head-table size. ~24 KB per delta: large enough that the
  /// warm tail of a skewed stream aggregates exactly instead of paying a
  /// full sketch update per arrival, small enough to stay L2-resident
  /// next to the delta tail.
  static constexpr uint32_t kDefaultHeadSlots = 1024;

  /// First-touch claims stop at 5/8 load so miss probes stay short.
  static constexpr uint32_t kClaimLoadNum = 5;
  static constexpr uint32_t kClaimLoadDen = 8;

  bool Empty() const { return tuple_count_ == 0; }
  uint64_t tuple_count() const { return tuple_count_; }
  uint64_t head_weight() const { return head_weight_; }
  uint64_t tail_weight() const { return tail_weight_; }
  uint64_t tail_updates() const { return tail_updates_; }
  uint32_t head_size() const { return head_size_; }
  /// The tail sketch. Only complete after FlushMisses().
  const SketchT& tail() const { return tail_; }

 private:
  struct Slot {
    item_t key = 0;
    uint64_t weight = 0;
    bool used = false;
  };

  /// Linear probe to `key`'s slot or the first free slot. The table
  /// never grows and claims stop at kClaimLoadNum/Den load, so a miss
  /// always terminates at an unused slot.
  Slot& ProbeSlot(item_t key) {
    uint32_t index = (key * 2654435761u) & mask_;
    for (;;) {
      Slot& slot = slots_[index];
      if (!slot.used || slot.key == key) return slot;
      index = (index + 1) & mask_;
    }
  }

  std::vector<Slot> slots_;
  uint32_t mask_ = 0;
  uint32_t head_size_ = 0;
  uint32_t claim_limit_ = 0;  ///< head_size_ cap for first-touch claims
  SketchT tail_;
  MisraGries candidates_;      ///< heavy tail keys, offered for admission
  std::vector<Tuple> misses_;  ///< staged tail tuples, <= kMissFlushBatch
  uint64_t tuple_count_ = 0;
  uint64_t head_weight_ = 0;
  uint64_t tail_weight_ = 0;
  uint64_t tail_updates_ = 0;
};

}  // namespace asketch

#endif  // ASKETCH_CORE_DELTA_BATCH_H_

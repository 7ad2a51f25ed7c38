// Shared pieces of the asketchd end-to-end benchmark (perfbench/):
// workload table, span recorder, metric list and small statistics
// helpers. The end-to-end run lives in e2e.cc, the in-process per-layer
// measurements in layers.cc.

#ifndef ASKETCH_PERFBENCH_BENCH_H_
#define ASKETCH_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace perfbench {

using asketch::item_t;
using asketch::Tuple;

/// Server and client shape shared by the E2E run and the layer timings.
inline constexpr uint32_t kShards = 2;
inline constexpr uint32_t kIngestConnections = 2;
inline constexpr uint32_t kBatchTuples = 8192;  ///< tuples per UPDATE
inline constexpr size_t kQueryBatchKeys = 64;
inline constexpr uint32_t kTopK = 100;

/// One traffic mix. Every workload runs asketchd with 2 shards, 2 ingest
/// connections and 1 reader connection; they differ in key distribution,
/// per-shard synopsis size, ingest mode and ingest pacing.
struct WorkloadSpec {
  const char* name;
  double skew;
  uint32_t keys;
  uint64_t shard_bytes;
  bool delta;
  /// Open-loop ingest rate in tuples/s across both connections; 0 runs
  /// the ingest connections closed loop (as fast as acks allow).
  double ingest_rate;
  /// Reader requests/s, alternating QUERY_BATCH(64 keys) and TOPK(100).
  double query_rate;
  /// STATS polls/s on a separate connection (freshness).
  double stats_rate;
};

const WorkloadSpec* FindWorkload(const std::string& name);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Batch id of the `index`-th pool batch of ingest connection `conn`:
/// the same id tags the batch's client send in the E2E run and its
/// encode, decode, shard-set ingest and owner apply in process.
inline uint64_t BatchId(uint32_t conn, uint64_t index) {
  return (static_cast<uint64_t>(conn + 1) << 32) | index;
}

/// A completed span. `name` has static storage duration.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 = root
  uint64_t batch_id = 0;  ///< shared by every span of one UPDATE batch
  uint32_t tid = 0;
};

/// Spans of one benchmark thread, kept in memory until the run ends.
/// Span ids are unique across threads: the thread id sits in the top
/// bits. Not thread-safe; one recorder per thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint32_t tid) : tid_(tid) {}

  /// Opens a span as a child of the innermost open span.
  void Begin(const char* name, uint64_t batch_id = 0) {
    Span span;
    span.name = name;
    span.id = (static_cast<uint64_t>(tid_) << 40) | ++next_id_;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.batch_id = batch_id;
    span.tid = tid_;
    open_.push_back(spans_.size());
    spans_.push_back(span);
    spans_.back().start_ns = NowNs();
  }

  /// Closes the innermost open span.
  void End() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  uint32_t tid_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Closes a span on scope exit; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             uint64_t batch_id = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(name, batch_id);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Writes spans as Chrome trace_event JSON (complete "X" events, µs).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
inline double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Inputs of the in-process per-layer measurements: the same generated
/// traffic and query keys the E2E run sends, plus the server's shape.
struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  std::span<const Tuple> pools[kIngestConnections];
  std::span<const item_t> query_keys;
};

/// Recorders MeasureLayers uses, from `first_recorder` on.
inline constexpr size_t kLayerRecorders = 4;

/// Times each layer's public calls in process and appends the layer
/// metrics (net.protocol.*, net.shard_set.*, core.*, filter.*, sketch.*)
/// to `metrics`. Spans go to (*recorders)[first_recorder ...], one
/// recorder per thread. Returns false, with a message on stderr, if a
/// layer returned a wrong answer.
bool MeasureLayers(const LayerInputs& inputs, size_t first_recorder,
                   std::vector<SpanRecorder>* recorders,
                   std::vector<Metric>* metrics);

}  // namespace perfbench

#endif  // ASKETCH_PERFBENCH_BENCH_H_

// asketch_e2e — end-to-end benchmark of asketchd.
//
//   asketch_e2e --workload NAME --seed N --seconds S --trace 0|1
//               --asketchd PATH --out-dir DIR
//               [--git-sha SHA] [--source-hash HASH]
//               [--scale F] [--break-check one_sided|ingested|conservation]
//
// Starts asketchd (2 shards) as its own process and drives it from this
// one process: 2 ingest connections and 2 read connections (QUERY_BATCH +
// TOPK, and STATS polls), one thread each, so at most 4 threads. Every
// input (tuples and query keys) is generated from --seed before any clock
// starts; asketchd only ever sees those inputs.
//
// Shape of a run:
//   1. set-up, repeated kSetups times on a fresh server each time: exec
//      asketchd, HELLO on every connection, send a warm-up pass and wait
//      for its barrier. setup_s is the median; the last server is kept.
//   2. the measured phase: --seconds split into rounds. In a round both
//      ingest connections send until the round's deadline, then each
//      sends Flush() + DIGEST (the barrier that makes "applied" mean
//      query-visible). The readers run open-loop schedules across all
//      rounds, each request timed from when it was due. Per-round figures
//      are reported as medians; wall-clock figures per steal-free second
//      (see CpuJiffies).
//   3. checks after the last barrier: estimates one-sided against the
//      exact counts this process sent, STATS.ingested equal to the tuples
//      sent, filtered_weight + sketch_weight equal to the weight sent.
//      Any failure counts into `failed` and makes the run incorrect.
//
// With --trace 1 the rounds alternate untraced/traced; traced rounds
// record spans around every client call, then the in-process per-layer
// measurements run (layers.cc) and all spans are written as a Chrome
// trace to DIR/trace-<workload>.json.
//
// stdout: one "fingerprint" JSON line (machine, build, asketchd argv,
// seed, diagnostics), then the result JSON as the last line.
// --scale shrinks every input for the benchmark's self-test;
// --break-check corrupts one expected value so the self-test can show
// that the matching check fails the run. Exit code 0 only when correct.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/random.h"
#include "src/net/client.h"
#include "src/workload/stream_generator.h"
#include "src/workload/zipf.h"

extern char** environ;

namespace perfbench {

using asketch::Rng;
namespace net = asketch::net;

namespace {

// Read-heavy ingest runs open loop at about a third of what asketchd
// sustained closed loop for the same traffic (Zipf 1.1, 1M keys, 128 KiB
// per shard) when this benchmark was written: 42-45M tuples/s on a 4-vCPU
// Xeon VM. Reads, not ingest, then dominate the server.
constexpr double kReadHeavyIngestRate = 14e6;

// Reads run on two connections, each with its own open-loop schedule:
// QUERY_BATCH/TOPK alternate on one, STATS polls (freshness) run on the
// other. STATS takes every shard mutex and waits out the owner's batch
// applies, so on a shared connection its stalls would land on the queries
// queued behind it. Rates stay well below what the reader sustains on a
// busy box, where a 100-300 us service time would otherwise grow a
// backlog without bound: 1000 requests/s on the ingest workloads and 3000
// on read-heavy, enough for a p99 with 10 samples beyond it in every 2 s
// round. STATS polls run at 500/s, and at 100/s on ingest-tail, where a
// STATS waits out 32 MiB sketch applies (~3 ms each).
const WorkloadSpec kWorkloads[] = {
    {"ingest-head", 1.5, 8u << 20, 128u << 10, false, 0, 1000, 500},
    {"ingest-tail", 1.1, 8u << 20, 32u << 20, false, 0, 1000, 100},
    {"ingest-head-delta", 1.5, 8u << 20, 128u << 10, true, 0, 1000, 500},
    {"read-heavy", 1.1, 1u << 20, 128u << 10, false, kReadHeavyIngestRate,
     3000, 500},
};

constexpr uint64_t kPoolTuples = 4u << 20;    // per connection, cycled
constexpr uint64_t kWarmupTuples = 8u << 20;  // per connection
constexpr size_t kQueryPoolKeys = 64 * 2048;
constexpr int kSetups = 5;
constexpr int kRounds = 10;  // traced runs alternate untraced / traced
constexpr size_t kHeadKeys = 1000;
constexpr size_t kCheckChunk = net::kMaxQueryKeys;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string asketchd;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
  double scale = 1.0;
  std::string break_check;
};

/// `text` as a JSON string literal (control characters become spaces).
std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

template <typename T, typename Fn>
std::string JsonList(const std::vector<T>& items, Fn&& format) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += format(items[i]);
  }
  out += "]";
  return out;
}

// ---------------------------------------------------------------------
// asketchd as a child process.
// ---------------------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` and waits for its "listening" line. `exec_ns` gets
  /// the clock just before the spawn.
  std::optional<std::string> Start(const std::vector<std::string>& argv,
                                   uint64_t* exec_ns) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return std::string("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    *exec_ns = NowNs();
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return "cannot exec " + argv[0] + ": " + std::strerror(rc);
    }
    std::string output;
    const uint64_t deadline = NowNs() + 30'000'000'000ull;
    const std::string marker = "asketchd listening on 127.0.0.1:";
    for (;;) {
      const size_t at = output.find(marker);
      if (at != std::string::npos &&
          output.find(' ', at + marker.size()) != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::strtoul(output.c_str() + at + marker.size(), nullptr, 10));
        return std::nullopt;
      }
      const uint64_t now = NowNs();
      if (now >= deadline) return std::string("asketchd did not start");
      pollfd pfd{out_fd_, POLLIN, 0};
      const int ready =
          poll(&pfd, 1, static_cast<int>((deadline - now) / 1000000 + 1));
      if (ready < 0 && errno != EINTR) return std::string("poll failed");
      if (ready <= 0) continue;
      char buffer[512];
      const ssize_t n = read(out_fd_, buffer, sizeof(buffer));
      if (n <= 0) return std::string("asketchd exited during start-up");
      output.append(buffer, static_cast<size_t>(n));
    }
  }

  /// SIGTERM (graceful drain), escalating to SIGKILL after 10 s; always
  /// reaps the child.
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      const uint64_t deadline = NowNs() + 10'000'000'000ull;
      int status = 0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() >= deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// User + system CPU of `pid` in ns, from /proc/<pid>/stat.
uint64_t ProcessCpuNs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const size_t paren = line.rfind(')');
  if (paren == std::string::npos) return 0;
  std::istringstream fields(line.substr(paren + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<uint64_t>(static_cast<double>(utime + stime) * 1e9 /
                               ticks);
}

// On a shared VM the hypervisor steals 1-28% of the vCPUs' time, for
// minutes at a time, and wall-clock figures move with it: ingest-head ran
// 78.6M tuples/s at 2% steal and 57.8M/s at 21%. setup_s, closed-loop
// applied_tps and staleness are therefore reported per steal-free second:
// each interval's wall time is scaled by 1 - the share of CPU time stolen
// during it (/proc/stat). The raw figures and the steal shares are in the
// diagnostics line. read-heavy's open-loop rate is set by its schedule,
// so its applied_tps is left unscaled.

/// Aggregate CPU jiffies from /proc/stat.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuJiffies jiffies;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    in >> value;
    jiffies.total += value;
    if (field == 7) jiffies.steal = value;
  }
  return jiffies;
}

/// Share of CPU time the hypervisor stole between two readings.
double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / total;
}

/// Peak resident set (VmHWM) of `pid` in MiB.
double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------
// Generated inputs.
// ---------------------------------------------------------------------

struct Inputs {
  std::vector<Tuple> pools[kIngestConnections];
  std::vector<item_t> query_keys;
};

/// Ranks are drawn from --seed; the rank-to-key mapping is fixed per
/// workload, so every seed ranks the same keys hottest and the accuracy
/// metrics vary only with the drawn traffic, not with which keys happen
/// to collide in the sketch. Both connection pools and the query keys
/// share the distribution.
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      uint64_t pool_tuples, size_t query_keys) {
  asketch::StreamSpec stream;
  stream.num_distinct = spec.keys;
  stream.skew = spec.skew;
  const asketch::ZipfStreamGenerator mapping(stream);
  const asketch::ZipfDistribution zipf(spec.keys, spec.skew);
  Rng rng(seed);
  const auto next_key = [&] { return mapping.RankToKey(zipf.Sample(rng)); };
  Inputs inputs;
  for (auto& pool : inputs.pools) {
    pool.resize(pool_tuples);
    for (Tuple& t : pool) t = Tuple{next_key(), 1};
  }
  inputs.query_keys.resize(query_keys);
  for (item_t& key : inputs.query_keys) key = next_key();
  return inputs;
}

// ---------------------------------------------------------------------
// Connections and the per-round ingest loop.
// ---------------------------------------------------------------------

struct IngestConn {
  std::unique_ptr<net::Client> client;
  std::span<const Tuple> pool;
  uint64_t offset = 0;  ///< next pool position (pool cycles)
  uint64_t sent = 0;    ///< tuples sent on this connection, all phases
};

/// (send-complete time, generator-wide cumulative tuples sent).
using SentMark = std::pair<uint64_t, uint64_t>;

struct RoundConnResult {
  uint64_t tuples = 0;
  uint64_t first_send_ns = 0;
  uint64_t stop_ns = 0;  ///< last Update returned
  uint64_t end_ns = 0;   ///< barrier returned
  uint64_t barrier_ns = 0;
  uint64_t requests = 0;
  std::vector<double> update_us;
  std::vector<double> lag_ms;
  std::vector<SentMark> marks;
  std::string error;
};

std::atomic<uint64_t> g_total_sent{0};

std::optional<std::string> SendBatch(IngestConn& conn,
                                     RoundConnResult* result) {
  const std::span<const Tuple> batch =
      conn.pool.subspan(conn.offset, kBatchTuples);
  if (auto error = conn.client->Update(batch)) return error;
  conn.offset = (conn.offset + kBatchTuples) % conn.pool.size();
  conn.sent += kBatchTuples;
  const uint64_t total = g_total_sent.fetch_add(kBatchTuples) + kBatchTuples;
  if (result != nullptr) {
    result->tuples += kBatchTuples;
    result->marks.emplace_back(NowNs(), total);
  }
  return std::nullopt;
}

std::optional<std::string> Barrier(IngestConn& conn) {
  if (auto error = conn.client->Flush()) return error;
  net::StateDigest digest;
  return conn.client->Digest(&digest);
}

/// Sends until `deadline_ns` (closed loop, or paced at `rate` tuples/s
/// when rate > 0), then the Flush + DIGEST barrier.
void RunIngestRound(IngestConn* conn, uint32_t conn_index, uint64_t start_ns,
                    uint64_t deadline_ns, double rate, SpanRecorder* spans,
                    RoundConnResult* result) {
  const double batch_interval_ns =
      rate > 0 ? 1e9 * kBatchTuples / rate : 0.0;
  ScopedSpan round_span(spans, "net.client.round");
  result->first_send_ns = NowNs();
  for (uint64_t i = 0;; ++i) {
    if (rate > 0) {
      const uint64_t due =
          start_ns + static_cast<uint64_t>(static_cast<double>(i) *
                                           batch_interval_ns);
      if (due >= deadline_ns) break;
      uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      result->lag_ms.push_back(now > due ? (now - due) / 1e6 : 0.0);
    } else if (NowNs() >= deadline_ns) {
      break;
    }
    const uint64_t batch_id = BatchId(conn_index, conn->offset / kBatchTuples);
    const uint64_t begin = NowNs();
    std::optional<std::string> error;
    {
      ScopedSpan span(spans, "net.client.update", batch_id);
      error = SendBatch(*conn, result);
    }
    ++result->requests;
    if (error) {
      result->error = *error;
      return;
    }
    if (spans != nullptr) result->update_us.push_back((NowNs() - begin) / 1e3);
  }
  result->stop_ns = NowNs();
  {
    ScopedSpan span(spans, "net.client.barrier");
    if (auto error = Barrier(*conn)) {
      result->error = *error;
      return;
    }
  }
  result->requests += 2;
  result->end_ns = NowNs();
  result->barrier_ns = result->end_ns - result->stop_ns;
}

// ---------------------------------------------------------------------
// The open-loop readers.
// ---------------------------------------------------------------------

enum class ReadOp { kQueryBatch, kTopK, kStats };

struct StatsSample {
  uint64_t sent_ns;
  uint64_t reply_ns;
  uint64_t ingested;
};

/// A sample and the time its request was due (or sent, for staleness).
struct Timed {
  uint64_t due_ns;
  double value;
};

struct ReaderResult {
  std::vector<Timed> query_us;  ///< from due time
  std::vector<Timed> topk_us;   ///< from due time
  std::vector<double> stats_us;  ///< from due time
  std::vector<double> lag_ms;    ///< how late each request was sent
  std::vector<StatsSample> stats;
  uint64_t requests = 0;
  uint64_t failed = 0;
};

/// Sends `cycle` round-robin at `rate` requests/s from `start_ns` until
/// `stop`; each latency is measured from the request's due time, so a
/// stall also charges the requests queued behind it.
void RunReader(net::Client* client, std::vector<ReadOp> cycle,
               std::span<const item_t> query_keys, double rate,
               uint64_t start_ns, const std::atomic<bool>* stop,
               const std::atomic<bool>* tracing, SpanRecorder* spans,
               ReaderResult* result) {
  const double period_ns = 1e9 / rate;
  std::vector<uint64_t> estimates;
  std::vector<net::TopKEntry> entries;
  size_t key_offset = 0;
  for (uint64_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
    const uint64_t due =
        start_ns + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
    uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
      if (stop->load(std::memory_order_relaxed)) break;
    }
    result->lag_ms.push_back(now > due ? (now - due) / 1e6 : 0.0);
    SpanRecorder* recorder =
        tracing->load(std::memory_order_relaxed) ? spans : nullptr;
    std::optional<std::string> error;
    switch (cycle[i % cycle.size()]) {
      case ReadOp::kQueryBatch: {
        ScopedSpan span(recorder, "net.client.query_batch");
        error = client->QueryBatch(
            query_keys.subspan(key_offset, kQueryBatchKeys), &estimates);
        key_offset = (key_offset + kQueryBatchKeys) % query_keys.size();
        if (!error) result->query_us.push_back({due, (NowNs() - due) / 1e3});
        break;
      }
      case ReadOp::kTopK: {
        ScopedSpan span(recorder, "net.client.topk");
        error = client->TopK(kTopK, &entries);
        if (!error) result->topk_us.push_back({due, (NowNs() - due) / 1e3});
        break;
      }
      case ReadOp::kStats: {
        ScopedSpan span(recorder, "net.client.stats");
        net::WireStats stats;
        error = client->Stats(&stats);
        const uint64_t reply = NowNs();
        if (!error) {
          result->stats_us.push_back((reply - due) / 1e3);
          result->stats.push_back({now, reply, stats.ingested});
        }
        break;
      }
    }
    ++result->requests;
    if (error) {
      ++result->failed;
      std::fprintf(stderr, "reader: %s\n", error->c_str());
      if (!client->connected()) return;
    }
  }
}

// ---------------------------------------------------------------------
// Machine and build fingerprint.
// ---------------------------------------------------------------------

std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "";
}

bool HasFlag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string word;
  while (in >> word) {
    if (word == flag) return true;
  }
  return false;
}

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

struct Fixture {
  ServerProcess server;
  /// QUERY_BATCH + TOPK reader and STATS (freshness) poller.
  std::unique_ptr<net::Client> readers[2];
  IngestConn ingest[kIngestConnections];
};

std::unique_ptr<net::Client> Connect(uint16_t port, std::string* error) {
  net::ClientOptions options;
  options.port = port;
  // Bounded I/O so a wedged server fails the run instead of hanging it.
  options.connect_timeout_ms = 10000;
  options.read_timeout_ms = 60000;
  options.write_timeout_ms = 60000;
  auto client = std::make_unique<net::Client>();
  if (auto e = client->Connect(options)) {
    *error = *e;
    return nullptr;
  }
  return client;
}

struct SetUpTime {
  double wall_s;
  double steal_share;
};

/// exec asketchd → HELLO on every connection → warm-up applied.
/// Returns the elapsed time, or nullopt with `error` set.
std::optional<SetUpTime> SetUp(const std::vector<std::string>& argv,
                               const Inputs& inputs, uint64_t warmup_tuples,
                               Fixture* fixture, std::string* error) {
  const CpuJiffies jiffies = ReadCpuJiffies();
  uint64_t exec_ns = 0;
  if (auto e = fixture->server.Start(argv, &exec_ns)) {
    *error = *e;
    return std::nullopt;
  }
  for (auto& reader : fixture->readers) {
    reader = Connect(fixture->server.port(), error);
    if (!reader) return std::nullopt;
  }
  for (uint32_t c = 0; c < kIngestConnections; ++c) {
    IngestConn& conn = fixture->ingest[c];
    conn.client = Connect(fixture->server.port(), error);
    if (!conn.client) return std::nullopt;
    conn.pool = inputs.pools[c];
    conn.offset = 0;
    conn.sent = 0;
  }
  g_total_sent.store(0);
  std::string errors[kIngestConnections];
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kIngestConnections; ++c) {
    threads.emplace_back([&, c] {
      IngestConn& conn = fixture->ingest[c];
      for (uint64_t n = 0; n < warmup_tuples; n += kBatchTuples) {
        if (auto e = SendBatch(conn, nullptr)) {
          errors[c] = *e;
          return;
        }
      }
      if (auto e = Barrier(conn)) errors[c] = *e;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return std::nullopt;
    }
  }
  return SetUpTime{(NowNs() - exec_ns) / 1e9,
                   StealShare(jiffies, ReadCpuJiffies())};
}

void TearDown(Fixture* fixture) {
  for (auto& reader : fixture->readers) reader.reset();
  for (IngestConn& conn : fixture->ingest) conn.client.reset();
  fixture->server.Stop();
}

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Fail(const std::string& problem, uint64_t count = 1) {
    correct = false;
    failed += count;
    problems.push_back(problem);
  }
};

struct RoundSummary {
  bool traced;
  double tps;      ///< per steal-free second when ingest is closed loop
  double raw_tps;  ///< per wall-clock second
  double steal_share;
  double cpu_ns_per_tuple;
  double barrier_ms;
  uint64_t start_ns;
  uint64_t active_until_ns;  ///< first ingest connection stopped sending
};

/// Everything the measured phase observed.
struct Measurement {
  std::vector<RoundSummary> rounds;
  std::vector<SentMark> marks;
  std::vector<double> update_us;  ///< traced rounds only
  std::vector<double> ingest_lag_ms;
  ReaderResult reads[2];
};

/// The measured rounds, with both readers running across all of them.
Measurement Measure(const Options& options, const WorkloadSpec& spec,
                    const Inputs& inputs, Fixture* fixture,
                    std::vector<SpanRecorder>* recorders, Result* result) {
  const uint64_t round_ns =
      static_cast<uint64_t>(options.seconds * 1e9 / kRounds);
  const pid_t pid = fixture->server.pid();
  Measurement m;
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  const uint64_t start_ns = NowNs();
  std::thread readers[2] = {
      std::thread(RunReader, fixture->readers[0].get(),
                  std::vector<ReadOp>{ReadOp::kQueryBatch, ReadOp::kTopK},
                  std::span<const item_t>(inputs.query_keys), spec.query_rate,
                  start_ns, &stop, &tracing,
                  &(*recorders)[kIngestConnections], &m.reads[0]),
      std::thread(RunReader, fixture->readers[1].get(),
                  std::vector<ReadOp>{ReadOp::kStats},
                  std::span<const item_t>(), spec.stats_rate, start_ns,
                  &stop, &tracing, &(*recorders)[kIngestConnections + 1],
                  &m.reads[1])};
  for (int r = 0; r < kRounds && result->correct; ++r) {
    const bool traced = options.trace && r % 2 == 1;
    tracing.store(traced);
    RoundConnResult conns[kIngestConnections];
    const uint64_t cpu_before = ProcessCpuNs(pid);
    const CpuJiffies jiffies = ReadCpuJiffies();
    const uint64_t round_start = NowNs();
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kIngestConnections; ++c) {
      threads.emplace_back(RunIngestRound, &fixture->ingest[c], c,
                           round_start, round_start + round_ns,
                           spec.ingest_rate / kIngestConnections,
                           traced ? &(*recorders)[c] : nullptr, &conns[c]);
    }
    for (std::thread& t : threads) t.join();
    const uint64_t cpu_after = ProcessCpuNs(pid);
    RoundSummary summary{traced, 0, 0, StealShare(jiffies, ReadCpuJiffies()),
                         0,      0, round_start, UINT64_MAX};
    uint64_t tuples = 0;
    uint64_t first_ns = UINT64_MAX;
    uint64_t end_ns = 0;
    for (RoundConnResult& cr : conns) {
      result->attempted += cr.tuples + cr.requests;
      if (!cr.error.empty()) {
        result->Fail("ingest connection failed: " + cr.error);
        continue;
      }
      tuples += cr.tuples;
      first_ns = std::min(first_ns, cr.first_send_ns);
      end_ns = std::max(end_ns, cr.end_ns);
      summary.active_until_ns = std::min(summary.active_until_ns, cr.stop_ns);
      summary.barrier_ms = std::max(summary.barrier_ms, cr.barrier_ns / 1e6);
      m.marks.insert(m.marks.end(), cr.marks.begin(), cr.marks.end());
      m.update_us.insert(m.update_us.end(), cr.update_us.begin(),
                         cr.update_us.end());
      m.ingest_lag_ms.insert(m.ingest_lag_ms.end(), cr.lag_ms.begin(),
                             cr.lag_ms.end());
    }
    if (!result->correct || tuples == 0) break;
    summary.raw_tps = tuples / ((end_ns - first_ns) / 1e9);
    summary.tps = spec.ingest_rate > 0
                      ? summary.raw_tps
                      : summary.raw_tps / (1.0 - summary.steal_share);
    summary.cpu_ns_per_tuple =
        static_cast<double>(cpu_after - cpu_before) / tuples;
    m.rounds.push_back(summary);
  }
  tracing.store(false);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  for (const ReaderResult& reads : m.reads) {
    result->attempted += reads.requests;
    if (reads.failed != 0) result->Fail("reader requests failed", reads.failed);
  }
  return m;
}

/// Staleness of each STATS poll answered while both ingest connections
/// were still sending in an untraced round: reply time minus the time the
/// generator had sent STATS.ingested tuples (not before the round began),
/// per steal-free millisecond when `steal_free`.
std::vector<Timed> StalenessMs(Measurement& m, bool steal_free) {
  std::sort(m.marks.begin(), m.marks.end(),
            [](const SentMark& a, const SentMark& b) {
              return a.second < b.second;
            });
  std::vector<Timed> staleness;
  for (const StatsSample& sample : m.reads[1].stats) {
    for (const RoundSummary& round : m.rounds) {
      if (round.traced || sample.sent_ns < round.start_ns ||
          sample.reply_ns > round.active_until_ns) {
        continue;
      }
      const auto it = std::lower_bound(
          m.marks.begin(), m.marks.end(), sample.ingested,
          [](const SentMark& mark, uint64_t v) { return mark.second < v; });
      const uint64_t sent_at = std::max(
          round.start_ns, it == m.marks.end() ? round.start_ns : it->first);
      const double wall_ms = sample.reply_ns > sent_at
                                 ? (sample.reply_ns - sent_at) / 1e6
                                 : 0.0;
      staleness.push_back(
          {sample.sent_ns,
           steal_free ? wall_ms * (1.0 - round.steal_share) : wall_ms});
    }
  }
  return staleness;
}

/// Pooled median, and the median over rounds of each round's p99: a
/// round owns the samples due from its start to the next round's start.
/// The per-round p99 keeps one burst of neighbour load on the machine
/// from setting a whole run's tail.
struct Tail {
  double p50;
  double p99;
  std::vector<double> round_p50s;
};

Tail Summarize(const std::vector<Timed>& samples,
               const std::vector<RoundSummary>& rounds) {
  std::vector<double> all;
  std::vector<std::vector<double>> per_round(rounds.size());
  for (const Timed& sample : samples) {
    all.push_back(sample.value);
    for (size_t r = rounds.size(); r-- > 0;) {
      if (sample.due_ns >= rounds[r].start_ns) {
        per_round[r].push_back(sample.value);
        break;
      }
    }
  }
  std::vector<double> p99s;
  std::vector<double> p50s;
  for (std::vector<double>& values : per_round) {
    if (values.empty()) continue;
    p99s.push_back(Percentile(values, 0.99));
    p50s.push_back(Percentile(values, 0.50));
  }
  return {Percentile(all, 0.50), Median(p99s), p50s};
}

struct Accuracy {
  double are_head = 0;
  double are_tail = 0;
  uint64_t inline_applied = 0;
  uint64_t ingested = 0;
};

/// The post-barrier checks: STATS identities and one-sided estimates
/// against exact counts rebuilt from what each connection sent.
Accuracy CheckAnswers(const Options& options, const WorkloadSpec& spec,
                      Fixture* fixture, Result* result) {
  Accuracy accuracy;
  uint64_t total_sent = 0;
  for (const IngestConn& conn : fixture->ingest) total_sent += conn.sent;
  std::vector<uint64_t> truth(spec.keys, 0);
  for (const IngestConn& conn : fixture->ingest) {
    const uint64_t full = conn.sent / conn.pool.size();
    const uint64_t rest = conn.sent % conn.pool.size();
    for (size_t i = 0; i < conn.pool.size(); ++i) {
      truth[conn.pool[i].key] +=
          full * conn.pool[i].value + (i < rest ? conn.pool[i].value : 0);
    }
  }
  // The 1000 truly most frequent keys, then every other key sent. A
  // sample of 10,000 tail keys left are_tail resting on a handful of
  // collisions with the 32 MiB ingest-tail sketch (spread ~1 between
  // seeds); all keys cost a few QUERY_BATCH requests.
  std::vector<item_t> seen;
  for (item_t key = 0; key < spec.keys; ++key) {
    if (truth[key] != 0) seen.push_back(key);
  }
  const size_t head_n = std::min(kHeadKeys, seen.size());
  const auto hotter = [&](item_t a, item_t b) {
    return truth[a] != truth[b] ? truth[a] > truth[b] : a < b;
  };
  std::nth_element(seen.begin(), seen.begin() + head_n, seen.end(), hotter);
  const size_t tail_n = seen.size() - head_n;
  std::vector<uint64_t> expected(seen.size());
  for (size_t i = 0; i < seen.size(); ++i) expected[i] = truth[seen[i]];
  uint64_t expected_ingested = total_sent;
  uint64_t expected_weight = total_sent;  // every tuple has weight 1
  if (options.break_check == "one_sided") expected[0] += 1ull << 40;
  if (options.break_check == "ingested") expected_ingested += 1;
  if (options.break_check == "conservation") expected_weight += 1;

  net::Client& client = *fixture->readers[0];
  net::WireStats stats;
  ++result->attempted;
  if (auto e = client.Stats(&stats)) {
    result->Fail("final STATS failed: " + *e);
    return accuracy;
  }
  accuracy.inline_applied = stats.inline_applied;
  accuracy.ingested = stats.ingested;
  result->attempted += 2;
  if (stats.shed_weight != 0) {
    result->Fail("server shed tuples", stats.shed_weight);
  }
  if (stats.ingested != expected_ingested) {
    result->Fail("STATS.ingested " + std::to_string(stats.ingested) +
                 " != tuples sent " + std::to_string(expected_ingested));
  }
  if (stats.filtered_weight + stats.sketch_weight != expected_weight) {
    result->Fail(
        "filtered_weight + sketch_weight " +
        std::to_string(stats.filtered_weight + stats.sketch_weight) +
        " != weight sent " + std::to_string(expected_weight));
  }
  std::vector<uint64_t> estimates;
  std::vector<uint64_t> chunk;
  for (size_t begin = 0; begin < seen.size(); begin += kCheckChunk) {
    const size_t n = std::min(kCheckChunk, seen.size() - begin);
    ++result->attempted;
    if (auto e = client.QueryBatch(
            std::span<const item_t>(seen.data() + begin, n), &chunk)) {
      result->Fail("check QUERY_BATCH failed: " + *e);
      return accuracy;
    }
    estimates.insert(estimates.end(), chunk.begin(), chunk.end());
  }
  result->attempted += seen.size();
  uint64_t violations = 0;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (estimates[i] < expected[i]) ++violations;
    const double error = std::fabs(static_cast<double>(estimates[i]) -
                                   static_cast<double>(expected[i])) /
                         static_cast<double>(expected[i]);
    (i < head_n ? accuracy.are_head : accuracy.are_tail) += error;
  }
  accuracy.are_head /= std::max<size_t>(1, head_n);
  accuracy.are_tail /= std::max<size_t>(1, tail_n);
  if (violations != 0) {
    result->Fail("one-sided violations: " + std::to_string(violations),
                 violations);
  }
  return accuracy;
}

int Run(const Options& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  const auto scaled = [&](uint64_t tuples) {
    return std::max<uint64_t>(
        kBatchTuples, static_cast<uint64_t>(tuples * options.scale) /
                          kBatchTuples * kBatchTuples);
  };
  const Inputs inputs = GenerateInputs(*spec, options.seed,
                                       scaled(kPoolTuples), kQueryPoolKeys);
  const std::vector<std::string> argv = {
      options.asketchd,      "--port",  "0",
      "--shards",            std::to_string(kShards),
      "--bytes",             std::to_string(spec->shard_bytes),
      "--ingest-mode",       spec->delta ? "delta" : "queue"};

  // ----- set-up, kSetups times; the last server is measured -----
  Result result;
  Fixture fixture;
  std::vector<double> setup_s;      // per steal-free second
  std::vector<double> setup_wall_s;
  std::vector<double> setup_steal;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) TearDown(&fixture);
    std::string error;
    const std::optional<SetUpTime> time =
        SetUp(argv, inputs, scaled(kWarmupTuples), &fixture, &error);
    if (!time) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      TearDown(&fixture);
      return 1;
    }
    setup_s.push_back(time->wall_s * (1.0 - time->steal_share));
    setup_wall_s.push_back(time->wall_s);
    setup_steal.push_back(time->steal_share);
  }
  result.attempted += kIngestConnections * (scaled(kWarmupTuples) + 2);

  // Recorders: ingest connections, the two readers, then the layers'.
  std::vector<SpanRecorder> recorders;
  const size_t layer_recorder = kIngestConnections + 2;
  for (size_t t = 0; t < layer_recorder + kLayerRecorders; ++t) {
    recorders.emplace_back(static_cast<uint32_t>(t + 1));
  }
  Measurement m =
      Measure(options, *spec, inputs, &fixture, &recorders, &result);
  Accuracy accuracy;
  if (result.correct) {
    accuracy = CheckAnswers(options, *spec, &fixture, &result);
  }
  const double server_rss_mb = ProcessPeakRssMb(fixture.server.pid());
  uint64_t tuples_sent = 0;
  for (const IngestConn& conn : fixture.ingest) tuples_sent += conn.sent;
  TearDown(&fixture);

  // ----- metrics -----
  std::vector<double> untraced_tps;
  std::vector<double> traced_tps;
  std::vector<double> cpu;
  std::vector<double> barrier_ms;
  std::vector<double> raw_tps;
  std::vector<double> round_steal;
  for (const RoundSummary& r : m.rounds) {
    (r.traced ? traced_tps : untraced_tps).push_back(r.tps);
    if (!r.traced) cpu.push_back(r.cpu_ns_per_tuple);
    if (r.traced) barrier_ms.push_back(r.barrier_ms);
    raw_tps.push_back(r.raw_tps);
    round_steal.push_back(r.steal_share);
  }
  const std::vector<Timed> staleness_ms = StalenessMs(m, true);
  const Tail raw_staleness = Summarize(StalenessMs(m, false), m.rounds);
  std::vector<double> read_lag = m.reads[0].lag_ms;
  read_lag.insert(read_lag.end(), m.reads[1].lag_ms.begin(),
                  m.reads[1].lag_ms.end());
  const double read_lag_p99 = Percentile(read_lag, 0.99);
  const double ingest_lag_p99 = Percentile(m.ingest_lag_ms, 0.99);

  // Gated end-to-end metrics with --trace 0. The other end-to-end figures
  // go with the per-layer metrics (--trace 1), because across seeds on a
  // shared 4-vCPU VM they spread wider than any usable bound: read
  // latencies by 0.5-1.3 (hypervisor steal of 1-28% during a run moves
  // read-heavy's per-round p50 between 140 and 1400 us; 10-20 ms
  // scheduling stalls set the p99s), server_rss_mb by ~0.3 in delta mode
  // (the peak depends on how many deltas were queued at once); are_head
  // is exactly 0 when no top key collides (ingest-tail) and failed_ratio
  // is 0 on every correct run (failed / attempted also heads the result).
  const Tail staleness = Summarize(staleness_ms, m.rounds);
  const Tail query = Summarize(m.reads[0].query_us, m.rounds);
  const Tail topk = Summarize(m.reads[0].topk_us, m.rounds);
  std::vector<Metric>& out = result.metrics;
  if (!options.trace) {
    out.push_back({"setup_s", Median(setup_s), "s"});
    out.push_back({"applied_tps", Median(untraced_tps), "tuples/s"});
    out.push_back({"cpu_ns_per_tuple", Median(cpu), "ns"});
    out.push_back({"staleness_p50_ms", staleness.p50, "ms"});
    out.push_back({"are_tail", accuracy.are_tail, "ratio"});
  } else {
    out.push_back({"query_p50_us", query.p50, "us"});
    out.push_back({"topk_p50_us", topk.p50, "us"});
    out.push_back({"server_rss_mb", server_rss_mb, "MiB"});
    out.push_back({"are_head", accuracy.are_head, "ratio"});
    out.push_back({"staleness_p99_ms", staleness.p99, "ms"});
    out.push_back({"query_p99_us", query.p99, "us"});
    out.push_back({"topk_p99_us", topk.p99, "us"});
    out.push_back({"net.client.update_us_p50", Percentile(m.update_us, 0.50),
                   "us"});
    out.push_back({"net.client.update_us_p99", Percentile(m.update_us, 0.99),
                   "us"});
    out.push_back({"net.client.barrier_ms", Median(barrier_ms), "ms"});
    out.push_back({"net.client.trace_overhead_ratio",
                   Median(untraced_tps) > 0
                       ? Median(traced_tps) / Median(untraced_tps)
                       : 0.0,
                   "ratio"});
    out.push_back({"net.shard_set.inline_applied_ratio",
                   accuracy.ingested > 0
                       ? static_cast<double>(accuracy.inline_applied) /
                             static_cast<double>(accuracy.ingested)
                       : 0.0,
                   "ratio"});
    out.push_back({"generator.ingest_lag_ms_p99", ingest_lag_p99, "ms"});
    out.push_back({"generator.read_lag_ms_p99", read_lag_p99, "ms"});
    if (result.correct) {
      LayerInputs layer_inputs;
      layer_inputs.spec = spec;
      for (uint32_t c = 0; c < kIngestConnections; ++c) {
        layer_inputs.pools[c] = inputs.pools[c];
      }
      layer_inputs.query_keys = inputs.query_keys;
      ++result.attempted;
      if (!MeasureLayers(layer_inputs, layer_recorder, &recorders, &out)) {
        result.Fail("an in-process layer returned a wrong answer");
      }
    }
    std::vector<Span> all;
    for (SpanRecorder& r : recorders) {
      all.insert(all.end(), r.spans().begin(), r.spans().end());
    }
    const std::string path =
        options.out_dir + "/trace-" + spec->name + ".json";
    if (!WriteChromeTrace(path, all)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }

  if (options.trace) {
    out.push_back({"failed_ratio",
                   static_cast<double>(result.failed) /
                       static_cast<double>(std::max<uint64_t>(
                           1, result.attempted)),
                   "ratio"});
  }

  // ----- fingerprint + diagnostics line, then the result -----
  const std::string flags = CpuInfoField("flags");
  std::printf(
      "{\"fingerprint\": {\"nproc\": %ld, \"cpu_model\": %s, "
      "\"avx2\": %s, \"avx512cd\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": %s, \"source_hash\": %s, "
      "\"asketchd_argv\": %s, \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d}, "
      "\"diagnostics\": {\"setup_wall_s\": %s, \"setup_steal\": %s, "
      "\"round_wall_tps\": %s, \"round_steal\": %s, "
      "\"staleness_wall_p50_ms\": %s, "
      "\"tuples_sent\": %" PRIu64 ", \"query_samples\": %zu, "
      "\"topk_samples\": %zu, \"stats_polls\": %zu, "
      "\"staleness_samples\": %zu, \"stats_p50_us\": %s, "
      "\"are_head\": %s, \"failed_ratio\": %s, "
      "\"ingest_lag_ms_p99\": %s, \"read_lag_ms_p99\": %s, "
      "\"round_query_p50_us\": %s, "
      "\"inline_applied\": %" PRIu64 ", \"problems\": %s}}\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      JsonQuote(CpuInfoField("model name")).c_str(),
      HasFlag(flags, "avx2") ? "true" : "false",
      HasFlag(flags, "avx512cd") ? "true" : "false", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, JsonQuote(options.git_sha).c_str(),
      JsonQuote(options.source_hash).c_str(),
      JsonList(argv, JsonQuote).c_str(), spec->name, options.seed,
      FormatNumber(options.seconds).c_str(), options.trace,
      JsonList(setup_wall_s, FormatNumber).c_str(),
      JsonList(setup_steal, FormatNumber).c_str(),
      JsonList(raw_tps, FormatNumber).c_str(),
      JsonList(round_steal, FormatNumber).c_str(),
      FormatNumber(raw_staleness.p50).c_str(), tuples_sent,
      m.reads[0].query_us.size(), m.reads[0].topk_us.size(),
      m.reads[1].stats.size(), staleness_ms.size(),
      FormatNumber(Median(m.reads[1].stats_us)).c_str(),
      FormatNumber(accuracy.are_head).c_str(),
      FormatNumber(static_cast<double>(result.failed) /
                   static_cast<double>(std::max<uint64_t>(1, result.attempted)))
          .c_str(),
      FormatNumber(ingest_lag_p99).c_str(),
      FormatNumber(read_lag_p99).c_str(),
      JsonList(query.round_p50s, FormatNumber).c_str(),
      accuracy.inline_applied,
      JsonList(result.problems, JsonQuote).c_str());

  std::string metrics_json;
  for (const Metric& metric : result.metrics) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonQuote(metric.name);
    metrics_json += ": {\"value\": ";
    metrics_json += FormatNumber(metric.value);
    metrics_json += ", \"unit\": ";
    metrics_json += JsonQuote(metric.unit);
    metrics_json += "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      metrics_json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: asketch_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --asketchd PATH [--out-dir DIR]\n"
               "                   [--git-sha SHA] [--source-hash HASH] "
               "[--scale F]\n"
               "                   [--break-check "
               "one_sided|ingested|conservation]\n");
  return 2;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"batch_id\":%" PRIu64 "}}",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.tid, s.id, s.parent,
                 s.batch_id);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return perfbench::Usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return perfbench::Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return perfbench::Usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--asketchd") {
      options.asketchd = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      options.git_sha = value;
    } else if (arg == "--source-hash") {
      options.source_hash = value;
    } else if (arg == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.scale > 0) || options.scale > 1) {
        return perfbench::Usage();
      }
    } else if (arg == "--break-check") {
      if (value != "one_sided" && value != "ingested" &&
          value != "conservation") {
        return perfbench::Usage();
      }
      options.break_check = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (options.workload.empty() || options.asketchd.empty() || !have_trace) {
    return perfbench::Usage();
  }
  // A reader whose server died must not kill this process with SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  return perfbench::Run(options);
}

// asketchd — the sharded ASketch network server (docs/OPERATIONS.md).
//
//   asketchd [--port P] [--shards N] [--bytes B] [--width W]
//            [--filter F] [--seed S] [--prefix PFX] [--retain R]
//            [--recover] [--checkpoint-interval-ms MS]
//            [--metrics-port MP] [--ingest-mode queue|delta]
//            [--queue-batches Q] [--overload inline|shed]
//            [--sample-rate R]
//            [--max-connections C] [--idle-timeout-ms MS]
//
// Binds 127.0.0.1:P (0 = ephemeral) and announces the bound port on
// stdout ("asketchd listening on 127.0.0.1:PORT ...", flushed) so
// scripts can scrape it. With --prefix, checkpoints go to the CKP-style
// SnapshotStore `<PFX>.<gen>.snap`; --recover adopts the newest valid
// generation before serving and fails hard when none validates. With
// --metrics-port, the obs HTTP exporter serves /metrics, /metrics.json,
// /stats, and /trace.json on a second loopback port.
//
// Every shard serves ASketch over Count-Min (net::ServingSketch), the
// paper's configuration.
//
// Signals: SIGINT/SIGTERM stop gracefully (drain + final checkpoint);
// SIGUSR1 cuts a checkpoint without stopping. Handlers only set flags;
// all work happens on the main thread.
//
// Exit codes: 2 usage error, 1 runtime failure, 0 clean shutdown.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/net/server.h"
#include "src/obs/export.h"
#include "src/obs/http_exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

using namespace asketch;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_checkpoint = 0;

void HandleStopSignal(int) { g_stop = 1; }
void HandleCheckpointSignal(int) { g_checkpoint = 1; }

// Flags are grouped by subsystem, in the same order as the flag table
// in docs/OPERATIONS.md, so the two tell the same story.
int Usage() {
  std::fprintf(
      stderr,
      "usage: asketchd [--port P] [--shards N] [--bytes B] [--width W]\n"
      "                [--filter F] [--seed S]\n"
      "                [--max-connections C] [--idle-timeout-ms MS]\n"
      "                [--ingest-mode queue|delta] [--queue-batches Q]\n"
      "                [--overload inline|shed] [--sample-rate R]\n"
      "                [--prefix PFX] [--retain R] [--recover]\n"
      "                [--checkpoint-interval-ms MS] [--metrics-port MP]\n"
      "\n"
      "serving:\n"
      "  --port P            TCP port on 127.0.0.1 (default 0 = "
      "ephemeral)\n"
      "  --shards N          keyspace shards, one worker each (default "
      "4)\n"
      "  --bytes B           per-shard synopsis budget (default "
      "131072)\n"
      "  --width W           sketch rows per shard (default 8)\n"
      "  --filter F          filter slots per shard (default 32)\n"
      "  --seed S            hash seed (default 42)\n"
      "  --max-connections C concurrent client limit (default 64)\n"
      "  --idle-timeout-ms MS close connections silent this long\n"
      "                      (default 0 = never; slow-loris defense)\n"
      "\n"
      "ingest:\n"
      "  --ingest-mode MODE  queue or delta; both select the one ingest\n"
      "                      path (per-UPDATE key combining)\n"
      "  --queue-batches Q   bounded per-shard queue length (default "
      "64)\n"
      "  --overload POLICY   inline (default) or shed\n"
      "  --sample-rate R     tail-update sampling rate in (0, 1]\n"
      "                      (default 1.0 = every update; below 1.0 the\n"
      "                      sketch tail becomes unbiased, not one-sided;\n"
      "                      the filter head stays exact)\n"
      "\n"
      "persistence:\n"
      "  --prefix PFX        snapshot store prefix (default: persistence "
      "off)\n"
      "  --retain R          snapshot generations kept (default 3)\n"
      "  --recover           adopt the newest valid snapshot before "
      "serving\n"
      "  --checkpoint-interval-ms MS  background checkpoint period "
      "(default 0 = off)\n"
      "\n"
      "telemetry:\n"
      "  --metrics-port MP   telemetry HTTP port (default: exporter "
      "off)\n");
  return 2;
}

/// Strict decimal parse; false on empty/trailing-garbage/overflow input.
bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions options;
  uint64_t metrics_port = 0;
  bool metrics_enabled = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    uint64_t n = 0;
    if (arg == "--recover") {
      options.recover = true;
    } else if (arg == "--port") {
      if (!ParseU64(value(), &n) || n > 65535) return Usage();
      options.port = static_cast<uint16_t>(n);
    } else if (arg == "--shards") {
      if (!ParseU64(value(), &n) || n < 1 || n > 256) return Usage();
      options.shards.num_shards = static_cast<uint32_t>(n);
    } else if (arg == "--bytes") {
      if (!ParseU64(value(), &n) || n < 1024) return Usage();
      options.shards.shard_config.total_bytes = n;
    } else if (arg == "--width") {
      // Count-Min stages one bucket per row in fixed 64-entry blocks
      // (CountMinConfig::kMaxWidth); reject instead of silently clamping.
      if (!ParseU64(value(), &n) || n < 1 || n > 64) return Usage();
      options.shards.shard_config.width = static_cast<uint32_t>(n);
    } else if (arg == "--filter") {
      if (!ParseU64(value(), &n) || n < 1) return Usage();
      options.shards.shard_config.filter_items = static_cast<uint32_t>(n);
    } else if (arg == "--seed") {
      if (!ParseU64(value(), &n)) return Usage();
      options.shards.shard_config.seed = n;
    } else if (arg == "--prefix") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.snapshot_prefix = v;
    } else if (arg == "--retain") {
      if (!ParseU64(value(), &n) || n < 1) return Usage();
      options.snapshot_retain = static_cast<uint32_t>(n);
    } else if (arg == "--checkpoint-interval-ms") {
      if (!ParseU64(value(), &n)) return Usage();
      options.checkpoint_interval_ms = static_cast<uint32_t>(n);
    } else if (arg == "--metrics-port") {
      if (!ParseU64(value(), &metrics_port) || metrics_port > 65535) {
        return Usage();
      }
      metrics_enabled = true;
    } else if (arg == "--queue-batches") {
      if (!ParseU64(value(), &n) || n < 1) return Usage();
      options.shards.max_queue_batches = n;
    } else if (arg == "--ingest-mode") {
      // Both values select the one ingest path; the flag still parses
      // so existing command lines (perfbench/e2e.cc's) keep working.
      const char* v = value();
      if (v == nullptr ||
          (std::strcmp(v, "queue") != 0 && std::strcmp(v, "delta") != 0)) {
        return Usage();
      }
    } else if (arg == "--sample-rate") {
      const char* v = value();
      if (v == nullptr || *v == '\0') return Usage();
      errno = 0;
      char* end = nullptr;
      const double rate = std::strtod(v, &end);
      if (errno != 0 || end == nullptr || *end != '\0') return Usage();
      options.shards.sample_rate = rate;  // range-checked by Validate()
    } else if (arg == "--overload") {
      const char* v = value();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "inline") == 0) {
        options.shards.overload = OverloadPolicy::kInlineApply;
      } else if (std::strcmp(v, "shed") == 0) {
        options.shards.overload = OverloadPolicy::kShed;
      } else {
        return Usage();
      }
    } else if (arg == "--max-connections") {
      if (!ParseU64(value(), &n) || n < 1) return Usage();
      options.max_connections = static_cast<uint32_t>(n);
    } else if (arg == "--idle-timeout-ms") {
      if (!ParseU64(value(), &n) || n > UINT32_MAX) return Usage();
      options.idle_timeout_ms = static_cast<uint32_t>(n);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (auto error = options.shards.Validate()) {
    std::fprintf(stderr, "bad configuration: %s\n", error->c_str());
    return Usage();
  }

  net::Server server(options);
  if (auto error = server.Start()) {
    std::fprintf(stderr, "asketchd: %s\n", error->c_str());
    return 1;
  }
  if (server.recovered().has_value()) {
    const net::StateDigest& d = *server.recovered();
    std::printf("recovered generation=%llu ingested=%llu digest=0x%08x\n",
                static_cast<unsigned long long>(d.generation),
                static_cast<unsigned long long>(d.ingested), d.digest);
  }

  obs::MetricsHttpServer metrics_server;
  if (metrics_enabled) {
    metrics_server.AddHandler("/metrics", "text/plain; version=0.0.4", [] {
      return obs::RenderPrometheusText(
          obs::MetricsRegistry::Global().Collect());
    });
    metrics_server.AddHandler("/metrics.json", "application/json", [] {
      return obs::RenderMetricsJson(
          obs::MetricsRegistry::Global().Collect());
    });
    metrics_server.AddHandler("/stats", "application/json", [&server] {
      const net::WireStats s = server.shards().GetStats();
      char buffer[512];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"num_shards\":%u,\"ingested\":%llu,"
                    "\"shed_weight\":%llu,\"inline_applied\":%llu,"
                    "\"filtered_weight\":%llu,\"sketch_weight\":%llu,"
                    "\"exchanges\":%llu,\"sketch_updates\":%llu,"
                    "\"memory_bytes\":%llu}",
                    s.num_shards,
                    static_cast<unsigned long long>(s.ingested),
                    static_cast<unsigned long long>(s.shed_weight),
                    static_cast<unsigned long long>(s.inline_applied),
                    static_cast<unsigned long long>(s.filtered_weight),
                    static_cast<unsigned long long>(s.sketch_weight),
                    static_cast<unsigned long long>(s.exchanges),
                    static_cast<unsigned long long>(s.sketch_updates),
                    static_cast<unsigned long long>(s.memory_bytes));
      return std::string(buffer);
    });
    metrics_server.AddHandler("/trace.json", "application/json", [] {
      return obs::RenderTraceJson(obs::TraceRegistry::Global().Collect());
    });
    if (!metrics_server.Start(static_cast<uint16_t>(metrics_port))) {
      std::fprintf(stderr, "cannot bind metrics port 127.0.0.1:%llu\n",
                   static_cast<unsigned long long>(metrics_port));
      server.Stop();
      return 1;
    }
    std::printf("metrics on http://127.0.0.1:%u/metrics\n",
                metrics_server.port());
  }

  // Announced last and flushed: scripts wait for this line, and
  // everything they might need (recovery digest, metrics port) is
  // already printed above it.
  std::printf("asketchd listening on 127.0.0.1:%u (%u shards)\n",
              server.port(), server.shards().num_shards());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
#ifdef SIGUSR1
  std::signal(SIGUSR1, HandleCheckpointSignal);
#endif

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (g_checkpoint != 0) {
      g_checkpoint = 0;
      net::StateDigest digest;
      if (auto error = server.Checkpoint(&digest)) {
        std::fprintf(stderr, "checkpoint failed: %s\n", error->c_str());
      } else {
        std::printf(
            "checkpoint generation=%llu ingested=%llu digest=0x%08x\n",
            static_cast<unsigned long long>(digest.generation),
            static_cast<unsigned long long>(digest.ingested),
            digest.digest);
        std::fflush(stdout);
      }
    }
  }

  metrics_server.Stop();
  server.Stop();  // drains and cuts the final checkpoint
  std::printf("asketchd stopped\n");
  return 0;
}

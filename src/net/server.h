// asketchd's TCP serving core: accepts loopback/LAN connections, speaks
// the framed protocol of src/net/protocol.h, and applies traffic to a
// ShardSet. One OS thread per connection (bounded by max_connections);
// UPDATE frames are fire-and-forget into the shard queues, so a
// connection thread's steady-state cost is recv + frame decode + the
// per-shard split — the sketch work happens on the shard workers.
//
// Persistence: when snapshot_prefix is set the server owns a CKP-style
// SnapshotStore. SNAPSHOT requests, the optional background checkpoint
// loop, and the final checkpoint in Stop() all funnel through
// Checkpoint(), which serializes cuts under one mutex. With
// `recover = true`, Start() refuses to serve unless a valid generation
// was adopted (matching asketch_cli's recover semantics: recovering
// from nothing is an error, not an empty sketch).
//
// Lifecycle: Start() binds (port 0 = ephemeral; read the bound port
// back from port()), Stop() stops accepting, drains connection threads,
// and cuts a final checkpoint. Both are idempotent.

#ifndef ASKETCH_NET_SERVER_H_
#define ASKETCH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/snapshot.h"
#include "src/net/protocol.h"
#include "src/net/shard_set.h"
#include "src/net/socket_io.h"

namespace asketch {
namespace net {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  uint16_t port = 0;
  ShardSetOptions shards;
  /// SnapshotStore prefix; empty disables persistence (SNAPSHOT then
  /// answers kSnapshotFailed).
  std::string snapshot_prefix;
  uint32_t snapshot_retain = 3;
  /// Adopt the newest valid snapshot generation before serving; an
  /// error if none validates.
  bool recover = false;
  /// Cut a checkpoint every this many ms; 0 disables the loop.
  uint32_t checkpoint_interval_ms = 0;
  /// Connections beyond this are accepted and immediately closed with a
  /// kShuttingDown error frame.
  uint32_t max_connections = 64;
  /// Close a connection that has been silent (no bytes received) for
  /// this long — the slow-loris defense. 0 disables the deadline.
  /// Enforced at the connection loop's 100 ms poll granularity.
  uint32_t idle_timeout_ms = 0;
  /// Syscall seam for deterministic fault injection (tests only;
  /// empty hooks dispatch straight to the real syscalls).
  SocketIoHooks io{};
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts serving. Returns an error message on failure
  /// (bind failure, unsupported platform, failed --recover).
  std::optional<std::string> Start();

  /// Graceful shutdown: stop accepting, drain each live connection
  /// (already-buffered complete frames are still handled, then the
  /// write side is shut down for a clean EOF), join connection and
  /// checkpoint threads, drain the shards, cut a final checkpoint.
  /// Idempotent.
  void Stop();

  /// Bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Cuts a checkpoint now (signal handlers in asketchd route here).
  /// Error when persistence is disabled or the save fails.
  std::optional<std::string> Checkpoint(StateDigest* digest = nullptr);

  /// Digest adopted during --recover (nullopt when recover was off).
  const std::optional<StateDigest>& recovered() const { return recovered_; }

  /// Direct shard access for in-process oracles in tests.
  ShardSet& shards() { return shards_; }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Dispatches one decoded frame; returns false when the connection
  /// must close. `hello_done`, `received` and `shed` are
  /// per-connection. `ingest_state` is the connection's reusable
  /// combining scratch (ShardSet::Ingest). `update_scratch` is the
  /// connection's reusable UPDATE decode buffer: batches are parsed
  /// into it in place, so steady-state ingest does one allocation per
  /// high-water batch size instead of one per frame.
  bool HandleFrame(int fd, const Frame& frame, bool& hello_done,
                   uint64_t& received, uint64_t& shed,
                   DeltaIngestState& ingest_state,
                   std::vector<Tuple>& update_scratch);
  void CheckpointLoop();

  ServerOptions options_;
  ShardSet shards_;
  std::unique_ptr<SnapshotStore> store_;
  std::optional<StateDigest> recovered_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{true};
  std::atomic<uint32_t> open_connections_{0};
  std::thread accept_thread_;
  std::thread checkpoint_thread_;
  std::mutex connections_mu_;  ///< guards connection_threads_
  std::vector<std::thread> connection_threads_;
  std::mutex checkpoint_mu_;  ///< serializes Checkpoint() cuts
};

}  // namespace net
}  // namespace asketch

#endif  // ASKETCH_NET_SERVER_H_

// bullfrog_serverd — the BullFrog network daemon.
//
// Serves an in-memory bullfrog::Database over the wire protocol (see
// server/protocol.h and DESIGN.md "Network service layer"). Clients:
// src/server/client.h, `bullfrog_shell --connect host:port`, and
// bench/net_throughput.
//
// Usage:
//   bullfrog_serverd [--host A.B.C.D] [--port N] [--workers N]
//                    [--queue-capacity N] [--max-request-bytes N]
//                    [--idle-timeout-ms N] [--shards N]
//                    [--data-dir PATH] [--replica-of HOST:PORT]
//
// --shards=N starts the shared-nothing sharded front end: N engine
// shards partitioned by each table's first primary-key column, with
// QUERY routed per statement, MIGRATE driven by the cross-shard
// coordinator, and ADMIN "shards" reporting per-shard migration
// progress. With --data-dir, each shard logs to its own WAL segment
// directory (shard-0/ ... shard-N-1/) and recovers it independently.
//
// --data-dir enables checkpoint-aware durability: on startup the newest
// checkpoint is loaded and only the WAL suffix past it is replayed;
// ADMIN "checkpoint" writes a new checkpoint and prunes superseded log
// segments.
//
// --replica-of starts the daemon as a read-only replica: it bootstraps
// from the primary's checkpoint, tails its committed redo log, and
// serves SELECTs (writes are rejected) — including against new-schema
// tables while the primary's lazy migration is still running. ADMIN
// "replication" reports the apply position and lag.
//
// --port 0 binds an ephemeral port. The daemon prints one line
//   bullfrog_serverd listening on HOST:PORT
// once it is accepting connections (scripts parse this for the port),
// then runs until SIGINT/SIGTERM, shutting down gracefully (in-flight
// statements drain) on either.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unistd.h>

#include "replication/checkpoint.h"
#include "replication/replica.h"
#include "replication/wal_dir.h"
#include "server/server.h"
#include "shard/sharded_database.h"

namespace {

// Written by the signal handler, read by the main loop's pipe read end.
int g_shutdown_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; best effort.
  (void)!::write(g_shutdown_pipe[1], &byte, 1);
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

int Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--host=A.B.C.D] [--port=N] [--workers=N]\n"
      "          [--queue-capacity=N] [--max-request-bytes=N]\n"
      "          [--idle-timeout-ms=N] [--shards=N] [--data-dir=PATH]\n"
      "          [--replica-of=HOST:PORT]\n",
      prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bullfrog::server::ServerConfig config;
  config.port = 7788;
  config.workers = 8;
  // Interactive daemon: start background migration work sooner than the
  // benchmark-oriented LazyConfig default.
  config.migrate_options.lazy.background_start_delay_ms = 500;
  std::string data_dir;
  std::string replica_of;
  int shards = 0;  // 0 = classic single-engine daemon.
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--host", &v)) {
      config.host = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      config.port = static_cast<uint16_t>(std::atoi(v));
    } else if (ParseFlag(argv[i], "--workers", &v)) {
      config.workers = std::atoi(v);
    } else if (ParseFlag(argv[i], "--queue-capacity", &v)) {
      config.session_queue_capacity = static_cast<size_t>(std::atoll(v));
    } else if (ParseFlag(argv[i], "--max-request-bytes", &v)) {
      config.max_request_bytes = static_cast<uint32_t>(std::atoll(v));
    } else if (ParseFlag(argv[i], "--idle-timeout-ms", &v)) {
      config.idle_timeout_ms = std::atoll(v);
    } else if (ParseFlag(argv[i], "--shards", &v)) {
      shards = std::atoi(v);
      if (shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "--data-dir", &v)) {
      data_dir = v;
    } else if (ParseFlag(argv[i], "--replica-of", &v)) {
      replica_of = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!data_dir.empty() && !replica_of.empty()) {
    std::fprintf(stderr,
                 "--data-dir and --replica-of are mutually exclusive (a "
                 "replica's durable state is the primary's)\n");
    return 2;
  }
  if (shards > 0 && !replica_of.empty()) {
    std::fprintf(stderr,
                 "--shards and --replica-of are mutually exclusive (sharded "
                 "replication is per-shard WAL segments, not a stream)\n");
    return 2;
  }

  if (::pipe(g_shutdown_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (shards > 0) {
    // Shared-nothing front end: N engine shards behind the router.
    bullfrog::shard::ShardedDatabase sdb(static_cast<size_t>(shards));
    if (!data_dir.empty()) {
      const bullfrog::Status st = sdb.OpenDurable(data_dir);
      if (!st.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    config.admin_ext = [&sdb](const std::string& command, std::string* out) {
      if (command == "checkpoint" && sdb.durable()) {
        const bullfrog::Status st = sdb.Checkpoint();
        *out = st.ok() ? "checkpoint ok" : st.ToString();
        return true;
      }
      return false;
    };
    // Counter snapshots for ADMIN "timeseries" (BF_TIMESERIES_MS knob).
    sdb.StartTimeseries();
    bullfrog::server::Server server(&sdb, config);
    const bullfrog::Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("bullfrog_serverd listening on %s:%u\n", config.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::printf("shards=%d\n", shards);
    std::fflush(stdout);
    char byte;
    while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::printf("shutting down (draining in-flight statements)\n");
    std::fflush(stdout);
    server.Stop();
    return 0;
  }

  bullfrog::Database db;

  std::unique_ptr<bullfrog::replication::WalDir> wal;
  if (!data_dir.empty()) {
    wal = std::make_unique<bullfrog::replication::WalDir>();
    bullfrog::Status st = wal->Open(data_dir);
    if (st.ok()) st = wal->Recover(&db);
    // Replay left any unfinished lazy migration in replica mode with its
    // trackers rebuilt; this node is the primary again, so it takes the
    // migration over (background threads, lazy request paths).
    if (st.ok()) st = db.controller().TakeOwnership();
    if (st.ok()) st = wal->StartLogging(&db);
    if (!st.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<bullfrog::replication::Replica> replica;
  if (!replica_of.empty()) {
    bullfrog::replication::ReplicaOptions opts;
    opts.primary = replica_of;
    replica = std::make_unique<bullfrog::replication::Replica>(&db, opts);
    config.read_only = true;
    config.read_through = [&replica](const std::string& sql,
                                     const std::string& table) {
      return replica->ForwardRead(sql, table);
    };
  }

  config.admin_ext = [&](const std::string& command, std::string* out) {
    if (command == "replication") {
      *out = replica != nullptr
                 ? replica->StatusReport()
                 : "role=primary offset=" +
                       std::to_string((wal != nullptr ? wal->base() : 0) +
                                      db.txns().redo_log().size());
      return true;
    }
    if (command == "dump") {
      *out = bullfrog::replication::DumpForDigest(&db);
      return true;
    }
    if (command == "checkpoint" && wal != nullptr) {
      const bullfrog::Status st = wal->Checkpoint(&db);
      *out = st.ok() ? "checkpoint ok" : st.ToString();
      return true;
    }
    return false;
  };

  // Counter snapshots for ADMIN "timeseries" (BF_TIMESERIES_MS knob).
  db.StartTimeseries();
  bullfrog::server::Server server(&db, config);
  const bullfrog::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("bullfrog_serverd listening on %s:%u\n", config.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // Bootstrap after the listener is up: while the replica retries a busy
  // primary (checkpoint deferred mid-migration), ADMIN "replication" on
  // this node reports the bootstrap wait instead of refusing connections.
  if (replica != nullptr) {
    const bullfrog::Status boot = replica->Start();
    if (!boot.ok()) {
      std::fprintf(stderr, "replica bootstrap failed: %s\n",
                   boot.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  char byte;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("shutting down (draining in-flight statements)\n");
  std::fflush(stdout);
  server.Stop();
  if (replica != nullptr) replica->Stop();
  return 0;
}

// net_throughput — open-loop driver for the network service layer.
//
// Measures end-to-end wire throughput and latency against either an
// in-process Server (default; ephemeral loopback port) or an external
// bullfrog_serverd (--connect=host:port). N client threads share a
// global open-loop schedule: requests are released at the offered rate
// regardless of completions, so queueing delay shows up as latency
// rather than being absorbed by a closed loop — the same methodology as
// the paper's figure harness (harness/driver.h), here crossing a real
// TCP hop.
//
// Optionally submits a lazy migration over the wire partway through
// (--migrate-at=S) and polls ADMIN progress to completion, reporting the
// migration window alongside the throughput timeline. After the switch
// the workload transparently targets the new-schema table.
//
// Usage:
//   net_throughput [--connect=host:port] [--threads=N] [--seconds=S]
//                  [--rate=TPS] [--rows=N] [--migrate-at=S] [--seed=N]
//                  [--wal=PATH] [--update-pct=N] [--shards=N]
//
// --rate=0 (default) runs closed-loop to discover max throughput.
// --wal=PATH attaches a file sink to the in-process server's redo log so
// commits pay real durability costs through the group-commit writer
// (honors BF_WAL_FSYNC); --update-pct sets the write fraction
// (default 25), the lever for making the run fsync-bound.
// --shards=N runs the in-process server in shared-nothing sharded mode
// (N engine shards behind the router); with --wal=PATH the path is a
// directory holding one WAL segment dir per shard. Migration submits go
// through the cross-shard coordinator.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "harness/metrics.h"
#include "txn/log_file.h"
#include "harness/reporter.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_database.h"

using namespace bullfrog;
using namespace bullfrog::server;

namespace {

struct Cli {
  std::string connect;  // Empty = in-process server.
  int threads = 8;
  double seconds = 5.0;
  double rate = 0;        // Offered TPS; 0 = closed loop.
  int64_t rows = 20000;   // Table size.
  double migrate_at = -1; // Seconds into the run; <0 = no migration.
  uint64_t seed = 42;
  std::string wal;        // Redo-log sink path (in-process server only).
  int update_pct = 25;    // Percentage of ops that are UPDATEs.
  int shards = 0;         // >0 = sharded in-process server.
};

bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--connect=host:port] [--threads=N] "
               "[--seconds=S] [--rate=TPS]\n"
               "          [--rows=N] [--migrate-at=S] [--seed=N] "
               "[--wal=PATH] [--update-pct=N]\n"
               "          [--shards=N]\n",
               prog);
  return 2;
}

uint64_t NextRand(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 33;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--connect", &v)) {
      cli.connect = v;
    } else if (FlagValue(argv[i], "--threads", &v)) {
      cli.threads = std::atoi(v);
    } else if (FlagValue(argv[i], "--seconds", &v)) {
      cli.seconds = std::atof(v);
    } else if (FlagValue(argv[i], "--rate", &v)) {
      cli.rate = std::atof(v);
    } else if (FlagValue(argv[i], "--rows", &v)) {
      cli.rows = std::atoll(v);
    } else if (FlagValue(argv[i], "--migrate-at", &v)) {
      cli.migrate_at = std::atof(v);
    } else if (FlagValue(argv[i], "--seed", &v)) {
      cli.seed = std::strtoull(v, nullptr, 10);
    } else if (FlagValue(argv[i], "--wal", &v)) {
      cli.wal = v;
    } else if (FlagValue(argv[i], "--update-pct", &v)) {
      cli.update_pct = std::atoi(v);
    } else if (FlagValue(argv[i], "--shards", &v)) {
      cli.shards = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }

  // Spin up an in-process server unless pointed at an external one.
  std::unique_ptr<Database> db;
  std::unique_ptr<shard::ShardedDatabase> sharded;
  std::unique_ptr<Server> server;
  std::string addr = cli.connect;
  if (addr.empty()) {
    ServerConfig config;
    config.workers = cli.threads + 2;  // Clients + admin, no queueing.
    config.migrate_options.lazy.background_start_delay_ms = 500;
    if (cli.shards > 0) {
      sharded = std::make_unique<shard::ShardedDatabase>(
          static_cast<size_t>(cli.shards));
      if (!cli.wal.empty()) {
        // Sharded durability is a directory of per-shard WAL segments.
        Status ws = sharded->OpenDurable(cli.wal);
        if (!ws.ok()) {
          std::fprintf(stderr, "wal open: %s\n", ws.ToString().c_str());
          return 1;
        }
      }
      server = std::make_unique<Server>(sharded.get(), config);
    } else {
      db = std::make_unique<Database>();
      if (!cli.wal.empty()) {
        auto writer = std::make_shared<LogFileWriter>();
        Status ws = writer->Open(cli.wal);
        if (!ws.ok()) {
          std::fprintf(stderr, "wal open: %s\n", ws.ToString().c_str());
          return 1;
        }
        db->txns().redo_log().SetSink(
            [writer](const std::vector<LogRecord>& batch) {
              return writer->Append(batch);
            });
      }
      server = std::make_unique<Server>(db.get(), config);
    }
    Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
      return 1;
    }
    addr = "127.0.0.1:" + std::to_string(server->port());
  }
  std::printf("# net_throughput target=%s threads=%d seconds=%.1f "
              "rate=%.0f rows=%lld update_pct=%d wal=%s shards=%d\n",
              addr.c_str(), cli.threads, cli.seconds, cli.rate,
              static_cast<long long>(cli.rows), cli.update_pct,
              cli.wal.empty() ? "(none)" : cli.wal.c_str(), cli.shards);

  // Load the working table.
  const std::string table =
      "net_bench_" + std::to_string(Clock::NowMicros() & 0xffffff);
  const std::string table_v2 = table + "_v2";
  Client admin;
  Status st = admin.Connect(addr);
  if (!st.ok()) {
    std::fprintf(stderr, "connect %s: %s\n", addr.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  auto check = [](const Result<ResultSet>& r, const char* what) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
      std::exit(1);
    }
  };
  check(admin.Query("CREATE TABLE " + table +
                    " (id INT PRIMARY KEY, val INT, pad TEXT)"),
        "create");
  for (int64_t base = 0; base < cli.rows;) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int i = 0; i < 200 && base < cli.rows; ++i, ++base) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(base) + ", " +
             std::to_string(base % 1009) + ", 'xxxxxxxxxxxxxxxx')";
    }
    check(admin.Query(sql), "load");
  }

  // Open-loop schedule: ticket k is released at k/rate seconds. Workers
  // claim tickets and wait for the release time; with --rate=0 tickets
  // are always due (closed loop).
  std::atomic<uint64_t> ticket{0};
  std::atomic<uint64_t> commits{0}, errors{0}, retries{0};
  std::atomic<bool> migrated{false};
  obs::Histogram latency(CdfLatencyBounds());
  ThroughputTimeline timeline(/*max_seconds=*/3600, /*bucket_s=*/0.25);
  const Stopwatch run;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(cli.threads));
  for (int w = 0; w < cli.threads; ++w) {
    workers.emplace_back([&, w] {
      Client c;
      if (!c.Connect(addr).ok()) {
        errors.fetch_add(1);
        return;
      }
      uint64_t rng = cli.seed * 0x9e3779b97f4a7c15ull +
                     static_cast<uint64_t>(w + 1);
      while (run.ElapsedSeconds() < cli.seconds) {
        if (cli.rate > 0) {
          const uint64_t k = ticket.fetch_add(1, std::memory_order_relaxed);
          const double due = static_cast<double>(k) / cli.rate;
          if (due > cli.seconds) break;
          const double now = run.ElapsedSeconds();
          if (due > now) Clock::SleepMicros(
              static_cast<int64_t>((due - now) * 1e6));
        }
        const int64_t id =
            static_cast<int64_t>(NextRand(&rng) % static_cast<uint64_t>(
                                                      cli.rows));
        const bool post = migrated.load(std::memory_order_acquire);
        const std::string& target = post ? table_v2 : table;
        std::string sql;
        if (NextRand(&rng) % 100 >=
            static_cast<uint64_t>(cli.update_pct)) {  // Point reads.
          sql = "SELECT * FROM " + target + " WHERE id = " +
                std::to_string(id);
        } else {
          sql = "UPDATE " + target + " SET val = val + 1 WHERE id = " +
                std::to_string(id);
        }
        const Stopwatch op;
        auto r = c.Query(sql);
        if (r.ok()) {
          latency.ObserveNanos(op.ElapsedNanos());
          const double t = run.ElapsedSeconds();
          timeline.Record(t);
          commits.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsRetryable()) {
          retries.fetch_add(1, std::memory_order_relaxed);
        } else if (!post && (r.status().IsNotFound() ||
                             r.status().code() ==
                                 StatusCode::kSchemaMismatch)) {
          // Lost the race with the big-flip: the statement targeted the
          // old table after it was retired. Retry lands on the new one.
          retries.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (errors.fetch_add(1, std::memory_order_relaxed) < 5) {
            std::fprintf(stderr, "query error: %s\n",
                         r.status().ToString().c_str());
          }
        }
      }
    });
  }

  // Optional live migration over the wire.
  double migrate_submit_s = -1, migrate_done_s = -1;
  if (cli.migrate_at >= 0) {
    while (run.ElapsedSeconds() < cli.migrate_at) Clock::SleepMillis(5);
    migrate_submit_s = run.ElapsedSeconds();
    Status ms = admin.Migrate("CREATE TABLE " + table_v2 +
                              " PRIMARY KEY (id) AS SELECT id, val, "
                              "val * 2 AS dbl FROM " + table + ";\n"
                              "DROP TABLE " + table + ";");
    if (!ms.ok()) {
      std::fprintf(stderr, "migrate: %s\n", ms.ToString().c_str());
      return 1;
    }
    migrated.store(true, std::memory_order_release);
    for (;;) {
      auto p = admin.MigrationProgress();
      if (!p.ok()) {
        std::fprintf(stderr, "admin: %s\n", p.status().ToString().c_str());
        return 1;
      }
      if (*p >= 1.0) break;
      Clock::SleepMillis(10);
    }
    migrate_done_s = run.ElapsedSeconds();
  }

  for (std::thread& t : workers) t.join();
  const double elapsed = run.ElapsedSeconds();

  PrintMarker("net/migration-start", migrate_submit_s);
  PrintMarker("net/migration-end", migrate_done_s);
  PrintThroughputSeries("net", timeline.Series(),
                               timeline.bucket_seconds());
  std::printf("throughput: %.0f ops/s (%llu commits, %llu retries, "
              "%llu errors, %.2fs)\n",
              static_cast<double>(commits.load()) / elapsed,
              static_cast<unsigned long long>(commits.load()),
              static_cast<unsigned long long>(retries.load()),
              static_cast<unsigned long long>(errors.load()), elapsed);
  std::printf("%s\n", RenderLatencySummary("net/query", latency).c_str());
  if (migrate_done_s >= 0) {
    std::printf("migration: submitted at %.2fs, completed at %.2fs "
                "(%.3fs over the wire)\n",
                migrate_submit_s, migrate_done_s,
                migrate_done_s - migrate_submit_s);
  }
  auto report = admin.Admin("report");
  if (report.ok()) std::printf("---- server report ----\n%s", report->c_str());

  if (server != nullptr) server->Stop();
  return errors.load() == 0 ? 0 : 1;
}

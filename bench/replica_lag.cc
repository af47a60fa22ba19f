// replica_lag — open-loop driver for the replication subsystem.
//
// Starts an in-process primary server, a live replica bootstrapped from
// its checkpoint, and a read-only replica server. Writer threads drive
// an open-loop UPDATE workload at the offered rate against the primary
// while reader threads run closed-loop point SELECTs against the
// replica; a probe thread repeatedly commits on the primary and measures
// how long the replica takes to apply past that commit's log offset —
// the apply lag distribution (p50/p99) the ADMIN "replication" `behind`
// counter summarizes as a gauge.
//
// Optionally submits a lazy migration on the primary partway through
// (--migrate-at=S): the replica keeps serving the new schema throughout,
// which is the paper's availability story extended across nodes.
//
// Usage:
//   replica_lag [--threads=N] [--readers=N] [--seconds=S] [--rate=TPS]
//               [--rows=N] [--migrate-at=S] [--seed=N]

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
#include "harness/reporter.h"
#include "replication/replica.h"
#include "server/client.h"
#include "server/server.h"

using namespace bullfrog;
using namespace bullfrog::server;

namespace {

struct Cli {
  int threads = 4;        // Primary writers.
  int readers = 4;        // Replica readers.
  double seconds = 5.0;
  double rate = 2000;     // Offered primary write TPS; 0 = closed loop.
  int64_t rows = 10000;
  double migrate_at = -1; // Seconds into the run; <0 = no migration.
  uint64_t seed = 42;
};

bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--threads=N] [--readers=N] [--seconds=S]\n"
               "          [--rate=TPS] [--rows=N] [--migrate-at=S] "
               "[--seed=N]\n",
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
    if (FlagValue(argv[i], "--threads", &v)) {
      cli.threads = std::atoi(v);
    } else if (FlagValue(argv[i], "--readers", &v)) {
      cli.readers = std::atoi(v);
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
    } else {
      return Usage(argv[0]);
    }
  }

  // Primary.
  Database primary_db;
  ServerConfig pconfig;
  pconfig.workers = cli.threads + 4;  // Writers + probe + admin + tails.
  pconfig.migrate_options.lazy.background_start_delay_ms = 500;
  Server primary(&primary_db, pconfig);
  Status st = primary.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "primary start: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::string paddr = "127.0.0.1:" + std::to_string(primary.port());

  Client admin;
  if (!admin.Connect(paddr).ok()) return 1;
  auto check = [](const Result<ResultSet>& r, const char* what) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
      std::exit(1);
    }
  };
  const std::string table = "lag_bench";
  const std::string table_v2 = table + "_v2";
  check(admin.Query("CREATE TABLE " + table +
                    " (id INT PRIMARY KEY, val INT)"),
        "create");
  for (int64_t base = 0; base < cli.rows;) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int i = 0; i < 200 && base < cli.rows; ++i, ++base) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(base) + ", " + std::to_string(base % 1009) +
             ")";
    }
    check(admin.Query(sql), "load");
  }

  // Replica: bootstrap + read-only server.
  Database replica_db;
  replication::ReplicaOptions ropts;
  ropts.primary = paddr;
  replication::Replica replica(&replica_db, ropts);
  st = replica.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "replica start: %s\n", st.ToString().c_str());
    return 1;
  }
  ServerConfig rconfig;
  rconfig.workers = cli.readers + 2;
  rconfig.read_only = true;
  rconfig.read_through = [&replica](const std::string& sql,
                                    const std::string& t) {
    return replica.ForwardRead(sql, t);
  };
  Server rserver(&replica_db, rconfig);
  st = rserver.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "replica server start: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::string raddr = "127.0.0.1:" + std::to_string(rserver.port());

  std::printf("# replica_lag primary=%s replica=%s threads=%d readers=%d "
              "seconds=%.1f rate=%.0f rows=%lld\n",
              paddr.c_str(), raddr.c_str(), cli.threads, cli.readers,
              cli.seconds, cli.rate, static_cast<long long>(cli.rows));

  std::atomic<uint64_t> ticket{0};
  std::atomic<uint64_t> writes{0}, reads{0}, errors{0}, retries{0};
  std::atomic<bool> migrated{false};
  obs::Histogram lag_hist(CdfLatencyBounds());
  obs::Histogram read_hist(CdfLatencyBounds());
  ThroughputTimeline read_timeline(/*max_seconds=*/3600, /*bucket_s=*/0.25);
  const Stopwatch run;

  // Primary writers (open loop at --rate).
  std::vector<std::thread> writers;
  writers.reserve(static_cast<size_t>(cli.threads));
  for (int w = 0; w < cli.threads; ++w) {
    writers.emplace_back([&, w] {
      Client c;
      if (!c.Connect(paddr).ok()) {
        errors.fetch_add(1);
        return;
      }
      uint64_t rng =
          cli.seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(w + 1);
      while (run.ElapsedSeconds() < cli.seconds) {
        if (cli.rate > 0) {
          const uint64_t k = ticket.fetch_add(1, std::memory_order_relaxed);
          const double due = static_cast<double>(k) / cli.rate;
          if (due > cli.seconds) break;
          const double now = run.ElapsedSeconds();
          if (due > now)
            Clock::SleepMicros(static_cast<int64_t>((due - now) * 1e6));
        }
        const int64_t id = static_cast<int64_t>(
            NextRand(&rng) % static_cast<uint64_t>(cli.rows));
        const bool post = migrated.load(std::memory_order_acquire);
        const std::string& target = post ? table_v2 : table;
        auto r = c.Query("UPDATE " + target + " SET val = val + 1 WHERE "
                         "id = " + std::to_string(id));
        if (r.ok()) {
          writes.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsRetryable() ||
                   (!post && (r.status().IsNotFound() ||
                              r.status().code() ==
                                  StatusCode::kSchemaMismatch))) {
          retries.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (errors.fetch_add(1, std::memory_order_relaxed) < 5) {
            std::fprintf(stderr, "write error: %s\n",
                         r.status().ToString().c_str());
          }
        }
      }
    });
  }

  // Replica readers (closed loop).
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(cli.readers));
  for (int w = 0; w < cli.readers; ++w) {
    readers.emplace_back([&, w] {
      Client c;
      if (!c.Connect(raddr).ok()) {
        errors.fetch_add(1);
        return;
      }
      uint64_t rng =
          cli.seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(w + 1);
      while (run.ElapsedSeconds() < cli.seconds) {
        const int64_t id = static_cast<int64_t>(
            NextRand(&rng) % static_cast<uint64_t>(cli.rows));
        const bool post = migrated.load(std::memory_order_acquire);
        const std::string& target = post ? table_v2 : table;
        const Stopwatch op;
        auto r = c.Query("SELECT * FROM " + target + " WHERE id = " +
                         std::to_string(id));
        if (r.ok()) {
          read_hist.ObserveNanos(op.ElapsedNanos());
          read_timeline.Record(run.ElapsedSeconds());
          reads.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsRetryable() ||
                   (!post && (r.status().IsNotFound() ||
                              r.status().code() ==
                                  StatusCode::kSchemaMismatch))) {
          retries.fetch_add(1, std::memory_order_relaxed);
        } else {
          if (errors.fetch_add(1, std::memory_order_relaxed) < 5) {
            std::fprintf(stderr, "read error: %s\n",
                         r.status().ToString().c_str());
          }
        }
      }
    });
  }

  // Lag probe: commit on the primary, read the primary's log offset, and
  // time how long the replica takes to apply past it.
  std::thread probe([&] {
    Client c;
    if (!c.Connect(paddr).ok()) {
      errors.fetch_add(1);
      return;
    }
    while (run.ElapsedSeconds() < cli.seconds) {
      const bool post = migrated.load(std::memory_order_acquire);
      const std::string& target = post ? table_v2 : table;
      const Stopwatch op;
      auto w = c.Query("UPDATE " + target + " SET val = val + 1 WHERE "
                       "id = 0");
      if (!w.ok()) {
        Clock::SleepMillis(5);
        continue;
      }
      auto text = c.Admin("offset");
      if (!text.ok() || text->compare(0, 7, "offset=") != 0) {
        Clock::SleepMillis(5);
        continue;
      }
      const uint64_t target_offset =
          std::strtoull(text->c_str() + 7, nullptr, 10);
      if (replica.WaitApplied(target_offset, /*timeout_ms=*/10000)) {
        lag_hist.ObserveNanos(op.ElapsedNanos());
      } else {
        errors.fetch_add(1);
      }
      Clock::SleepMillis(10);
    }
  });

  // Optional live migration on the primary.
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
      if (!p.ok()) return 1;
      if (*p >= 1.0) break;
      Clock::SleepMillis(10);
    }
    migrate_done_s = run.ElapsedSeconds();
  }

  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  probe.join();
  const double elapsed = run.ElapsedSeconds();

  PrintMarker("replica/migration-start", migrate_submit_s);
  PrintMarker("replica/migration-end", migrate_done_s);
  PrintThroughputSeries("replica/read", read_timeline.Series(),
                        read_timeline.bucket_seconds());
  std::printf("primary writes: %.0f ops/s (%llu commits, %llu retries)\n",
              static_cast<double>(writes.load()) / elapsed,
              static_cast<unsigned long long>(writes.load()),
              static_cast<unsigned long long>(retries.load()));
  std::printf("replica reads: %.0f ops/s (%llu)\n",
              static_cast<double>(reads.load()) / elapsed,
              static_cast<unsigned long long>(reads.load()));
  std::printf("%s\n",
              RenderLatencySummary("replica/apply-lag", lag_hist).c_str());
  std::printf("%s\n", RenderLatencySummary("replica/read", read_hist).c_str());
  std::printf("replication status: %s\n", replica.StatusReport().c_str());

  rserver.Stop();
  replica.Stop();
  primary.Stop();
  return errors.load() == 0 ? 0 : 1;
}

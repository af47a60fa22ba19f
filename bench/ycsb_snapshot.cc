// YCSB-style read-heavy Zipf bench: MVCC snapshot readers racing
// read-modify-write writers and a live lazy table migration.
//
// Workload (YCSB-B shape): reader transactions do --reads-per-txn point
// lookups on Zipf(theta)-distributed keys; writer transactions bump a
// counter column on two Zipf keys under exclusive locks. One second in,
// a lazy migration (id+counter carried to a new table, old table
// dropped) is submitted, so reader lookups start pulling granules
// through migration transactions that hold exclusive locks on freshly
// copied rows.
//
// Readers take no row locks at all, so under wait-die only writers (and
// migration pulls) can die with kTxnConflict: reader aborts must be
// exactly zero, which is the acceptance assertion this binary checks
// (exit code 1 if violated).
//
// Usage: ycsb_snapshot [--rows N] [--seconds S] [--readers N]
//                      [--writers N] [--theta T] [--reads-per-txn K]
//
// Thread sweep: `ycsb_snapshot --sweep [--rows N] [--seconds S]` measures
// how the per-transaction path scales with cores instead. Each thread
// runs one-row transactions — BeginSession, one PK Select (or Update),
// Commit — on its own disjoint key range of an N-row table (default
// 100k), at 1, 2 and 4 threads, S seconds per point (default 3). It
// prints one line per point with the rate and its ratio to the 1-thread
// rate, and exits 1 if any transaction failed. No migration runs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "common/random.h"
#include "sql/engine.h"

using namespace bullfrog;

namespace {

struct Config {
  int64_t rows = 20000;
  double seconds = 4.0;
  int readers = 4;
  int writers = 2;
  double theta = 0.99;
  int reads_per_txn = 8;
  bool sweep = false;
};

struct ThreadStats {
  uint64_t commits = 0;
  uint64_t wait_die_aborts = 0;
  uint64_t switch_retries = 0;
  uint64_t other_errors = 0;
  std::vector<uint64_t> latencies_us;
};

struct Shared {
  Database* db = nullptr;
  const Config* cfg = nullptr;
  std::atomic<bool> stop{false};
  // Flips when the migration is submitted; clients then address the new
  // table (the old one is retired the instant Submit returns).
  std::atomic<bool> switched{false};
};

const char* TableName(const Shared& sh) {
  return sh.switched.load(std::memory_order_acquire) ? "user2" : "user1";
}

void ReaderLoop(Shared* sh, uint64_t seed, ThreadStats* stats) {
  ZipfGenerator zipf(static_cast<uint64_t>(sh->cfg->rows), sh->cfg->theta,
                     seed);
  while (!sh->stop.load(std::memory_order_relaxed)) {
    const std::string table = TableName(*sh);
    const uint64_t start = Clock::NowMicros();
    auto s = sh->db->BeginSession({table});
    bool ok = true;
    bool conflict = false;
    bool retired = false;
    for (int i = 0; i < sh->cfg->reads_per_txn && ok; ++i) {
      const int64_t key = static_cast<int64_t>(zipf.Next());
      auto rows = sh->db->Select(&s, table, Eq(Col("id"), LitInt(key)));
      if (!rows.ok()) {
        ok = false;
        conflict = rows.status().IsTxnConflict();
        retired = rows.status().code() == StatusCode::kSchemaMismatch;
      }
    }
    if (ok) ok = sh->db->Commit(&s).ok();
    if (!ok) {
      sh->db->Abort(&s);
      if (conflict) {
        ++stats->wait_die_aborts;
      } else if (retired) {
        // The big flip retired the old name while Submit is still
        // building the migration state; a real client re-resolves the
        // schema and retries. Not a transaction abort.
        ++stats->switch_retries;
      } else {
        ++stats->other_errors;
      }
      continue;
    }
    ++stats->commits;
    stats->latencies_us.push_back(Clock::NowMicros() - start);
  }
}

void WriterLoop(Shared* sh, uint64_t seed, ThreadStats* stats) {
  ZipfGenerator zipf(static_cast<uint64_t>(sh->cfg->rows), sh->cfg->theta,
                     seed);
  while (!sh->stop.load(std::memory_order_relaxed)) {
    const std::string table = TableName(*sh);
    auto s = sh->db->BeginSession({table});
    bool ok = true;
    bool conflict = false;
    bool retired = false;
    for (int i = 0; i < 2 && ok; ++i) {
      const int64_t key = static_cast<int64_t>(zipf.Next());
      auto n = sh->db->Update(&s, table, Eq(Col("id"), LitInt(key)),
                              [](const Tuple& t) {
                                Tuple u = t;
                                u[1] = Value::Int(t[1].AsInt() + 1);
                                return u;
                              });
      if (!n.ok()) {
        ok = false;
        conflict = n.status().IsTxnConflict();
        retired = n.status().code() == StatusCode::kSchemaMismatch;
      }
    }
    if (ok) ok = sh->db->Commit(&s).ok();
    if (!ok) {
      sh->db->Abort(&s);
      if (conflict) {
        ++stats->wait_die_aborts;
      } else if (retired) {
        ++stats->switch_retries;
      } else {
        ++stats->other_errors;
      }
      continue;
    }
    ++stats->commits;
  }
}

uint64_t Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0;
  const size_t idx = std::min(
      v->size() - 1, static_cast<size_t>(p * static_cast<double>(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return (*v)[idx];
}

struct RunResult {
  uint64_t reader_commits = 0;
  uint64_t reader_aborts = 0;
  uint64_t switch_retries = 0;
  uint64_t reader_other = 0;
  uint64_t writer_commits = 0;
  uint64_t writer_aborts = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  bool migration_complete = false;
};

RunResult Run(const Config& cfg) {
  Database db;
  sql::SqlEngine engine(&db);

  {
    auto r = engine.Execute(
        "CREATE TABLE user1 (id INT PRIMARY KEY, counter INT)");
    if (!r.ok()) {
      std::fprintf(stderr, "create: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
  }
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(cfg.rows));
  for (int64_t i = 0; i < cfg.rows; ++i) {
    rows.push_back(Tuple{Value::Int(i), Value::Int(0)});
  }
  if (!db.BulkInsert("user1", rows).ok()) std::exit(1);

  Shared sh;
  sh.db = &db;
  sh.cfg = &cfg;

  std::vector<ThreadStats> reader_stats(static_cast<size_t>(cfg.readers));
  std::vector<ThreadStats> writer_stats(static_cast<size_t>(cfg.writers));
  std::vector<std::thread> threads;
  for (int i = 0; i < cfg.readers; ++i) {
    threads.emplace_back(ReaderLoop, &sh, 7001 + i, &reader_stats[i]);
  }
  for (int i = 0; i < cfg.writers; ++i) {
    threads.emplace_back(WriterLoop, &sh, 9001 + i, &writer_stats[i]);
  }

  // Warm up on the old schema, then migrate under full load.
  Clock::SleepMillis(1000);
  MigrationController::SubmitOptions opts;
  opts.lazy.background_start_delay_ms = 500;
  Status st = engine.SubmitMigrationScript(
      "CREATE TABLE user2 PRIMARY KEY (id) AS "
      "SELECT id, counter FROM user1; DROP TABLE user1;",
      opts);
  if (!st.ok()) {
    std::fprintf(stderr, "submit: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  sh.switched.store(true, std::memory_order_release);

  const int64_t remaining_ms =
      static_cast<int64_t>(cfg.seconds * 1000.0) - 1000;
  Clock::SleepMillis(remaining_ms > 0 ? remaining_ms : 1);
  sh.stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  RunResult result;
  std::vector<uint64_t> lat;
  for (auto& s : reader_stats) {
    result.reader_commits += s.commits;
    result.reader_aborts += s.wait_die_aborts;
    result.switch_retries += s.switch_retries;
    result.reader_other += s.other_errors;
    lat.insert(lat.end(), s.latencies_us.begin(), s.latencies_us.end());
  }
  for (auto& s : writer_stats) {
    result.writer_commits += s.commits;
    result.writer_aborts += s.wait_die_aborts;
    result.switch_retries += s.switch_retries;
  }
  result.p50_us = Percentile(&lat, 0.50);
  result.p99_us = Percentile(&lat, 0.99);
  result.migration_complete = db.controller().IsComplete();
  return result;
}

/// One sweep point: `threads` clients, each on its own key range, run
/// one-row read (or update) transactions for `seconds`. Returns
/// committed transactions per second; counts failures into *failed.
double SweepPoint(Database* db, int64_t rows, int threads, bool write,
                  double seconds, uint64_t* failed) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> commits(static_cast<size_t>(threads), 0);
  std::vector<uint64_t> errors(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  const int64_t span = rows / threads;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const int64_t base = span * t;
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t key = base + (i++ % span);
        auto s = db->BeginSession({"sweep"});
        Status st;
        if (write) {
          auto n = db->Update(&s, "sweep", Eq(Col("id"), LitInt(key)),
                              [](const Tuple& row) {
                                Tuple u = row;
                                u[1] = Value::Int(row[1].AsInt() + 1);
                                return u;
                              });
          st = n.ok() && *n != 1 ? Status::Internal("row not updated")
                                 : n.status();
        } else {
          auto r = db->Select(&s, "sweep", Eq(Col("id"), LitInt(key)));
          st = r.ok() && r->size() != 1 ? Status::Internal("row not found")
                                        : r.status();
        }
        if (st.ok()) st = db->Commit(&s);
        if (st.ok()) {
          ++commits[static_cast<size_t>(t)];
        } else {
          db->Abort(&s);
          ++errors[static_cast<size_t>(t)];
        }
      }
    });
  }
  const int64_t start = Clock::NowMicros();
  Clock::SleepMillis(static_cast<int64_t>(seconds * 1000.0));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  const double elapsed =
      static_cast<double>(Clock::NowMicros() - start) / 1e6;
  uint64_t total = 0;
  for (size_t t = 0; t < commits.size(); ++t) {
    total += commits[t];
    *failed += errors[t];
  }
  return static_cast<double>(total) / elapsed;
}

int RunSweep(const Config& cfg) {
  Database db;
  sql::SqlEngine engine(&db);
  auto r =
      engine.Execute("CREATE TABLE sweep (id INT PRIMARY KEY, counter INT)");
  if (!r.ok()) {
    std::fprintf(stderr, "create: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(cfg.rows));
  for (int64_t i = 0; i < cfg.rows; ++i) {
    rows.push_back(Tuple{Value::Int(i), Value::Int(0)});
  }
  if (!db.BulkInsert("sweep", rows).ok()) return 1;
  std::printf("# ycsb_snapshot --sweep rows=%lld seconds=%.1f nproc=%u\n",
              static_cast<long long>(cfg.rows), cfg.seconds,
              std::thread::hardware_concurrency());
  std::printf("# mode threads txn_per_s vs_1_thread\n");
  uint64_t failed = 0;
  for (bool write : {false, true}) {
    double one = 0;
    for (int threads : {1, 2, 4}) {
      const double rate =
          SweepPoint(&db, cfg.rows, threads, write, cfg.seconds, &failed);
      if (threads == 1) one = rate;
      std::printf("%-5s %7d %10.0f %11.2f\n", write ? "write" : "read",
                  threads, rate, one > 0 ? rate / one : 0.0);
      std::fflush(stdout);
    }
  }
  if (failed != 0) {
    std::fprintf(stderr, "FAIL: %llu sweep transactions failed\n",
                 static_cast<unsigned long long>(failed));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = next("--rows")) {
      cfg.rows = std::atoll(v);
    } else if (const char* v = next("--seconds")) {
      cfg.seconds = std::atof(v);
    } else if (const char* v = next("--readers")) {
      cfg.readers = std::atoi(v);
    } else if (const char* v = next("--writers")) {
      cfg.writers = std::atoi(v);
    } else if (const char* v = next("--theta")) {
      cfg.theta = std::atof(v);
    } else if (const char* v = next("--reads-per-txn")) {
      cfg.reads_per_txn = std::atoi(v);
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      cfg.sweep = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  if (cfg.sweep) {
    // The sweep's own defaults, unless overridden on the command line.
    bool rows_set = false;
    bool seconds_set = false;
    for (int i = 1; i < argc; ++i) {
      rows_set |= std::strcmp(argv[i], "--rows") == 0;
      seconds_set |= std::strcmp(argv[i], "--seconds") == 0;
    }
    if (!rows_set) cfg.rows = 100000;
    if (!seconds_set) cfg.seconds = 3.0;
    return RunSweep(cfg);
  }

  std::printf(
      "# ycsb_snapshot rows=%lld theta=%.2f readers=%d writers=%d "
      "reads/txn=%d seconds=%.1f (migration submitted at t=1s)\n",
      static_cast<long long>(cfg.rows), cfg.theta, cfg.readers, cfg.writers,
      cfg.reads_per_txn, cfg.seconds);
  std::printf(
      "# reader_commits reader_waitdie reader_other writer_commits "
      "writer_waitdie switch_retries p50_us p99_us migration\n");

  const RunResult r = Run(cfg);
  std::printf("%16llu %14llu %12llu %14llu %14llu %14llu %6llu %6llu %s\n",
              static_cast<unsigned long long>(r.reader_commits),
              static_cast<unsigned long long>(r.reader_aborts),
              static_cast<unsigned long long>(r.reader_other),
              static_cast<unsigned long long>(r.writer_commits),
              static_cast<unsigned long long>(r.writer_aborts),
              static_cast<unsigned long long>(r.switch_retries),
              static_cast<unsigned long long>(r.p50_us),
              static_cast<unsigned long long>(r.p99_us),
              r.migration_complete ? "complete" : "in-flight");
  if (r.reader_aborts != 0) {
    std::fprintf(stderr,
                 "FAIL: snapshot readers took %llu wait-die aborts "
                 "(expected exactly 0)\n",
                 static_cast<unsigned long long>(r.reader_aborts));
    return 1;
  }
  return 0;
}

// ycsb_zipf: the skewed, read-heavy path (paper §4.4, Fig 10 regime).
// An embedded Database with one counter table under Zipf(0.99) access:
// three closed-loop readers run 8 point Selects per txn and one writer
// bumps 2 hot keys per txn, in the shipped read mode. Each cycle submits
// a lazy projection user<k> -> user<k+1> under that load, so reads pull
// hot granules through migration txns and contend with the writer.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bullfrog/database.h"
#include "common/random.h"
#include "obs/request_trace.h"
#include "sql/engine.h"
#include "workloads.h"

using namespace bullfrog;

namespace perfbench {
namespace {

constexpr int kReaders = 3;
constexpr int kReadsPerTxn = 8;
constexpr int kWritesPerTxn = 2;
constexpr int kRetryBudget = 1000;
constexpr uint64_t kSpanEvery = 16;
constexpr int kSetups = 15;
constexpr double kTheta = 0.99;
/// One migration per cycle; converge_s and window_tput_ratio are
/// medians over the run's cycles.
constexpr double kCycleSeconds = 2.0;

std::string TableName(int generation) {
  return "user" + std::to_string(generation);
}

MigrationController::SubmitOptions ProjectionSubmit() {
  MigrationController::SubmitOptions o;
  o.strategy = MigrationStrategy::kLazy;
  o.lazy.background_start_delay_ms = 50;
  return o;
}

struct Shared {
  Database* db = nullptr;
  const RunClock* clock = nullptr;
  std::atomic<bool> stop{false};
  /// Generation of the table clients address; bumped when a submit
  /// returns (the old table is retired at that instant).
  std::atomic<int> generation{1};
};

struct ThreadOut {
  std::vector<Sample> samples;
  uint64_t attempted = 0;   // Ops (txns) started.
  uint64_t failed = 0;
  uint64_t tries = 0;       // Txn attempts, retries included.
  uint64_t aborts = 0;      // Wait-die aborts.
  uint64_t switch_retries = 0;
};

enum class TxnOutcome { kCommitted, kConflict, kRetired, kError };

TxnOutcome Classify(const Status& s) {
  if (s.IsRetryable()) return TxnOutcome::kConflict;
  if (s.code() == StatusCode::kSchemaMismatch || s.IsNotFound()) {
    return TxnOutcome::kRetired;
  }
  return TxnOutcome::kError;
}

/// One transaction attempt over `keys`: point Selects (reader) or
/// counter bumps (writer), then Commit.
TxnOutcome Attempt(Shared* sh, bool writer, const std::vector<int64_t>& keys,
                   uint64_t op_id, SpanLog::Buffer* spans) {
  Database* db = sh->db;
  const std::string table = TableName(sh->generation.load());
  auto span = [&](const char* name, int64_t start) {
    if (spans != nullptr) spans->Add(op_id, name, 1, start, sh->clock->Now());
  };
  int64_t t = sh->clock->Now();
  auto s = db->BeginSession({table});
  span("bullfrog.BeginSession", t);
  Status st;
  for (int64_t key : keys) {
    t = sh->clock->Now();
    if (writer) {
      auto n = db->Update(&s, table, Eq(Col("id"), LitInt(key)),
                          [](const Tuple& row) {
                            Tuple u = row;
                            u[1] = Value::Int(row[1].AsInt() + 1);
                            return u;
                          });
      span("bullfrog.Update", t);
      if (!n.ok()) st = n.status();
    } else {
      auto rows = db->Select(&s, table, Eq(Col("id"), LitInt(key)));
      if (!rows.ok()) {
        st = rows.status();
      } else if (!db->snapshot_reads()) {
        // Repeatable read under 2PL: pin every row read with a shared
        // lock (snapshot reads get that consistency without locks).
        Table* tbl = db->catalog().FindTable(table);
        for (const auto& [rid, row] : *rows) {
          Tuple pinned;
          st = db->txns().Read(s.txn(), tbl, rid, &pinned,
                               /*for_update=*/false);
          if (!st.ok()) break;
        }
      }
      span("bullfrog.Select", t);
    }
    if (!st.ok()) break;
  }
  if (st.ok()) {
    t = sh->clock->Now();
    st = db->Commit(&s);
    span("bullfrog.Commit", t);
  }
  if (st.ok()) return TxnOutcome::kCommitted;
  db->Abort(&s);
  return Classify(st);
}

void ClientLoop(Shared* sh, bool writer, uint64_t seed, int64_t rows,
                SpanLog::Buffer* spans, ThreadOut* out) {
  ZipfGenerator zipf(static_cast<uint64_t>(rows), kTheta, seed);
  const int n = writer ? kWritesPerTxn : kReadsPerTxn;
  std::vector<int64_t> keys(static_cast<size_t>(n));
  Database* db = sh->db;
  while (!sh->stop.load(std::memory_order_relaxed)) {
    for (int64_t& k : keys) k = static_cast<int64_t>(zipf.Next());
    const uint64_t op_id = (seed << 32) | out->attempted;
    // Bench-side spans for 1 op in kSpanEvery (this loop runs ~10^5
    // txns/s); the engine's tracing still roots every op.
    SpanLog::Buffer* op_spans =
        out->attempted % kSpanEvery == 0 ? spans : nullptr;
    ++out->attempted;
    const int64_t start = sh->clock->Now();
    TxnOutcome o = TxnOutcome::kError;
    for (int tries = 0; tries < kRetryBudget;) {
      ++out->tries;
      o = TracedCall(spans != nullptr, db->trace_sampler(), db->profiles(),
                     writer ? "writer" : "reader",
                     [&] { return Attempt(sh, writer, keys, op_id, op_spans); });
      if (o == TxnOutcome::kConflict) {
        ++out->aborts;
        ++tries;
        // A restarted txn is younger than before and would die again on
        // the same hot key: give the holder the CPU before retrying, then
        // back off for holders that take longer.
        if (tries <= kYieldRetries) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(
              std::chrono::microseconds(10 * std::min(tries, 100)));
        }
      } else if (o == TxnOutcome::kRetired &&
                 sh->clock->Now() - start < kSwitchDeadlineNs) {
        // The old table retired before the submit returned; re-resolve
        // the table name once the switch is published.
        ++out->switch_retries;
        std::this_thread::yield();
      } else {
        break;
      }
    }
    if (o != TxnOutcome::kCommitted && out->failed < 3) {
      std::fprintf(stderr, "ycsb %s txn failed (%s)\n",
                   writer ? "writer" : "reader",
                   o == TxnOutcome::kError ? "error" : "retry budget spent");
    }
    const int64_t end = sh->clock->Now();
    if (o == TxnOutcome::kCommitted) {
      out->samples.push_back(Sample{start, end});
      if (op_spans != nullptr) op_spans->Add(op_id, "txn", 0, start, end);
    } else {
      ++out->failed;
    }
  }
}

struct Loaded {
  std::unique_ptr<Database> db;
  std::unique_ptr<sql::SqlEngine> engine;
};

Result<Loaded> Load(int64_t rows) {
  Loaded l;
  l.db = std::make_unique<Database>();
  l.engine = std::make_unique<sql::SqlEngine>(l.db.get());
  auto created = l.engine->Execute(
      "CREATE TABLE user1 (id INT PRIMARY KEY, counter INT)");
  if (!created.ok()) return created.status();
  std::vector<Tuple> tuples;
  tuples.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    tuples.push_back(Tuple{Value::Int(i), Value::Int(0)});
  }
  BF_RETURN_NOT_OK(l.db->BulkInsert("user1", tuples));
  return l;
}

}  // namespace

Report RunYcsbZipf(const Options& opts, SpanLog* spans) {
  Report r;
  const int64_t rows = opts.tiny ? 2000 : 20000;
  const CyclePlan plan =
      PlanCycles(opts.seconds, static_cast<int>(opts.seconds / kCycleSeconds));

  // Set up several times and keep the last load; setup_s is the median.
  std::vector<double> setup_s;
  Loaded loaded;
  for (int i = 0; i < kSetups; ++i) {
    loaded = Loaded{};
    const Stopwatch sw;
    auto l = Load(rows);
    setup_s.push_back(sw.ElapsedSeconds());
    if (!l.ok()) {
      r.Check("ycsb_zipf.load", false, l.status().ToString());
      return r;
    }
    loaded = std::move(*l);
  }
  Database* db = loaded.db.get();
  if (spans != nullptr) db->trace_sampler().set_every(1);

  const RunClock clock;
  Shared sh;
  sh.db = db;
  sh.clock = &clock;
  std::vector<ThreadOut> outs(kReaders + 1);
  std::vector<std::thread> threads;
  const int64_t run_start = clock.Now();
  const double cpu0 = ProcessCpuSeconds();
  for (int i = 0; i <= kReaders; ++i) {
    SpanLog::Buffer* buf = spans != nullptr ? spans->NewBuffer() : nullptr;
    const bool writer = i == kReaders;
    threads.emplace_back(ClientLoop, &sh, writer, opts.seed * 64 + i + 1, rows,
                         buf, &outs[static_cast<size_t>(i)]);
  }

  const CycleRun cycles = RunCycles(
      plan, clock, run_start,
      [&] {
        const int gen = sh.generation.load();
        const std::string from = TableName(gen), to = TableName(gen + 1);
        Status st = loaded.engine->SubmitMigrationScript(
            "CREATE TABLE " + to + " PRIMARY KEY (id) AS SELECT id, counter "
            "FROM " + from + "; DROP TABLE " + from + ";",
            ProjectionSubmit());
        if (st.ok()) sh.generation.store(gen + 1);
        return st;
      },
      [&]() -> std::optional<double> {
        if (!db->controller().IsComplete()) return std::nullopt;
        return db->controller().timeline().complete_s;
      },
      "ycsb_zipf", &r);
  sh.stop.store(true);
  for (auto& t : threads) t.join();
  const double rss_mb = PeakRssMb();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  if (!cycles.ok) return r;

  std::vector<Sample> samples;
  uint64_t writer_commits = 0, switch_retries = 0;
  for (size_t i = 0; i < outs.size(); ++i) {
    const ThreadOut& o = outs[i];
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    r.attempted += o.attempted;
    r.failed += o.failed;
    switch_retries += o.switch_retries;
    if (i == kReaders) writer_commits = o.samples.size();
  }

  // Invariants: every committed writer txn added exactly 2 to the
  // counters, and the projections kept every row.
  const std::string final_table = TableName(sh.generation.load());
  if (opts.corrupt == "ycsb_zipf.counter_sum") {
    (void)loaded.engine->Execute("UPDATE " + final_table +
                                 " SET counter = counter + 1 WHERE id = 0");
  } else if (opts.corrupt == "ycsb_zipf.row_count") {
    (void)loaded.engine->Execute("DELETE FROM " + final_table +
                                 " WHERE id = 1");
  }
  auto totals = loaded.engine->Execute("SELECT SUM(counter), COUNT(*) FROM " +
                                       final_table);
  const bool read_ok = totals.ok() && totals->rows.size() == 1;
  const int64_t sum =
      read_ok ? static_cast<int64_t>(totals->rows[0][0].AsDouble()) : -1;
  const int64_t count =
      read_ok ? static_cast<int64_t>(totals->rows[0][1].AsDouble()) : -1;
  r.Check("ycsb_zipf.counter_sum",
          read_ok && sum == static_cast<int64_t>(kWritesPerTxn * writer_commits),
          "sum=" + std::to_string(sum) + " writer_commits=" +
              std::to_string(writer_commits));
  r.Check("ycsb_zipf.row_count", read_ok && count == rows,
          "rows=" + std::to_string(count) + " expected " + std::to_string(rows));

  const WindowStats stats = ComputeWindowStats(samples, cycles.windows);
  AddEndToEnd(&r, stats, Median(cycles.converge_s), Median(setup_s), rss_mb,
              cpu_s);
  r.Note("ycsb_zipf: " + std::to_string(rows) + " rows, " +
         std::to_string(plan.cycles) + " cycles, converge_s median " +
         std::to_string(Median(cycles.converge_s)));

  if (spans != nullptr) {
    auto sel = spans->DurationsMs("bullfrog.Select");
    auto upd = spans->DurationsMs("bullfrog.Update");
    auto commit = spans->DurationsMs("bullfrog.Commit");
    uint64_t r_tries = 0, r_aborts = 0;
    for (int i = 0; i < kReaders; ++i) {
      r_tries += outs[static_cast<size_t>(i)].tries;
      r_aborts += outs[static_cast<size_t>(i)].aborts;
    }
    const ThreadOut& w = outs[kReaders];
    const auto m = ScrapeSeries(db->metrics().RenderPrometheus());
    const double total = static_cast<double>(db->profiles().aggregate_total_ns());
    r.Layer("bullfrog.select_us_p50", Percentile(&sel, 0.50) * 1e3, "us");
    r.Layer("bullfrog.update_us_p50", Percentile(&upd, 0.50) * 1e3, "us");
    r.Layer("bullfrog.commit_us_p50", Percentile(&commit, 0.50) * 1e3, "us");
    r.Layer("bullfrog.reader_abort_frac",
            static_cast<double>(r_aborts) / static_cast<double>(r_tries),
            "ratio");
    r.Layer("bullfrog.writer_abort_frac",
            static_cast<double>(w.aborts) / static_cast<double>(w.tries),
            "ratio");
    r.Layer("bullfrog.switch_retries", static_cast<double>(switch_retries),
            "count");
    r.Layer("migration.submit_ms", cycles.submit_ms_max, "ms");
    r.Layer("txn.lock_wait_frac",
            total > 0 ? static_cast<double>(db->profiles().AggregateStageNanos(
                            obs::Stage::kLockWait)) /
                            total
                      : 0,
            "ratio");
    r.Layer("txn.wait_die_kills",
            SumSeries({m}, "bullfrog_lock_wait_die_kills_total"), "count");
    r.Layer("mvcc.max_chain", SumSeries({m}, "bullfrog_mvcc_max_chain"),
            "count");
    r.Layer("mvcc.versions_freed",
            SumSeries({m}, "bullfrog_mvcc_versions_freed"), "count");
    // Every op is traced, so the engine stages cover the same ops as the
    // client-observed time.
    r.span_coverage =
        static_cast<double>(AttributedStageNanos(db->profiles())) * 1e-9 /
        stats.op_seconds;
  }
  return r;
}

}  // namespace perfbench

// wire_durable: the end-to-end path — wire client -> server session ->
// shard router -> shard engine -> group-commit fdatasync. An in-process
// Server fronts a 2-shard ShardedDatabase whose per-shard WAL segments
// live in a fresh directory (fdatasync on, the shipped default). Four
// closed-loop connections run 80% point SELECT / 20% single-row UPDATE,
// uniform by primary key; each cycle submits a lazy projection
// kv<k> -> kv<k+1> over MIGRATE through the cross-shard coordinator.
// After the run the server is stopped and a fresh 2-shard engine is
// recovered from the WAL directories alone.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/random.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/router.h"
#include "shard/sharded_database.h"
#include "workloads.h"

using namespace bullfrog;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kConnections = 4;
constexpr size_t kShards = 2;
constexpr int kUpdatePct = 20;
constexpr int kRetryBudget = 1000;
constexpr int kSetups = 7;
/// One migration per cycle; converge_s and window_tput_ratio are
/// medians over the run's cycles.
constexpr double kCycleSeconds = 2.0;

std::string TableName(int generation) {
  return "kv" + std::to_string(generation);
}

/// A running server over a durable sharded engine.
struct Deployment {
  std::unique_ptr<shard::ShardedDatabase> db;
  std::unique_ptr<server::Server> server;
  std::string addr;
  int64_t initial_sum = 0;

  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
  }
};

Status Deploy(const std::string& wal_dir, int64_t rows, uint64_t seed,
              Deployment* d) {
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  fs::create_directories(wal_dir, ec);
  d->db = std::make_unique<shard::ShardedDatabase>(kShards);
  BF_RETURN_NOT_OK(d->db->OpenDurable(wal_dir));
  server::ServerConfig config;
  config.workers = kConnections + 2;  // Clients + admin, no queueing.
  config.migrate_options.strategy = MigrationStrategy::kLazy;
  config.migrate_options.lazy.background_start_delay_ms = 50;
  d->server = std::make_unique<server::Server>(d->db.get(), config);
  BF_RETURN_NOT_OK(d->server->Start());
  d->addr = "127.0.0.1:" + std::to_string(d->server->port());

  server::Client admin;
  BF_RETURN_NOT_OK(admin.Connect(d->addr));
  auto created = admin.Query("CREATE TABLE " + TableName(1) +
                             " (id INT PRIMARY KEY, val INT, pad TEXT)");
  if (!created.ok()) return created.status();
  Rng rng(seed);
  d->initial_sum = 0;
  for (int64_t id = 0; id < rows;) {
    std::string sql = "INSERT INTO " + TableName(1) + " VALUES ";
    for (int i = 0; i < 200 && id < rows; ++i, ++id) {
      const int64_t val = static_cast<int64_t>(rng.Next() % 1000);
      d->initial_sum += val;
      if (i > 0) sql += ", ";
      sql += '(';
      sql += std::to_string(id) + ", " + std::to_string(val) +
             ", 'xxxxxxxxxxxxxxxx')";
    }
    auto inserted = admin.Query(sql);
    if (!inserted.ok()) return inserted.status();
  }
  return Status::OK();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

struct ConnOut {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked_updates = 0;
  uint64_t retries = 0;
  uint64_t switch_retries = 0;
};

struct Shared {
  std::string addr;
  const RunClock* clock = nullptr;
  int64_t rows = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> generation{1};
};

void ConnLoop(Shared* sh, uint64_t seed, SpanLog::Buffer* spans,
              ConnOut* out) {
  server::Client c;
  if (!c.Connect(sh->addr).ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  Rng rng(seed);
  while (!sh->stop.load(std::memory_order_relaxed)) {
    const int64_t id =
        static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(sh->rows));
    const bool update = rng.Next() % 100 < kUpdatePct;
    const uint64_t op_id = (seed << 32) | out->attempted;
    ++out->attempted;
    const int64_t start = sh->clock->Now();
    bool committed = false;
    for (int tries = 0; tries < kRetryBudget;) {
      const std::string table = TableName(sh->generation.load());
      const std::string sql =
          update ? "UPDATE " + table + " SET val = val + 1 WHERE id = " +
                       std::to_string(id)
                 : "SELECT * FROM " + table + " WHERE id = " +
                       std::to_string(id);
      const int64_t t = sh->clock->Now();
      auto r = c.Query(sql);
      if (spans != nullptr) {
        spans->Add(op_id, update ? "client.update" : "client.select", 1, t,
                   sh->clock->Now());
      }
      if (r.ok()) {
        committed = !update || r->affected == 1;
        break;
      }
      if (r.status().IsRetryable()) {
        ++out->retries;
        ++tries;
        std::this_thread::yield();
      } else if ((r.status().IsNotFound() ||
                  r.status().code() == StatusCode::kSchemaMismatch) &&
                 sh->clock->Now() - start < kSwitchDeadlineNs) {
        // Raced the big flip: the statement named the retired table.
        // Re-resolve once the MIGRATE reply publishes the new name.
        ++out->switch_retries;
        std::this_thread::yield();
      } else {
        if (out->failed < 3) {
          std::fprintf(stderr, "wire query failed: %s\n",
                       r.status().ToString().c_str());
        }
        break;
      }
    }
    const int64_t end = sh->clock->Now();
    if (!committed) {
      ++out->failed;
      continue;
    }
    if (update) ++out->acked_updates;
    out->samples.push_back(Sample{start, end});
    if (spans != nullptr) spans->Add(op_id, "op", 0, start, end);
  }
}

/// SUM(val) and COUNT(*) of `table` through any statement executor.
template <typename Exec>
bool ReadTotals(Exec exec, const std::string& table, int64_t* sum,
                int64_t* count) {
  auto r = exec("SELECT SUM(val), COUNT(*) FROM " + table);
  if (!r.ok() || r->rows.size() != 1) return false;
  *sum = static_cast<int64_t>(r->rows[0][0].AsDouble());
  *count = static_cast<int64_t>(r->rows[0][1].AsDouble());
  return true;
}

/// Truncates shard 0's largest WAL file (durability self-test).
void TruncateWal(const std::string& wal_dir) {
  std::error_code ec;
  fs::path biggest;
  uintmax_t size = 0;
  for (const auto& e : fs::directory_iterator(fs::path(wal_dir) / "shard-0", ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && e.file_size(ec) > size) {
      size = e.file_size(ec);
      biggest = e.path();
    }
  }
  if (!biggest.empty()) fs::resize_file(biggest, size / 2, ec);
}

}  // namespace

Report RunWireDurable(const Options& opts, SpanLog* spans) {
  Report r;
  const int64_t rows = opts.tiny ? 2000 : 20000;
  const CyclePlan plan =
      PlanCycles(opts.seconds, static_cast<int>(opts.seconds / kCycleSeconds));
  const std::string wal_dir = opts.work_dir + "/wal-wire_durable";

  // Deploy several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d.Stop();
    const Stopwatch sw;
    Status st = Deploy(wal_dir, rows, opts.seed, &d);
    setup_s.push_back(sw.ElapsedSeconds());
    if (!st.ok()) {
      r.Check("wire_durable.setup", false, st.ToString());
      d.Stop();
      return r;
    }
  }
  if (spans != nullptr) d.db->trace_sampler().set_every(1);

  server::Client admin;
  if (!admin.Connect(d.addr).ok()) {
    r.Check("wire_durable.setup", false, "admin connect");
    d.Stop();
    return r;
  }
  const RunClock clock;
  Shared sh;
  sh.addr = d.addr;
  sh.clock = &clock;
  sh.rows = rows;
  std::vector<ConnOut> outs(kConnections);
  std::vector<std::thread> conns;
  const uint64_t wal_bytes_start = DirBytes(wal_dir);
  const int64_t run_start = clock.Now();
  const double cpu0 = ProcessCpuSeconds();
  for (int i = 0; i < kConnections; ++i) {
    SpanLog::Buffer* buf = spans != nullptr ? spans->NewBuffer() : nullptr;
    conns.emplace_back(ConnLoop, &sh, opts.seed * 64 + i + 1, buf,
                       &outs[static_cast<size_t>(i)]);
  }

  double skew_s_max = 0;
  const CycleRun cycles = RunCycles(
      plan, clock, run_start,
      [&] {
        const int gen = sh.generation.load();
        const std::string from = TableName(gen), to = TableName(gen + 1);
        Status st = admin.Migrate(
            "CREATE TABLE " + to + " PRIMARY KEY (id) AS SELECT id, val, pad "
            "FROM " + from + "; DROP TABLE " + from + ";");
        if (st.ok()) sh.generation.store(gen + 1);
        return st;
      },
      [&]() -> std::optional<double> {
        if (!d.db->coordinator().IsComplete()) return std::nullopt;
        // The last shard to finish completes the migration.
        double first = -1, last = -1;
        for (const auto& p : d.db->coordinator().PerShard()) {
          if (p.complete_s < 0) continue;
          first = first < 0 ? p.complete_s : std::min(first, p.complete_s);
          last = std::max(last, p.complete_s);
        }
        skew_s_max = std::max(skew_s_max, last - first);
        return last;
      },
      "wire_durable", &r);
  const bool ok = cycles.ok;
  sh.stop.store(true);
  for (auto& t : conns) t.join();
  const double rss_mb = PeakRssMb();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const uint64_t wal_bytes = DirBytes(wal_dir) - wal_bytes_start;

  std::vector<Sample> samples;
  uint64_t acked = 0, retries = 0, switch_retries = 0;
  for (const ConnOut& o : outs) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    r.attempted += o.attempted;
    r.failed += o.failed;
    acked += o.acked_updates;
    retries += o.retries;
    switch_retries += o.switch_retries;
  }
  const std::string table = TableName(sh.generation.load());
  const int64_t want_sum = d.initial_sum + static_cast<int64_t>(acked);

  if (spans != nullptr && ok) {
    auto reads = spans->DurationsMs("client.select");
    auto updates = spans->DurationsMs("client.update");
    std::vector<double> all = reads;
    all.insert(all.end(), updates.begin(), updates.end());
    obs::Histogram* query = d.db->metrics().GetHistogram(
        "bullfrog_server_request_seconds", "opcode=\"query\"",
        obs::MetricsRegistry::LatencyBounds());
    std::vector<std::map<std::string, double>> shard_scrapes;
    std::vector<obs::Histogram*> syncs;
    for (size_t i = 0; i < kShards; ++i) {
      shard_scrapes.push_back(
          ScrapeSeries(d.db->shard(i)->metrics().RenderPrometheus()));
      syncs.push_back(d.db->shard(i)->metrics().GetHistogram(
          "bullfrog_wal_sync_seconds", "",
          obs::MetricsRegistry::LatencyBounds()));
    }
    const double batches =
        SumSeries(shard_scrapes, "bullfrog_wal_group_commit_batch_size_count");
    const obs::ProfileStore& prof = d.db->profiles();
    const double total = static_cast<double>(prof.aggregate_total_ns());
    auto stage_frac = [&](obs::Stage s) {
      return total > 0 ? static_cast<double>(prof.AggregateStageNanos(s)) / total
                       : 0;
    };
    const double client_p50_us = Percentile(&all, 0.50) * 1e3;
    const double server_p50_us = query->Quantile(0.50) * 1e6;
    r.Layer("server.read_p50_ms", Percentile(&reads, 0.50), "ms");
    r.Layer("server.update_p50_ms", Percentile(&updates, 0.50), "ms");
    r.Layer("server.update_p99_ms", Percentile(&updates, 0.99), "ms");
    r.Layer("server.query_p50_us", server_p50_us, "us");
    r.Layer("server.wire_overhead_p50_us", client_p50_us - server_p50_us, "us");
    r.Layer("sql.parse_frac", stage_frac(obs::Stage::kParse), "ratio");
    r.Layer("shard.send_frac", stage_frac(obs::Stage::kShardSend), "ratio");
    r.Layer("shard.wait_frac", stage_frac(obs::Stage::kShardWait), "ratio");
    r.Layer("shard.converge_skew_s", skew_s_max, "s");
    r.Layer("txn.wal_batch_mean",
            batches > 0 ? SumSeries(shard_scrapes,
                                    "bullfrog_wal_group_commit_batch_size_sum") /
                              batches
                        : 0,
            "count");
    r.Layer("txn.wal_sync_p50_ms", MergedQuantile(syncs, 0.50) * 1e3, "ms");
    r.Layer("txn.wal_sync_p99_ms", MergedQuantile(syncs, 0.99) * 1e3, "ms");
    r.Layer("txn.wal_bytes_per_write",
            acked > 0 ? static_cast<double>(wal_bytes) /
                            static_cast<double>(acked)
                      : 0,
            "B");
    r.Layer("bullfrog.switch_retries", static_cast<double>(switch_retries),
            "count");
    r.Layer("migration.submit_ms", cycles.submit_ms_max, "ms");
    // Server-side request time (the server frame roots every traced
    // statement) over the time the clients waited for their replies.
    double client_ms = 0;
    for (double ms : all) client_ms += ms;
    r.span_coverage =
        client_ms > 0 ? static_cast<double>(prof.aggregate_total_ns()) * 1e-6 /
                            client_ms
                      : 0;
  }

  // Live invariants over the wire, then durability from the WAL alone.
  if (opts.corrupt == "wire_durable.sum") {
    (void)admin.Query("UPDATE " + table + " SET val = val + 1 WHERE id = 0");
  } else if (opts.corrupt == "wire_durable.row_count") {
    (void)admin.Query("DELETE FROM " + table + " WHERE id = 1");
  }
  int64_t sum = -1, count = -1;
  const bool live_ok = ok && ReadTotals(
      [&](const std::string& sql) { return admin.Query(sql); }, table, &sum,
      &count);
  r.Check("wire_durable.sum", live_ok && sum == want_sum,
          "sum=" + std::to_string(sum) + " expected " + std::to_string(want_sum) +
              " (" + std::to_string(acked) + " acked updates)");
  r.Check("wire_durable.row_count", live_ok && count == rows,
          "rows=" + std::to_string(count) + " expected " +
              std::to_string(rows));
  admin.Close();
  d.Stop();
  if (!ok) return r;

  if (opts.corrupt == "wire_durable.durability") TruncateWal(wal_dir);
  int64_t rec_sum = -1, rec_count = -1;
  bool recovered = false;
  {
    shard::ShardedDatabase fresh(kShards);
    Status st = fresh.OpenDurable(wal_dir);
    if (st.ok()) {
      shard::Session session(&fresh);
      recovered = ReadTotals(
          [&](const std::string& sql) { return session.Execute(sql); }, table,
          &rec_sum, &rec_count);
    } else {
      r.Note("recovery failed: " + st.ToString());
    }
  }
  r.Check("wire_durable.durability",
          recovered && rec_sum == want_sum && rec_count == rows,
          "recovered sum=" + std::to_string(rec_sum) + " rows=" +
              std::to_string(rec_count));
  std::error_code ec;
  fs::remove_all(wal_dir, ec);

  AddEndToEnd(&r, ComputeWindowStats(samples, cycles.windows),
              Median(cycles.converge_s), Median(setup_s), rss_mb, cpu_s);
  r.Note("wire_durable: " + std::to_string(acked) + " acked updates, " +
         std::to_string(retries) + " retries, converge_s median " +
         std::to_string(Median(cycles.converge_s)));
  return r;
}

}  // namespace perfbench

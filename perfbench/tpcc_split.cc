// tpcc_split: the paper's headline experiment (§4.1, Figs 3/4). An
// embedded Database with TPC-C at the figure fixture's default scale
// runs the full 45/43/4/4/4 mix open loop (one ticker, three workers) at
// a fixed offered rate; after a steady window the bitmap-tracked
// customer split is submitted lazily with background migration. Each
// run repeats load -> steady -> submit -> drain for several cycles on
// fresh loads, so converge_s and setup_s are medians.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bullfrog/database.h"
#include "obs/request_trace.h"
#include "tpcc/cols.h"
#include "tpcc/loader.h"
#include "tpcc/migrations.h"
#include "tpcc/schema.h"
#include "tpcc/transactions.h"
#include "tpcc/workload.h"
#include "workloads.h"

using namespace bullfrog;

namespace perfbench {
namespace {

constexpr int kWorkers = 3;
constexpr int kRetryBudget = 1000;

tpcc::Scale BenchScale(bool tiny) {
  if (tiny) return tpcc::Scale::Small();
  // bench/fixture.cc defaults: 2 warehouses, 60k customers, ~200k order
  // lines.
  tpcc::Scale s;
  s.items = 2000;
  s.orders_per_district = 1000;
  s.undelivered_orders_per_district = 300;
  return s;
}

MigrationController::SubmitOptions SplitSubmit() {
  MigrationController::SubmitOptions o;
  o.strategy = MigrationStrategy::kLazy;
  o.enable_background = true;
  // Short next to the drain, so converge_s measures the drain.
  o.lazy.background_start_delay_ms = 50;
  o.lazy.background_threads = 2;
  o.lazy.background_batch = 32;
  o.lazy.background_pause_us = 500;
  return o;
}

/// One generated transaction with its parameters and due time.
struct TpccOp {
  uint64_t id = 0;
  int64_t due_ns = 0;
  tpcc::TxnType type = tpcc::TxnType::kNewOrder;
  tpcc::Transactions::NewOrderParams new_order;
  tpcc::Transactions::PaymentParams payment;
  tpcc::Transactions::OrderStatusParams order_status;
  tpcc::Transactions::DeliveryParams delivery;
  tpcc::Transactions::StockLevelParams stock_level;
};

TpccOp NextOp(tpcc::WorkloadGenerator* gen) {
  TpccOp op;
  op.type = gen->NextType();
  switch (op.type) {
    case tpcc::TxnType::kNewOrder: op.new_order = gen->GenNewOrder(); break;
    case tpcc::TxnType::kPayment: op.payment = gen->GenPayment(); break;
    case tpcc::TxnType::kOrderStatus:
      op.order_status = gen->GenOrderStatus();
      break;
    case tpcc::TxnType::kDelivery: op.delivery = gen->GenDelivery(); break;
    case tpcc::TxnType::kStockLevel:
      op.stock_level = gen->GenStockLevel();
      break;
  }
  return op;
}

Status Execute(tpcc::Transactions* t, const TpccOp& op) {
  switch (op.type) {
    case tpcc::TxnType::kNewOrder: return t->NewOrder(op.new_order);
    case tpcc::TxnType::kPayment: return t->Payment(op.payment);
    case tpcc::TxnType::kOrderStatus: return t->OrderStatus(op.order_status);
    case tpcc::TxnType::kDelivery: return t->Delivery(op.delivery);
    case tpcc::TxnType::kStockLevel: return t->StockLevel(op.stock_level);
  }
  return Status::Internal("unknown txn type");
}

const char* CallSpanName(tpcc::TxnType t) {
  switch (t) {
    case tpcc::TxnType::kNewOrder: return "tpcc.NewOrder";
    case tpcc::TxnType::kPayment: return "tpcc.Payment";
    case tpcc::TxnType::kOrderStatus: return "tpcc.OrderStatus";
    case tpcc::TxnType::kDelivery: return "tpcc.Delivery";
    case tpcc::TxnType::kStockLevel: return "tpcc.StockLevel";
  }
  return "tpcc.?";
}

/// Ticker -> worker hand-off.
class OpQueue {
 public:
  void Push(TpccOp op) {
    {
      std::lock_guard lock(mu_);
      q_.push_back(std::move(op));
      peak_ = std::max(peak_, q_.size());
    }
    cv_.notify_one();
  }
  bool Pop(TpccOp* op) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    *op = std::move(q_.front());
    q_.pop_front();
    return true;
  }
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  size_t peak() const {
    std::lock_guard lock(mu_);
    return peak_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<TpccOp> q_;
  size_t peak_ = 0;
  bool closed_ = false;
};

/// Per-worker outcome counters and committed samples.
struct WorkerOut {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t switch_retries = 0;
};

/// Runs `op` until it commits, fails, or exhausts the retry budget.
void RunOp(Database* db, tpcc::Transactions* txns, const TpccOp& op,
           const RunClock& clock, int64_t start_ns, SpanLog::Buffer* spans,
           WorkerOut* out) {
  ++out->attempted;
  int tries = 0;
  for (;;) {
    const int64_t call_start = clock.Now();
    const Status s =
        TracedCall(spans != nullptr, db->trace_sampler(), db->profiles(),
                   CallSpanName(op.type), [&] { return Execute(txns, op); });
    const int64_t call_end = clock.Now();
    if (spans != nullptr) {
      spans->Add(op.id, CallSpanName(op.type), 1, call_start, call_end);
    }
    // Spec-mandated NewOrder rollbacks are completed requests.
    if (s.ok() || s.IsConstraintViolation()) {
      out->samples.push_back(Sample{op.due_ns, call_end});
      if (spans != nullptr) {
        spans->Add(op.id, "harness.queue", 1, op.due_ns, start_ns);
        spans->Add(op.id, "op", 0, op.due_ns, call_end);
      }
      return;
    }
    const bool retired = s.code() == StatusCode::kSchemaMismatch ||
                         s.code() == StatusCode::kNotFound;
    if (retired && call_end - start_ns < kSwitchDeadlineNs) {
      // Raced the big flip: the front end re-submits against the new
      // schema once the submit returns and flips its version.
      ++out->switch_retries;
      std::this_thread::yield();
    } else if (s.IsRetryable() && ++tries <= kRetryBudget) {
      ++out->retries;
      // Let the lock holder run, then back off for holders that take
      // longer.
      if (tries <= kYieldRetries) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(
            std::chrono::microseconds(20 * std::min(tries, 50)));
      }
    } else {
      if (++out->failed <= 3) {
        std::fprintf(stderr, "tpcc %s failed: %s\n", CallSpanName(op.type),
                     s.ToString().c_str());
      }
      return;
    }
  }
}

Result<size_t> CountRows(Database* db, const std::string& table) {
  auto s = db->BeginSession({table});
  auto rows = db->Select(&s, table, nullptr);
  db->Commit(&s);
  if (!rows.ok()) return rows.status();
  return rows->size();
}

/// W_YTD - sum(D_YTD) per warehouse. Payment adds the same amount to
/// both, so the gap never moves (it is 0 at the spec's 10 districts per
/// warehouse; smaller test scales load a fixed nonzero gap).
std::map<int64_t, double> YtdGaps(Database* db) {
  std::map<int64_t, double> gap;
  auto s = db->BeginSession({tpcc::kWarehouse, tpcc::kDistrict});
  auto wh = db->Select(&s, tpcc::kWarehouse, nullptr);
  auto dist = db->Select(&s, tpcc::kDistrict, nullptr);
  db->Commit(&s);
  if (!wh.ok() || !dist.ok()) return gap;
  for (const auto& [rid, row] : *wh) {
    gap[row[tpcc::col::wh::kId].AsInt()] +=
        row[tpcc::col::wh::kYtd].AsDouble();
  }
  for (const auto& [rid, row] : *dist) {
    gap[row[tpcc::col::dist::kWId].AsInt()] -=
        row[tpcc::col::dist::kYtd].AsDouble();
  }
  return gap;
}

bool YtdUnchanged(const std::map<int64_t, double>& before,
                  const std::map<int64_t, double>& after, std::string* detail) {
  if (before.empty() || before.size() != after.size()) {
    *detail = "warehouse/district read failed";
    return false;
  }
  for (const auto& [w, gap] : before) {
    auto it = after.find(w);
    if (it == after.end() || std::fabs(it->second - gap) > 0.01) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "warehouse %lld: W_YTD - sum(D_YTD) moved %.2f -> %.2f",
                    static_cast<long long>(w), gap,
                    it == after.end() ? 0.0 : it->second);
      *detail = buf;
      return false;
    }
  }
  *detail = std::to_string(before.size()) + " warehouses";
  return true;
}

/// Deliberately breaks the invariant `check` names (benchmark self-test).
void Corrupt(Database* db, const std::string& check) {
  if (check == "tpcc_split.split_counts") {
    auto s = db->BeginSession({tpcc::kCustomerPrivate});
    (void)db->Delete(&s, tpcc::kCustomerPrivate, Eq(Col("c_id"), LitInt(1)));
    db->Commit(&s);
  } else if (check == "tpcc_split.ytd") {
    auto s = db->BeginSession({tpcc::kDistrict});
    (void)db->Update(&s, tpcc::kDistrict, Eq(Col("d_id"), LitInt(1)),
                     [](const Tuple& t) {
                       Tuple u = t;
                       u[tpcc::col::dist::kYtd] = Value::Double(
                           t[tpcc::col::dist::kYtd].AsDouble() + 1.0);
                       return u;
                     });
    db->Commit(&s);
  } else if (check == "tpcc_split.customer_gone") {
    (void)db->CreateTable(tpcc::CustomerSchema());
  }
}

}  // namespace

Report RunTpccSplit(const Options& opts, SpanLog* spans) {
  Report r;
  const tpcc::Scale scale = BenchScale(opts.tiny);
  // Each cycle needs a fresh ~1 GB load, so a run has only two.
  const CyclePlan plan = PlanCycles(opts.seconds, opts.tiny ? 1 : 2);
  // The tiny scale has one warehouse of two districts: keep it far below
  // its (contention-bound) capacity.
  const double rate = opts.tiny ? std::min(opts.rate, 300.0) : opts.rate;
  const int64_t period_ns = static_cast<int64_t>(1e9 / rate);
  const RunClock clock;

  std::vector<Sample> samples;
  std::vector<Cycle> windows;
  std::vector<double> setup_s, converge_s, lag_ms;
  double submit_ms_max = 0, cpu_s = 0;
  size_t peak_queue = 0;
  uint64_t retries = 0, switch_retries = 0;
  uint64_t lazy_units = 0, bg_units = 0, mig_retries = 0;
  int64_t stage_total_ns = 0, pull_ns = 0, wait_ns = 0, attributed_ns = 0;

  for (int cycle = 0; cycle < plan.cycles; ++cycle) {
    auto db = std::make_unique<Database>();
    const Stopwatch setup;
    Status st = tpcc::CreateTpccTables(db.get());
    if (st.ok()) st = tpcc::LoadTpcc(db.get(), scale, opts.seed * 16 + cycle);
    setup_s.push_back(setup.ElapsedSeconds());
    if (!st.ok()) {
      r.Check("tpcc_split.load", false, st.ToString());
      return r;
    }
    auto pre_customers = CountRows(db.get(), tpcc::kCustomer);
    const auto ytd_before = YtdGaps(db.get());
    tpcc::Transactions txns(db.get(), scale);
    if (spans != nullptr) db->trace_sampler().set_every(1);

    OpQueue queue;
    std::atomic<int64_t> stop_at{INT64_MAX};
    std::vector<WorkerOut> outs(kWorkers);
    std::vector<double> cycle_lag_ms;
    const int64_t cycle_start = clock.Now();
    const double cpu0 = ProcessCpuSeconds();
    std::thread ticker([&] {
      tpcc::WorkloadGenerator gen(scale, opts.seed * 1000 + cycle);
      for (uint64_t k = 0;; ++k) {
        TpccOp op = NextOp(&gen);
        op.id = (static_cast<uint64_t>(cycle) << 40) | k;
        op.due_ns = cycle_start + static_cast<int64_t>(k) * period_ns;
        if (op.due_ns >= stop_at.load(std::memory_order_acquire)) break;
        const int64_t now = clock.Now();
        if (op.due_ns > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(op.due_ns - now));
        }
        cycle_lag_ms.push_back(static_cast<double>(clock.Now() - op.due_ns) *
                               1e-6);
        queue.Push(std::move(op));
      }
      queue.Close();
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      SpanLog::Buffer* buf = spans != nullptr ? spans->NewBuffer() : nullptr;
      workers.emplace_back([&, w, buf] {
        TpccOp op;
        while (queue.Pop(&op)) {
          RunOp(db.get(), &txns, op, clock, clock.Now(), buf, &outs[w]);
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::nanoseconds(plan.pre_ns));
    const int64_t submit_ns = clock.Now();
    const Stopwatch submit;
    st = db->SubmitMigration(tpcc::CustomerSplitPlan(), SplitSubmit());
    const double submit_ms = submit.ElapsedSeconds() * 1e3;
    submit_ms_max = std::max(submit_ms_max, submit_ms);
    if (st.ok()) txns.set_version(tpcc::SchemaVersion::kCustomerSplit);
    bool converged = st.ok();
    while (converged && !db->controller().IsComplete()) {
      if (clock.Now() - submit_ns > 120000 * kMs) converged = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double complete_s = db->controller().timeline().complete_s;
    const int64_t converge_ns =
        submit_ns + static_cast<int64_t>(complete_s * 1e9);
    stop_at.store(
        std::max(cycle_start + plan.cycle_ns, clock.Now() + 100 * kMs));
    ticker.join();
    for (auto& t : workers) t.join();
    // Every op due before stop_at has finished: the measured window runs
    // to the last completion, so ops_per_s shows a backlog draining late.
    const int64_t drained_ns = clock.Now();
    cpu_s += ProcessCpuSeconds() - cpu0;
    r.Check("tpcc_split.converged", converged && complete_s > 0,
            st.ok() ? "cycle " + std::to_string(cycle)
                    : "submit: " + st.ToString());
    if (!converged || complete_s <= 0) return r;

    windows.push_back({{cycle_start, drained_ns + 1},
                       {cycle_start + plan.warm_ns, submit_ns},
                       {submit_ns, converge_ns}});
    converge_s.push_back(complete_s);
    {
      std::vector<double> lag = cycle_lag_ms;
      char b[200];
      std::snprintf(b, sizeof(b),
                    "cycle %d: setup_s=%.3f submit_ms=%.3f converge_s=%.3f "
                    "gen_lag_p99_ms=%.3f peak_queue=%zu",
                    cycle, setup_s.back(), submit_ms, complete_s,
                    Percentile(&lag, 0.99), queue.peak());
      r.Note(b);
    }
    for (WorkerOut& o : outs) {
      samples.insert(samples.end(), o.samples.begin(), o.samples.end());
      r.attempted += o.attempted;
      r.failed += o.failed;
      retries += o.retries;
      switch_retries += o.switch_retries;
    }
    lag_ms.insert(lag_ms.end(), cycle_lag_ms.begin(), cycle_lag_ms.end());
    peak_queue = std::max(peak_queue, queue.peak());

    const auto m = ScrapeSeries(db->metrics().RenderPrometheus());
    lazy_units += static_cast<uint64_t>(
        SumSeries({m}, "bullfrog_migration_units_migrated{mode=\"lazy\"}"));
    bg_units += static_cast<uint64_t>(SumSeries(
        {m}, "bullfrog_migration_units_migrated{mode=\"background\"}"));
    mig_retries +=
        static_cast<uint64_t>(SumSeries({m}, "bullfrog_migration_txn_retries"));
    stage_total_ns += db->profiles().aggregate_total_ns();
    pull_ns += db->profiles().AggregateStageNanos(obs::Stage::kMigratePull);
    wait_ns += db->profiles().AggregateStageNanos(obs::Stage::kMigrateWait);
    attributed_ns += AttributedStageNanos(db->profiles());

    // Invariants after convergence.
    Corrupt(db.get(), opts.corrupt);
    auto priv = CountRows(db.get(), tpcc::kCustomerPrivate);
    auto pub = CountRows(db.get(), tpcc::kCustomerPublic);
    const bool counts_ok = pre_customers.ok() && priv.ok() && pub.ok() &&
                           *priv == *pre_customers && *pub == *pre_customers;
    r.Check("tpcc_split.split_counts", counts_ok,
            pre_customers.ok() && priv.ok() && pub.ok()
                ? "customer=" + std::to_string(*pre_customers) +
                      " private=" + std::to_string(*priv) +
                      " public=" + std::to_string(*pub)
                : "count failed");
    r.Check("tpcc_split.customer_gone",
            !CountRows(db.get(), tpcc::kCustomer).ok(),
            "select from customer must fail after the split");
    std::string detail;
    r.Check("tpcc_split.ytd", YtdUnchanged(ytd_before, YtdGaps(db.get()), &detail),
            detail);
  }

  const double rss_mb = PeakRssMb();
  const WindowStats stats = ComputeWindowStats(samples, windows);
  AddEndToEnd(&r, stats, Median(converge_s), Median(setup_s), rss_mb, cpu_s);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "tpcc_split: rate=%.0f tps, %d cycles", rate, plan.cycles);
  r.Note(buf);

  if (spans != nullptr) {
    auto neworder = spans->DurationsMs("tpcc.NewOrder");
    auto payment = spans->DurationsMs("tpcc.Payment");
    const double units = static_cast<double>(lazy_units + bg_units);
    double converge_total = 0;
    for (double c : converge_s) converge_total += c;
    r.Layer("harness.gen_lag_p99_ms", Percentile(&lag_ms, 0.99), "ms");
    r.Layer("harness.peak_queue", static_cast<double>(peak_queue), "count");
    r.Layer("tpcc.neworder_p50_ms", Percentile(&neworder, 0.50), "ms");
    r.Layer("tpcc.neworder_p99_ms", Percentile(&neworder, 0.99), "ms");
    r.Layer("tpcc.payment_p50_ms", Percentile(&payment, 0.50), "ms");
    r.Layer("tpcc.retry_frac",
            static_cast<double>(retries) / static_cast<double>(r.attempted),
            "ratio");
    r.Layer("bullfrog.switch_retries", static_cast<double>(switch_retries),
            "count");
    r.Layer("migration.submit_ms", submit_ms_max, "ms");
    r.Layer("migration.lazy_units", static_cast<double>(lazy_units), "count");
    r.Layer("migration.background_units", static_cast<double>(bg_units),
            "count");
    r.Layer("migration.lazy_share",
            units > 0 ? static_cast<double>(lazy_units) / units : 0, "ratio");
    r.Layer("migration.drain_units_per_s", units / converge_total, "1/s");
    r.Layer("migration.txn_retry_frac",
            units > 0 ? static_cast<double>(mig_retries) / units : 0, "ratio");
    const double total = static_cast<double>(stage_total_ns);
    r.Layer("migration.pull_frac",
            total > 0 ? static_cast<double>(pull_ns) / total : 0, "ratio");
    r.Layer("migration.wait_frac",
            total > 0 ? static_cast<double>(wait_ns) / total : 0, "ratio");
    // Client-observed time runs from each op's due time, so queueing
    // in the harness counts as unattributed.
    r.span_coverage =
        static_cast<double>(attributed_ns) * 1e-9 / stats.op_seconds;
  }
  return r;
}

double CalibrateTpcc(const Options& opts) {
  const tpcc::Scale scale = BenchScale(opts.tiny);
  Database db;
  if (!tpcc::CreateTpccTables(&db).ok() ||
      !tpcc::LoadTpcc(&db, scale, opts.seed).ok()) {
    return 0;
  }
  tpcc::Transactions txns(&db, scale);
  std::atomic<bool> stop{false};
  std::vector<WorkerOut> outs(kWorkers);
  const RunClock clock;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      tpcc::WorkloadGenerator gen(scale, opts.seed * 1000 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        TpccOp op = NextOp(&gen);
        op.due_ns = clock.Now();
        RunOp(&db, &txns, op, clock, op.due_ns, nullptr, &outs[w]);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(opts.seconds));
  stop.store(true);
  for (auto& t : workers) t.join();
  const double elapsed = static_cast<double>(clock.Now()) * 1e-9;
  size_t committed = 0;
  for (const WorkerOut& o : outs) committed += o.samples.size();
  return static_cast<double>(committed) / elapsed;
}

}  // namespace perfbench

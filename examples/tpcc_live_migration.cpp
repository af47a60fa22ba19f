// Live schema evolution under load: runs a TPC-C mix against a small
// database, then submits the paper's §4.1 customer table-split migration
// mid-run. Per-second throughput and migration progress are printed so
// the zero-downtime behaviour is visible.

#include <cstdio>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "common/env.h"
#include "harness/driver.h"
#include "tpcc/loader.h"
#include "tpcc/migrations.h"
#include "tpcc/schema.h"
#include "tpcc/transactions.h"
#include "tpcc/workload.h"

using namespace bullfrog;
using namespace bullfrog::tpcc;

int main() {
  Scale scale;
  scale.warehouses = static_cast<int>(EnvInt64("BF_WAREHOUSES", 1));
  scale.customers_per_district =
      static_cast<int>(EnvInt64("BF_CUSTOMERS", 500));
  scale.items = static_cast<int>(EnvInt64("BF_ITEMS", 1000));
  scale.orders_per_district = 500;
  scale.undelivered_orders_per_district = 150;

  Database db;
  if (!CreateTpccTables(&db).ok() || !LoadTpcc(&db, scale).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  std::printf("TPC-C loaded: %d warehouses, %d customers\n",
              scale.warehouses, scale.total_customers());

  Transactions txns(&db, scale);
  const int threads = static_cast<int>(EnvInt64("BF_THREADS", 4));
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  for (int i = 0; i < threads; ++i) {
    gens.push_back(std::make_unique<WorkloadGenerator>(
        scale, 100 + static_cast<uint64_t>(i)));
  }

  OpenLoopDriver::Options dopts;
  dopts.threads = threads;
  dopts.rate_tps = EnvDouble("BF_RATE", 300);
  dopts.labels = {"NewOrder", "Payment", "Delivery", "OrderStatus",
                  "StockLevel"};
  OpenLoopDriver driver(dopts, [&](int worker) {
    WorkloadGenerator& gen = *gens[static_cast<size_t>(worker)];
    const TxnType type = gen.NextType();
    Status s = gen.Execute(&txns, type);
    // Intended NewOrder rollbacks and transition-window schema errors are
    // not client-visible failures.
    if (s.IsConstraintViolation()) s = Status::OK();
    if (s.code() == StatusCode::kSchemaMismatch) {
      s = Status::TxnConflict("front-end restart after big flip");
    }
    return std::make_pair(static_cast<int>(type), s);
  });

  driver.Start();
  const double pre_s = EnvDouble("BF_PRE_SECONDS", 2);
  const double post_s = EnvDouble("BF_POST_SECONDS", 6);
  Clock::SleepMillis(static_cast<int64_t>(pre_s * 1000));

  std::printf("[%.1fs] submitting customer split migration...\n",
              driver.ElapsedSeconds());
  MigrationController::SubmitOptions mopts;
  mopts.strategy = MigrationStrategy::kLazy;
  mopts.lazy.background_start_delay_ms = 2000;
  const double submit_s = driver.ElapsedSeconds();
  Status st = db.SubmitMigration(CustomerSplitPlan(), mopts);
  if (!st.ok()) {
    std::fprintf(stderr, "submit: %s\n", st.ToString().c_str());
    return 1;
  }
  txns.set_version(SchemaVersion::kCustomerSplit);  // Big flip.
  std::printf("[%.1fs] logical switch done; transactions now run on the "
              "new schema\n",
              driver.ElapsedSeconds());

  Stopwatch post;
  while (post.ElapsedSeconds() < post_s) {
    Clock::SleepMillis(500);
    std::printf("[%.1fs] migration progress: %.0f%%%s\n",
                driver.ElapsedSeconds(), db.controller().Progress() * 100,
                db.controller().IsComplete() ? " (complete)" : "");
  }

  auto report = driver.Stop();
  std::printf("\nper-second committed transactions:\n");
  for (size_t s = 0; s < report.per_second_commits.size(); ++s) {
    std::printf("  t=%2zus  %5llu tx/s%s\n", s,
                static_cast<unsigned long long>(report.per_second_commits[s]),
                (static_cast<double>(s) <= submit_s &&
                 submit_s < static_cast<double>(s + 1))
                    ? "   <- migration submitted"
                    : "");
  }
  std::printf("total committed=%llu retries=%llu failures=%llu\n",
              static_cast<unsigned long long>(report.committed),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.failures));
  std::printf("NewOrder p50=%.2f ms p99=%.2f ms\n",
              report.latency[0]->Quantile(0.5) * 1000,
              report.latency[0]->Quantile(0.99) * 1000);
  return 0;
}

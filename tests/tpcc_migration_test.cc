#include <atomic>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "query/scan.h"
#include "tpcc/cols.h"
#include "tpcc/loader.h"
#include "tpcc/migrations.h"
#include "tpcc/schema.h"
#include "tpcc/transactions.h"
#include "tpcc/workload.h"

namespace bullfrog::tpcc {
namespace {

class TpccMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scale_ = Scale::Small();
    scale_.warehouses = 2;  // Exercise cross-warehouse joins.
    ASSERT_TRUE(CreateTpccTables(&db_).ok());
    ASSERT_TRUE(LoadTpcc(&db_, scale_).ok());
    txns_ = std::make_unique<Transactions>(&db_, scale_);
  }

  MigrationController::SubmitOptions LazyOpts() {
    MigrationController::SubmitOptions opts;
    opts.strategy = MigrationStrategy::kLazy;
    opts.lazy.background_start_delay_ms = 30;
    opts.lazy.background_pause_us = 0;
    opts.lazy.background_batch = 32;
    return opts;
  }

  void WaitComplete(int timeout_ms = 30000) {
    Stopwatch sw;
    while (!db_.controller().IsComplete() &&
           sw.ElapsedMillis() < timeout_ms) {
      Clock::SleepMillis(5);
    }
    ASSERT_TRUE(db_.controller().IsComplete());
  }

  uint64_t Count(const char* table) {
    Table* t = db_.catalog().FindTable(table);
    return t == nullptr ? 0 : t->NumLiveRows();
  }

  /// Runs `n` mixed transactions on each of `threads` workers; retryable
  /// and rollback failures are tolerated, anything else fails the test.
  void RunWorkload(int threads, int n, uint64_t seed) {
    std::vector<std::thread> workers;
    std::atomic<int> hard_errors{0};
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        WorkloadGenerator gen(scale_, seed + static_cast<uint64_t>(w));
        for (int i = 0; i < n; ++i) {
          Status s = gen.Execute(txns_.get(), gen.NextType());
          if (!s.ok() && !s.IsRetryable() && !s.IsConstraintViolation() &&
              s.code() != StatusCode::kTimedOut) {
            ADD_FAILURE() << "workload error: " << s.ToString();
            hard_errors.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    ASSERT_EQ(hard_errors.load(), 0);
  }

  Scale scale_;
  Database db_;
  std::unique_ptr<Transactions> txns_;
};

TEST_F(TpccMigrationTest, CustomerSplitLazyUnderConcurrentLoad) {
  const uint64_t customers = Count(kCustomer);
  ASSERT_TRUE(db_.SubmitMigration(CustomerSplitPlan(), LazyOpts()).ok());
  txns_->set_version(SchemaVersion::kCustomerSplit);  // Big flip.

  RunWorkload(/*threads=*/4, /*n=*/120, /*seed=*/11);
  WaitComplete();

  // Exactly-once: every customer appears once in both halves — the PKs
  // reject duplicates, the counts prove completeness.
  EXPECT_EQ(Count(kCustomerPrivate), customers);
  EXPECT_EQ(Count(kCustomerPublic), customers);
  EXPECT_EQ(db_.catalog().GetState(kCustomer), TableState::kDropped);

  // Post-migration transactions run normally.
  Transactions::PaymentParams p;
  p.w_id = 1;
  p.d_id = 1;
  p.c_w_id = 1;
  p.c_d_id = 1;
  p.c_id = 1;
  p.amount = 10;
  EXPECT_TRUE(txns_->Payment(p).ok());
}

TEST_F(TpccMigrationTest, CustomerSplitOnConflictMode) {
  const uint64_t customers = Count(kCustomer);
  auto opts = LazyOpts();
  opts.lazy.duplicate_detection = DuplicateDetection::kOnConflictClause;
  ASSERT_TRUE(db_.SubmitMigration(CustomerSplitPlan(), opts).ok());
  txns_->set_version(SchemaVersion::kCustomerSplit);
  RunWorkload(4, 100, 23);
  WaitComplete();
  EXPECT_EQ(Count(kCustomerPrivate), customers);
  EXPECT_EQ(Count(kCustomerPublic), customers);
}

TEST_F(TpccMigrationTest, CustomerSplitEagerPreservesColumnValues) {
  // Capture a customer row, migrate eagerly, verify the split halves.
  Table* customer = db_.catalog().FindTable(kCustomer);
  Tuple original;
  ASSERT_TRUE(customer->Read(0, &original).ok());

  auto opts = LazyOpts();
  opts.strategy = MigrationStrategy::kEager;
  ASSERT_TRUE(db_.SubmitMigration(CustomerSplitPlan(), opts).ok());
  EXPECT_TRUE(db_.controller().IsComplete());

  Table* priv = db_.catalog().FindTable(kCustomerPrivate);
  auto rows = CollectWhere(
      *priv, And(And(Eq(Col("c_w_id"), Lit(original[col::cust::kWId])),
                     Eq(Col("c_d_id"), Lit(original[col::cust::kDId]))),
                 Eq(Col("c_id"), Lit(original[col::cust::kId]))));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const Tuple& split = rows->front().second;
  EXPECT_EQ(split[col::cpriv::kBalance], original[col::cust::kBalance]);
  EXPECT_EQ(split[col::cpriv::kCredit], original[col::cust::kCredit]);
  EXPECT_EQ(split[col::cpriv::kDiscount], original[col::cust::kDiscount]);

  Table* pub = db_.catalog().FindTable(kCustomerPublic);
  auto pub_rows = CollectWhere(
      *pub, And(And(Eq(Col("c_w_id"), Lit(original[col::cust::kWId])),
                    Eq(Col("c_d_id"), Lit(original[col::cust::kDId]))),
                Eq(Col("c_id"), Lit(original[col::cust::kId]))));
  ASSERT_TRUE(pub_rows.ok());
  ASSERT_EQ(pub_rows->size(), 1u);
  EXPECT_EQ(pub_rows->front().second[col::cpub::kLast],
            original[col::cust::kLast]);
}

TEST_F(TpccMigrationTest, CustomerSplitWithForeignKeysCompletes) {
  // Fig 12 configuration: FKs declared on the new schema force extra
  // checks (and parent reads) per migrated row; the result must still be
  // complete and exact.
  const uint64_t customers = Count(kCustomer);
  ASSERT_TRUE(
      db_.SubmitMigration(CustomerSplitPlan(CustomerFk::kOrdersAndDistrict),
                          LazyOpts())
          .ok());
  txns_->set_version(SchemaVersion::kCustomerSplit);
  WaitComplete();
  EXPECT_EQ(Count(kCustomerPrivate), customers);
  EXPECT_EQ(Count(kCustomerPublic), customers);
}

TEST_F(TpccMigrationTest, OrderTotalLazyMatchesGroundTruth) {
  ASSERT_TRUE(db_.SubmitMigration(OrderTotalPlan(), LazyOpts()).ok());
  txns_->set_version(SchemaVersion::kOrderTotal);
  RunWorkload(4, 120, 37);
  WaitComplete();

  // Quiesced: every order's total must equal the SUM over its (still
  // active) order_line rows — whether the aggregate row was produced by
  // lazy migration, background migration, or application maintenance.
  Table* order_line = db_.catalog().FindTable(kOrderLine);
  std::map<std::tuple<int64_t, int64_t, int64_t>, double> ground_truth;
  order_line->Scan([&](RowId, const Tuple& l) {
    ground_truth[{l[col::ol::kWId].AsInt(), l[col::ol::kDId].AsInt(),
                  l[col::ol::kOId].AsInt()}] +=
        l[col::ol::kAmount].AsDouble();
    return true;
  });
  Table* order_total = db_.catalog().FindTable(kOrderTotal);
  uint64_t checked = 0;
  order_total->Scan([&](RowId, const Tuple& t) {
    auto it = ground_truth.find({t[col::ot::kWId].AsInt(),
                                 t[col::ot::kDId].AsInt(),
                                 t[col::ot::kOId].AsInt()});
    EXPECT_NE(it, ground_truth.end());
    if (it != ground_truth.end()) {
      EXPECT_NEAR(t[col::ot::kTotal].AsDouble(), it->second, 1e-6)
          << "order (" << t[col::ot::kWId].AsInt() << ","
          << t[col::ot::kDId].AsInt() << "," << t[col::ot::kOId].AsInt()
          << ")";
    }
    ++checked;
    return true;
  });
  // Every order with lines has an aggregate row.
  EXPECT_EQ(checked, ground_truth.size());
}

TEST_F(TpccMigrationTest, JoinLazyProducesExactJoin) {
  const uint64_t lines = Count(kOrderLine);
  ASSERT_TRUE(db_.SubmitMigration(OrderlineStockPlan(), LazyOpts()).ok());
  txns_->set_version(SchemaVersion::kOrderlineStock);

  // Read-mostly load during the join migration (no NewOrder, so the
  // expected join size is exactly boundary_lines x warehouses — the
  // loader stocks every item in every warehouse).
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      WorkloadGenerator gen(scale_, 91 + static_cast<uint64_t>(w));
      for (int i = 0; i < 60; ++i) {
        Status s;
        if (i % 2 == 0) {
          s = txns_->StockLevel(gen.GenStockLevel());
        } else {
          s = txns_->OrderStatus(gen.GenOrderStatus());
        }
        if (!s.ok() && !s.IsRetryable()) {
          ADD_FAILURE() << s.ToString();
          return;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  WaitComplete();
  EXPECT_EQ(Count(kOrderlineStock),
            lines * static_cast<uint64_t>(scale_.warehouses));
  EXPECT_EQ(db_.catalog().GetState(kOrderLine), TableState::kDropped);
  EXPECT_EQ(db_.catalog().GetState(kStock), TableState::kDropped);
}

TEST_F(TpccMigrationTest, JoinNewOrderAfterMigrationInsertsJoinedRows) {
  ASSERT_TRUE(db_.SubmitMigration(OrderlineStockPlan(), LazyOpts()).ok());
  txns_->set_version(SchemaVersion::kOrderlineStock);
  WaitComplete();
  const uint64_t before = Count(kOrderlineStock);
  Transactions::NewOrderParams p;
  p.w_id = 1;
  p.d_id = 1;
  p.c_id = 1;
  p.lines = {{3, 1, 2}};
  ASSERT_TRUE(txns_->NewOrder(p).ok());
  // Insert-only denormalization: one joined row per line, carrying the
  // supply warehouse's stock snapshot.
  EXPECT_EQ(Count(kOrderlineStock), before + 1);
}

TEST_F(TpccMigrationTest, MultiStepCustomerSplitPropagatesWrites) {
  auto opts = LazyOpts();
  opts.strategy = MigrationStrategy::kMultiStep;
  opts.multistep.batch = 4;  // Slow copier so the payment lands mid-copy.
  opts.multistep.pause_us = 2000;
  ASSERT_TRUE(db_.SubmitMigration(CustomerSplitPlan(), opts).ok());
  // Old-version transactions keep running against the old schema while
  // the copier works (unless the copier already finished — it can win the
  // race on tiny data sets).
  if (!db_.controller().IsComplete()) {
    EXPECT_FALSE(db_.controller().UsesNewSchema());
  }
  Transactions::PaymentParams p;
  p.w_id = 1;
  p.d_id = 1;
  p.c_w_id = 1;
  p.c_d_id = 1;
  p.c_id = 7;
  p.amount = 55.5;
  // The dual write can meet the copier's in-flight batch transaction on
  // the shadow row and die under wait-die; retry like a real client.
  Status pay;
  for (int attempt = 0; attempt < 100; ++attempt) {
    pay = txns_->Payment(p);
    if (!pay.IsRetryable()) break;
  }
  ASSERT_TRUE(pay.ok()) << pay.ToString();
  // Read the authoritative old-schema balance after the write.
  double expected = 0;
  {
    auto s = db_.BeginSession({kCustomer});
    auto rows = db_.Select(
        &s, kCustomer,
        And(And(Eq(Col("c_w_id"), LitInt(1)), Eq(Col("c_d_id"), LitInt(1))),
            Eq(Col("c_id"), LitInt(7))));
    ASSERT_TRUE(rows.ok());
    expected = (*rows)[0].second[col::cust::kBalance].AsDouble();
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  WaitComplete();
  EXPECT_TRUE(db_.controller().UsesNewSchema());
  Table* priv = db_.catalog().FindTable(kCustomerPrivate);
  auto rows = CollectWhere(
      *priv, And(And(Eq(Col("c_w_id"), LitInt(1)),
                     Eq(Col("c_d_id"), LitInt(1))),
                 Eq(Col("c_id"), LitInt(7))));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ(rows->front().second[col::cpriv::kBalance].AsDouble(),
                   expected);
  EXPECT_EQ(Count(kCustomerPrivate), static_cast<uint64_t>(
                                         scale_.total_customers()));
}

TEST_F(TpccMigrationTest, LazyRecoveryMidMigrationStaysExact) {
  const uint64_t customers = Count(kCustomer);
  auto opts = LazyOpts();
  opts.enable_background = false;
  ASSERT_TRUE(db_.SubmitMigration(CustomerSplitPlan(), opts).ok());
  txns_->set_version(SchemaVersion::kCustomerSplit);
  // Touch a few customers to migrate some units.
  RunWorkload(2, 40, 77);
  const uint64_t migrated = Count(kCustomerPrivate);
  ASSERT_GT(migrated, 0u);
  // Crash + §3.5 recovery: trackers rebuilt from the redo log.
  ASSERT_TRUE(db_.controller().RecoverFromRedoLog().ok());
  // Workload resumes; no duplicates may appear (the PKs would reject
  // them and fail transactions with non-retryable errors).
  RunWorkload(2, 40, 78);
  EXPECT_GE(Count(kCustomerPrivate), migrated);
  EXPECT_LE(Count(kCustomerPrivate), customers);
}

}  // namespace
}  // namespace bullfrog::tpcc

#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "migration/statement_migrator.h"
#include "query/scan.h"
#include "txn/txn_manager.h"
#include "unit_kinds.h"

namespace bullfrog {
namespace {

/// Fixture: src(id, grp, val) with kRows rows, grp = id % kGroups.
/// - split: src -> out_a(id, val) + out_b(id, grp)      [1:n, bitmap]
/// - sums:  src -> sums(grp, total=SUM(val)) BY grp     [n:1, hashmap]
/// - join:  src JOIN dim ON grp = g -> joined(id, grp, val, label)
class MigratorTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 500;
  static constexpr int kGroups = 20;

  void SetUp() override {
    auto src = catalog_.CreateTable(SchemaBuilder("src")
                                        .AddColumn("id", ValueType::kInt64,
                                                   false)
                                        .AddColumn("grp", ValueType::kInt64)
                                        .AddColumn("val", ValueType::kInt64)
                                        .SetPrimaryKey({"id"})
                                        .Build());
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(
        (*src)->CreateIndex("src_by_grp", {"grp"}, false, IndexKind::kHash)
            .ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE((*src)
                      ->Insert(Tuple{Value::Int(i), Value::Int(i % kGroups),
                                     Value::Int(i * 10)})
                      .ok());
    }
  }

  void CreateSplitOutputs() {
    ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("out_a")
                                         .AddColumn("id", ValueType::kInt64,
                                                    false)
                                         .AddColumn("val", ValueType::kInt64)
                                         .SetPrimaryKey({"id"})
                                         .Build())
                    .ok());
    ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("out_b")
                                         .AddColumn("id", ValueType::kInt64,
                                                    false)
                                         .AddColumn("grp", ValueType::kInt64)
                                         .SetPrimaryKey({"id"})
                                         .Build())
                    .ok());
  }

  MigrationStatement SplitStatement() {
    MigrationStatement stmt;
    stmt.name = "split_src";
    stmt.category = MigrationCategory::kOneToMany;
    stmt.input_tables = {"src"};
    stmt.output_tables = {"out_a", "out_b"};
    stmt.provenance.AddPassThrough("id", "src", "id");
    stmt.provenance.AddPassThrough("grp", "src", "grp");
    stmt.provenance.AddPassThrough("val", "src", "val");
    stmt.row_transform =
        [this](const Tuple& in) -> Result<std::vector<TargetRow>> {
      if (fail_transforms_.load() > 0) {
        fail_transforms_.fetch_sub(1);
        return Status::TxnAborted("injected transform failure");
      }
      return std::vector<TargetRow>{TargetRow{0, Tuple{in[0], in[2]}},
                                    TargetRow{1, Tuple{in[0], in[1]}}};
    };
    return stmt;
  }

  void CreateSumsOutput() {
    ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("sums")
                                         .AddColumn("grp", ValueType::kInt64,
                                                    false)
                                         .AddColumn("total",
                                                    ValueType::kInt64)
                                         .SetPrimaryKey({"grp"})
                                         .Build())
                    .ok());
  }

  MigrationStatement SumsStatement() {
    MigrationStatement stmt;
    stmt.name = "sum_src";
    stmt.category = MigrationCategory::kManyToOne;
    stmt.input_tables = {"src"};
    stmt.output_tables = {"sums"};
    stmt.group_key_columns = {"grp"};
    stmt.provenance.AddPassThrough("grp", "src", "grp");
    stmt.provenance.AddDerived("total");
    stmt.group_transform =
        [](const Tuple& key,
           const std::vector<Tuple>& rows) -> Result<std::vector<TargetRow>> {
      if (rows.empty()) return std::vector<TargetRow>{};
      int64_t total = 0;
      for (const Tuple& r : rows) total += r[2].AsInt();
      return std::vector<TargetRow>{
          TargetRow{0, Tuple{key[0], Value::Int(total)}}};
    };
    return stmt;
  }

  Result<std::unique_ptr<StatementMigrator>> Make(MigrationStatement stmt,
                                                  LazyConfig config = {}) {
    return MakeStatementMigrator(&catalog_, &txns_, std::move(stmt), config);
  }

  uint64_t CountRows(const std::string& table) {
    Table* t = catalog_.FindTable(table);
    return t == nullptr ? 0 : t->NumLiveRows();
  }

  void DrainBackground(StatementMigrator* m) {
    bool done = false;
    int safety = 100000;
    while (!done && --safety > 0) {
      ASSERT_TRUE(m->MigrateBackgroundChunk(64, &done).ok());
    }
    ASSERT_TRUE(done);
  }

  Catalog catalog_;
  TransactionManager txns_;
  std::atomic<int> fail_transforms_{0};
};

TEST_F(MigratorTest, PredicateMigratesOnlyRelevantRows) {
  CreateSplitOutputs();
  auto m = Make(SplitStatement());
  ASSERT_TRUE(m.ok());
  // A point query on the new schema: only row id=42 must move.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(42))).ok());
  EXPECT_EQ(CountRows("out_a"), 1u);
  EXPECT_EQ(CountRows("out_b"), 1u);
  EXPECT_EQ((*m)->stats().units_migrated.load(), 1u);
  EXPECT_FALSE((*m)->IsComplete());
  // Re-running the same request migrates nothing more (fast path).
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(42))).ok());
  EXPECT_EQ(CountRows("out_a"), 1u);
  EXPECT_GE((*m)->stats().already_migrated_hits.load(), 1u);
}

TEST_F(MigratorTest, PredicateOnSecondaryColumnUsesIndex) {
  CreateSplitOutputs();
  auto m = Make(SplitStatement());
  ASSERT_TRUE(m.ok());
  // grp = 3 matches kRows / kGroups rows.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(3))).ok());
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows / kGroups));
}

TEST_F(MigratorTest, NullPredicateMigratesEverything) {
  CreateSplitOutputs();
  auto m = Make(SplitStatement());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(nullptr).ok());
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  EXPECT_EQ(CountRows("out_b"), static_cast<uint64_t>(kRows));
  EXPECT_TRUE((*m)->IsComplete());
  EXPECT_DOUBLE_EQ((*m)->Progress(), 1.0);
}

TEST_F(MigratorTest, BackgroundSweepCompletesMigration) {
  CreateSplitOutputs();
  auto m = Make(SplitStatement());
  ASSERT_TRUE(m.ok());
  // Seed some foreground work first.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(1))).ok());
  DrainBackground(m->get());
  EXPECT_TRUE((*m)->IsComplete());
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  // Exactly once: out_a PK would have rejected duplicates, but also the
  // row count proves no row was missed.
}

TEST_F(MigratorTest, PageGranularityMigratesWholeGranules) {
  CreateSplitOutputs();
  LazyConfig config;
  config.granularity = 64;
  auto m = Make(SplitStatement(), config);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(10))).ok());
  // The whole 64-row granule moved, not just row 10 (Fig 11 semantics).
  EXPECT_EQ(CountRows("out_a"), 64u);
  EXPECT_EQ((*m)->stats().units_migrated.load(), 1u);
}

class MigratorGranularityTest
    : public MigratorTest,
      public ::testing::WithParamInterface<uint64_t> {};

TEST_P(MigratorGranularityTest, FinalStateIndependentOfGranularity) {
  CreateSplitOutputs();
  LazyConfig config;
  config.granularity = GetParam();
  auto m = Make(SplitStatement(), config);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(2))).ok());
  DrainBackground(m->get());
  EXPECT_TRUE((*m)->IsComplete());
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  EXPECT_EQ(CountRows("out_b"), static_cast<uint64_t>(kRows));
}

INSTANTIATE_TEST_SUITE_P(Granularities, MigratorGranularityTest,
                         ::testing::Values(1, 3, 64, 128, 1024));

TEST_F(MigratorTest, TransformFailureResetsLockBitsAndIsRetryable) {
  CreateSplitOutputs();
  auto m = Make(SplitStatement());
  ASSERT_TRUE(m.ok());
  fail_transforms_.store(1);
  // First attempt hits the injected failure; the per-statement retry loop
  // retries with fresh transactions (§3.5 reset allows the retry).
  Status s = (*m)->MigrateForPredicate(Eq(Col("id"), LitInt(5)));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(CountRows("out_a"), 1u);
  EXPECT_GE((*m)->stats().txn_aborts.load(), 1u);
  // The abort undid the partial inserts: out_b must match out_a.
  EXPECT_EQ(CountRows("out_b"), 1u);
}

TEST_F(MigratorTest, ConcurrentOverlappingRequestsMigrateExactlyOnce) {
  CreateSplitOutputs();
  auto m = Make(SplitStatement());
  ASSERT_TRUE(m.ok());
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (int g = 0; g < kGroups; ++g) {
        Status s = (*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(g)));
        if (!s.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  // Exactly kRows outputs in each table: the PK constraints would have
  // failed a duplicate migration, and the counts prove nothing is missing.
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  EXPECT_EQ(CountRows("out_b"), static_cast<uint64_t>(kRows));
  EXPECT_TRUE((*m)->IsComplete());
}

// --- aggregates ---------------------------------------------------------

TEST_F(MigratorTest, AggregateMigratesWholeGroups) {
  CreateSumsOutput();
  auto m = Make(SumsStatement());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(4))).ok());
  Table* sums = catalog_.FindTable("sums");
  auto rows = CollectWhere(*sums, nullptr);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  // SUM of val over ids with id % kGroups == 4.
  int64_t expected = 0;
  for (int i = 4; i < kRows; i += kGroups) expected += i * 10;
  EXPECT_EQ(rows->front().second[1].AsInt(), expected);
}

TEST_F(MigratorTest, AggregatePredicateOnDerivedColumnMigratesAll) {
  CreateSumsOutput();
  auto m = Make(SumsStatement());
  ASSERT_TRUE(m.ok());
  // total is derived -> unpushable -> all groups are candidates (§2.4).
  ASSERT_TRUE((*m)->MigrateForPredicate(Gt(Col("total"), LitInt(0))).ok());
  EXPECT_EQ(CountRows("sums"), static_cast<uint64_t>(kGroups));
}

TEST_F(MigratorTest, AggregateBackgroundCompletes) {
  CreateSumsOutput();
  auto m = Make(SumsStatement());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(0))).ok());
  DrainBackground(m->get());
  EXPECT_TRUE((*m)->IsComplete());
  EXPECT_EQ(CountRows("sums"), static_cast<uint64_t>(kGroups));
  // Totals are correct for every group.
  Table* sums = catalog_.FindTable("sums");
  auto rows = CollectWhere(*sums, nullptr);
  ASSERT_TRUE(rows.ok());
  for (auto& [rid, row] : *rows) {
    const int64_t g = row[0].AsInt();
    int64_t expected = 0;
    for (int i = static_cast<int>(g); i < kRows; i += kGroups) {
      expected += i * 10;
    }
    EXPECT_EQ(row[1].AsInt(), expected) << "group " << g;
  }
}

TEST_F(MigratorTest, AggregateConcurrentExactlyOnce) {
  CreateSumsOutput();
  auto m = Make(SumsStatement());
  ASSERT_TRUE(m.ok());
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (int g = kGroups - 1; g >= 0; --g) {
        Status s = (*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(g)));
        if (!s.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  // One aggregate row per group — the PK on grp would have rejected a
  // double migration.
  EXPECT_EQ(CountRows("sums"), static_cast<uint64_t>(kGroups));
}

TEST_F(MigratorTest, AggregateBoundaryExcludesLateInserts) {
  CreateSumsOutput();
  auto m = Make(SumsStatement());
  ASSERT_TRUE(m.ok());
  // A row inserted after the migrator captured its boundary must not be
  // double-counted by migration (the application maintains it instead).
  Table* src = catalog_.FindTable("src");
  ASSERT_TRUE(src->Insert(Tuple{Value::Int(kRows + 1), Value::Int(0),
                                Value::Int(999999)})
                  .ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("grp"), LitInt(0))).ok());
  Table* sums = catalog_.FindTable("sums");
  auto rows = CollectWhere(*sums, Eq(Col("grp"), LitInt(0)));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  int64_t expected = 0;
  for (int i = 0; i < kRows; i += kGroups) expected += i * 10;
  EXPECT_EQ(rows->front().second[1].AsInt(), expected);
}

// --- every unit kind ----------------------------------------------------

/// The §3.7 and Fig 9 modes share one driver path with the tracked mode;
/// these hold for all five unit kinds (tests/unit_kinds.h).
class UnitKindMigratorTest : public ::testing::TestWithParam<UnitKind> {
 protected:
  static constexpr int kRows = 200;
  static constexpr int kGroups = 10;

  Result<std::unique_ptr<StatementMigrator>> Make(
      const LazyConfig& config,
      std::shared_ptr<FaultInjector> faults = nullptr) {
    return MakeStatementMigrator(&data_.catalog(), &data_.txns(),
                                 data_.Statement(GetParam(), faults), config);
  }

  static ExprPtr Group(int64_t g) { return Eq(Col("grp"), LitInt(g)); }

  UnitKindData data_{kRows, kGroups};
};

TEST_P(UnitKindMigratorTest, OnConflictModeProducesNoDuplicates) {
  LazyConfig config;
  config.duplicate_detection = DuplicateDetection::kOnConflictClause;
  auto m = Make(config);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Group(1)).ok());
  const std::set<int64_t> one = {1};
  EXPECT_EQ(data_.Output(GetParam()), data_.Expected(GetParam(), &one));
  // §3.7: conflicts are detected at insert; re-migrating does no harm.
  ASSERT_TRUE((*m)->MigrateForPredicate(Group(1)).ok());
  EXPECT_EQ(data_.Output(GetParam()), data_.Expected(GetParam(), &one));
  bool done = false;
  for (int safety = 0; !done && safety < 100000; ++safety) {
    ASSERT_TRUE((*m)->MigrateBackgroundChunk(16, &done).ok());
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(data_.Output(GetParam()), data_.Expected(GetParam()));
  // Every unit went through the blind ForceMigrated path.
  EXPECT_EQ((*m)->stats().units_forced.load(),
            (*m)->stats().units_migrated.load());
}

TEST_P(UnitKindMigratorTest, NoTrackingModeMigratesWithoutDataStructures) {
  LazyConfig config;
  config.maintain_tracker = false;
  auto m = Make(config);
  ASSERT_TRUE(m.ok());
  // Fig 9 mode: the workload guarantees exactly-once coverage itself.
  ASSERT_TRUE((*m)->MigrateForPredicate(Group(1)).ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Group(2)).ok());
  const std::set<int64_t> two = {1, 2};
  EXPECT_EQ(data_.Output(GetParam()), data_.Expected(GetParam(), &two));
  EXPECT_EQ((*m)->stats().units_lazy.load(),
            (*m)->stats().units_migrated.load());
  bool done = false;
  EXPECT_FALSE((*m)->MigrateBackgroundChunk(8, &done).ok());
}

TEST_P(UnitKindMigratorTest, NoTrackingModeRetriesRetryableFailures) {
  LazyConfig config;
  config.maintain_tracker = false;
  auto faults = std::make_shared<FaultInjector>();
  faults->fail_next = 1;
  auto m = Make(config, faults);
  ASSERT_TRUE(m.ok());
  // The first attempt hits the injected failure; the retry runs in a
  // fresh transaction, as in tracked mode.
  Status s = (*m)->MigrateForPredicate(Group(3));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(faults->fired.load(), 1u);
  EXPECT_EQ((*m)->stats().txn_retries.load(), 1u);
  const std::set<int64_t> three = {3};
  EXPECT_EQ(data_.Output(GetParam()), data_.Expected(GetParam(), &three));
  EXPECT_EQ((*m)->stats().units_lazy.load(),
            (*m)->stats().units_migrated.load());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, UnitKindMigratorTest, ::testing::ValuesIn(AllUnitKinds()),
    [](const ::testing::TestParamInfo<UnitKind>& info) {
      return UnitKindName(info.param);
    });

}  // namespace
}  // namespace bullfrog

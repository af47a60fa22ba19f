#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "migration/statement_migrator.h"
#include "query/scan.h"
#include "txn/txn_manager.h"

namespace bullfrog {
namespace {

/// Fixture: left(id, k, x) and right(k, y) joined on k into
/// joined(id, k, x, rk_y). Key k ranges over kKeys values; each key has
/// kLeftPerKey left rows and kRightPerKey right rows (true many-to-many).
class JoinMigratorTest : public ::testing::TestWithParam<JoinPolicy> {
 protected:
  static constexpr int kKeys = 12;
  static constexpr int kLeftPerKey = 8;
  static constexpr int kRightPerKey = 3;

  void SetUp() override {
    auto left = catalog_.CreateTable(SchemaBuilder("left")
                                         .AddColumn("id", ValueType::kInt64,
                                                    false)
                                         .AddColumn("k", ValueType::kInt64)
                                         .AddColumn("x", ValueType::kInt64)
                                         .SetPrimaryKey({"id"})
                                         .Build());
    ASSERT_TRUE(left.ok());
    ASSERT_TRUE(
        (*left)->CreateIndex("left_by_k", {"k"}, false, IndexKind::kHash)
            .ok());
    auto right = catalog_.CreateTable(SchemaBuilder("right")
                                          .AddColumn("rid", ValueType::kInt64,
                                                     false)
                                          .AddColumn("k", ValueType::kInt64)
                                          .AddColumn("y", ValueType::kInt64)
                                          .SetPrimaryKey({"rid"})
                                          .Build());
    ASSERT_TRUE(right.ok());
    ASSERT_TRUE(
        (*right)->CreateIndex("right_by_k", {"k"}, false, IndexKind::kHash)
            .ok());
    int id = 0;
    for (int k = 0; k < kKeys; ++k) {
      for (int i = 0; i < kLeftPerKey; ++i) {
        ASSERT_TRUE((*left)
                        ->Insert(Tuple{Value::Int(id++), Value::Int(k),
                                       Value::Int(k * 100 + i)})
                        .ok());
      }
    }
    int rid = 0;
    for (int k = 0; k < kKeys; ++k) {
      for (int i = 0; i < kRightPerKey; ++i) {
        ASSERT_TRUE((*right)
                        ->Insert(Tuple{Value::Int(rid++), Value::Int(k),
                                       Value::Int(k * 10 + i)})
                        .ok());
      }
    }
    ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("joined")
                                         .AddColumn("id", ValueType::kInt64,
                                                    false)
                                         .AddColumn("rid", ValueType::kInt64,
                                                    false)
                                         .AddColumn("k", ValueType::kInt64)
                                         .AddColumn("x", ValueType::kInt64)
                                         .AddColumn("y", ValueType::kInt64)
                                         .SetPrimaryKey({"id", "rid"})
                                         .Build())
                    .ok());
  }

  MigrationStatement JoinStatement(JoinPolicy policy) {
    MigrationStatement stmt;
    stmt.name = "join_lr";
    stmt.category = MigrationCategory::kManyToMany;
    stmt.input_tables = {"left", "right"};
    stmt.output_tables = {"joined"};
    stmt.left_join_column = "k";
    stmt.right_join_column = "k";
    stmt.join_policy = policy;
    stmt.provenance.AddPassThrough("id", "left", "id");
    stmt.provenance.AddPassThrough("x", "left", "x");
    stmt.provenance.AddPassThrough("k", "left", "k");
    stmt.provenance.AddPassThrough("k", "right", "k");
    stmt.provenance.AddPassThrough("rid", "right", "rid");
    stmt.provenance.AddPassThrough("y", "right", "y");
    stmt.join_transform =
        [](const Tuple& l, const Tuple& r) -> Result<std::vector<TargetRow>> {
      return std::vector<TargetRow>{
          TargetRow{0, Tuple{l[0], r[0], l[1], l[2], r[2]}}};
    };
    return stmt;
  }

  Result<std::unique_ptr<StatementMigrator>> Make(JoinPolicy policy,
                                                  LazyConfig config = {}) {
    return MakeStatementMigrator(&catalog_, &txns_, JoinStatement(policy),
                                 config);
  }

  uint64_t CountJoined() {
    return catalog_.FindTable("joined")->NumLiveRows();
  }

  static constexpr uint64_t kExpectedTotal =
      static_cast<uint64_t>(kKeys) * kLeftPerKey * kRightPerKey;

  void DrainBackground(StatementMigrator* m) {
    bool done = false;
    int safety = 100000;
    while (!done && --safety > 0) {
      ASSERT_TRUE(m->MigrateBackgroundChunk(16, &done).ok());
    }
    ASSERT_TRUE(done);
  }

  Catalog catalog_;
  TransactionManager txns_;
};

TEST_P(JoinMigratorTest, PredicateOnLeftSourcedColumnMigratesItsKeyClass) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  // A point query on id=0 (left pk). For the hash policy, the whole
  // join-key class of that row moves; bitmap policies move at least the
  // covering granule's joined pairs. In every case the query's own pairs
  // are present.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(0))).ok());
  Table* joined = catalog_.FindTable("joined");
  auto rows = CollectWhere(*joined, Eq(Col("id"), LitInt(0)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kRightPerKey));
}

TEST_P(JoinMigratorTest, JoinKeyPredicateMigratesFullClass) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("k"), LitInt(5))).ok());
  Table* joined = catalog_.FindTable("joined");
  auto rows = CollectWhere(*joined, Eq(Col("k"), LitInt(5)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(),
            static_cast<size_t>(kLeftPerKey * kRightPerKey));
}

TEST_P(JoinMigratorTest, BackgroundCompletesWithFullJoinResult) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("k"), LitInt(0))).ok());
  DrainBackground(m->get());
  EXPECT_TRUE((*m)->IsComplete());
  EXPECT_EQ(CountJoined(), kExpectedTotal);
}

TEST_P(JoinMigratorTest, ConcurrentRequestsProduceExactJoin) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int w = 0; w < 6; ++w) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        Status s = (*m)->MigrateForPredicate(Eq(Col("k"), LitInt(k)));
        if (!s.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(CountJoined(), kExpectedTotal);
  // Verify the actual pair set, not just the count.
  Table* joined = catalog_.FindTable("joined");
  std::set<std::pair<int64_t, int64_t>> pairs;
  joined->Scan([&](RowId, const Tuple& row) {
    pairs.emplace(row[0].AsInt(), row[1].AsInt());
    return true;
  });
  EXPECT_EQ(pairs.size(), kExpectedTotal);
}

TEST_P(JoinMigratorTest, RightSourcedPredicateNarrowsThroughJoinKey) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  // y is right-sourced; rows with y = 70 belong to key 7 only. Whatever
  // the tracking policy, the pairs the request needs (every left row of
  // key 7 joined with the y=70 right row) must be present afterwards.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("y"), LitInt(70))).ok());
  Table* joined = catalog_.FindTable("joined");
  auto rows = CollectWhere(*joined, Eq(Col("y"), LitInt(70)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kLeftPerKey));
  // The hash policy migrates exactly the key-7 class and nothing else.
  if (GetParam() == JoinPolicy::kHashJoinKey) {
    auto cls = CollectWhere(*joined, Eq(Col("k"), LitInt(7)));
    ASSERT_TRUE(cls.ok());
    EXPECT_EQ(cls->size(), static_cast<size_t>(kLeftPerKey * kRightPerKey));
    auto others = CollectWhere(*joined, Ne(Col("k"), LitInt(7)));
    ASSERT_TRUE(others.ok());
    EXPECT_TRUE(others->empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, JoinMigratorTest,
    ::testing::Values(JoinPolicy::kHashJoinKey,
                      JoinPolicy::kTrackForeignSideOnly,
                      JoinPolicy::kMigrateAllSiblings),
    [](const auto& info) {
      switch (info.param) {
        case JoinPolicy::kHashJoinKey:
          return "HashJoinKey";
        case JoinPolicy::kTrackForeignSideOnly:
          return "TrackForeignSide";
        case JoinPolicy::kMigrateAllSiblings:
          return "MigrateAllSiblings";
      }
      return "Unknown";
    });

TEST(JoinMigratorValidationTest, RequiresTwoInputs) {
  Catalog catalog;
  TransactionManager txns;
  MigrationStatement stmt;
  stmt.name = "bad";
  stmt.input_tables = {"only_one"};
  stmt.output_tables = {"out"};
  stmt.join_transform = [](const Tuple&,
                           const Tuple&) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{};
  };
  EXPECT_FALSE(MakeStatementMigrator(&catalog, &txns, stmt, {}).ok());
}

}  // namespace
}  // namespace bullfrog

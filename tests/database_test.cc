#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"

namespace bullfrog {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(SchemaBuilder("users")
                                    .AddColumn("id", ValueType::kInt64, false)
                                    .AddColumn("name", ValueType::kString)
                                    .AddColumn("age", ValueType::kInt64)
                                    .SetPrimaryKey({"id"})
                                    .Build())
                    .ok());
    auto s = db_.BeginSession({"users"});
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_.Insert(&s, "users",
                             Tuple{Value::Int(i),
                                   Value::Str("u" + std::to_string(i)),
                                   Value::Int(20 + i)})
                      .ok());
    }
    ASSERT_TRUE(db_.Commit(&s).ok());
  }

  Database db_;
};

TEST_F(DatabaseTest, SelectWithPredicate) {
  auto s = db_.BeginSession({"users"});
  auto rows = db_.Select(&s, "users", Eq(Col("id"), LitInt(5)));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front().second[1].AsString(), "u5");
  ASSERT_TRUE(db_.Commit(&s).ok());
}

TEST_F(DatabaseTest, InsertDuplicatePkFails) {
  auto s = db_.BeginSession({"users"});
  EXPECT_TRUE(db_.Insert(&s, "users",
                         Tuple{Value::Int(5), Value::Str("dup"),
                               Value::Int(1)})
                  .IsAlreadyExists());
  ASSERT_TRUE(db_.Abort(&s).ok());
}

TEST_F(DatabaseTest, UpdateAppliesUpdaterUnderPredicate) {
  auto s = db_.BeginSession({"users"});
  auto n = db_.Update(&s, "users", Gt(Col("age"), LitInt(35)),
                      [](const Tuple& t) {
                        Tuple u = t;
                        u[2] = Value::Int(t[2].AsInt() + 100);
                        return u;
                      });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);  // ages 36..39.
  ASSERT_TRUE(db_.Commit(&s).ok());
  auto s2 = db_.BeginSession({"users"});
  auto rows = db_.Select(&s2, "users", Gt(Col("age"), LitInt(100)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  ASSERT_TRUE(db_.Commit(&s2).ok());
}

TEST_F(DatabaseTest, DeleteRemovesMatchingRows) {
  auto s = db_.BeginSession({"users"});
  auto n = db_.Delete(&s, "users", Lt(Col("id"), LitInt(3)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  ASSERT_TRUE(db_.Commit(&s).ok());
  auto s2 = db_.BeginSession({"users"});
  auto rows = db_.Select(&s2, "users", nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 17u);
  ASSERT_TRUE(db_.Commit(&s2).ok());
}

TEST_F(DatabaseTest, AbortRollsBackAllSessionWrites) {
  auto s = db_.BeginSession({"users"});
  ASSERT_TRUE(db_.Insert(&s, "users",
                         Tuple{Value::Int(100), Value::Str("x"),
                               Value::Int(1)})
                  .ok());
  auto n = db_.Update(&s, "users", Eq(Col("id"), LitInt(1)),
                      [](const Tuple& t) {
                        Tuple u = t;
                        u[1] = Value::Str("changed");
                        return u;
                      });
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(db_.Abort(&s).ok());

  auto s2 = db_.BeginSession({"users"});
  auto inserted = db_.Select(&s2, "users", Eq(Col("id"), LitInt(100)));
  ASSERT_TRUE(inserted.ok());
  EXPECT_TRUE(inserted->empty());
  auto updated = db_.Select(&s2, "users", Eq(Col("id"), LitInt(1)));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->front().second[1].AsString(), "u1");
  ASSERT_TRUE(db_.Commit(&s2).ok());
}

TEST_F(DatabaseTest, SelectForUpdateBlocksConcurrentWriter) {
  auto s1 = db_.BeginSession({"users"});
  auto rows = db_.Select(&s1, "users", Eq(Col("id"), LitInt(2)),
                         /*for_update=*/true);
  ASSERT_TRUE(rows.ok());
  // A younger session's write must die (wait-die).
  auto s2 = db_.BeginSession({"users"});
  auto n = db_.Update(&s2, "users", Eq(Col("id"), LitInt(2)),
                      [](const Tuple& t) { return t; });
  EXPECT_TRUE(n.status().IsRetryable());
  ASSERT_TRUE(db_.Abort(&s2).ok());
  ASSERT_TRUE(db_.Commit(&s1).ok());
}

TEST_F(DatabaseTest, UpdatePredicateRecheckSkipsChangedRows) {
  // A row deleted between scan and lock must be skipped, not crash.
  auto s = db_.BeginSession({"users"});
  auto n = db_.Delete(&s, "users", Eq(Col("id"), LitInt(4)));
  ASSERT_TRUE(n.ok());
  auto m = db_.Update(&s, "users", Eq(Col("id"), LitInt(4)),
                      [](const Tuple& t) { return t; });
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 0u);
  ASSERT_TRUE(db_.Commit(&s).ok());
}

TEST_F(DatabaseTest, UpdateSkipsRowThatStoppedMatchingAfterTheScan) {
  // The statement scans ids 0..2 (age < 23), then locks and re-checks each
  // row in turn. While it processes id 0, a second session moves id 2 out
  // of the predicate and commits: id 2 matched at scan time but not at
  // lock time, so the re-check under the lock must skip it.
  auto s = db_.BeginSession({"users"});
  bool moved = false;
  auto n = db_.Update(&s, "users", Lt(Col("age"), LitInt(23)),
                      [&](const Tuple& t) {
                        if (!moved) {
                          moved = true;
                          auto other = db_.BeginSession({"users"});
                          auto m = db_.Update(
                              &other, "users", Eq(Col("id"), LitInt(2)),
                              [](const Tuple& r) {
                                Tuple u = r;
                                u[2] = Value::Int(99);
                                return u;
                              });
                          EXPECT_TRUE(m.ok() && *m == 1u);
                          EXPECT_TRUE(db_.Commit(&other).ok());
                        }
                        Tuple u = t;
                        u[2] = Value::Int(t[2].AsInt() + 100);
                        return u;
                      });
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  ASSERT_TRUE(db_.Commit(&s).ok());

  auto r = db_.BeginSession({"users"});
  auto rows = db_.Select(&r, "users", Le(Col("id"), LitInt(2)));
  ASSERT_TRUE(rows.ok());
  std::map<int64_t, int64_t> age_by_id;
  for (const auto& [rid, row] : *rows) age_by_id[row[0].AsInt()] = row[2].AsInt();
  EXPECT_EQ(age_by_id[0], 120);
  EXPECT_EQ(age_by_id[1], 121);
  EXPECT_EQ(age_by_id[2], 99);  // Skipped, not overwritten with 199.
  ASSERT_TRUE(db_.Commit(&r).ok());
}

TEST_F(DatabaseTest, BulkInsertBypassesSessions) {
  ASSERT_TRUE(db_.CreateTable(SchemaBuilder("bulk")
                                  .AddColumn("id", ValueType::kInt64, false)
                                  .SetPrimaryKey({"id"})
                                  .Build())
                  .ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(Tuple{Value::Int(i)});
  ASSERT_TRUE(db_.BulkInsert("bulk", rows).ok());
  EXPECT_EQ(db_.catalog().FindTable("bulk")->NumLiveRows(), 50u);
}

TEST_F(DatabaseTest, EndToEndLazyMigrationThroughFacade) {
  // users -> names(id, name) + ages(id, age), then query through the
  // facade: lazy migration is transparent.
  MigrationPlan plan;
  plan.name = "split_users";
  plan.new_tables = {SchemaBuilder("names")
                         .AddColumn("id", ValueType::kInt64, false)
                         .AddColumn("name", ValueType::kString)
                         .SetPrimaryKey({"id"})
                         .Build(),
                     SchemaBuilder("ages")
                         .AddColumn("id", ValueType::kInt64, false)
                         .AddColumn("age", ValueType::kInt64)
                         .SetPrimaryKey({"id"})
                         .Build()};
  plan.retire_tables = {"users"};
  MigrationStatement stmt;
  stmt.name = "split";
  stmt.category = MigrationCategory::kOneToMany;
  stmt.input_tables = {"users"};
  stmt.output_tables = {"names", "ages"};
  stmt.provenance.AddPassThrough("id", "users", "id");
  stmt.provenance.AddPassThrough("name", "users", "name");
  stmt.provenance.AddPassThrough("age", "users", "age");
  stmt.row_transform =
      [](const Tuple& in) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{TargetRow{0, Tuple{in[0], in[1]}},
                                  TargetRow{1, Tuple{in[0], in[2]}}};
  };
  plan.statements.push_back(std::move(stmt));

  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.lazy.background_start_delay_ms = 20;
  opts.lazy.background_pause_us = 0;
  ASSERT_TRUE(db_.SubmitMigration(std::move(plan), opts).ok());

  // Old schema rejected immediately.
  {
    auto s = db_.BeginSession({"users"});
    EXPECT_FALSE(db_.Select(&s, "users", nullptr).ok());
    ASSERT_TRUE(db_.Abort(&s).ok());
  }
  // New schema queryable immediately; relevant tuple migrates on demand.
  {
    auto s = db_.BeginSession({"names"});
    auto rows = db_.Select(&s, "names", Eq(Col("id"), LitInt(3)));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(rows->front().second[1].AsString(), "u3");
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  // Writes against the new schema work mid-migration.
  {
    auto s = db_.BeginSession({"ages"});
    auto n = db_.Update(&s, "ages", Eq(Col("id"), LitInt(3)),
                        [](const Tuple& t) {
                          Tuple u = t;
                          u[1] = Value::Int(99);
                          return u;
                        });
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1u);
    ASSERT_TRUE(db_.Commit(&s).ok());
  }
  // Background completes; totals line up; the client write survived.
  Stopwatch sw;
  while (!db_.controller().IsComplete() && sw.ElapsedMillis() < 10000) {
    Clock::SleepMillis(5);
  }
  ASSERT_TRUE(db_.controller().IsComplete());
  EXPECT_EQ(db_.catalog().FindTable("names")->NumLiveRows(), 20u);
  EXPECT_EQ(db_.catalog().FindTable("ages")->NumLiveRows(), 20u);
  auto s = db_.BeginSession({"ages"});
  auto rows = db_.Select(&s, "ages", Eq(Col("id"), LitInt(3)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->front().second[1].AsInt(), 99);
  ASSERT_TRUE(db_.Commit(&s).ok());
}

}  // namespace
}  // namespace bullfrog
